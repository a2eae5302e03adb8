import numpy as np
import pytest

from fftmix import filters as flt
from fftmix import model as mdl
from fftmix import numerics as nx
from fftmix.numerics import Tensor, grad_check


def window(alpha, bias, variant, channels=1):
    return flt.WindowParams(
        Tensor(np.full(channels, alpha)), Tensor(np.full(channels, bias)), variant
    )


class TestBasis1D:
    def test_k1_single_ones_column(self):
        basis = flt.build_basis_1d(6, 1)
        assert basis.features.shape == (6, 1)
        assert np.array_equal(basis.features, np.ones((6, 1)))

    def test_sin_column_closed_form(self):
        basis = flt.build_basis_1d(4, 2)
        assert abs(basis.features[1, 1] - 1.0) < 1e-15  # sin(2*pi/4)

    def test_constant_column_and_zero_mean(self):
        basis = flt.build_basis_1d(12, 4)
        assert np.array_equal(basis.features[:, 0], np.ones(12))
        means = basis.features[:, 1:].mean(axis=0)
        assert np.abs(means).max() < 1e-9

    def test_gram_matrix_diagonal_over_period(self):
        basis = flt.build_basis_1d(16, 5)
        gram = basis.features.T @ basis.features
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-9

    def test_centered_zero_mean_and_gram(self):
        basis = flt.build_basis_1d(15, 4, centered=True)
        assert basis.positions[0] == -7 and basis.positions[-1] == 7
        assert np.abs(basis.features[:, 1:].mean(axis=0)).max() < 1e-9
        gram = basis.features.T @ basis.features
        assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-9

    def test_errors(self):
        with pytest.raises(ValueError):
            flt.build_basis_1d(4, 0)
        with pytest.raises(ValueError):
            flt.build_basis_1d(4, 2, centered=True)  # even centered grid


class TestBasis2D:
    def test_center_row_features(self):
        basis = flt.build_basis_2d(5, 5, 8)
        center = np.where((basis.positions == 0).all(axis=1))[0][0]
        feats = basis.features[center]
        sins = feats[[0, 2, 4, 6]]
        coss = feats[[1, 3, 5, 7]]
        assert np.abs(sins).max() < 1e-15
        assert np.abs(coss - 1.0).max() < 1e-15

    def test_mirror_symmetry(self):
        basis = flt.build_basis_2d(4, 6, 8)
        pos = {tuple(p): i for i, p in enumerate(basis.positions)}
        for (ty, tx), i in pos.items():
            j = pos[(-ty, -tx)]
            fi, fj = basis.features[i], basis.features[j]
            assert np.abs(fi[[0, 2, 4, 6]] + fj[[0, 2, 4, 6]]).max() < 1e-12  # sines negate
            assert np.abs(fi[[1, 3, 5, 7]] - fj[[1, 3, 5, 7]]).max() < 1e-12  # cosines match

    def test_grid_row_count(self):
        basis = flt.build_basis_2d(7, 7, 4)
        assert basis.features.shape[0] == 13 * 13 == 169

    def test_swap_invariant_permutes_halves(self):
        basis = flt.build_basis_2d(5, 5, 8)
        pos = {tuple(p): i for i, p in enumerate(basis.positions)}
        for (ty, tx), i in pos.items():
            j = pos[(tx, ty)]
            fi, fj = basis.features[i], basis.features[j]
            assert np.abs(fi[:4] - fj[4:]).max() < 1e-12
            assert np.abs(fi[4:] - fj[:4]).max() < 1e-12

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            flt.build_basis_2d(4, 4, 5)


class TestWindow:
    def test_center_value_is_one_plus_bias(self):
        for variant, pos in [
            ("causal", np.array([0.0, 1, 2])),
            ("bidirectional", np.array([-1.0, 0, 1])),
            ("radial2d", np.array([[0.0, 0.0], [1.0, 0.0]])),
        ]:
            w = window(0.7, 0.25, variant)
            vals = flt.eval_window(w, pos).data
            center = np.argmin(flt.window_distances(w, pos))
            assert abs(vals[center, 0] - 1.25) < 1e-12

    def test_bidirectional_half_at_unit_distance(self):
        w = window(np.log(2.0), 0.0, "bidirectional")
        vals = flt.eval_window(w, np.array([-1.0, 0.0, 1.0])).data[:, 0]
        assert abs(vals[0] - 0.5) < 1e-12
        assert abs(vals[2] - 0.5) < 1e-12

    def test_bidirectional_evenness_exact(self):
        w = window(0.37, 0.11, "bidirectional")
        pos = np.arange(-6.0, 7.0)
        vals = flt.eval_window(w, pos).data[:, 0]
        assert np.array_equal(vals, vals[::-1])

    def test_radial_equal_distance_ring(self):
        w = window(0.9, 0.05, "radial2d")
        ring = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        vals = flt.eval_window(w, ring).data[:, 0]
        assert np.all(vals == vals[0])  # exact symmetry on the sqrt(2) ring

    def test_radial_monotone_in_distance(self):
        w = window(0.8, 0.0, "radial2d")
        basis = flt.build_basis_2d(6, 6, 4)
        vals = flt.eval_window(w, basis.positions).data[:, 0]
        dist = flt.window_distances(w, basis.positions)
        order = np.argsort(dist)
        assert np.all(np.diff(vals[order]) <= 1e-15)

    def test_causal_non_increasing(self):
        w = window(0.3, 0.0, "causal")
        vals = flt.eval_window(w, np.arange(10.0)).data[:, 0]
        assert np.all(np.diff(vals) <= 0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            window(-0.1, 0.0, "causal")


class TestMaterialize:
    def test_huge_alpha_kills_offcenter_taps(self, rng):
        basis = flt.build_basis_1d(9, 3, centered=True)
        ffn = flt.init_filter_ffn(5, 6, 2, 9, rng)
        w = window(1e6, 0.0, "bidirectional", channels=2)
        kernel = flt.materialize_filter(basis, ffn, w).data
        off_center = kernel[basis.positions != 0]
        assert np.abs(off_center).max() < 1e-30

    def test_constant_ffn_returns_window(self, rng):
        basis = flt.build_basis_1d(7, 2, centered=True)
        ffn = flt.init_filter_ffn(3, 4, 2, 7, rng)
        for wt, bt in ffn.weights:
            wt.data[:] = 0.0
            bt.data[:] = 0.0
        ffn.weights[-1][1].data[:] = 1.0  # output bias 1 -> FFN == 1
        w = window(0.4, 0.2, "bidirectional", channels=2)
        kernel = flt.materialize_filter(basis, ffn, w).data
        expected = flt.eval_window(w, basis.positions).data
        assert np.abs(kernel - expected).max() < 1e-15

    def test_stage1_kernel_shape(self, rng):
        # Feature extent 56 -> kernel grid 111 x 111, 64 channels.
        basis = flt.build_basis_2d(56, 56, 32)
        ffn = flt.init_filter_ffn(32, 64, 64, basis.features.shape[0], rng)
        w = flt.init_window_params(64, 56, "radial2d", rng)
        kernel = flt.materialize_filter(basis, ffn, w)
        assert kernel.shape == (111 * 111, 64)

    def test_channel_mismatch_rejected(self, rng):
        basis = flt.build_basis_1d(5, 2)
        ffn = flt.init_filter_ffn(3, 4, 3, 5, rng)
        w = window(0.5, 0.0, "causal", channels=2)
        with pytest.raises(ValueError):
            flt.materialize_filter(basis, ffn, w)

    def test_differentiable_end_to_end(self, rng):
        basis = flt.build_basis_1d(7, 2, centered=True)
        ffn = flt.init_filter_ffn(3, 4, 2, 7, rng)
        w = flt.init_window_params(2, 7, "bidirectional", rng)
        probe = Tensor(rng.normal(size=(7, 2)))

        def f(w0, b0, w1, b1, w2, b2, alpha, bias):
            ffn2 = flt.FilterFFN([(w0, b0), (w1, b1), (w2, b2)])
            win2 = flt.WindowParams(alpha, bias, "bidirectional")
            k = flt.materialize_filter(basis, ffn2, win2)
            return nx.tensor_sum(nx.mul(nx.square(k), probe))

        inputs = [t for pair in ffn.weights for t in pair] + [w.alpha, w.bias]
        assert grad_check(f, inputs) < 1e-5


class TestResample:
    def _filter(self, rng, length=9):
        basis = flt.build_basis_1d(length, 3, centered=True)
        ffn = flt.init_filter_ffn(5, 6, 2, length, rng)
        w = flt.init_window_params(2, length, "bidirectional", rng)
        return basis, ffn, w

    def test_same_size_is_bitwise_identical(self, rng):
        basis, ffn, w = self._filter(rng)
        base = flt.materialize_filter(basis, ffn, w).data
        again = flt.resample_filter(ffn, w, 9, 9).data
        assert np.array_equal(base, again)

    def test_resampled_stage_extents_for_384px(self, rng):
        # Kernel extents 111/55/27/13 trained at 224px resample to 191/95/47/23.
        for old, new, feat in zip((111, 55, 27, 13), (191, 95, 47, 23), (96, 48, 24, 12)):
            assert new == 2 * feat - 1
            basis = flt.build_basis_2d((old + 1) // 2, (old + 1) // 2, 4)
            ffn = flt.init_filter_ffn(4, 4, 1, basis.features.shape[0], rng)
            w = flt.init_window_params(1, (old + 1) // 2, "radial2d", rng)
            kernel = flt.resample_filter(ffn, w, (old, old), (new, new))
            assert kernel.shape == (new * new, 1)

    def test_odd_ratio_coincident_points_match(self, rng):
        basis, ffn, w = self._filter(rng, length=9)
        old = flt.materialize_filter(basis, ffn, w).data  # offsets -4..4
        up = flt.resample_filter(ffn, w, 9, 27).data  # offsets -13..13
        # Offset t on the old grid coincides with 3t on the new grid.
        for i, t in enumerate(range(-4, 5)):
            j = 3 * t + 13
            assert np.abs(old[i] - up[j]).max() < 1e-9

    def test_new_size_validation(self, rng):
        _, ffn, w = self._filter(rng)
        with pytest.raises(ValueError):
            flt.resample_filter(ffn, w, 9, 0)

    @pytest.mark.parametrize("variant", ["bidirectional", "causal"])
    @pytest.mark.parametrize("old, new, name", [(9, (27, 27), "new_size"), ((9, 9), 27, "old_size"),
                                                (9, (27,), "new_size")])
    def test_one_dimensional_window_takes_one_extent(self, rng, variant, old, new, name):
        ffn = flt.init_filter_ffn(5, 6, 2, 9, rng)
        w = flt.init_window_params(2, 9, variant, rng)
        with pytest.raises(ValueError, match=f"{name} .*: a {variant} window takes one extent"):
            flt.resample_filter(ffn, w, old, new)

    @pytest.mark.parametrize("old, new, name", [(9, (27, 27, 27), "new_size"),
                                                ((9, 9, 9), (27, 27), "old_size"),
                                                (9, [[27, 27]], "new_size")])
    def test_two_dimensional_window_takes_at_most_two_extents(self, rng, old, new, name):
        ffn = flt.init_filter_ffn(4, 4, 1, 25, rng)
        w = flt.init_window_params(1, 5, "radial2d", rng)
        with pytest.raises(ValueError, match=f"{name} .*: a radial2d window takes one or two extents"):
            flt.resample_filter(ffn, w, old, new)
        assert flt.resample_filter(ffn, w, 9, (27, 9)).shape == (27 * 9, 1)


class TestKernelExtents:
    @pytest.mark.parametrize(
        "preset",
        [f"{layout}-{size}" for layout in ("hpx", "hb", "chpx") for size in ("s4", "s12", "s18")],
    )
    def test_every_stage_of_every_preset(self, preset):
        config = mdl.preset_config(preset)
        for stage in range(4):
            mc = config.mixer_config(stage)
            fy, fx = config.stage_extents()[stage]
            if mc.variant == "bidirectional":
                assert mc.filter_extent() == 2 * fy * fx - 1
            elif mc.variant == "global2d":
                assert mc.filter_extent() == (2 * fy - 1, 2 * fx - 1)
            elif mc.variant == "causal":
                assert mc.filter_extent() == fy * fx

    def test_micro_extents(self):
        config = mdl.micro_config("bidirectional")
        lengths = [config.mixer_config(s).filter_extent() for s in range(4)]
        assert lengths == [127, 31, 7, 1]
