import hashlib
import re
from collections import Counter

import numpy as np
import pytest

from conftest import FFT_ENTRY_POINTS
from fftmix import mixers as mx
from fftmix import model as mdl
from fftmix import numerics as nx
from fftmix.numerics import GradTape, Tensor, grad_check


# ---------------------------------------------------------------------------
# Plain-numpy oracles: recompute the whole mixer by direct summation.
# ---------------------------------------------------------------------------


def oracle_project(x, proj):
    wide = x @ proj.pointwise_w.data + proj.pointwise_b.data
    out = np.zeros_like(wide)
    spatial = wide.shape[:-1]
    for t, off in enumerate(proj.offsets):
        w = proj.depthwise_w.data[t]
        if len(off) == 1:
            (o,) = off
            for i in range(spatial[-1]):
                j = i - o
                if 0 <= j < spatial[-1]:
                    out[..., i, :] += w * wide[..., j, :]
        else:
            oy, ox = off
            for iy in range(spatial[-2]):
                jy = iy - oy
                if not 0 <= jy < spatial[-2]:
                    continue
                for ix in range(spatial[-1]):
                    jx = ix - ox
                    if 0 <= jx < spatial[-1]:
                        out[..., iy, ix, :] += w * wide[..., jy, jx, :]
        pass
    out += proj.depthwise_b.data
    c = proj.channels
    return out[..., :c], out[..., c : 2 * c], out[..., 2 * c :]


def oracle_causal(x, mixer):
    length = x.shape[0]
    q, k, v = oracle_project(x, mixer.proj)
    qk = q * k
    h = mixer.kernel(0).data
    g = np.zeros_like(qk)
    for i in range(length):
        for s in range(min(i + 1, h.shape[0])):
            g[i] += h[s] * qk[i - s]
    return (g * v) @ mixer.out_proj.data


def oracle_bidirectional(x, mixer):
    length = x.shape[0]
    q, k, v = oracle_project(x, mixer.proj)
    qk = q * k
    h = mixer.kernel(0).data  # offsets -(L-1)..L-1
    g = np.zeros_like(qk)
    for i in range(length):
        for s in range(length):
            g[i] += qk[s] * h[i - s + length - 1]
    return (g * v) @ mixer.out_proj.data


def oracle_global2d(x, mixer, kernel=None):
    ey, ex, _ = x.shape
    q, k, v = oracle_project(x, mixer.proj)
    qk = q * k
    h = mixer.kernel(0).data if kernel is None else kernel
    h = h.reshape(2 * ey - 1, 2 * ex - 1, -1)
    g = np.zeros_like(qk)
    for iy in range(ey):
        for ix in range(ex):
            for sy in range(ey):
                for sx in range(ex):
                    g[iy, ix] += qk[sy, sx] * h[iy - sy + ey - 1, ix - sx + ex - 1]
    return (g * v) @ mixer.out_proj.data


def identity_projection(proj):
    """q = k = v = x: stacked identity pointwise, impulse depthwise."""
    c = proj.channels
    proj.pointwise_w.data[:] = np.concatenate([np.eye(c)] * 3, axis=1)
    proj.pointwise_b.data[:] = 0.0
    proj.depthwise_w.data[:] = 0.0
    center = proj.offsets.index(tuple([0] * len(proj.axes)))
    proj.depthwise_w.data[center] = 1.0
    proj.depthwise_b.data[:] = 0.0


def centered_impulse_kernel(mixer, index=0):
    f = mixer.filters[index]
    kernel = np.zeros((len(f.basis.features), mixer.config.channels))
    pos = f.basis.positions
    if pos.ndim == 1:
        center = int(np.where(pos == 0)[0][0])
    else:
        center = int(np.where((pos == 0).all(axis=1))[0][0])
    kernel[center] = 1.0
    return kernel


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


class TestProjection:
    def test_identity_construction_passes_input(self, rng):
        cfg = mx.MixerConfig("bidirectional", channels=3, extent=6, embed_dim=2)
        mixer = mx.GatedConvMixer(cfg, rng)
        identity_projection(mixer.proj)
        x = Tensor(rng.normal(size=(6, 3)))
        q, k, v = mx.project_qkv(x, mixer.proj)
        for t in (q, k, v):
            assert np.abs(t.data - x.data).max() < 1e-15

    def test_stage1_s18_output_channels(self, rng):
        cfg = mx.MixerConfig("global2d", channels=64, extent=(8, 8), embed_dim=32)
        proj = mx.init_gate_projection(cfg, rng)
        assert proj.pointwise_w.shape == (64, 192)
        x = Tensor(rng.normal(size=(8, 8, 64)))
        q, k, v = mx.project_qkv(x, proj)
        assert q.shape[-1] == k.shape[-1] == v.shape[-1] == 64

    def test_gradient(self, rng):
        cfg = mx.MixerConfig("bidirectional", channels=2, extent=5, embed_dim=2)
        proj = mx.init_gate_projection(cfg, rng)
        x = Tensor(rng.normal(size=(5, 2)))

        def f(pw, pb, dw, db):
            p2 = mx.GateProjection(pw, pb, dw, db, proj.offsets, proj.axes)
            q, k, v = mx.project_qkv(x, p2)
            return nx.tensor_sum(nx.mul(nx.mul(q, k), v))

        err = grad_check(f, [proj.pointwise_w, proj.pointwise_b, proj.depthwise_w, proj.depthwise_b])
        assert err < 1e-5

    def test_channel_mismatch(self, rng):
        cfg = mx.MixerConfig("bidirectional", channels=3, extent=4, embed_dim=2)
        proj = mx.init_gate_projection(cfg, rng)
        with pytest.raises(ValueError):
            mx.project_qkv(Tensor(rng.normal(size=(4, 5))), proj)


# ---------------------------------------------------------------------------
# Gated variants
# ---------------------------------------------------------------------------


def gating_identity_case(variant, extent, rng):
    cfg = mx.MixerConfig(variant, channels=3, extent=extent, embed_dim=4)
    mixer = mx.GatedConvMixer(cfg, rng)
    identity_projection(mixer.proj)
    mixer.out_proj.data[:] = np.eye(3)
    return mixer


class TestCausal:
    def test_impulse_kernel_gives_elementwise_product(self, rng):
        mixer = gating_identity_case("causal", 8, rng)
        x = rng.normal(size=(8, 3))
        kernel = np.zeros((8, 3))
        kernel[0] = 1.0
        y = mixer.forward(Tensor(x), kernel_override=kernel).data
        assert np.abs(y - x * x * x).max() < 1e-12

    def test_causality_is_bitwise(self, rng):
        cfg = mx.MixerConfig("causal", channels=3, extent=12, embed_dim=2)
        mixer = mx.GatedConvMixer(cfg, rng)
        x = rng.normal(size=(12, 3))
        y = mixer.forward(Tensor(x)).data
        x2 = x.copy()
        x2[7:] = 99.0
        y2 = mixer.forward(Tensor(x2)).data
        assert np.array_equal(y[:7], y2[:7])

    def test_matches_direct_oracle(self, rng):
        cfg = mx.MixerConfig("causal", channels=4, extent=32, embed_dim=4)
        mixer = mx.GatedConvMixer(cfg, rng)
        x = rng.normal(size=(32, 4))
        y = mixer.forward(Tensor(x)).data
        assert np.abs(y - oracle_causal(x, mixer)).max() < 1e-10

    def test_future_jacobian_exactly_zero(self, rng):
        cfg = mx.MixerConfig("causal", channels=2, extent=9, embed_dim=2)
        mixer = mx.GatedConvMixer(cfg, rng)
        x = Tensor(rng.normal(size=(9, 2)), requires_grad=True)
        for i in range(9):
            with GradTape() as tape:
                y = mixer.forward(x)
                target = nx.tensor_sum(nx.crop(y, [slice(i, i + 1), slice(None)]))
            g = tape.gradient(target, [x])[0].data
            assert np.array_equal(g[i + 1 :], np.zeros_like(g[i + 1 :]))

    def test_kernel_override_length(self, rng):
        cfg = mx.MixerConfig("causal", channels=2, extent=6, embed_dim=2)
        mixer = mx.GatedConvMixer(cfg, rng)
        x = Tensor(rng.normal(size=(6, 2)))
        with pytest.raises(ValueError, match="kernel longer than sequence"):
            mixer.forward(x, kernel_override=rng.normal(size=(7, 2)))
        short = rng.normal(size=(3, 2))
        padded = np.concatenate([short, np.zeros((3, 2))])
        y_short = mixer.forward(x, kernel_override=short).data
        assert np.abs(y_short - mixer.forward(x, kernel_override=padded).data).max() < 1e-12

    def test_rejects_2d_feature_maps(self, rng):
        cfg = mx.MixerConfig("causal", channels=2, extent=4, embed_dim=2)
        mixer = mx.GatedConvMixer(cfg, rng)
        with pytest.raises(ValueError):
            mixer.forward(Tensor(rng.normal(size=(1, 4, 4, 2))))  # rank-4 map batch
        with pytest.raises(ValueError):
            mixer.forward(Tensor(rng.normal(size=(5, 2))))  # wrong length


class TestBidirectional:
    def test_center_impulse_gives_elementwise_product(self, rng):
        mixer = gating_identity_case("bidirectional", 6, rng)
        x = rng.normal(size=(6, 3))
        y = mixer.forward(Tensor(x), kernel_override=centered_impulse_kernel(mixer)).data
        assert np.abs(y - x * x * x).max() < 1e-12

    def test_all_ones_kernel_full_coverage(self, rng):
        mixer = gating_identity_case("bidirectional", 7, rng)
        x = np.zeros((7, 3))
        x[3] = 1.0  # impulse input -> q*k is an impulse at position 3
        ones = np.ones((13, 3))
        # Probe the g-branch via v == x trick: y = g(q*k) * v; read conv output
        # by making v all ones instead (bias trick on the projection).
        mixer.proj.pointwise_w.data[:, 6:] = 0.0
        mixer.proj.depthwise_b.data[6:] = 1.0
        y = mixer.forward(Tensor(x), kernel_override=ones).data
        assert np.abs(y - 1.0).max() < 1e-12

    def test_matches_direct_oracle(self, rng):
        cfg = mx.MixerConfig("bidirectional", channels=4, extent=32, embed_dim=4)
        mixer = mx.GatedConvMixer(cfg, rng)
        x = rng.normal(size=(32, 4))
        y = mixer.forward(Tensor(x)).data
        assert np.abs(y - oracle_bidirectional(x, mixer)).max() < 1e-10

    @pytest.mark.parametrize("taps", [9, 10, 16, 18, 20, 40])
    def test_kernel_of_another_length_than_2l_minus_1_is_rejected(self, rng, taps):
        # L = 9: only 17 taps are centred.  The lengths tried include L
        # itself, smooth lengths that need no padding (16, 18, 20) and
        # lengths past 2L-1.
        mixer = mx.GatedConvMixer(mx.MixerConfig("bidirectional", 2, 9, embed_dim=2), rng)
        x = Tensor(rng.normal(size=(9, 2)))
        bad = rng.normal(size=(taps, 2))
        named = f"convolved axis 0: x has length L = 9, so h needs 2L-1 = 17 taps, got {taps}"
        with pytest.raises(ValueError, match=named):
            mixer.forward(x, kernel_override=bad)
        with pytest.raises(ValueError, match=named):
            mixer.long_conv(x, bad)
        assert mixer.forward(x, kernel_override=rng.normal(size=(17, 2))).shape == x.shape


class TestGlobal2D:
    def test_center_impulse_gives_elementwise_product(self, rng):
        mixer = gating_identity_case("global2d", (5, 4), rng)
        x = rng.normal(size=(5, 4, 3))
        y = mixer.forward(Tensor(x), kernel_override=centered_impulse_kernel(mixer)).data
        assert np.abs(y - x * x * x).max() < 1e-12

    def test_matches_direct_oracle(self, rng):
        cfg = mx.MixerConfig("global2d", channels=3, extent=(6, 8), embed_dim=4)
        mixer = mx.GatedConvMixer(cfg, rng)
        x = rng.normal(size=(6, 8, 3))
        y = mixer.forward(Tensor(x)).data
        assert np.abs(y - oracle_global2d(x, mixer)).max() < 1e-10

    @pytest.mark.parametrize("shape", [(100, 2), (117, 1), (118, 2)])
    def test_kernel_of_another_size_is_rejected_naming_the_taps(self, rng, shape):
        # (5, 7) wants 9 x 13 taps; each size fails before the reshape.
        mixer = mx.GatedConvMixer(mx.MixerConfig("global2d", 2, (5, 7), embed_dim=2), rng)
        x = Tensor(rng.normal(size=(5, 7, 2)))
        named = f"filter: a global2d mixer of extent (5, 7) wants a [117, 2] kernel, 9 x 13 taps of 2 channels, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(named)):
            mixer.forward(x, kernel_override=rng.normal(size=shape))
        with pytest.raises(ValueError, match=re.escape(named)):
            mixer.long_conv(x, rng.normal(size=shape))

    def test_extent_mismatch_rejected(self, rng):
        cfg = mx.MixerConfig("global2d", channels=3, extent=(6, 8), embed_dim=4)
        mixer = mx.GatedConvMixer(cfg, rng)
        with pytest.raises(ValueError):
            mixer.forward(Tensor(rng.normal(size=(8, 6, 3))))


class TestSeparable:
    def test_impulse_kernels_give_elementwise_product(self, rng):
        mixer = gating_identity_case("separable2d", (5, 6), rng)
        x = rng.normal(size=(5, 6, 3))
        over = [centered_impulse_kernel(mixer, 0), centered_impulse_kernel(mixer, 1)]
        y = mixer.forward(Tensor(x), kernel_override=over).data
        assert np.abs(y - x * x * x).max() < 1e-12

    @pytest.mark.parametrize("taps", [7, 12, 14, 16, 20])
    def test_horizontal_kernel_of_another_length_than_2l_minus_1_is_rejected(self, rng, taps):
        # Lx = 7 wants 13 taps; the lengths tried include Lx itself and
        # smooth lengths on either side of 13.
        mixer = mx.GatedConvMixer(mx.MixerConfig("separable2d", 2, (5, 7), embed_dim=2), rng)
        x = Tensor(rng.normal(size=(5, 7, 2)))
        kernels = [rng.normal(size=(taps, 2)), rng.normal(size=(9, 2))]
        named = f"convolved axis 1: x has length L = 7, so h needs 2L-1 = 13 taps, got {taps}"
        with pytest.raises(ValueError, match=named):
            mixer.forward(x, kernel_override=kernels)
        with pytest.raises(ValueError, match=named):
            mixer.long_conv(x, kernels)

    @pytest.mark.parametrize("taps", [5, 10, 17])
    def test_vertical_kernel_of_another_length_is_rejected_naming_the_taps(self, rng, taps):
        # Ly = 5 wants 9 taps; the check comes before the reshape.
        mixer = mx.GatedConvMixer(mx.MixerConfig("separable2d", 2, (5, 7), embed_dim=2), rng)
        x = Tensor(rng.normal(size=(5, 7, 2)))
        kernels = [rng.normal(size=(13, 2)), rng.normal(size=(taps, 2))]
        named = f"filter_v: a separable2d mixer of extent (5, 7) wants a [9, 2] kernel, 9 taps of 2 channels, got shape ({taps}, 2)"
        with pytest.raises(ValueError, match=re.escape(named)):
            mixer.forward(x, kernel_override=kernels)
        with pytest.raises(ValueError, match=re.escape(named)):
            mixer.long_conv(x, kernels)

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_number_of_kernels_is_rejected(self, rng, count):
        mixer = mx.GatedConvMixer(mx.MixerConfig("separable2d", 2, (5, 7), embed_dim=2), rng)
        kernels = [rng.normal(size=(13, 2))] * count
        with pytest.raises(ValueError, match=rf"a separable2d mixer takes 2 kernel\(s\), got {count}"):
            mixer.forward(Tensor(rng.normal(size=(5, 7, 2))), kernel_override=kernels)

    def test_rank_one_kernel_equals_global2d(self, rng):
        ey, ex, c = 5, 6, 2
        cfg_s = mx.MixerConfig("separable2d", channels=c, extent=(ey, ex), embed_dim=4)
        cfg_g = mx.MixerConfig("global2d", channels=c, extent=(ey, ex), embed_dim=4)
        m_s = mx.GatedConvMixer(cfg_s, np.random.default_rng(7))
        m_g = mx.GatedConvMixer(cfg_g, np.random.default_rng(7))
        m_g.proj, m_g.out_proj = m_s.proj, m_s.out_proj
        h_h = rng.normal(size=(2 * ex - 1, c))
        h_v = rng.normal(size=(2 * ey - 1, c))
        h2d = (h_v[:, None, :] * h_h[None, :, :]).reshape(-1, c)
        x = Tensor(rng.normal(size=(ey, ex, c)))
        y_s = m_s.forward(x, kernel_override=[h_h, h_v]).data
        y_g = m_g.forward(x, kernel_override=h2d).data
        assert np.abs(y_s - y_g).max() < 1e-10

    def test_axis_gradient_support_factorizes(self, rng):
        # Sequential separability: the center output's gradient support is the
        # outer product of the two 1D kernel supports.  Collapsing one axis
        # kernel to an impulse confines the support to the center column/row.
        ey = ex = 7
        cfg = mx.MixerConfig("separable2d", channels=1, extent=(ey, ex), embed_dim=2)
        mixer = mx.GatedConvMixer(cfg, rng)
        identity_projection(mixer.proj)
        mixer.out_proj.data[:] = np.eye(1)
        mixer.proj.pointwise_w.data[:, 1:] = 0.0  # k, v weights zero
        mixer.proj.depthwise_b.data[1:] = 1.0  # k = v = 1, so y = g(x)
        full = np.ones((13, 1))
        impulse = centered_impulse_kernel(mixer, 0)
        for case, kernels in {
            "column": [impulse, full],  # horizontal kernel collapses to a tap
            "row": [full, impulse],  # vertical kernel collapses to a tap
        }.items():
            x = Tensor(rng.normal(size=(ey, ex, 1)), requires_grad=True)
            with GradTape() as tape:
                y = mixer.forward(x, kernel_override=kernels)
                target = nx.tensor_sum(nx.crop(y, [slice(3, 4), slice(3, 4), slice(None)]))
            g = tape.gradient(target, [x])[0].data[..., 0]
            # Spectral path: off-support entries are FFT roundoff, not exact 0.
            support = np.abs(g) > 1e-10
            expected = np.zeros_like(support)
            if case == "column":
                expected[:, 3] = True
            else:
                expected[3, :] = True
            assert not support[~expected].any(), case
            assert support[expected].all(), case


class TestLocal:
    def test_impulse_depthwise_is_pointwise_activation(self, rng):
        cfg = mx.MixerConfig("local", channels=3, extent=(5, 5), embed_dim=2)
        mixer = mx.LocalConvMixer(cfg, rng)
        mixer.expand_w.data[:] = np.eye(3, 6)
        mixer.expand_b.data[:] = 0.0
        mixer.contract_w.data[:] = np.eye(6, 3)
        mixer.contract_b.data[:] = 0.0
        mixer.depthwise_w.data[:] = 0.0
        mixer.depthwise_w.data[mixer.offsets.index((0, 0))] = 1.0
        mixer.depthwise_b.data[:] = 0.0
        x = rng.normal(size=(5, 5, 3))
        y = mixer.forward(Tensor(x)).data
        s, b = mixer.act.scale.data, mixer.act.shift.data
        expected = s * np.maximum(x, 0.0) ** 2 + b
        assert np.abs(y - expected).max() < 1e-14

    def test_receptive_field_confined_to_7x7(self, rng):
        cfg = mx.MixerConfig("local", channels=2, extent=(11, 11), embed_dim=2)
        mixer = mx.LocalConvMixer(cfg, rng)
        x = rng.normal(size=(11, 11, 2))
        y = mixer.forward(Tensor(x)).data
        x2 = x.copy()
        patch = np.zeros((11, 11), dtype=bool)
        patch[5 - 3 : 5 + 4, 5 - 3 : 5 + 4] = True
        x2[~patch] = 123.0
        y2 = mixer.forward(Tensor(x2)).data
        assert np.array_equal(y[5, 5], y2[5, 5])

    def test_gradient(self, rng):
        cfg = mx.MixerConfig("local", channels=4, extent=(9, 9), embed_dim=2)
        mixer = mx.LocalConvMixer(cfg, rng)
        x = Tensor(rng.normal(size=(9, 9, 4)))

        def f(ew, dw, cw):
            m2 = mx.LocalConvMixer(cfg, np.random.default_rng(0))
            m2.expand_w, m2.depthwise_w, m2.contract_w = ew, dw, cw
            m2.expand_b, m2.depthwise_b = mixer.expand_b, mixer.depthwise_b
            m2.contract_b, m2.act = mixer.contract_b, mixer.act
            m2.offsets = mixer.offsets
            return nx.tensor_sum(m2.forward(x))

        err = grad_check(
            f, [mixer.expand_w, mixer.depthwise_w, mixer.contract_w], max_coords=400
        )
        assert err < 1e-5

    def test_extent_validation(self):
        with pytest.raises(ValueError):
            mx.MixerConfig("local", channels=2, extent=(0, 4), embed_dim=2)


class TestSmallExtents:
    """Extents 1 and 2, the micro model's stage-3 and stage-4 maps, against
    direct summation: the centered crop starts at L-1 there too."""

    @pytest.mark.parametrize("length", [1, 2])
    def test_bidirectional(self, rng, length):
        mixer = mx.GatedConvMixer(mx.MixerConfig("bidirectional", 3, length, embed_dim=4), rng)
        x = rng.normal(size=(length, 3))
        y = mixer.forward(Tensor(x)).data
        assert np.abs(y - oracle_bidirectional(x, mixer)).max() < 1e-10

    @pytest.mark.parametrize("extent", [(1, 1), (2, 2), (1, 5)])
    def test_global2d(self, rng, extent):
        mixer = mx.GatedConvMixer(mx.MixerConfig("global2d", 3, extent, embed_dim=4), rng)
        x = rng.normal(size=extent + (3,))
        y = mixer.forward(Tensor(x)).data
        assert np.abs(y - oracle_global2d(x, mixer)).max() < 1e-10

    @pytest.mark.parametrize("extent", [(2, 2), (1, 5)])
    def test_separable2d_matches_outer_product_oracle(self, rng, extent):
        mixer = mx.GatedConvMixer(mx.MixerConfig("separable2d", 3, extent, embed_dim=4), rng)
        h2d = mixer.kernel(1).data[:, None, :] * mixer.kernel(0).data[None, :, :]
        x = rng.normal(size=extent + (3,))
        y = mixer.forward(Tensor(x)).data
        assert np.abs(y - oracle_global2d(x, mixer, h2d)).max() < 1e-10


class TestConfig:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            mx.MixerConfig("attention", channels=2, extent=4, embed_dim=2)

    def test_filter_extents(self):
        assert mx.MixerConfig("causal", 2, 10, 2).filter_extent() == 10
        assert mx.MixerConfig("bidirectional", 2, 10, 2).filter_extent() == 19
        assert mx.MixerConfig("global2d", 2, (4, 6), 2).filter_extent() == (7, 11)

    @pytest.mark.parametrize("variant,extent", [
        ("causal", 10), ("bidirectional", 10), ("global2d", (4, 6)), ("separable2d", (4, 6)),
    ])
    def test_filter_grids_are_the_config_extent(self, rng, variant, extent):
        # The grid ``filters dump`` shapes each kernel to is the one the mixer
        # reshapes it to: (ky, kx) for global2d, kx then ky for separable2d.
        cfg = mx.MixerConfig(variant, 2, extent, embed_dim=4)
        mixer = mx.GatedConvMixer(cfg, rng)
        ext = cfg.filter_extent()
        if variant == "global2d":
            want = [ext]
        elif variant == "separable2d":
            want = [(ext[1],), (ext[0],)]
        else:
            want = [(ext,)]
        assert [f.basis.grid for f in mixer.filters] == want
        for i, f in enumerate(mixer.filters):
            assert mixer.kernel(i).shape == (int(np.prod(f.basis.grid)), 2)

    @pytest.mark.parametrize("variant,embed_dim", [("global2d", 3), ("global2d", 0), ("bidirectional", 0), ("causal", -1)])
    def test_embed_dim_checked_for_the_variant(self, variant, embed_dim):
        with pytest.raises(ValueError, match=rf"^embed_dim must .*got {embed_dim}$"):
            mx.MixerConfig(variant, 2, (4, 4) if variant == "global2d" else 16, embed_dim)

    @pytest.mark.parametrize("variant,extent", [
        ("global2d", (4, 5, 9)), ("global2d", 4.5), ("bidirectional", 7.9), ("causal", True),
        ("bidirectional", (7, 7)), ("separable2d", (4, True)), ("local", "8"),
    ])
    def test_bad_extent_is_rejected_naming_it(self, variant, extent):
        with pytest.raises(ValueError, match=r"^extent "):
            mx.MixerConfig(variant, 2, extent, embed_dim=4)

    @pytest.mark.parametrize("variant,extent,stored", [
        ("causal", 10, (10,)), ("bidirectional", [10], (10,)), ("global2d", 6, (6, 6)),
        ("separable2d", [4, 6], (4, 6)), ("local", (np.int64(4), 6), (4, 6)),
    ])
    def test_extent_is_stored_as_a_tuple_of_ints(self, variant, extent, stored):
        cfg = mx.MixerConfig(variant, 2, extent, embed_dim=4)
        assert cfg.extent == stored and type(cfg.extent) is tuple
        assert all(type(n) is int for n in cfg.extent)

    @pytest.mark.parametrize("variant,extent,shape", [
        ("bidirectional", 6, (2, 2, 6, 3)),
        ("causal", 6, (6, 4)),
        ("global2d", (4, 5), (5, 4, 3)),
        ("local", (4, 5), (20, 3)),
    ])
    def test_check_input_names_the_layout_and_shape(self, rng, variant, extent, shape):
        cfg = mx.MixerConfig(variant, 3, extent, embed_dim=4)
        mixer = mx.build_mixer(cfg, rng)
        with pytest.raises(ValueError, match=rf"^{variant} mixer expects .* got \({shape[0]}, "):
            mixer.forward(Tensor(rng.normal(size=shape)))


class TestFullContext:
    @pytest.mark.parametrize("variant,extent", [("bidirectional", 6), ("global2d", (4, 5))])
    def test_all_ones_kernel_reaches_every_position(self, rng, variant, extent):
        cfg = mx.MixerConfig(variant, channels=3, extent=extent, embed_dim=4)
        mixer = mx.GatedConvMixer(cfg, rng)
        if variant == "bidirectional":
            x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
            ones = np.ones((11, 3))
            center = [slice(3, 4), slice(None)]
        else:
            x = Tensor(rng.normal(size=(4, 5, 3)), requires_grad=True)
            ones = np.ones((7 * 9, 3))
            center = [slice(2, 3), slice(2, 3), slice(None)]
        with GradTape() as tape:
            y = mixer.forward(x, kernel_override=ones)
            target = nx.tensor_sum(nx.crop(y, center))
        g = tape.gradient(target, [x])[0].data
        per_position = np.abs(g).max(axis=-1)
        assert np.all(per_position > 0)


class TestKernelSpectrumCache:
    """A tape-free call convolves with cached kernel spectra; a taped call or
    a kernel override transforms the kernel as before."""

    @pytest.mark.parametrize(
        "variant,extent,passes",
        [("bidirectional", 11, 1), ("global2d", (5, 6), 1), ("separable2d", (5, 6), 2)],
    )
    def test_warm_tape_free_call_skips_the_kernel_transform(self, rng, monkeypatch, variant, extent, passes):
        # Every numpy.fft entry point is counted.  A cached-spectrum pass
        # transforms x forward and inverts the kept rows, after an ifft over
        # the first axis of a 2D pass; a taped pass, or one with a kernel
        # override, runs the same transforms after the kernel's own rfftn.
        spectral = Counter(rfftn=passes, irfft=passes)
        if variant == "global2d":
            spectral["ifft"] = 1
        mixer = mx.GatedConvMixer(mx.MixerConfig(variant, 3, extent, embed_dim=4), rng)
        shape = (2,) + (extent if isinstance(extent, tuple) else (extent,)) + (3,)
        x = Tensor(rng.normal(size=shape))
        mixer(x)  # builds the cache
        calls = Counter()
        for name in FFT_ENTRY_POINTS:
            fn = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, fn=fn, name=name, **k: calls.update([name]) or fn(*a, **k))
        y = mixer(x).data
        assert calls == spectral
        taped = spectral + Counter(rfftn=passes)
        calls.clear()
        with GradTape():
            y_taped = mixer(x).data
        assert calls == taped
        calls.clear()
        kernels = [mixer.kernel(i) for i in range(len(mixer.filters))]
        y_override = mixer(x, kernel_override=kernels).data
        assert calls == taped
        assert np.array_equal(y, y_taped) and np.array_equal(y, y_override)

    def test_kernel_override_bypasses_the_cache(self, rng):
        mixer = mx.GatedConvMixer(mx.MixerConfig("global2d", 3, (5, 6), embed_dim=4), rng)
        x = Tensor(rng.normal(size=(5, 6, 3)))
        mixer(x)  # builds the cache
        impulse = centered_impulse_kernel(mixer)
        y = mixer(x, kernel_override=impulse).data
        assert np.abs(y - oracle_global2d(x.data, mixer, impulse)).max() < 1e-10
        assert np.abs(mixer(x).data - oracle_global2d(x.data, mixer)).max() < 1e-10


class TestLongConvKernels:
    """``long_conv`` alone picks its kernels: called with none under a tape
    that tracks the filter parameters, it materializes them, so the filters
    get the partials that kernels handed to it get."""

    @pytest.mark.parametrize("variant,extent", [
        ("bidirectional", 7), ("global2d", (5, 6)), ("separable2d", (4, 5)), ("causal", 9),
    ])
    def test_filter_partials_without_kernels_equal_those_with_them(self, rng, variant, extent):
        mixer = mx.GatedConvMixer(mx.MixerConfig(variant, 3, extent, embed_dim=4), rng)
        params = [p for f in mixer.filters for _, p in f.parameters()]
        qk_data = rng.normal(size=mixer.config.extent + (3,))
        mixer.long_conv(Tensor(qk_data))  # fills the spectra cache a tracked call must not use
        digests = []
        for given in (False, True):
            qk = Tensor(qk_data)
            with GradTape(params + [qk]) as tape:
                kernels = [mixer.kernel(i) for i in range(len(mixer.filters))] if given else None
                loss = nx.tensor_sum(nx.square(mixer.long_conv(qk, kernels)))
            grads = tape.gradient(loss, params)
            digests.append([hashlib.sha256(g.data.tobytes()).hexdigest() for g in grads])
            assert all(np.abs(g.data).max() > 0 for g in grads)
        assert digests[0] == digests[1]


def is_smooth(n):
    for p in (2, 3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


class TestSmoothFFTLength:
    """Centered convolutions transform at the smallest 7-smooth length
    >= 2L-1 on every convolved axis, with the kernel zero-padded to it."""

    def test_length_is_the_next_smooth_number(self):
        smooth = [m for m in range(1, 2100) if is_smooth(m)]
        for n in range(1, 2001):
            assert nx._fft_length(n) == min(m for m in smooth if m >= n), n

    @pytest.mark.parametrize(
        "variant,extent",
        [
            ("bidirectional", 49),  # 97, prime
            ("bidirectional", 64),  # 127, prime
            ("bidirectional", 196),  # 391 = 17 * 23
            ("global2d", (7, 7)),  # 13 x 13
            ("global2d", (14, 14)),  # 27 x 27, already smooth
            ("global2d", (7, 28)),  # 13 x 55
        ],
    )
    def test_taped_and_cached_paths_match_the_oracle(self, rng, variant, extent):
        mixer = mx.GatedConvMixer(mx.MixerConfig(variant, 3, extent, embed_dim=4), rng)
        shape = (extent, 3) if variant == "bidirectional" else extent + (3,)
        x = Tensor(rng.normal(size=shape))
        with GradTape([p for f in mixer.filters for _, p in f.parameters()]):
            y_taped = mixer(x).data
        mixer(x)  # builds the cache
        y_cached = mixer(x).data
        oracle = oracle_bidirectional if variant == "bidirectional" else oracle_global2d
        assert np.abs(y_taped - oracle(x.data, mixer)).max() < 1e-10
        assert np.array_equal(y_taped, y_cached)
        spectrum, axes = mixer._cached_spectra()[0]
        taps = list(np.atleast_1d(mixer.config.filter_extent()))
        lengths = [nx._fft_length(n) for n in taps]
        # The spectrum keeps the kernel's own shape; its data is the half
        # spectrum over M on every convolved axis.
        assert [spectrum.shape[ax] for ax in axes] == taps
        assert [spectrum.data.shape[ax] for ax in axes] == lengths[:-1] + [lengths[-1] // 2 + 1]

    @pytest.mark.parametrize("variant,extent", [("bidirectional", 12), ("global2d", (4, 6))])
    def test_gradient_through_padded_kernel(self, rng, variant, extent):
        # 23 -> 24 and 7 x 11 -> 7 x 12
        mixer = mx.GatedConvMixer(mx.MixerConfig(variant, 2, extent, embed_dim=2), rng)
        shape = (extent, 2) if variant == "bidirectional" else extent + (2,)
        x = Tensor(rng.normal(size=shape))
        params = [p for f in mixer.filters for _, p in f.parameters()]
        err = grad_check(lambda *ps: nx.tensor_sum(nx.square(mixer(x))), params)
        assert err < 1e-5

    @pytest.mark.parametrize(
        "preset,taps,lengths",
        [
            ("hb-s4", [(6271,), (1567,), (391,), (97,)], [(6272,), (1568,), (392,), (98,)]),
            ("hpx-s4", [(111, 111), (55, 55), (27, 27), (13, 13)], [(112, 112), (56, 56), (27, 27), (14, 14)]),
        ],
    )
    def test_224px_cached_spectra_have_the_pinned_lengths(self, preset, taps, lengths):
        # Each stage's transform lengths M, on which every output bit
        # depends, read from its cached spectra without a forward pass: the
        # spectrum keeps the kernel's taps, its data M on the leading axes
        # and M // 2 + 1 on the last.
        model = mdl.build_model(mdl.preset_config(preset), seed=0)
        for blocks, k, m in zip(model.stages, taps, lengths, strict=True):
            spectrum, axes = blocks[0].mixer._cached_spectra()[0]
            assert tuple(spectrum.shape[ax] for ax in axes) == k
            assert tuple(spectrum.data.shape[ax] for ax in axes) == m[:-1] + (m[-1] // 2 + 1,)

    @pytest.mark.parametrize(
        "preset,lengths",
        [
            ("hb-s4", {(6272,), (1568,), (392,), (98,)}),
            ("hpx-s4", {(112, 112), (56, 56), (27, 27), (14, 14)}),
        ],
    )
    def test_224px_forward_transforms_only_smooth_lengths(self, rng, monkeypatch, preset, lengths):
        model = mdl.build_model(mdl.preset_config(preset), seed=0)
        np_rfftn, np_ifft, np_irfft = np.fft.rfftn, np.fft.ifft, np.fft.irfft
        seen, inverse = [], []

        def rfftn(a, s=None, axes=None, **kw):
            # The transform length is ``s`` when given: ``a`` is zero-padded to it.
            seen.append(tuple(s) if s is not None else tuple(a.shape[ax] for ax in axes))
            return np_rfftn(a, s=s, axes=axes, **kw)

        # The inverse runs one axis at a time: an ifft over the first axis of
        # a 2D pass, then an irfft over the last.
        def ifft(a, n=None, axis=-1, **kw):
            inverse.append(a.shape[axis] if n is None else n)
            return np_ifft(a, n=n, axis=axis, **kw)

        def irfft(a, n=None, axis=-1, **kw):
            inverse.append(n)
            return np_irfft(a, n=n, axis=axis, **kw)

        monkeypatch.setattr(np.fft, "rfftn", rfftn)
        monkeypatch.setattr(np.fft, "ifft", ifft)
        monkeypatch.setattr(np.fft, "irfft", irfft)
        model(Tensor(rng.normal(size=(1, 224, 224, 3))))
        assert set(seen) == lengths
        assert set(inverse) == {n for shape in lengths for n in shape}
        assert all(is_smooth(n) for shape in seen for n in shape)


class TestOneOpPerPass:
    """The long convolution of a centered mixer is one ``circular_convolve``
    node per pass on the unpadded q*k: nothing pads q*k or crops the
    convolution on its way from ``mul(q, k)`` to the gate."""

    @staticmethod
    def _path_to_gate(nodes):
        """Ops on the chain from the gate's first input back to ``mul(q, k)``."""
        by_output = {o: n for n in nodes for o in n.outputs}
        gate = by_output[nodes[-1].inputs[0]]  # out_proj's matmul reads the gate
        assert gate.op == "mul"
        chain, node = [], by_output[gate.inputs[0]]
        while node.op != "mul":
            chain.append(node.op)
            node = by_output[node.inputs[0]]
        return chain

    @pytest.mark.parametrize(
        "variant,extent,passes",
        [("bidirectional", 12, 1), ("global2d", (4, 6), 1), ("separable2d", (5, 7), 2)],
    )
    @pytest.mark.parametrize("taped_filters", [False, True])
    def test_one_circular_convolve_per_pass(self, rng, variant, extent, passes, taped_filters):
        # 23 -> 24, 7 x 11 -> 7 x 12 and 13 -> 14, 9 -> 9: front-padded kernels.
        mixer = mx.GatedConvMixer(mx.MixerConfig(variant, 2, extent, embed_dim=2), rng)
        shape = (extent, 2) if variant == "bidirectional" else extent + (2,)
        x = Tensor(rng.normal(size=shape))
        sources = [x] + ([p for f in mixer.filters for _, p in f.parameters()] if taped_filters else [])
        with GradTape(sources) as tape:
            mixer(x)
        assert self._path_to_gate(tape.nodes) == ["circular_convolve"] * passes
        assert [n.op for n in tape.nodes].count("circular_convolve") == passes
