import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from fftmix import analysis as an
from fftmix import filters
from fftmix import mixers as mx
from fftmix import model as mdl
from fftmix import numerics as nx
from fftmix import training as tr
from fftmix.numerics import GradTape, Tensor

from conftest import FFT_ENTRY_POINTS, TRAIN_SPEC


class StemOnly:
    """Minimal spatial model: just the overlapping patch stem."""

    def __init__(self, channels=4, seed=0):
        rng = np.random.default_rng(seed)
        self.stem = mdl.ConvNormLayer(3, channels, 7, 4, 2, rng)

    def features(self, images):
        return self.stem(images)


class StemPlusBlock:
    """Patch stem followed by one mixer block (no downsampling)."""

    def __init__(self, variant, input_size=64, channels=4, seed=0):
        rng = np.random.default_rng(seed)
        self.stem = mdl.ConvNormLayer(3, channels, 7, 4, 2, rng)
        f = input_size // 4
        extent = f * f if variant in ("causal", "bidirectional") else (f, f)
        cfg = mx.MixerConfig(variant, channels, extent, embed_dim=4)
        self.block = mdl.Block(channels, cfg, False, rng)

    def features(self, images):
        return self.block(self.stem(images))


class TestERF:
    def test_stem_receptive_field_support(self, rng):
        model = StemOnly()
        images = rng.normal(size=(2, 64, 64, 3))
        emap = an.erf_map(model, images)
        assert emap.grid.shape == (64, 64)
        assert emap.grid.max() == 1.0
        assert emap.grid.min() >= 0.0
        # Center feature (8, 8) reads the 7x7 input window at stride 4, pad 2.
        start = 8 * 4 - 2
        mask = np.zeros((64, 64), dtype=bool)
        mask[start : start + 7, start : start + 7] = True
        assert np.array_equal(emap.grid[~mask], np.zeros((~mask).sum()))
        assert emap.grid[mask].max() > 0

    def test_single_local_block_support(self, rng):
        model = StemPlusBlock("local")
        images = rng.normal(size=(1, 64, 64, 3))
        emap = an.erf_map(model, images)
        # Block RF: +/-3 features around center 8; each feature spans 7 input
        # pixels at stride 4: rows (8-3)*4-2 .. (8+3)*4-2+6 inclusive.
        lo = (8 - 3) * 4 - 2
        hi = (8 + 3) * 4 - 2 + 6
        assert hi - lo + 1 == 7 + 6 * 4  # the stem-adjusted (7+6) window
        mask = np.zeros((64, 64), dtype=bool)
        mask[lo : hi + 1, lo : hi + 1] = True
        assert np.array_equal(emap.grid[~mask], np.zeros((~mask).sum()))

    def test_single_global2d_block_positive_everywhere(self, rng):
        model = StemPlusBlock("global2d")
        images = rng.normal(size=(1, 64, 64, 3))
        emap = an.erf_map(model, images)
        assert emap.grid.min() > 0.0

    def test_input_validation(self, rng):
        with pytest.raises(ValueError):
            an.erf_map(StemOnly(), rng.normal(size=(64, 64, 3)))

    def test_warm_global2d_convolves_with_cached_spectra(self, rng, monkeypatch):
        model = mdl.build_model(mdl.micro_config("global2d"), seed=0)
        images = rng.normal(size=(1, 32, 32, 3))
        model(Tensor(images))  # a tape-free pass caches every kernel spectrum
        # Reference: a tape tracking every requires_grad tensor, which
        # materializes each kernel and records its graph.
        img = Tensor(images, requires_grad=True)
        with GradTape() as tape:
            feats = model.features(img)
            c = slice(feats.shape[1] // 2, feats.shape[1] // 2 + 1)
            scalar = nx.tensor_sum(nx.crop(feats, [slice(None), c, c, slice(None)]))
        ref = np.abs(tape.gradient(scalar, [img])[0].data[0]).sum(axis=-1)
        ref /= ref.max()

        log, phase = [], ["forward"]  # (phase, name) of each counted call

        def count(owner, name):
            original = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda *a, **k: log.append((phase[0], name)) or original(*a, **k)
            )

        gradient = GradTape.gradient

        def backward(*a, **k):
            phase[0] = "backward"
            return gradient(*a, **k)

        monkeypatch.setattr(GradTape, "gradient", backward)
        count(filters.ImplicitFilter, "materialize")
        count(nx, "circular_convolve")
        for name in FFT_ENTRY_POINTS:
            count(np.fft, name)
        emap = an.erf_map(model, images)
        monkeypatch.undo()
        n = log.count(("forward", "circular_convolve"))
        assert n == 4 and not any(name == "materialize" for _, name in log)
        # Each 2D pass, and each x-partial, is one rfftn, one ifft over the
        # first axis and one irfft over the kept rows.
        for side in ("forward", "backward"):
            transforms = Counter(name for s, name in log if s == side and name in FFT_ENTRY_POINTS)
            assert transforms == Counter({"rfftn": n, "ifft": n, "irfft": n}), side
        assert np.abs(emap.grid - ref).max() < 1e-12


def _reach(n):
    """Per-axis offsets from the centre of an n x n grid, as ImplicitFilter.reach gives."""
    grid = np.abs(np.indices((n, n)) - (n - 1) / 2)
    return grid.max(axis=0), np.sqrt((grid**2).sum(axis=0))


class TestERFMemory:
    """A warm 224 px ``erf_map``: the FFN's op keeps the second norm's
    normalised input, not its output, and runs its backward pass in blocks
    of rows, so the tape and the widest VJP stay small."""

    @pytest.mark.parametrize("preset", ["hpx-s4", "hb-s4", "chpx-s4"])
    def test_warm_224px_erf_map_peaks_at_26_mb(self, rng, preset):
        m = mdl.build_model(mdl.preset_config(preset), seed=0)
        image = rng.normal(size=(1, 224, 224, 3))
        an.erf_map(m, image)  # builds the kernel spectra
        gc.collect()
        tracemalloc.start()
        try:
            an.erf_map(m, image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 29.76, 29.76 and 26.54 MB when the norm's output stayed on the tape
        # and the FFN's VJP ran each stage as one block.
        assert peak <= 26.0e6


class TestDiameter:
    def test_flat_window_full_extent(self):
        reach, _ = _reach(13)
        assert an.kernel_effective_diameter(np.ones((13, 13)), reach, 0.05) == 13.0

    def test_spike_only_center_survives(self):
        reach, dist = _reach(13)
        vals = np.exp(-1e6 * dist)
        assert an.kernel_effective_diameter(vals, reach, 0.05) == 1.0

    def test_unit_distance_threshold_closed_form(self):
        reach, dist = _reach(13)
        vals = np.exp(-np.log(1 / 0.05) * dist)
        # Survivors are exactly the positions within Euclidean distance 1.
        assert an.kernel_effective_diameter(vals, reach, 0.05) == 3.0

    def test_nothing_survives_gives_zero(self):
        reach, _ = _reach(5)
        assert an.kernel_effective_diameter(np.full((5, 5), 0.01), reach, 0.05) == 0.0

    def test_monotone_in_threshold_and_alpha(self):
        reach, dist = _reach(9)
        for alpha_lo, alpha_hi in [(0.2, 0.8)]:
            lo = an.kernel_effective_diameter(np.exp(-alpha_lo * dist), reach, 0.05)
            hi = an.kernel_effective_diameter(np.exp(-alpha_hi * dist), reach, 0.05)
            assert hi <= lo
        vals = np.exp(-0.5 * dist)
        d1 = an.kernel_effective_diameter(vals, reach, 0.02)
        d2 = an.kernel_effective_diameter(vals, reach, 0.2)
        assert d2 <= d1

    def test_threshold_validation(self):
        reach, _ = _reach(3)
        with pytest.raises(ValueError):
            an.kernel_effective_diameter(np.ones((3, 3)), reach, 0.0)


class TestCoverage:
    def test_fresh_micro_coverages_in_range(self):
        model = mdl.build_model(mdl.micro_config("global2d"), seed=0)
        report = an.coverage_report(model)
        assert len(report.rows) == sum(model.config.stage_blocks)
        for row in report.rows:
            assert 0.0 < row.coverage <= 2.0

    def test_fully_surviving_kernel_covers_two(self):
        model = mdl.build_model(mdl.micro_config("global2d"), seed=0)
        for blocks in model.stages:
            for block in blocks:
                block.mixer.filters[0].window.alpha.data[:] = 0.0  # flat window
        report = an.coverage_report(model)
        for row, (fy, _) in zip(report.rows, model.config.stage_extents()):
            assert abs(row.diameter - (2 * fy - 1)) < 1e-12
            assert abs(row.coverage - (2 * fy - 1) / fy) < 1e-12
            assert row.coverage <= 2.0

    def test_row_count_matches_blocks(self):
        config = mdl.ModelConfig(
            stage_channels=(8, 8, 8, 8),
            stage_blocks=(2, 1, 2, 1),
            mixer_layout=("local", "local", "global2d", "global2d"),
            embed_dims=(4, 4, 4, 4),
            num_classes=4,
            input_size=(32, 32),
        )
        model = mdl.build_model(config, seed=0)
        report = an.coverage_report(model)
        assert len(report.rows) == 6
        local_rows = [r for r in report.rows if r.stage in (1, 2)]
        assert all(r.diameter == 7.0 for r in local_rows)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, -0.05])
    def test_threshold_that_is_not_positive_and_finite_rejected(self, threshold):
        model = mdl.build_model(mdl.micro_config("global2d"), seed=0)
        with pytest.raises(ValueError, match=rf"^threshold must be a positive finite number, got {threshold}"):
            an.coverage_report(model, threshold=threshold)

    def test_all_local_model_rejected(self):
        model = mdl.build_model(mdl.micro_config("local"), seed=0)
        with pytest.raises(ValueError):
            an.coverage_report(model)


NON_SQUARE_VARIANTS = ("global2d", "separable2d", "bidirectional")


def _non_square_model(variant):
    config = mdl.ModelConfig(
        stage_channels=(8, 8, 8, 8),
        stage_blocks=(1, 1, 1, 1),
        mixer_layout=(variant,) * 4,
        embed_dims=(4, 4, 4, 4),
        num_classes=4,
        input_size=(64, 32),
    )
    return mdl.build_model(config, seed=0)


class TestNonSquareMaps:
    """A 64 x 32 input gives 16 x 8 ... 2 x 1 maps: every extent comes from
    the filters' own positions, never from one axis of the map."""

    @pytest.mark.parametrize("variant", NON_SQUARE_VARIANTS)
    def test_full_truncation_is_bitwise_identity(self, variant, rng):
        model = _non_square_model(variant)
        x = Tensor(rng.normal(size=(1, 64, 32, 3)))
        base = model(x).data
        for stage in range(1, 5):
            truncated = an.truncate_kernels(model, stage, 2.0)
            assert np.array_equal(truncated(x).data, base)
            assert all(m is None for b in truncated.stages[stage - 1] for m in b.mixer.kernel_masks)

    @pytest.mark.parametrize("variant", NON_SQUARE_VARIANTS)
    def test_flat_window_coverage_stays_below_two(self, variant):
        model = _non_square_model(variant)
        for blocks in model.stages:
            for block in blocks:
                for f in block.mixer.filters:
                    f.window.alpha.data[:] = 0.0
        report = an.coverage_report(model)
        for row, (fy, fx) in zip(report.rows, model.config.stage_extents()):
            assert row.coverage <= 2.0
            if variant == "global2d":  # the longest axis spans 2 * max(fy, fx) - 1 taps
                assert row.diameter == 2 * max(fy, fx) - 1

    def test_half_truncation_keeps_the_central_box(self):
        model = _non_square_model("global2d")
        truncated = an.truncate_kernels(model, 1, 1.0)  # a 16 x 8 map
        f = truncated.stages[0][0].mixer.filters[0]
        kept = truncated.stages[0][0].mixer.kernel_masks[0][:, 0] > 0
        assert np.abs(f.basis.positions[kept]).max() == 7  # 2 * 7 + 1 <= 16


class TestTruncate:
    def test_full_relative_size_is_bitwise_identity(self, rng):
        model = mdl.build_model(mdl.micro_config("global2d"), seed=0)
        x = Tensor(rng.normal(size=(1, 32, 32, 3)))
        base = model(x).data
        for stage in range(1, 5):
            truncated = an.truncate_kernels(model, stage, 2.0)
            assert np.array_equal(truncated(x).data, base)

    def test_zero_relative_size_zeroes_g_branch(self, rng):
        model = mdl.build_model(mdl.micro_config("global2d"), seed=0)
        truncated = an.truncate_kernels(model, 2, 0.0)
        mixer = truncated.stages[1][0].mixer
        x = Tensor(rng.normal(size=(4, 4, 8)))
        assert np.array_equal(mixer.forward(x).data, np.zeros((4, 4, 8)))

    def test_zero_relative_size_block_reduces_to_ffn_path(self, rng):
        model = mdl.build_model(mdl.micro_config("global2d"), seed=0)
        truncated = an.truncate_kernels(model, 2, 0.0)
        block = truncated.stages[1][0]
        x = Tensor(rng.normal(size=(1, 4, 4, 8)))
        expected = block(x).data
        # With the mixer silenced the block is x + FFN(LN(x)).
        u = x
        branch = block.ffn(u, block.norm2)
        manual = (u.data + branch.data)
        assert np.abs(expected - manual).max() < 1e-12

    def test_other_stages_untouched(self, rng):
        model = mdl.build_model(mdl.micro_config("global2d"), seed=0)
        truncated = an.truncate_kernels(model, 3, 0.5)
        for s in (0, 1, 3):
            assert truncated.stages[s][0].mixer.kernel_masks == [None]

    def test_copy_drops_only_the_truncated_stage_spectra(self, rng):
        model = mdl.build_model(mdl.micro_config("global2d"), seed=0)
        cold = an.truncate_kernels(model, 2, 0.5)
        x = Tensor(rng.normal(size=(1, 32, 32, 3)))
        model(x)  # a tape-free pass fills every mixer's kernel spectra
        warm = an.truncate_kernels(model, 2, 0.5)
        assert warm.stages[1][0].mixer._spectra is None
        for s in (0, 2, 3):
            kept = warm.stages[s][0].mixer._spectra
            assert kept is not None and kept is not model.stages[s][0].mixer._spectra
        assert np.array_equal(warm(x).data, cold(x).data)

    def test_validation(self):
        model = mdl.build_model(mdl.micro_config("global2d"), seed=0)
        with pytest.raises(ValueError):
            an.truncate_kernels(model, 0, 1.0)
        with pytest.raises(ValueError):
            an.truncate_kernels(model, 1, 2.5)
        local = mdl.build_model(mdl.micro_config("local"), seed=0)
        with pytest.raises(ValueError):
            an.truncate_kernels(local, 1, 1.0)

    def test_trained_model_prefers_full_kernels(self, trained_micro):
        model, _ = trained_micro
        _, _, val_x, val_y = tr.load_dataset(TRAIN_SPEC)
        # Deepest stage with a meaningful kernel mask: stage 3 (extent 2).
        full = an.truncate_kernels(model, 3, 2.0)
        tight = an.truncate_kernels(model, 3, 0.1)
        acc_full = tr.evaluate_accuracy(full, val_x, val_y)
        acc_tight = tr.evaluate_accuracy(tight, val_x, val_y)
        assert acc_full >= acc_tight


# numpy.fft calls in one timed call: criterion 6 times each centered pass
# with its kernel's transform, never a cached kernel spectrum.  A pass
# transforms the kernel and x, then inverts the kept rows: one irfft in 1D,
# an ifft over the first axis and an irfft in 2D.
BENCH_TRANSFORMS = {"bidirectional": 3, "global2d": 4, "separable2d": 6}


class TestBench:
    @pytest.mark.parametrize("variant", an.BENCH_VARIANTS)
    def test_every_variant_runs(self, variant, monkeypatch):
        calls = []
        for name in FFT_ENTRY_POINTS:
            fn = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, fn=fn, **k: calls.append(1) or fn(*a, **k))
        table = an.bench_runtime([variant], [4, 8], channels=2, repeats=5)
        # Two extents, each one warm-up call and five timed ones.
        assert len(calls) == 2 * 6 * BENCH_TRANSFORMS.get(variant, 0)
        assert [(r.variant, r.pixels) for r in table.rows] == [(variant, 16), (variant, 64)]
        assert all(r.median_seconds > 0 for r in table.rows)
        assert np.isfinite(table.slopes[variant])

    def test_table_structure(self):
        table = an.bench_runtime(["global2d", "local"], [8, 16], channels=2, repeats=5)
        assert len(table.rows) == 4
        assert {r.variant for r in table.rows} == {"global2d", "local"}
        assert all(r.median_seconds > 0 for r in table.rows)
        assert table.rows[0].pixels == 64

    def test_structure_deterministic(self):
        t1 = an.bench_runtime(["global2d"], [8, 16], channels=2, repeats=5)
        t2 = an.bench_runtime(["global2d"], [8, 16], channels=2, repeats=5)
        assert [(r.variant, r.extent, r.pixels) for r in t1.rows] == [
            (r.variant, r.extent, r.pixels) for r in t2.rows
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            an.bench_runtime(["global2d"], [8], repeats=3)
        with pytest.raises(ValueError):
            an.bench_runtime(["attention"], [8], repeats=5)
        for extents in ([8], [8, 8]):  # a slope needs two distinct points
            with pytest.raises(ValueError, match="two distinct extents"):
                an.bench_runtime(["global2d"], extents, repeats=5)

    def test_dense_reference_matches_fft_conv(self, rng):
        f, c = 6, 3
        qk = rng.normal(size=(f, f, c))
        kernel = rng.normal(size=(2 * f - 1, 2 * f - 1, c))
        dense = an.dense_conv2d_reference(qk, kernel)
        fft = nx.circular_convolve(Tensor(qk), Tensor(kernel), (0, 1)).data
        assert np.abs(dense - fft).max() < 1e-10
