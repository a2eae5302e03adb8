import numpy as np
import pytest

from fftmix import analysis as an
from fftmix import mixers as mx
from fftmix import model as mdl
from fftmix import training as tr
from fftmix.numerics import Tensor

from conftest import TRAIN_SPEC


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
        self.block = mdl.Block(channels, cfg, 4, False, rng)

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


class TestDiameter:
    def test_flat_window_full_extent(self):
        vals = np.ones((13, 13))
        assert an.kernel_effective_diameter(vals, 0.05) == 13.0

    def test_spike_only_center_survives(self):
        grid = np.indices((13, 13))
        dist = np.sqrt((grid[0] - 6.0) ** 2 + (grid[1] - 6.0) ** 2)
        vals = np.exp(-1e6 * dist)
        assert an.kernel_effective_diameter(vals, 0.05) == 1.0

    def test_unit_distance_threshold_closed_form(self):
        grid = np.indices((13, 13))
        dist = np.sqrt((grid[0] - 6.0) ** 2 + (grid[1] - 6.0) ** 2)
        vals = np.exp(-np.log(1 / 0.05) * dist)
        # Survivors are exactly the positions within Euclidean distance 1.
        assert an.kernel_effective_diameter(vals, 0.05) == 3.0

    def test_nothing_survives_gives_zero(self):
        assert an.kernel_effective_diameter(np.full((5, 5), 0.01), 0.05) == 0.0

    def test_monotone_in_threshold_and_alpha(self):
        grid = np.indices((9, 9))
        dist = np.sqrt((grid[0] - 4.0) ** 2 + (grid[1] - 4.0) ** 2)
        for alpha_lo, alpha_hi in [(0.2, 0.8)]:
            lo = an.kernel_effective_diameter(np.exp(-alpha_lo * dist), 0.05)
            hi = an.kernel_effective_diameter(np.exp(-alpha_hi * dist), 0.05)
            assert hi <= lo
        vals = np.exp(-0.5 * dist)
        d1 = an.kernel_effective_diameter(vals, 0.02)
        d2 = an.kernel_effective_diameter(vals, 0.2)
        assert d2 <= d1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            an.kernel_effective_diameter(np.ones((3, 3)), 0.0)


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

    def test_all_local_model_rejected(self):
        model = mdl.build_model(mdl.micro_config("local"), seed=0)
        with pytest.raises(ValueError):
            an.coverage_report(model)


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
        branch = block.ffn(mdl.layer_norm(u, block.norm2.gamma, block.norm2.beta, block.norm2.eps))
        manual = (u.data + branch.data)
        assert np.abs(expected - manual).max() < 1e-12

    def test_other_stages_untouched(self, rng):
        model = mdl.build_model(mdl.micro_config("global2d"), seed=0)
        truncated = an.truncate_kernels(model, 3, 0.5)
        for s in (0, 1, 3):
            assert truncated.stages[s][0].mixer.kernel_masks == [None]

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


class TestBench:
    @pytest.mark.parametrize("variant", an.BENCH_VARIANTS)
    def test_every_variant_runs(self, variant):
        table = an.bench_runtime([variant], [4, 8], channels=2, repeats=5)
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

    def test_dense_reference_matches_fft_conv(self, rng):
        f, c = 6, 3
        qk = rng.normal(size=(f, f, c))
        kernel = rng.normal(size=(2 * f - 1, 2 * f - 1, c))
        dense = an.dense_conv2d_reference(qk, kernel)
        fft = mx._centered_conv(Tensor(qk), Tensor(kernel), (0, 1)).data
        assert np.abs(dense - fft).max() < 1e-10
