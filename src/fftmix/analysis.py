"""Measurement tools: effective receptive fields, kernel coverage,
in-model kernel truncation, and runtime-scaling benchmarks.

The effective receptive field (ERF) is the input-gradient footprint of the
center-most position of the final pre-pool feature map, summed over
channels and averaged over images.  Kernel coverage thresholds the decay
window at 0.05 and reports the surviving diameter relative to the feature
extent; with kernels spanning 2F-1 taps the coverage can reach 2.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nx
from .filters import eval_window
from .mixers import LOCAL_KERNEL, GatedConvMixer, LocalConvMixer, MixerConfig, build_mixer
from .model import Model
from .numerics import GradTape, Tensor


@dataclass
class ERFMap:
    grid: np.ndarray  # [H, W], max-normalized to [0, 1]
    num_images: int


@dataclass
class CoverageRow:
    stage: int
    block: int
    diameter: float
    coverage: float


@dataclass
class CoverageReport:
    rows: list[CoverageRow] = field(default_factory=list)


@dataclass
class BenchRow:
    variant: str
    extent: int
    channels: int
    median_seconds: float
    pixels: int


@dataclass
class BenchTable:
    rows: list[BenchRow] = field(default_factory=list)
    slopes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Effective receptive field
# ---------------------------------------------------------------------------


def erf_map(model, images) -> ERFMap:
    """Input-gradient map of the center output unit, averaged over images.

    For every image, backpropagates from the channel sum at the center
    position of the final pre-pool feature map and accumulates the absolute
    input gradients summed over color channels; the average is then
    max-normalized to [0, 1].  The tape tracks the image alone, so the
    parameters are constants and the long-convolution mixers convolve with
    their cached kernel spectra.
    """
    arr = images.data if isinstance(images, Tensor) else np.asarray(images, dtype=np.float64)
    if arr.ndim != 4:
        raise ValueError("expected images of shape [N, H, W, 3]")
    n = arr.shape[0]
    if n < 1:
        raise ValueError("need at least one image")
    acc = np.zeros(arr.shape[1:3])
    for i in range(n):
        img = Tensor(arr[i : i + 1])
        with GradTape([img]) as tape:
            feats = model.features(img)
            if feats.ndim != 4 or feats.shape[1] < 1 or feats.shape[2] < 1:
                raise ValueError("model has no spatial output")
            cy, cx = feats.shape[1] // 2, feats.shape[2] // 2
            center = nx.crop(feats, [slice(None), slice(cy, cy + 1), slice(cx, cx + 1), slice(None)])
            scalar = nx.tensor_sum(center)
        grad = tape.gradient(scalar, [img])[0].data[0]
        acc += np.abs(grad).sum(axis=-1)
    acc /= n
    peak = acc.max()
    if peak <= 0:
        raise ValueError("ERF is identically zero")
    return ERFMap(grid=acc / peak, num_images=n)


# ---------------------------------------------------------------------------
# Kernel diameter and coverage
# ---------------------------------------------------------------------------


def kernel_effective_diameter(window_values, threshold: float, center=None) -> float:
    """Diameter (in kernel elements) of the surviving window support.

    Measured axis-aligned: 2 * max per-axis index distance from the center
    among positions with value >= threshold, plus one element.  A fully
    surviving odd grid therefore reports its own extent.  Returns 0 when
    nothing survives.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    vals = window_values.data if isinstance(window_values, Tensor) else np.asarray(window_values)
    mask = vals >= threshold
    if not mask.any():
        return 0.0
    if center is None:
        center = tuple((n - 1) / 2 for n in vals.shape)
    idx = np.argwhere(mask)
    dist = np.abs(idx - np.asarray(center)).max(axis=1)
    return float(2.0 * dist.max() + 1.0)


def _mixer_window_grids(mixer: GatedConvMixer):
    """Per-filter (grid_shape, window values [P, C], center) triples."""
    out = []
    for f in mixer.filters:
        vals = eval_window(f.window, f.basis.positions).data
        grid = f.grid_shape()
        center = (0.0,) if f.window.variant == "causal" else None
        out.append((grid, vals, center))
    return out


def coverage_report(model: Model, threshold: float = 0.05) -> CoverageReport:
    """Per-block effective diameter and feature-map coverage.

    Long-convolution blocks threshold their decay windows; local-convolution
    blocks report their actual kernel size.  One row per block.
    """
    report = CoverageReport()
    has_implicit = False
    for s, blocks in enumerate(model.stages):
        fy, fx = model.config.stage_extents()[s]
        for b, block in enumerate(blocks):
            mixer = block.mixer
            if isinstance(mixer, LocalConvMixer):
                diameter = float(LOCAL_KERNEL)
                extent = fx
            else:
                has_implicit = True
                cfg = mixer.config
                extent = fy * fx if cfg.variant in ("causal", "bidirectional") else fx
                diams = []
                for grid, vals, center in _mixer_window_grids(mixer):
                    per_channel = [
                        kernel_effective_diameter(vals[:, c].reshape(grid), threshold, center)
                        for c in range(vals.shape[1])
                    ]
                    diams.append(float(np.mean(per_channel)))
                diameter = float(np.mean(diams))
            report.rows.append(
                CoverageRow(stage=s + 1, block=b + 1, diameter=diameter, coverage=diameter / extent)
            )
    if not has_implicit:
        raise ValueError("model contains no implicit-filter mixers")
    return report


# ---------------------------------------------------------------------------
# Kernel truncation
# ---------------------------------------------------------------------------


def _truncation_mask(positions: np.ndarray, variant: str, extent: int, relative_size: float):
    """Keep positions whose axis-aligned diameter fits relative_size * extent."""
    pos = np.asarray(positions)
    if variant == "radial2d":
        dist = np.abs(pos).max(axis=1)
    else:
        dist = np.abs(pos)
    keep = (2.0 * dist + 1.0) <= relative_size * extent
    if keep.all():
        return None
    return keep.astype(np.float64)[:, None]


def truncate_kernels(model: Model, stage: int, relative_size: float) -> Model:
    """Copy of ``model`` with stage kernels zeroed outside the centered disk.

    ``relative_size`` is the kept diameter relative to the feature extent
    (0 keeps nothing, 2 keeps everything).  Truncation applies to the
    materialized kernels at inference; other stages are untouched and keep
    any kernel spectra they hold, while the truncated stage's are not
    copied, since its new masks make them stale.
    """
    if not 0.0 <= relative_size <= 2.0:
        raise ValueError("relative_size must lie in [0, 2]")
    if not 1 <= stage <= len(model.stages):
        raise ValueError("stage out of range")
    stale = {
        id(block.mixer._spectra): None
        for block in model.stages[stage - 1]
        if isinstance(block.mixer, GatedConvMixer) and block.mixer._spectra is not None
    }
    out = copy.deepcopy(model, stale)
    blocks = out.stages[stage - 1]
    fy, fx = out.config.stage_extents()[stage - 1]
    touched = False
    for block in blocks:
        mixer = block.mixer
        if not isinstance(mixer, GatedConvMixer):
            continue
        touched = True
        cfg = mixer.config
        for i, f in enumerate(mixer.filters):
            if cfg.variant in ("causal", "bidirectional"):
                extent = fy * fx
            elif cfg.variant == "separable2d":
                extent = fx if i == 0 else fy
            else:
                extent = fx
            mixer.kernel_masks[i] = _truncation_mask(
                f.basis.positions, f.window.variant, extent, relative_size
            )
    if not touched:
        raise ValueError(f"stage {stage} has no long-convolution mixers")
    return out


# ---------------------------------------------------------------------------
# Runtime benchmarks
# ---------------------------------------------------------------------------


def dense_conv2d_reference(qk: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Direct-summation centered 2D convolution (the quadratic reference).

    qk: [F, F, C]; kernel: [2F-1, 2F-1, C] indexed by offsets.
    y[i] = sum_s qk[s] * kernel[i - s + F - 1], one einsum over every
    F x F window of the reversed kernel.
    """
    f = qk.shape[0]
    krev = kernel[::-1, ::-1]
    windows = np.lib.stride_tricks.sliding_window_view(krev, (f, f), axis=(0, 1))
    # windows[j, k, c, sy, sx] is krev[j + sy, k + sx, c]; (j, k) = (F-1-iy, F-1-ix).
    return np.einsum("yxc,jkcyx->jkc", qk, windows)[::-1, ::-1]


BENCH_VARIANTS = ("causal", "bidirectional", "global2d", "separable2d", "local", "dense2d")


def _bench_callable(variant: str, extent: int, channels: int, seed: int):
    """Prepare one token-interaction closure over the variant's own mixer:
    the gated input and the materialized kernels are built outside the
    timed region, so the clock sees only the mixing op."""
    rng = np.random.default_rng(seed)
    f = int(extent)
    one_d = variant in ("causal", "bidirectional")
    cfg = MixerConfig(
        "global2d" if variant == "dense2d" else variant,
        channels,
        f * f if one_d else (f, f),
        embed_dim=4,
    )
    mixer = build_mixer(cfg, rng)
    x = Tensor(rng.normal(size=((f * f,) if one_d else (f, f)) + (channels,)))
    if variant == "local":
        return lambda: mixer.forward(x).data
    kernels = [mixer.kernel(i) for i in range(len(mixer.filters))]
    if variant == "dense2d":
        kernel = kernels[0].data.reshape(2 * f - 1, 2 * f - 1, channels)
        return lambda: dense_conv2d_reference(x.data, kernel)
    return lambda: mixer.long_conv(x, kernels).data


def bench_runtime(
    variants,
    extents,
    channels: int = 4,
    repeats: int = 5,
    seed: int = 0,
) -> BenchTable:
    """Median wall time of each variant's token-interaction op plus slopes.

    ``extents`` are feature-map side lengths; 1D variants run on the
    row-major flattened sequence of length extent**2.  Gated variants time
    their mixer's own long convolution (``GatedConvMixer.long_conv``),
    ``local`` its whole mixer, and ``dense2d`` the direct-summation
    reference on a ``global2d`` kernel.  Gated inputs and materialized
    kernels are prepared outside the timed region, so the measurement
    isolates the operation that scales with pixel count.  The
    fitted log-log slope of time against pixel count characterizes scaling:
    FFT paths stay near-linear while the dense reference approaches
    quadratic.
    """
    if repeats < 5:
        raise ValueError("repeats must be at least 5")
    for v in variants:
        if v not in BENCH_VARIANTS:
            raise ValueError(f"unknown bench variant {v!r}")
    if len({int(e) for e in extents}) < 2:
        raise ValueError("a slope needs at least two distinct extents")
    table = BenchTable()
    for variant in variants:
        for extent in extents:
            run = _bench_callable(variant, int(extent), channels, seed)
            run()  # warm up caches and FFT plans
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                run()
                times.append(time.perf_counter() - t0)
            table.rows.append(
                BenchRow(
                    variant=variant,
                    extent=int(extent),
                    channels=channels,
                    median_seconds=float(np.median(times)),
                    pixels=int(extent) ** 2,
                )
            )
    for variant in variants:
        rows = [r for r in table.rows if r.variant == variant]
        table.slopes[variant] = fit_loglog_slope(
            [r.pixels for r in rows], [r.median_seconds for r in rows]
        )
    return table


def fit_loglog_slope(xs, ys) -> float:
    lx, ly = np.log(np.asarray(xs, dtype=np.float64)), np.log(np.asarray(ys, dtype=np.float64))
    return float(np.polyfit(lx, ly, 1)[0])
