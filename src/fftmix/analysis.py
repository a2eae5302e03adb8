"""Measurement tools: effective receptive fields, kernel coverage,
in-model kernel truncation, and runtime-scaling benchmarks.

The effective receptive field (ERF) is the input-gradient footprint of the
center-most position of the final pre-pool feature map, summed over
channels and averaged over images.  Kernel coverage thresholds the decay
window at 0.05 and reports the surviving diameter relative to the feature
extent a filter spans, reach + 1 along its longest axis; with kernels
spanning 2F-1 taps the coverage approaches 2.
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


def kernel_effective_diameter(window_values, reach, threshold: float) -> float:
    """Diameter (in kernel elements) of the surviving window support.

    ``reach`` holds each value's largest offset from the kernel origin along
    any axis (``ImplicitFilter.reach``), in the shape of ``window_values``.
    The diameter is 2 * the largest reach among positions with value >=
    threshold, plus one element, so a fully surviving centred grid reports
    its own side.  Returns 0 when nothing survives.
    """
    if not 0 < threshold < np.inf:
        raise ValueError(f"threshold must be a positive finite number, got {threshold}")
    vals = window_values.data if isinstance(window_values, Tensor) else np.asarray(window_values)
    mask = vals >= threshold
    if not mask.any():
        return 0.0
    return float(2.0 * np.asarray(reach)[mask].max() + 1.0)


def coverage_report(model: Model, threshold: float = 0.05) -> CoverageReport:
    """Per-block effective diameter and feature-map coverage.

    Long-convolution blocks threshold their decay windows; local-convolution
    blocks report their actual kernel size.  One row per block.  A filter's
    coverage is its diameter over the feature extent it spans, reach + 1
    along its longest axis (``ImplicitFilter.reach``), so a fully surviving
    centred kernel of 2F-1 taps covers (2F-1)/F < 2; a block's coverage is
    the mean over its filters and its diameter the mean of theirs.
    """
    report = CoverageReport()
    has_implicit = False
    for s, blocks in enumerate(model.stages):
        for b, block in enumerate(blocks):
            mixer = block.mixer
            if isinstance(mixer, LocalConvMixer):
                diameter = float(LOCAL_KERNEL)
                coverage = diameter / max(model.config.stage_extents()[s])
            else:
                has_implicit = True
                diams, covs = [], []
                for f in mixer.filters:
                    vals = eval_window(f.window, f.basis.positions).data
                    reach = f.reach()
                    diam = float(np.mean([
                        kernel_effective_diameter(vals[:, c], reach, threshold)
                        for c in range(vals.shape[1])
                    ]))
                    diams.append(diam)
                    covs.append(diam / (reach.max() + 1))
                diameter, coverage = float(np.mean(diams)), float(np.mean(covs))
            report.rows.append(
                CoverageRow(stage=s + 1, block=b + 1, diameter=diameter, coverage=coverage)
            )
    if not has_implicit:
        raise ValueError("model contains no implicit-filter mixers")
    return report


# ---------------------------------------------------------------------------
# Kernel truncation
# ---------------------------------------------------------------------------


def truncate_kernels(model: Model, stage: int, relative_size: float) -> Model:
    """Copy of ``model`` with stage kernels zeroed outside the centered box.

    A tap is kept when its axis-aligned diameter, 2 * reach + 1, is at most
    ``relative_size`` times the feature extent its filter spans, reach + 1
    along the filter's longest axis (``ImplicitFilter.reach``); 0 keeps
    nothing and 2 keeps everything.  Truncation applies to the materialized
    kernels at inference; other stages are untouched and keep any kernel
    spectra they hold, while the truncated stage's are not copied, since its
    new masks make them stale.
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
    touched = False
    for block in out.stages[stage - 1]:
        mixer = block.mixer
        if not isinstance(mixer, GatedConvMixer):
            continue
        touched = True
        for i, f in enumerate(mixer.filters):
            reach = f.reach()
            keep = (2.0 * reach + 1.0) <= relative_size * (reach.max() + 1)
            mixer.kernel_masks[i] = None if keep.all() else keep.astype(np.float64)[:, None]
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
