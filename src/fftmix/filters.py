"""Implicitly parameterized long-convolution kernels.

A kernel is never stored tap-by-tap.  One recipe serves 1D sequences and 2D
grids: a fixed sinusoidal ``PositionalBasis`` over the kernel grid, (L,) or
(2Ly-1, 2Lx-1), is pushed through a small sine-activated FFN (one output per
channel) and multiplied by an exponential-decay window; the grid's length
alone tells a 1D filter from a 2D one.  The basis follows the grid: its
harmonics have one period over the kernel grid, whatever its size.  The
window reads each tap's offset from the kernel origin, in taps, from the
basis positions.  So a filter built for one grid and evaluated on another,
as a model loaded at another input size is, keeps its decay length in taps.
Only ``resample_filter`` rescales the offsets, by old/new extent, so that
the enlarged kernel is the trained continuous filter resampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nx
from .numerics import Tensor

WINDOW_VARIANTS = ("causal", "bidirectional", "radial2d")


# ---------------------------------------------------------------------------
# Positional bases
# ---------------------------------------------------------------------------


@dataclass
class PositionalBasis:
    """Feature rows of a kernel grid, one per tap.

    ``grid`` is the kernel grid's shape, (L,) or (2Ly-1, 2Lx-1); the rows
    run over it in row-major order.  ``positions`` holds each tap's offset
    from the kernel origin, [P] for a 1D grid and [P, 2] rows of (t_y, t_x)
    for a 2D one, and ``features`` is [P, feature dimension].
    """

    grid: tuple[int, ...]
    positions: np.ndarray
    features: np.ndarray


def build_basis_1d(L_filter: int, K: int, centered: bool = False) -> PositionalBasis:
    """Sin/cos harmonics of t over one period of the (L_filter,) grid.

    ``features`` is [L_filter, 2K-1]: a constant column for the zeroth mode,
    then (sin, cos) pairs of 2*pi*k*t/L_filter for k = 1..K-1.  The rows are
    t = 0..L_filter-1, or, when ``centered``, t = -(L-1)/2 .. (L-1)/2, which
    requires odd L_filter.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if L_filter < 1:
        raise ValueError("L_filter must be at least 1")
    if centered:
        if L_filter % 2 == 0:
            raise ValueError("centered basis requires odd L_filter")
        half = (L_filter - 1) // 2
        t = np.arange(-half, half + 1, dtype=np.float64)
    else:
        t = np.arange(L_filter, dtype=np.float64)
    feats = np.empty((L_filter, 2 * K - 1))
    feats[:, 0] = 1.0
    for k in range(1, K):
        phase = 2.0 * np.pi * k * t / L_filter
        feats[:, 2 * k - 1] = np.sin(phase)
        feats[:, 2 * k] = np.cos(phase)
    return PositionalBasis((L_filter,), t, feats)


def build_basis_2d(L_x: int, L_y: int, K: int) -> PositionalBasis:
    """Per-direction sin/cos features on the centered (2L_y-1, 2L_x-1) grid.

    Positions are offsets from the kernel center, t_y outer.  K must be
    even: the first K/2 feature columns encode the vertical offset, the rest
    the horizontal offset.
    """
    if K < 2 or K % 2 != 0:
        raise ValueError("K must be even and at least 2")
    if L_x < 1 or L_y < 1:
        raise ValueError("extents must be positive")
    ky, kx = 2 * L_y - 1, 2 * L_x - 1
    ty = np.arange(-(L_y - 1), L_y, dtype=np.float64)
    tx = np.arange(-(L_x - 1), L_x, dtype=np.float64)
    grid_y, grid_x = np.meshgrid(ty, tx, indexing="ij")
    positions = np.stack([grid_y.reshape(-1), grid_x.reshape(-1)], axis=1)
    half = K // 2
    feats = np.empty((ky * kx, K))
    for j in range(half):
        m = j // 2 + 1
        phase_y = 2.0 * np.pi * m * positions[:, 0] / ky
        phase_x = 2.0 * np.pi * m * positions[:, 1] / kx
        feats[:, j] = np.sin(phase_y) if j % 2 == 0 else np.cos(phase_y)
        feats[:, half + j] = np.sin(phase_x) if j % 2 == 0 else np.cos(phase_x)
    return PositionalBasis((ky, kx), positions, feats)


# ---------------------------------------------------------------------------
# Filter FFN
# ---------------------------------------------------------------------------


@dataclass
class FilterFFN:
    """Two sine-activated hidden layers and a linear per-channel output."""

    weights: list  # [(W, b), ...] as Tensors

    @property
    def channels(self) -> int:
        return self.weights[-1][0].shape[1]

    def evaluate(self, features: np.ndarray) -> Tensor:
        h = Tensor(features)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(self.weights):
            h = nx.linear(h, w, b)
            if i < last:
                h = nx.sin(h)
        return h

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, (w, b) in enumerate(self.weights):
            out.append((f"ffn.w{i}", w))
            out.append((f"ffn.b{i}", b))
        return out


def init_filter_ffn(
    in_dim: int, hidden: int, channels: int, num_positions: int, rng: np.random.Generator
) -> FilterFFN:
    """Uniform fan-in init for sine layers; output scaled so the implied
    kernel has roughly unit total energy over ``num_positions`` taps."""
    dims = [(in_dim, hidden), (hidden, hidden), (hidden, channels)]
    weights = []
    out_std = math.sqrt(2.0 / hidden) / math.sqrt(max(num_positions, 1))
    for i, (fan_in, fan_out) in enumerate(dims):
        if i < len(dims) - 1:
            bound = math.sqrt(6.0 / fan_in)
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        else:
            w = rng.normal(0.0, out_std, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        weights.append((Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)))
    return FilterFFN(weights)


# ---------------------------------------------------------------------------
# Decay windows
# ---------------------------------------------------------------------------


@dataclass
class WindowParams:
    """Per-channel exponential decay envelope exp(-alpha * d) + b.

    ``variant`` fixes how distance d is read off a position: the raw index
    for causal grids, |t| for centered 1D grids, and the Euclidean distance
    from the kernel center for 2D grids.
    """

    alpha: Tensor
    bias: Tensor
    variant: str

    def __post_init__(self):
        if self.variant not in WINDOW_VARIANTS:
            raise ValueError(f"unknown window variant {self.variant!r}")
        if np.any(self.alpha.data < 0):
            raise ValueError("alpha must be non-negative")
        if self.alpha.shape != self.bias.shape:
            raise ValueError("alpha and bias must share the channel shape")

    @property
    def channels(self) -> int:
        return self.alpha.size

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("window.alpha", self.alpha), ("window.bias", self.bias)]


def init_window_params(
    channels: int, extent: int, variant: str, rng: np.random.Generator
) -> WindowParams:
    # alpha spans slow-to-fast decay at init: exp(-alpha * extent) between
    # 2^-1 and 2^-5 at the grid edge.
    lo, hi = math.log(2.0) / extent, 5.0 * math.log(2.0) / extent
    alpha = rng.uniform(lo, hi, size=channels)
    return WindowParams(
        alpha=Tensor(alpha, requires_grad=True),
        bias=Tensor(np.zeros(channels), requires_grad=True),
        variant=variant,
    )


def window_distances(params: WindowParams, positions: np.ndarray) -> np.ndarray:
    """Distance of each position from the window origin."""
    pos = np.asarray(positions, dtype=np.float64)
    if params.variant == "causal":
        if pos.ndim != 1:
            raise ValueError("causal window expects 1D positions")
        return pos
    if params.variant == "bidirectional":
        if pos.ndim != 1:
            raise ValueError("bidirectional window expects 1D positions")
        return np.abs(pos)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError("radial2d window expects [P, 2] positions")
    return np.sqrt(pos[:, 0] ** 2 + pos[:, 1] ** 2)


def eval_window(params: WindowParams, positions: np.ndarray) -> Tensor:
    """Window values [P, C]."""
    if np.any(params.alpha.data < 0):
        raise ValueError("alpha must be non-negative")
    d = window_distances(params, positions)
    decay = nx.exp(nx.mul(params.alpha, Tensor(-d[:, None])))
    return nx.add(decay, params.bias)


# ---------------------------------------------------------------------------
# Kernel materialization and resampling
# ---------------------------------------------------------------------------


def materialize_filter(basis: PositionalBasis, ffn: FilterFFN, window: WindowParams) -> Tensor:
    """Kernel [positions, C] = FFN(basis) * window, evaluated on the basis grid."""
    if ffn.channels != window.channels:
        raise ValueError(
            f"ffn outputs {ffn.channels} channels but window has {window.channels}"
        )
    if len(basis.grid) == 2:
        if window.variant != "radial2d":
            raise ValueError("2D basis requires a radial2d window")
    elif window.variant == "radial2d":
        raise ValueError("radial2d window requires a 2D basis")
    response = ffn.evaluate(basis.features)
    envelope = eval_window(window, basis.positions)
    return nx.mul(response, envelope)


def _rebuild_basis(window: WindowParams, K: int, size):
    if window.variant == "causal":
        return build_basis_1d(int(size), K)
    if window.variant == "bidirectional":
        return build_basis_1d(int(size), K, centered=True)
    sy, sx = (int(size[0]), int(size[1])) if np.ndim(size) else (int(size), int(size))
    if sy % 2 == 0 or sx % 2 == 0:
        raise ValueError("2D kernel extents must be odd")
    return build_basis_2d((sx + 1) // 2, (sy + 1) // 2, K)


def _ffn_embed_dim(ffn: FilterFFN, variant: str) -> int:
    in_dim = ffn.weights[0][0].shape[0]
    return in_dim if variant == "radial2d" else (in_dim + 1) // 2


def resample_filter(ffn: FilterFFN, window: WindowParams, old_size, new_size) -> Tensor:
    """Re-evaluate the implicit filter on a ``new_size`` kernel grid.

    Sizes are kernel grid extents (an int for 1D, (ext_y, ext_x) for 2D).
    The basis period follows the new grid and the positions the window reads
    shrink by old/new, so the kernel is the trained continuous filter
    resampled; with ``new_size == old_size`` the result is bit-identical to
    materialization.
    """
    for name, size in (("old_size", old_size), ("new_size", new_size)):
        if np.ndim(size) != 0 and (window.variant != "radial2d" or np.shape(size) != (2,)):
            extents = "one extent" if window.variant != "radial2d" else "one or two extents"
            raise ValueError(f"{name} {size!r}: a {window.variant} window takes {extents}")
    if any(int(s) < 1 for s in np.atleast_1d(new_size)):
        raise ValueError("new_size must be at least 1 per axis")
    basis = _rebuild_basis(window, _ffn_embed_dim(ffn, window.variant), new_size)
    scale = np.asarray(old_size, dtype=np.float64) / np.asarray(new_size, dtype=np.float64)
    basis = replace(basis, positions=basis.positions * scale)
    return materialize_filter(basis, ffn, window)


@dataclass
class ImplicitFilter:
    """A basis, FFN, and window bound to one long-convolution kernel."""

    basis: PositionalBasis
    ffn: FilterFFN
    window: WindowParams
    name: str = "filter"

    def materialize(self) -> Tensor:
        return materialize_filter(self.basis, self.ffn, self.window)

    def reach(self) -> np.ndarray:
        """Each tap's largest offset from the kernel origin along any axis.

        A filter spans ``reach().max() + 1`` feature positions along its
        longest axis: L for a 1D filter over an L-long sequence, and
        max(Ly, Lx) for a 2D filter over an Ly x Lx map.
        """
        pos = self.basis.positions
        return np.abs(pos).reshape(pos.shape[0], -1).max(axis=1)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [
            (f"{self.name}.{n}", t)
            for n, t in self.ffn.parameters() + self.window.parameters()
        ]


def make_implicit_filter_1d(
    length: int,
    channels: int,
    K: int,
    rng: np.random.Generator,
    causal: bool = False,
    name: str = "filter",
) -> ImplicitFilter:
    """1D kernel over ``length`` taps (causal grid or centered odd grid)."""
    basis = build_basis_1d(length, K, centered=not causal)
    ffn = init_filter_ffn(2 * K - 1, 2 * K, channels, length, rng)
    window = init_window_params(channels, length, "causal" if causal else "bidirectional", rng)
    return ImplicitFilter(basis, ffn, window, name)


def make_implicit_filter_2d(
    extent_y: int,
    extent_x: int,
    channels: int,
    K: int,
    rng: np.random.Generator,
) -> ImplicitFilter:
    """Centered 2D kernel on the (2*extent_y-1) x (2*extent_x-1) grid."""
    basis = build_basis_2d(extent_x, extent_y, K)
    ffn = init_filter_ffn(K, 2 * K, channels, basis.features.shape[0], rng)
    window = init_window_params(channels, max(extent_x, extent_y), "radial2d", rng)
    return ImplicitFilter(basis, ffn, window)
