"""Token mixers: gated long convolutions and the local-convolution block.

All gated variants share one recipe: project the input to three chunks
(query, key, value) with a pointwise layer and a depthwise short
convolution, convolve q*k with a long implicitly parameterized kernel, and
gate the result with v.  They differ only in how the long convolution reads
the sequence:

* ``causal``        - kernel over offsets 0..L-1, outputs never see the future
* ``bidirectional`` - centered kernel over offsets -(L-1)..L-1, full coverage
* ``global2d``      - centered 2D kernel spanning (2Ly-1) x (2Lx-1)
* ``separable2d``   - horizontal then vertical centered 1D kernels
* ``local``         - pointwise expand, 7x7 depthwise, activation, contract

Inputs are [L, C] or [Ly, Lx, C] feature maps, with optional leading batch
axes.  The centered variants zero-pad every convolved axis from L to 2L-1
and run one circular FFT convolution with the kernel as materialized, whose
index 0 holds offset -(L-1); outputs L-1 .. 2L-2 are then exactly
y[i] = sum_s x[s] * h[i - s], since no index of that sum wraps around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nx
from .filters import make_implicit_filter_1d, make_implicit_filter_2d
from .numerics import Tensor

MIXER_VARIANTS = ("causal", "bidirectional", "global2d", "separable2d", "local")
_VARIANTS_1D = ("causal", "bidirectional")
_VARIANTS_2D = ("global2d", "separable2d", "local")


@dataclass
class MixerConfig:
    """Which mixer to build: variant, channel count, and grid geometry.

    ``extent`` is the sequence length L for 1D variants or (Ly, Lx) feature
    extents for 2D variants.  ``embed_dim`` is the positional embedding
    dimension K of the implicit filter.
    """

    variant: str
    channels: int
    extent: int | tuple[int, int]
    embed_dim: int = 8
    short_conv_size: int = 0  # 0 picks the default: 3 for 1D, 5 for 2D
    local_kernel: int = 7
    expand_ratio: int = 2

    def __post_init__(self):
        if self.variant not in MIXER_VARIANTS:
            raise ValueError(f"unknown mixer variant {self.variant!r}")
        if self.channels < 1:
            raise ValueError("channels must be positive")
        if self.is_2d:
            ey, ex = self.extents
            if ey < 1 or ex < 1:
                raise ValueError("extent smaller than 1")
        elif int(self.extent) < 1:
            raise ValueError("extent smaller than 1")
        if self.short_conv_size == 0:
            self.short_conv_size = 5 if self.is_2d else 3

    @property
    def is_2d(self) -> bool:
        return self.variant in _VARIANTS_2D

    @property
    def extents(self) -> tuple[int, int]:
        if not self.is_2d:
            raise ValueError("extents is only defined for 2D variants")
        e = self.extent
        return (int(e[0]), int(e[1])) if np.ndim(e) else (int(e), int(e))

    def filter_extent(self):
        """Kernel grid extent: L, 2L-1, (2Ly-1, 2Lx-1), or the local k x k."""
        if self.variant == "causal":
            return int(self.extent)
        if self.variant == "bidirectional":
            return 2 * int(self.extent) - 1
        if self.variant == "local":
            return (self.local_kernel, self.local_kernel)
        ey, ex = self.extents
        return (2 * ey - 1, 2 * ex - 1)


# ---------------------------------------------------------------------------
# q/k/v projection
# ---------------------------------------------------------------------------


@dataclass
class GateProjection:
    """Pointwise C -> 3C expansion plus a depthwise short convolution."""

    pointwise_w: Tensor
    pointwise_b: Tensor
    depthwise_w: Tensor  # [taps, 3C]
    depthwise_b: Tensor
    offsets: list
    axes: tuple[int, ...]

    @property
    def channels(self) -> int:
        return self.pointwise_w.shape[0]

    def parameters(self):
        return [
            ("proj.pw_w", self.pointwise_w),
            ("proj.pw_b", self.pointwise_b),
            ("proj.dw_w", self.depthwise_w),
            ("proj.dw_b", self.depthwise_b),
        ]


def _short_conv_offsets(config: MixerConfig) -> tuple[list, tuple[int, ...]]:
    size = config.short_conv_size
    if config.is_2d:
        half = size // 2
        offs = [(dy, dx) for dy in range(-half, size - half) for dx in range(-half, size - half)]
        return offs, (-3, -2)
    if config.variant == "causal":
        return [(t,) for t in range(size)], (-2,)  # positive offsets read the past
    half = size // 2
    return [(t,) for t in range(-half, size - half)], (-2,)


def init_gate_projection(config: MixerConfig, rng: np.random.Generator) -> GateProjection:
    c = config.channels
    offsets, axes = _short_conv_offsets(config)
    taps = len(offsets)
    pw = rng.normal(0.0, 1.0 / np.sqrt(c), size=(c, 3 * c))
    dw = rng.normal(0.0, 0.02, size=(taps, 3 * c))
    center = offsets.index(tuple([0] * len(axes)))
    dw[center] += 1.0  # start near a pass-through so gating is live at init
    return GateProjection(
        pointwise_w=Tensor(pw, requires_grad=True),
        pointwise_b=Tensor(np.zeros(3 * c), requires_grad=True),
        depthwise_w=Tensor(dw, requires_grad=True),
        depthwise_b=Tensor(np.zeros(3 * c), requires_grad=True),
        offsets=offsets,
        axes=axes,
    )


def project_qkv(x: Tensor, params: GateProjection) -> tuple[Tensor, Tensor, Tensor]:
    """Pointwise to 3C, depthwise short conv (zero pad, stride 1), split in
    channel order q, k, v."""
    c = params.channels
    if x.shape[-1] != c:
        raise ValueError(f"input has {x.shape[-1]} channels, projection expects {c}")
    wide = nx.linear(x, params.pointwise_w, params.pointwise_b)
    wide = nx.shift_convolve(wide, params.depthwise_w, params.offsets, params.axes)
    wide = nx.add(wide, params.depthwise_b)
    full = [slice(None)] * wide.ndim
    chunks = []
    for i in range(3):
        sl = list(full)
        sl[-1] = slice(i * c, (i + 1) * c)
        chunks.append(nx.crop(wide, sl))
    return chunks[0], chunks[1], chunks[2]


# ---------------------------------------------------------------------------
# Gated long-convolution mixer
# ---------------------------------------------------------------------------


def _centered_conv(qk: Tensor, kernel: Tensor, axes: tuple[int, ...]) -> Tensor:
    """y[i] = sum_s qk[s] * h[i - s] along ``axes``, h indexed by offsets
    -(L-1)..L-1 on each axis (kernel index 0 is offset -(L-1))."""
    pw = [(0, 0)] * qk.ndim
    sl = [slice(None)] * qk.ndim
    for ax in axes:
        n = qk.shape[ax]
        pw[ax] = (0, n - 1)
        sl[ax] = slice(n - 1, 2 * n - 1)
    full = nx.circular_convolve(nx.pad(qk, pw), kernel, dims=axes)
    return nx.crop(full, sl)


class GatedConvMixer:
    """y = out_proj(g(q * k) * v) with an implicit long-convolution g."""

    def __init__(self, config: MixerConfig, rng: np.random.Generator):
        if config.variant == "local":
            raise ValueError("use LocalConvMixer for the local variant")
        self.config = config
        self.proj = init_gate_projection(config, rng)
        c, k = config.channels, config.embed_dim
        if config.variant == "causal":
            self.filters = [
                make_implicit_filter_1d(int(config.extent), c, k, rng, causal=True)
            ]
        elif config.variant == "bidirectional":
            self.filters = [
                make_implicit_filter_1d(2 * int(config.extent) - 1, c, k, rng)
            ]
        elif config.variant == "global2d":
            ey, ex = config.extents
            self.filters = [make_implicit_filter_2d(ey, ex, c, k, rng)]
        else:  # separable2d: horizontal then vertical
            ey, ex = config.extents
            self.filters = [
                make_implicit_filter_1d(2 * ex - 1, c, k, rng, name="filter_h"),
                make_implicit_filter_1d(2 * ey - 1, c, k, rng, name="filter_v"),
            ]
        self.out_proj = Tensor(
            rng.normal(0.0, 1.0 / np.sqrt(c), size=(c, c)), requires_grad=True
        )
        # Optional [P, 1] masks (one per filter); None means identity.
        self.kernel_masks: list[np.ndarray | None] = [None] * len(self.filters)

    def _check_input(self, x: Tensor) -> None:
        cfg = self.config
        if cfg.is_2d:
            if x.ndim < 3:
                raise ValueError("2D mixer expects [Ly, Lx, C] input")
            ey, ex = cfg.extents
            if x.shape[-3] != ey or x.shape[-2] != ex or x.shape[-1] != cfg.channels:
                raise ValueError(
                    f"input {x.shape[-3:]} does not match config "
                    f"({ey}, {ex}, {cfg.channels})"
                )
        else:
            if x.ndim < 2 or x.ndim > 3:
                raise ValueError("1D mixer expects [L, C] input")
            if x.shape[-2] != int(cfg.extent) or x.shape[-1] != cfg.channels:
                raise ValueError(
                    f"input {x.shape[-2:]} does not match config "
                    f"({cfg.extent}, {cfg.channels})"
                )

    def kernel(self, index: int = 0) -> Tensor:
        """Materialize filter ``index`` as [P, C], with any truncation mask."""
        k = self.filters[index].materialize()
        mask = self.kernel_masks[index]
        if mask is not None:
            k = nx.mul(k, Tensor(mask))
        return k

    def long_conv(self, qk: Tensor, kernels) -> Tensor:
        """The variant's long convolution of ``qk`` with materialized kernels."""
        cfg = self.config
        if cfg.variant == "causal":
            return nx.causal_convolve(qk, kernels[0], axis=-2)
        if cfg.variant == "bidirectional":
            return _centered_conv(qk, kernels[0], (-2,))
        ey, ex = cfg.extents
        if cfg.variant == "global2d":
            kern = nx.reshape(kernels[0], (2 * ey - 1, 2 * ex - 1, cfg.channels))
            return _centered_conv(qk, kern, (-3, -2))
        gx = _centered_conv(qk, kernels[0], (-2,))  # horizontal, then vertical
        return _centered_conv(gx, nx.reshape(kernels[1], (2 * ey - 1, 1, cfg.channels)), (-3,))

    def forward(self, x: Tensor, kernel_override=None) -> Tensor:
        self._check_input(x)
        q, k, v = project_qkv(x, self.proj)
        if kernel_override is None:
            kernels = [self.kernel(i) for i in range(len(self.filters))]
        else:
            if not isinstance(kernel_override, (list, tuple)):
                kernel_override = [kernel_override]
            kernels = [kk if isinstance(kk, Tensor) else Tensor(kk) for kk in kernel_override]
        g = self.long_conv(nx.mul(q, k), kernels)
        return nx.matmul(nx.mul(g, v), self.out_proj)

    __call__ = forward

    def parameters(self):
        out = list(self.proj.parameters())
        for f in self.filters:
            out.extend(f.parameters())
        out.append(("out_w", self.out_proj))
        return out


# ---------------------------------------------------------------------------
# StarReLU and the local-convolution mixer
# ---------------------------------------------------------------------------


@dataclass
class StarReLUParams:
    """Learnable scale and bias of s * relu(x)^2 + b."""

    scale: Tensor
    shift: Tensor

    def parameters(self):
        return [("act.s", self.scale), ("act.b", self.shift)]


def init_star_relu() -> StarReLUParams:
    # Variance-preserving defaults: s = 2/sqrt(5), b = -1/sqrt(5).
    return StarReLUParams(
        scale=Tensor(np.float64(2.0 / np.sqrt(5.0)), requires_grad=True),
        shift=Tensor(np.float64(-1.0 / np.sqrt(5.0)), requires_grad=True),
    )


def star_relu(x: Tensor, params: StarReLUParams) -> Tensor:
    return nx.add(nx.mul(params.scale, nx.square(nx.relu(x))), params.shift)


class LocalConvMixer:
    """Inverted separable block: expand, depthwise k x k, activation, contract."""

    def __init__(self, config: MixerConfig, rng: np.random.Generator):
        if config.variant != "local":
            raise ValueError("LocalConvMixer requires the local variant")
        self.config = config
        c = config.channels
        wide = config.expand_ratio * c
        kk = config.local_kernel
        half = kk // 2
        self.offsets = [
            (dy, dx) for dy in range(-half, kk - half) for dx in range(-half, kk - half)
        ]
        dw = rng.normal(0.0, 0.02, size=(kk * kk, wide))
        dw[self.offsets.index((0, 0))] += 1.0
        self.expand_w = Tensor(rng.normal(0, 1 / np.sqrt(c), (c, wide)), requires_grad=True)
        self.expand_b = Tensor(np.zeros(wide), requires_grad=True)
        self.depthwise_w = Tensor(dw, requires_grad=True)
        self.depthwise_b = Tensor(np.zeros(wide), requires_grad=True)
        self.act = init_star_relu()
        self.contract_w = Tensor(rng.normal(0, 1 / np.sqrt(wide), (wide, c)), requires_grad=True)
        self.contract_b = Tensor(np.zeros(c), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        cfg = self.config
        ey, ex = cfg.extents
        if x.ndim < 3 or x.shape[-3] != ey or x.shape[-2] != ex or x.shape[-1] != cfg.channels:
            raise ValueError("input does not match local mixer config")
        h = nx.linear(x, self.expand_w, self.expand_b)
        h = nx.shift_convolve(h, self.depthwise_w, self.offsets, (-3, -2))
        h = nx.add(h, self.depthwise_b)
        h = star_relu(h, self.act)
        return nx.linear(h, self.contract_w, self.contract_b)

    __call__ = forward

    def parameters(self):
        return [
            ("expand_w", self.expand_w),
            ("expand_b", self.expand_b),
            ("dw_w", self.depthwise_w),
            ("dw_b", self.depthwise_b),
            *self.act.parameters(),
            ("contract_w", self.contract_w),
            ("contract_b", self.contract_b),
        ]


def build_mixer(config: MixerConfig, rng: np.random.Generator):
    if config.variant == "local":
        return LocalConvMixer(config, rng)
    return GatedConvMixer(config, rng)
