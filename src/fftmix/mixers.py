"""Token mixers: gated long convolutions and the local-convolution block.

All gated variants share one recipe: project the input to three chunks
(query, key, value) with a pointwise layer and a depthwise short
convolution of 3 taps (1D variants) or 5x5 taps (2D variants), convolve q*k
with a long implicitly parameterized kernel, and gate the result with v.
They differ only in how the long convolution reads the sequence:

* ``causal``        - kernel over offsets 0..L-1, outputs never see the future
* ``bidirectional`` - centered kernel over offsets -(L-1)..L-1, full coverage
* ``global2d``      - centered 2D kernel spanning (2Ly-1) x (2Lx-1)
* ``separable2d``   - horizontal then vertical centered 1D kernels
* ``local``         - pointwise expand to 2C, 7x7 depthwise, activation,
  contract back to C (``EXPAND_RATIO``, ``LOCAL_KERNEL``)

The q/k/v projection runs as one op, ``numerics.pointwise_depthwise``: the
pointwise GEMM plus bias goes into the interior of one zero-padded buffer,
the depthwise taps read that buffer through a sliding window, and their
bias is added in place, so no padded copy of the 3C-wide map is made, and
a tape keeps the mixer's input rather than that map.  ``project_qkv`` then
crops q, k and v.  The local mixer runs its expansion and 7x7 depthwise
convolution through the same op.  Its depthwise taps, like each long
convolution's channels, run in blocks under ``numerics._BLOCK_BYTES``
(2 MiB for all the blocks in flight), on a pool of at most two worker
threads; block boundaries are fixed by that budget alone, so a mixer's
output is the same to the bit whatever the number of workers, and every
micro-model shape runs as one block on the calling thread.

Inputs are [L, C] or [Ly, Lx, C] feature maps, with optional leading batch
axes.  Only the centered variants use the FFT.  Each convolved axis of
the kernel is zero-padded at its front from 2L-1 to M, the smallest
2^a 3^b 5^c 7^d >= 2L-1 (``_fft_length``), so offset -(L-1) sits at index
M-(2L-1).  One ``numerics.circular_convolve`` per pass then takes the
unpadded input of length L: the transform zero-pads it to M and the op
returns only the last L outputs of the length-M circular convolution,
which are exactly y[i] = sum_s x[s] * h[i - s], since no index of that
sum wraps around.  No padded input and no full-length output is kept, on
a tape or off it.  A smooth M keeps the transform on pocketfft's radix
kernels, where lengths with a larger prime factor, such as ``hb-s4``'s
6271, 1567, 391 = 17 * 23 and 97 at 224 px, go through Bluestein's
algorithm.  ``causal`` runs the direct sum over offsets
0..L-1, one windowed contraction in ``numerics.shift_convolve``; no output
reads a later position, so its Jacobian above the diagonal is exactly zero
rather than zero up to rounding.

A centered mixer called with no ``kernel_override``, and with no active
``GradTape`` or one that does not track its filter parameters, convolves
with kernel spectra kept from its previous such call, so it neither
materializes its kernels nor transforms them.  The spectra are keyed on
values: a copy of every filter parameter and kernel mask, compared with
``np.array_equal`` on each call, so any change to them (an optimizer step,
``load_params``, a ``.data`` write, a truncation mask) rebuilds the
spectra.  Every pass, cached or not, inverts only the rows of the
transform that its output reads (``numerics.circular_convolve``), and the
mixer drops ``q`` and ``k`` once their product exists, so off a tape
neither outlives the product.  Passes whose tape tracks the filter
parameters materialize the kernels and record their graph.
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
LOCAL_KERNEL = 7  # side of the local mixer's depthwise kernel
EXPAND_RATIO = 2  # the local mixer's hidden width over its channel count


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
            return (LOCAL_KERNEL, LOCAL_KERNEL)
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


def _causal_offsets(taps: int) -> list:
    """Offsets 0..taps-1 along one axis; positive offsets read the past."""
    return [(t,) for t in range(taps)]


def _short_conv_offsets(config: MixerConfig) -> tuple[list, tuple[int, ...]]:
    """Taps of the depthwise short convolution: 5x5 centered for 2D
    variants, 3 centered for bidirectional, the last 3 for causal."""
    if config.is_2d:
        return [(dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)], (-3, -2)
    if config.variant == "causal":
        return _causal_offsets(3), (-2,)
    return [(t,) for t in range(-1, 2)], (-2,)


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
    channel order q, k, v.  The first two run as one
    ``numerics.pointwise_depthwise``."""
    c = params.channels
    if x.shape[-1] != c:
        raise ValueError(f"input has {x.shape[-1]} channels, projection expects {c}")
    wide = nx.pointwise_depthwise(
        x, params.pointwise_w, params.pointwise_b, params.depthwise_w, params.depthwise_b,
        params.offsets, params.axes,
    )
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


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c 7^d >= ``n``."""
    m = max(n, 1)
    while True:
        r = m
        for p in (2, 3, 5, 7):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _pad_to_fft_length(kernel: Tensor, axes: tuple[int, ...]) -> Tensor:
    """``kernel`` zero-padded at the front of each of ``axes`` to its
    ``_fft_length`` M; ``kernel`` itself when every such length is already
    smooth.  A centered kernel of 2L-1 taps then holds offset -(L-1) at
    index M-(2L-1), so the last L outputs of a length-M circular
    convolution of an input of length L are the centered ones."""
    pw = [(0, 0)] * kernel.ndim
    for ax in axes:
        pw[ax] = (_fft_length(kernel.shape[ax]) - kernel.shape[ax], 0)
    return nx.pad(kernel, pw) if any(lo for lo, _ in pw) else kernel


def _run_passes(qk: Tensor, passes) -> Tensor:
    """y[i] = sum_s qk[s] * h[i - s] along each pass's axes, one
    ``circular_convolve`` of the unpadded ``qk`` per pass: the transform
    zero-pads it to the kernel's length M and keeps the last L outputs,
    which read no wrapped index."""
    for kernel, axes in passes:
        qk = nx.circular_convolve(qk, kernel, dims=axes)
    return qk


class GatedConvMixer:
    """y = out_proj(g(q * k) * v) with an implicit long-convolution g."""

    def __init__(self, config: MixerConfig, rng: np.random.Generator):
        if config.variant == "local":
            raise ValueError("use LocalConvMixer for the local variant")
        self.config = config
        self.proj = init_gate_projection(config, rng)
        c, k = config.channels, config.embed_dim
        ext = config.filter_extent()
        if config.variant == "global2d":
            self.filters = [make_implicit_filter_2d(*config.extents, c, k, rng)]
        elif config.variant == "separable2d":  # horizontal then vertical
            self.filters = [
                make_implicit_filter_1d(ext[1], c, k, rng, name="filter_h"),
                make_implicit_filter_1d(ext[0], c, k, rng, name="filter_v"),
            ]
        else:
            self.filters = [
                make_implicit_filter_1d(ext, c, k, rng, causal=config.variant == "causal")
            ]
        self.out_proj = Tensor(
            rng.normal(0.0, 1.0 / np.sqrt(c), size=(c, c)), requires_grad=True
        )
        # Optional [P, 1] masks (one per filter); None means identity.
        self.kernel_masks: list[np.ndarray | None] = [None] * len(self.filters)
        # (key, spectra) of the passes that leave the filters constant; see
        # ``_cached_spectra``.
        self._spectra: tuple[list, list] | None = None

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
        if self.config.variant == "causal":
            taps = kernels[0].shape[0]
            if taps > qk.shape[-2]:
                raise ValueError("kernel longer than sequence")
            return nx.shift_convolve(qk, kernels[0], _causal_offsets(taps), (-2,))
        return _run_passes(qk, self._centered_passes(kernels))

    def _centered_passes(self, kernels) -> list:
        """(kernel shaped against the input, convolved axes) of each centered
        pass, in the order they run.  Each convolved axis is zero-padded at
        its front from 2L-1 to ``_fft_length(2L-1)``."""
        cfg = self.config
        if cfg.variant == "bidirectional":
            passes = [(kernels[0], (-2,))]
        elif cfg.variant == "global2d":
            ky, kx = cfg.filter_extent()
            passes = [(nx.reshape(kernels[0], (ky, kx, cfg.channels)), (-3, -2))]
        else:  # separable2d: horizontal, then vertical
            ky, _ = cfg.filter_extent()
            passes = [(kernels[0], (-2,)), (nx.reshape(kernels[1], (ky, 1, cfg.channels)), (-3,))]
        return [(_pad_to_fft_length(k, axes), axes) for k, axes in passes]

    def _cached_spectra(self) -> list:
        """The centered passes with each kernel replaced by its spectrum.

        The spectra are kept from the last call and reused while every value
        they are built from, each filter parameter and kernel mask, equals
        the copy taken then; any change, however it was made, rebuilds them.
        """
        key = [p.data for f in self.filters for _, p in f.parameters()] + self.kernel_masks
        if self._spectra is not None:
            old, spectra = self._spectra
            if all(map(np.array_equal, old, key)):
                return spectra
        self._spectra = None  # free the stale spectra before building new ones
        kernels = [self.kernel(i) for i in range(len(self.filters))]
        passes = self._centered_passes(kernels)
        spectra = [(nx.kernel_spectrum(k, axes), axes) for k, axes in passes]
        self._spectra = ([None if a is None else a.copy() for a in key], spectra)
        return spectra

    def _tracked_filters(self) -> bool:
        """Whether the active tape, if any, tracks a filter parameter."""
        tape = nx._active_tape()
        return tape is not None and any(
            tape.tracks(p) for f in self.filters for _, p in f.parameters()
        )

    def forward(self, x: Tensor, kernel_override=None) -> Tensor:
        """Project, long convolution, gate, ``out_proj``.  A centered variant
        with no ``kernel_override``, whose filter parameters no active tape
        tracks, convolves with ``_cached_spectra``; the output is the same to
        the bit."""
        self._check_input(x)
        q, k, v = project_qkv(x, self.proj)
        if kernel_override is not None:
            if not isinstance(kernel_override, (list, tuple)):
                kernel_override = [kernel_override]
            kernels = [kk if isinstance(kk, Tensor) else Tensor(kk) for kk in kernel_override]
        elif self.config.variant == "causal" or self._tracked_filters():
            kernels = [self.kernel(i) for i in range(len(self.filters))]
        else:
            kernels = None
        qk = nx.mul(q, k)
        del q, k  # a tape keeps what its VJPs need; off a tape they are freed here
        if kernels is None:
            g = _run_passes(qk, self._cached_spectra())
        else:
            g = self.long_conv(qk, kernels)
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
    return nx.star_relu(x, params.scale, params.shift)


class LocalConvMixer:
    """Inverted separable block: expand, depthwise k x k, activation, contract."""

    def __init__(self, config: MixerConfig, rng: np.random.Generator):
        if config.variant != "local":
            raise ValueError("LocalConvMixer requires the local variant")
        self.config = config
        c = config.channels
        wide = EXPAND_RATIO * c
        kk = LOCAL_KERNEL
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
        h = nx.pointwise_depthwise(
            x, self.expand_w, self.expand_b, self.depthwise_w, self.depthwise_b, self.offsets, (-3, -2)
        )
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
