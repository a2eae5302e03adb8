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

The q/k/v projection runs as one op, ``numerics.pointwise_depthwise``,
which writes q, k and v as three tensors of one tape node: the pointwise
GEMM plus bias goes into a zero-padded window of rows, the depthwise taps'
halo included, that slides down the map, the taps read that window through
a sliding view, and each part's rows go into its own output.  No 3C-wide
map exists, padded or not, nothing is cropped,
and a tape keeps the mixer's input rather than such a map.  The local
mixer runs its expansion and 7x7 depthwise convolution through the same op,
as one part.  How those ops and the long convolutions cut their work into
blocks is ``numerics``' decision alone.

Inputs are [L, C] or [Ly, Lx, C] feature maps, with optional leading batch
axes.  Only the centered variants use the FFT: each pass is one
``numerics.circular_convolve``, the centred convolution of the input with
its unpadded kernel of 2L-1 taps per convolved axis, which picks its
transform length and pads the kernel itself.  ``causal`` runs the direct
sum over offsets 0..L-1, one windowed contraction in
``numerics.shift_convolve``; no output reads a later position, so its
Jacobian above the diagonal is exactly zero rather than zero up to
rounding.

``GatedConvMixer.long_conv`` alone picks the kernels a long convolution
uses.  Kernels handed to it (``forward``'s ``kernel_override``) are used as
given.  With none, it materializes the filters when the variant is
``causal`` or the active ``GradTape`` tracks a filter parameter, and the
tape records their graph; otherwise a centered mixer convolves with kernel
spectra kept from its previous such call, so it neither materializes its
kernels nor transforms them.  The spectra are keyed on values: a copy of
every filter parameter and kernel mask, compared with ``np.array_equal`` on
each call, so any change to them (an optimizer step, ``load_params``, a
``.data`` write, a truncation mask) rebuilds the spectra.  Every pass,
cached or not, inverts only the rows of the transform that its output
reads (``numerics.circular_convolve``).  The mixer drops ``q`` and ``k``
once their product exists, and ``q * k``, ``g`` and ``v`` once the gate
exists, so off a tape none of them outlives its use.  Kernels that a
2D pass reshapes are checked first, and one of the wrong size is a
``ValueError`` that names the filter and the taps it wants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nx
from .filters import make_implicit_filter_1d, make_implicit_filter_2d
from .numerics import Tensor

MIXER_VARIANTS = ("causal", "bidirectional", "global2d", "separable2d", "local")
_VARIANTS_2D = ("global2d", "separable2d", "local")
LOCAL_KERNEL = 7  # side of the local mixer's depthwise kernel
EXPAND_RATIO = 2  # the local mixer's hidden width over its channel count


@dataclass
class MixerConfig:
    """Which mixer to build: variant, channel count, and grid geometry.

    ``extent`` is stored as a tuple of ints, one per axis the variant mixes
    along: (L,) for a 1D variant, (Ly, Lx) for a 2D one.  It is given as
    that many ints, or as one int for every axis.  ``embed_dim`` is the
    positional embedding dimension K of the implicit filter: even and at
    least 2 for ``global2d``, whose basis gives half its columns to each
    axis, and at least 1 for the other filtered variants.  Each error
    message starts with the name of the field it rejects.
    """

    variant: str
    channels: int
    extent: int | tuple[int, ...]
    embed_dim: int = 8

    def __post_init__(self):
        if self.variant not in MIXER_VARIANTS:
            raise ValueError(f"variant {self.variant!r} is not one of {MIXER_VARIANTS}")
        if self.channels < 1:
            raise ValueError(f"channels must be at least 1, got {self.channels}")
        axes = 2 if self.is_2d else 1
        e = self.extent
        sides = tuple(e) if isinstance(e, (list, tuple)) else (e,) * axes
        whole = all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in sides)
        if len(sides) != axes or not whole:
            raise ValueError(f"extent must be an int, or one int per axis ({axes}) for {self.variant}, got {e!r}")
        if min(sides) < 1:
            raise ValueError(f"extent must be at least 1 per axis, got {e!r}")
        self.extent = tuple(int(n) for n in sides)
        k = self.embed_dim
        if self.variant == "global2d" and (k < 2 or k % 2):
            raise ValueError(f"embed_dim must be even and at least 2 for global2d, got {k}")
        if self.variant != "local" and k < 1:
            raise ValueError(f"embed_dim must be at least 1, got {k}")

    @property
    def is_2d(self) -> bool:
        return self.variant in _VARIANTS_2D

    def check_input(self, x: Tensor) -> None:
        """A ``ValueError`` unless ``x`` is [..., Ly, Lx, C] for a 2D variant
        or [L, C] or [N, L, C] for a 1D one, with this config's extent and
        channels."""
        want = (*self.extent, self.channels)
        rank_ok = x.ndim >= 3 if self.is_2d else x.ndim in (2, 3)
        if not rank_ok or x.shape[-len(want):] != want:
            layout = "[..., Ly, Lx, C]" if self.is_2d else "[L, C] or [N, L, C]"
            raise ValueError(f"{self.variant} mixer expects {layout} input ending in {want}, got {x.shape}")

    def filter_extent(self):
        """Kernel grid extent: L, 2L-1, (2Ly-1, 2Lx-1), or the local k x k."""
        if self.variant == "causal":
            return self.extent[0]
        if self.variant == "bidirectional":
            return 2 * self.extent[0] - 1
        if self.variant == "local":
            return (LOCAL_KERNEL, LOCAL_KERNEL)
        ey, ex = self.extent
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
    channel order q, k, v: one ``numerics.pointwise_depthwise`` that writes
    the three parts as three tensors."""
    c = params.channels
    if x.shape[-1] != c:
        raise ValueError(f"input has {x.shape[-1]} channels, projection expects {c}")
    q, k, v = nx.pointwise_depthwise(
        x, params.pointwise_w, params.pointwise_b, params.depthwise_w, params.depthwise_b,
        params.offsets, params.axes, parts=3,
    )
    return q, k, v


# ---------------------------------------------------------------------------
# Gated long-convolution mixer
# ---------------------------------------------------------------------------


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
            self.filters = [make_implicit_filter_2d(*config.extent, c, k, rng)]
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

    def kernel(self, index: int = 0) -> Tensor:
        """Materialize filter ``index`` as [P, C], with any truncation mask."""
        k = self.filters[index].materialize()
        mask = self.kernel_masks[index]
        if mask is not None:
            k = nx.mul(k, Tensor(mask))
        return k

    def long_conv(self, qk: Tensor, kernels=None) -> Tensor:
        """The variant's long convolution of ``qk``, with the one rule for
        its kernels: given ``kernels`` (one array or ``Tensor``, or a list of
        them) are used; with none, the filters are materialized when the
        variant is ``causal`` or the active tape tracks a filter parameter,
        and a centered variant otherwise convolves with ``_cached_spectra``.

        A centered pass is y[i] = sum_s qk[s] * h[i - s] along its axes, one
        ``circular_convolve`` of ``qk`` with a kernel of 2L-1 taps; a kernel
        of any other length is an error."""
        if kernels is not None:
            listed = kernels if isinstance(kernels, (list, tuple)) else [kernels]
            if len(listed) != len(self.filters):
                raise ValueError(f"a {self.config.variant} mixer takes {len(self.filters)} kernel(s), got {len(listed)}")
            kernels = [nx._lift(k) for k in listed]
        elif self.config.variant == "causal" or self._tracked_filters():
            kernels = [self.kernel(i) for i in range(len(self.filters))]
        if self.config.variant == "causal":
            taps = kernels[0].shape[0]
            if taps > qk.shape[-2]:
                raise ValueError("kernel longer than sequence")
            return nx.shift_convolve(qk, kernels[0], _causal_offsets(taps), (-2,))
        passes = self._cached_spectra() if kernels is None else self._centered_passes(kernels)
        for kernel, axes in passes:
            qk = nx.circular_convolve(qk, kernel, dims=axes)
        return qk

    def _centered_passes(self, kernels) -> list:
        """(kernel shaped against the input, convolved axes) of each centered
        pass, in the order they run."""
        cfg = self.config
        if cfg.variant == "bidirectional":
            return [(kernels[0], (-2,))]
        if cfg.variant == "global2d":
            return [(self._shaped(0, kernels[0], cfg.filter_extent()), (-3, -2))]
        ky, _ = cfg.filter_extent()  # separable2d: horizontal, then vertical
        return [(kernels[0], (-2,)), (self._shaped(1, kernels[1], (ky, 1)), (-3,))]

    def _shaped(self, index: int, kernel: Tensor, taps: tuple[int, int]) -> Tensor:
        """The [P, C] ``kernel`` of filter ``index`` reshaped to ``taps +
        (C,)``, checked before the reshape: a ``ValueError`` naming the
        filter and the taps it wants when it holds another number of
        values."""
        c, p = self.config.channels, taps[0] * taps[1]
        if kernel.size != p * c:
            grid = " x ".join(str(t) for t in taps if t > 1) or "1"
            raise ValueError(
                f"{self.filters[index].name}: a {self.config.variant} mixer of extent {self.config.extent} "
                f"wants a [{p}, {c}] kernel, {grid} taps of {c} channels, got shape {kernel.shape}"
            )
        return nx.reshape(kernel, taps + (c,))

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
        """Project, long convolution, gate, ``out_proj``; ``long_conv`` picks
        the kernels, given ``kernel_override`` or not."""
        self.config.check_input(x)
        q, k, v = project_qkv(x, self.proj)
        qk = nx.mul(q, k)
        del q, k  # a tape keeps what its VJPs need; off a tape they are freed here
        g = self.long_conv(qk, kernel_override)
        gated = nx.mul(g, v)
        del qk, g, v  # likewise, before out_proj allocates its output
        return nx.matmul(gated, self.out_proj)

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
        self.config.check_input(x)
        (h,) = nx.pointwise_depthwise(
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
