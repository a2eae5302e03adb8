"""Dense tensors, FFT convolutions, and reverse-mode differentiation.

Everything in this package flows through :class:`Tensor`, a thin wrapper
around a float ndarray.  Operations are plain functions; when a
:class:`GradTape` is active they record vector-Jacobian products so that
``tape.gradient`` can replay the computation in exact reverse order.

Values are float64 throughout; float32 is only the storage format of HPX1
files.  Every operation validates that its output is finite: NaN/Inf
anywhere is an error, never a silent state.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

DTYPE = np.float64

_FLOAT_KINDS = ("f",)


def _as_array(value, dtype=None) -> np.ndarray:
    arr = np.asarray(value)
    if arr.dtype.kind not in _FLOAT_KINDS:
        arr = arr.astype(DTYPE)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    return arr


class Tensor:
    """Dense N-dimensional real array with optional gradient tracking.

    ``data`` is stored row-major; ``requires_grad`` marks the tensor as a
    differentiation source for any tape it participates in.
    """

    __slots__ = ("data", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = _as_array(data)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor contains non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # Operator sugar; all routed through the recorded ops below.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)


def _lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


class TapeNode:
    """One recorded operation: inputs, output, and its vector-Jacobian product.

    ``need[k]`` says whether input ``k`` wants a partial.  The VJP closure
    holds the same list (never the node, which would form a reference
    cycle), so ``GradTape.gradient`` can narrow it in place.
    """

    __slots__ = ("op", "inputs", "output", "_vjp", "need")

    def __init__(self, op: str, inputs: tuple[Tensor, ...], output: Tensor, vjp, need: list[bool]):
        self.op = op
        self.inputs = inputs
        self.output = output
        self._vjp = vjp
        self.need = need

    def vjp(self, upstream) -> tuple[np.ndarray | None, ...]:
        """Gradients w.r.t. each input given the upstream gradient array.

        An op may return ``None`` for an input whose ``need`` is false.
        """
        g = upstream.data if isinstance(upstream, Tensor) else np.asarray(upstream, dtype=DTYPE)
        if g.shape != self.output.shape:
            raise ValueError(
                f"upstream gradient shape {g.shape} does not match output {self.output.shape}"
            )
        return self._vjp(g)


_TAPE_STATE = threading.local()


def _active_tape():
    return getattr(_TAPE_STATE, "tape", None)


class GradTape:
    """Records operations of one forward pass for a single backward replay.

    Single-writer: one tape per forward pass.  ``gradient`` may be called
    once; a second call without re-recording raises.  ``_outputs`` holds the
    ids of recorded outputs; the nodes keep those tensors alive, so an id
    cannot be reused while the tape exists.
    """

    def __init__(self):
        self._nodes: list[TapeNode] = []
        self._outputs: set[int] = set()
        self._consumed = False

    def __enter__(self) -> "GradTape":
        if _active_tape() is not None:
            raise RuntimeError("a GradTape is already active in this thread")
        _TAPE_STATE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STATE.tape = None
        return False

    @property
    def nodes(self) -> list[TapeNode]:
        return self._nodes

    def gradient(
        self,
        target: Tensor,
        sources: Sequence[Tensor],
        upstream=None,
    ) -> list[Tensor]:
        """Backpropagate from ``target``, returning one gradient per source.

        Sources that do not influence the target get exact-zero gradients,
        as do sources that are neither ``requires_grad`` nor recorded
        outputs.  A forward sweep first marks the tensors that depend on a
        source and narrows each node's ``need`` to those inputs; the node
        list is then replayed back-to-front, a reverse topological order of
        the recorded graph, calling only nodes with a needed input.  VJPs
        compute only the partials their ``need`` asks for, and the gradient
        of a node's output is dropped once its VJP has run unless that
        output is a source.
        """
        if self._consumed:
            raise RuntimeError("tape already consumed; re-record the forward pass")
        self._consumed = True
        if upstream is None:
            if target.size != 1:
                raise ValueError("target must be scalar when no upstream gradient is given")
            seed = np.ones_like(target.data)
        else:
            seed = upstream.data if isinstance(upstream, Tensor) else np.asarray(upstream, dtype=DTYPE)
            if seed.shape != target.shape:
                raise ValueError("upstream gradient shape must match target shape")
        live = {id(s) for s in sources if s.requires_grad or id(s) in self._outputs}
        for node in self._nodes:
            node.need[:] = [id(inp) in live for inp in node.inputs]
            if any(node.need):
                live.add(id(node.output))
        keep = {id(s) for s in sources}
        grads: dict[int, np.ndarray] = {id(target): seed}
        for node in reversed(self._nodes):
            if not any(node.need):
                continue
            out_id = id(node.output)
            # Every use of the output comes later on the tape, so its gradient
            # is complete here and, unless it is a source, dead afterwards.
            g_out = grads.get(out_id) if out_id in keep else grads.pop(out_id, None)
            if g_out is None:
                continue
            partials = node._vjp(g_out)
            for inp, need, partial in zip(node.inputs, node.need, partials):
                if not need:
                    continue
                acc = grads.get(id(inp))
                grads[id(inp)] = partial if acc is None else acc + partial
        return [
            Tensor(grads[id(s)]) if id(s) in grads else Tensor(np.zeros_like(s.data))
            for s in sources
        ]


def _record(op: str, output: Tensor, inputs: tuple[Tensor, ...], vjp) -> list[bool] | None:
    """Record ``op`` on the active tape if any input is tracked.

    Returns the node's ``need`` list (``None`` when nothing is recorded).  A
    VJP may read it from its closure and return ``None`` for inputs whose
    partial is not needed; ``GradTape.gradient`` narrows it to the inputs
    that depend on the requested sources before any VJP runs.
    """
    tape = _active_tape()
    if tape is None:
        return None
    need = [i.requires_grad or id(i) in tape._outputs for i in inputs]
    if not any(need):
        return None
    tape._outputs.add(id(output))
    tape._nodes.append(TapeNode(op, inputs, output, vjp, need))
    return need


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# Elementwise and reduction primitives
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = Tensor(a.data + b.data)
    _record("add", out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))
    return out


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = Tensor(a.data - b.data)
    _record("sub", out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))
    return out


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = Tensor(a.data * b.data)

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    _record("mul", out, (a, b), vjp)
    return out


def div(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = Tensor(a.data / b.data)

    def vjp(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    _record("div", out, (a, b), vjp)
    return out


def neg(a) -> Tensor:
    a = _lift(a)
    out = Tensor(-a.data)
    _record("neg", out, (a,), lambda g: (-g,))
    return out


def exp(a) -> Tensor:
    a = _lift(a)
    val = np.exp(a.data)
    out = Tensor(val)
    _record("exp", out, (a,), lambda g: (g * val,))
    return out


def log(a) -> Tensor:
    a = _lift(a)
    out = Tensor(np.log(a.data))
    _record("log", out, (a,), lambda g: (g / a.data,))
    return out


def sin(a) -> Tensor:
    a = _lift(a)
    out = Tensor(np.sin(a.data))
    _record("sin", out, (a,), lambda g: (g * np.cos(a.data),))
    return out


def sqrt(a) -> Tensor:
    a = _lift(a)
    val = np.sqrt(a.data)
    out = Tensor(val)
    _record("sqrt", out, (a,), lambda g: (g * (0.5 / val),))
    return out


def relu(a) -> Tensor:
    a = _lift(a)
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, 0.0))
    _record("relu", out, (a,), lambda g: (g * mask,))
    return out


def square(a) -> Tensor:
    a = _lift(a)
    out = Tensor(a.data * a.data)
    _record("square", out, (a,), lambda g: (g * (2.0 * a.data),))
    return out


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        axes = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.shape).copy(),)

    _record("sum", out, (a,), vjp)
    return out


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.shape[ax]
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    out = Tensor(a.data.reshape(shape))
    _record("reshape", out, (a,), lambda g: (g.reshape(a.shape),))
    return out


def transpose(a, axes: Sequence[int]) -> Tensor:
    a = _lift(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(a.data.transpose(axes))
    _record("transpose", out, (a,), lambda g: (g.transpose(inv),))
    return out


def roll(a, shift: int, axis: int) -> Tensor:
    a = _lift(a)
    out = Tensor(np.roll(a.data, shift, axis=axis))
    _record("roll", out, (a,), lambda g: (np.roll(g, -shift, axis=axis),))
    return out


def matmul(a, b) -> Tensor:
    """``a @ b`` where ``a`` is [..., K] and ``b`` is [K, M]."""
    a, b = _lift(a), _lift(b)
    out = Tensor(a.data @ b.data)

    def vjp(g):
        ga = g @ b.data.T if need[0] else None
        gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]) if need[1] else None
        return ga, gb

    need = _record("matmul", out, (a, b), vjp)
    return out


def pad(a, pad_width: Sequence[tuple[int, int]]) -> Tensor:
    """Zero-pad; ``pad_width`` is one (before, after) pair per axis."""
    a = _lift(a)
    pw = tuple((int(lo), int(hi)) for lo, hi in pad_width)
    out = Tensor(np.pad(a.data, pw))
    slices = tuple(slice(lo, lo + n) for (lo, _), n in zip(pw, a.shape))
    _record("pad", out, (a,), lambda g: (g[slices],))
    return out


def crop(a, slices: Sequence[slice]) -> Tensor:
    a = _lift(a)
    sl = tuple(slices)
    out = Tensor(a.data[sl].copy())

    def vjp(g):
        full = np.zeros_like(a.data)
        full[sl] = g
        return (full,)

    _record("crop", out, (a,), vjp)
    return out


# ---------------------------------------------------------------------------
# Convolution primitives
# ---------------------------------------------------------------------------


def _normalize_axes(ndim: int, dims: Iterable[int]) -> tuple[int, ...]:
    dims = tuple(dims)
    if len(dims) == 0:
        raise ValueError("axis list must not be empty")
    axes = []
    for d in dims:
        if not -ndim <= d < ndim:
            raise ValueError(f"axis {d} out of range for rank {ndim}")
        axes.append(d % ndim)
    if len(set(axes)) != len(axes):
        raise ValueError("duplicate axes")
    return tuple(axes)


def _circ_conv_raw(x: np.ndarray, h: np.ndarray, x_axes: tuple[int, ...]) -> np.ndarray:
    """Circular convolution of real arrays along ``x_axes`` via real FFTs.

    ``h`` aligns with ``x`` from the trailing axis; leading axes broadcast.
    """
    lengths = tuple(x.shape[ax] for ax in x_axes)
    xf = np.fft.rfftn(x, axes=x_axes)
    offset = x.ndim - h.ndim
    h_axes = tuple(ax - offset for ax in x_axes)
    hf = np.fft.rfftn(h, axes=h_axes)
    return np.fft.irfftn(xf * hf, s=lengths, axes=x_axes)


def _circ_reverse(arr: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Index reversal modulo N per axis: out[t] = arr[(-t) mod N]."""
    out = arr
    for ax in axes:
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


def circular_convolve(x, h, dims: Sequence[int]) -> Tensor:
    """Circular convolution y[t] = sum_s x[s] * h[(t-s) mod N] along ``dims``.

    ``x`` and ``h`` must have equal length on every convolved axis (callers
    zero-pad beforehand); other axes follow numpy broadcasting.  Computed by
    forward FFT, pointwise product, inverse FFT; the result is real.
    """
    x, h = _lift(x), _lift(h)
    x_axes = _normalize_axes(x.ndim, dims)
    offset = x.ndim - h.ndim
    for ax in x_axes:
        h_ax = ax - offset
        if h_ax < 0 or x.shape[ax] != h.shape[h_ax]:
            raise ValueError(
                f"convolved axis {ax}: x length {x.shape[ax]} does not match h"
            )
    out = Tensor(_circ_conv_raw(x.data, h.data, x_axes))
    h_axes = tuple(ax - offset for ax in x_axes)

    def vjp(g):
        gx = gh = None
        if need[0]:
            gx = _unbroadcast(_circ_conv_raw(g, _circ_reverse(h.data, h_axes), x_axes), x.shape)
        if need[1]:
            gh = _unbroadcast(_circ_conv_raw(g, _circ_reverse(x.data, x_axes), x_axes), h.shape)
        return gx, gh

    need = _record("circular_convolve", out, (x, h), vjp)
    return out


def causal_convolve(x, h, axis: int = -2) -> Tensor:
    """Structurally causal convolution y[i] = sum_{s<=i} h[s] * x[i-s].

    Implemented as shifted accumulation, so outputs provably never read
    future positions: zeroing x beyond position j leaves y[0..j] bit-identical,
    and the Jacobian above the diagonal is exactly zero.  ``h`` has the tap
    axis first ([T, ...]) and broadcasts against x on the remaining axes.
    """
    x, h = _lift(x), _lift(h)
    ax = _normalize_axes(x.ndim, (axis,))[0]
    length = x.shape[ax]
    taps = h.shape[0]
    if taps > length:
        raise ValueError("kernel longer than sequence")
    y = np.zeros_like(x.data)

    def _dst(s):
        sl = [slice(None)] * x.ndim
        sl[ax] = slice(s, length)
        return tuple(sl)

    def _src(s):
        sl = [slice(None)] * x.ndim
        sl[ax] = slice(0, length - s)
        return tuple(sl)

    for s in range(taps):
        y[_dst(s)] += h.data[s] * x.data[_src(s)]
    out = Tensor(y)

    def vjp(g):
        gx = np.zeros_like(x.data) if need[0] else None
        gh = np.zeros_like(h.data) if need[1] else None
        for s in range(taps):
            if need[0]:
                gx[_src(s)] += h.data[s] * g[_dst(s)]
            if need[1]:
                contrib = g[_dst(s)] * x.data[_src(s)]
                red = tuple(range(contrib.ndim - (h.ndim - 1)))
                gh[s] += contrib.sum(axis=red) if red else contrib
        return gx, gh

    need = _record("causal_convolve", out, (x, h), vjp)
    return out


def shift_convolve(x, w, offsets: Sequence[tuple[int, ...]], axes: Sequence[int]) -> Tensor:
    """Small dense convolution as a sum of zero-padded shifts.

    y = sum_t w[t] * shift(x, offsets[t]) with zero fill outside the array.
    ``w`` is [T, C] (or [T] scalars) broadcasting on the trailing axes of x.
    Used for the depthwise short convolutions; being pure shift-adds it keeps
    locality exact (no spectral leakage).
    """
    x, w = _lift(x), _lift(w)
    ax = _normalize_axes(x.ndim, axes)
    offs = [tuple(int(o) for o in off) for off in offsets]
    if len(offs) != w.shape[0]:
        raise ValueError("offset count must match tap count")

    def _pair(offset):
        src = [slice(None)] * x.ndim
        dst = [slice(None)] * x.ndim
        for a, o in zip(ax, offset):
            n = x.shape[a]
            if abs(o) >= n:
                return None, None
            if o >= 0:
                dst[a] = slice(o, n)
                src[a] = slice(0, n - o)
            else:
                dst[a] = slice(0, n + o)
                src[a] = slice(-o, n)
        return tuple(src), tuple(dst)

    y = np.zeros_like(x.data)
    for t, off in enumerate(offs):
        src, dst = _pair(off)
        if src is None:
            continue
        y[dst] += w.data[t] * x.data[src]
    out = Tensor(y)

    def vjp(g):
        gx = np.zeros_like(x.data) if need[0] else None
        gw = np.zeros_like(w.data) if need[1] else None
        for t, off in enumerate(offs):
            src, dst = _pair(off)
            if src is None:
                continue
            if need[0]:
                gx[src] += w.data[t] * g[dst]
            if need[1]:
                contrib = g[dst] * x.data[src]
                red = tuple(range(contrib.ndim - (w.ndim - 1)))
                gw[t] += contrib.sum(axis=red) if red else contrib
        return gx, gw

    need = _record("shift_convolve", out, (x, w), vjp)
    return out


def strided_conv2d(x, weight, bias, stride: int, padding: int) -> Tensor:
    """Strided dense 2D convolution for the patch stem and merging layers.

    x: [N, H, W, Cin]; weight: [k, k, Cin, Cout]; bias: [Cout].
    Zero padding; output extent (H + 2p - k)//stride + 1.
    """
    x, weight, bias = _lift(x), _lift(weight), _lift(bias)
    if x.ndim != 4:
        raise ValueError("strided_conv2d expects [N, H, W, C] input")
    k = weight.shape[0]
    n, hh, ww, cin = x.shape
    if weight.shape[2] != cin:
        raise ValueError("channel mismatch between input and weight")
    ho = (hh + 2 * padding - k) // stride + 1
    wo = (ww + 2 * padding - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError("input too small for kernel/stride")
    xp = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    y = np.tile(bias.data, (n, ho, wo, 1)).astype(x.dtype)
    for dy in range(k):
        for dx in range(k):
            sl = xp[:, dy : dy + stride * ho : stride, dx : dx + stride * wo : stride, :]
            y += sl @ weight.data[dy, dx]
    out = Tensor(y)

    def vjp(g):
        gxp = np.zeros_like(xp) if need[0] else None
        gw = np.zeros_like(weight.data) if need[1] else None
        for dy in range(k):
            for dx in range(k):
                win = (slice(None), slice(dy, dy + stride * ho, stride),
                       slice(dx, dx + stride * wo, stride), slice(None))
                if need[0]:
                    gxp[win] += g @ weight.data[dy, dx].T
                if need[1]:
                    gw[dy, dx] = xp[win].reshape(-1, cin).T @ g.reshape(-1, g.shape[-1])
        gx = gxp[:, padding : padding + hh, padding : padding + ww, :] if need[0] else None
        gb = g.sum(axis=(0, 1, 2)) if need[2] else None
        return gx, gw, gb

    need = _record("strided_conv2d", out, (x, weight, bias), vjp)
    return out


def linear(x, weight, bias=None) -> Tensor:
    """x @ weight (+ bias) with x of shape [..., Cin]."""
    y = matmul(x, weight)
    return y if bias is None else add(y, bias)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def grad_check(
    f: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-5,
    max_coords: int = 10_000,
    seed: int = 20240,
) -> float:
    """Compare tape gradients of scalar ``f(*inputs)`` to central differences.

    Differentiates with respect to the passed tensors themselves, so ``f``
    may use them positionally or through a closure (e.g. parameters living
    inside a model).  Checks every coordinate, or a fixed seeded subsample
    when an input has more than ``max_coords`` of them.  Returns the max
    relative error |analytic - numeric| / max(|analytic|, |numeric|, 1).
    Input data is restored exactly afterwards.
    """
    if not 0.0 < eps <= 1e-2:
        raise ValueError("eps must lie in (0, 1e-2]")
    tensors = [_lift(x) for x in inputs]
    saved_flags = [t.requires_grad for t in tensors]
    for t in tensors:
        t.requires_grad = True
    try:
        with GradTape() as tape:
            out = f(*tensors)
        if out.size != 1:
            raise ValueError("grad_check requires a scalar-valued objective")
        analytic = tape.gradient(out, tensors)
        rng = np.random.default_rng(seed)
        worst = 0.0
        for x, a in zip(tensors, analytic):
            flat = x.data.reshape(-1)
            n = flat.size
            idx = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
            a_flat = a.data.reshape(-1)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + eps
                f_plus = float(f(*tensors).data.reshape(-1)[0])
                flat[i] = orig - eps
                f_minus = float(f(*tensors).data.reshape(-1)[0])
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * eps)
                err = abs(a_flat[i] - numeric) / max(abs(a_flat[i]), abs(numeric), 1.0)
                worst = max(worst, err)
    finally:
        for t, flag in zip(tensors, saved_flags):
            t.requires_grad = flag
    return worst
