"""Dense tensors, FFT convolutions, and reverse-mode differentiation.

Everything in this package flows through :class:`Tensor`, a thin wrapper
around a float ndarray.  Operations are plain functions; when a
:class:`GradTape` is active they record vector-Jacobian products so that
``tape.gradient`` can replay the computation in exact reverse order.

A tape records only operations on the tensors it tracks.
``GradTape(sources)`` tracks the tensors in ``sources`` and everything
computed from them; ``GradTape()`` tracks every tensor with
``requires_grad`` set and everything computed from those.  Operations on
untracked tensors record nothing, so a tape told its sources keeps no
graph of the values it treats as constants.  A recorded op keeps only the
arrays its vector-Jacobian product reads, never a tensor.  An op may have
several outputs, recorded as one node (``TapeNode``) whose VJP gets one
cotangent per output.

The primitives are the elementwise and reduction ops (``add``, ``mul``,
``exp``, ``sin``, ``square``, ``tensor_sum``, ``mean``), the shape ops
(``reshape``, ``crop``), ``matmul``/``linear``, the
convolutions (``circular_convolve`` with ``kernel_spectrum``,
``shift_convolve``, ``strided_conv2d``) and five fused layers:
``layer_norm``, ``star_relu`` and ``cross_entropy`` each record one op with
a closed-form VJP, where composing them from the elementary ops would take
12, 4 and 10; ``feed_forward`` (``layer_norm``, linear, StarReLU, linear:
a MetaFormer block's second norm and its FFN) records one op in place of
6, keeping the norm's normalised input and recomputing the norm's output
and the hidden layer in the backward pass; and
``pointwise_depthwise`` (linear, ``shift_convolve``, add, then a crop per
channel part: q, k and v for the gated mixers) records one op with one
output per part, in place of 4 and the crops, writing its pointwise layer
into a zero-padded window of rows that its depthwise taps read and
recomputing that layer for the taps' partial.
``circular_convolve`` is the centred convolution of an L-long map with a
kernel of 2L-1 taps on each convolved axis, and picks its transform length
itself.  It has one path, whether it is given a kernel or a kernel spectrum
(the constant kernel of a pass that leaves the kernels as they are): it
pads only the kernel, inverts only the rows that its output, or its
x-partial, reads, and takes the kernel partial with one inverse transform,
after summing over the batch.

The wide layers work in independent blocks under one byte budget,
``_BLOCK_BYTES`` (2 MiB), which covers every block in flight at once:
``circular_convolve`` runs its forward pass and both partials over blocks
of trailing channels, ``feed_forward`` its forward pass and its VJP over
blocks of rows, ``pointwise_depthwise`` its forward pass through a
window of rows of its first convolved axis, halo included, that each
block slides down its rows, and the depthwise contraction of
``shift_convolve`` and the x-partial of ``pointwise_depthwise`` over blocks
of rows of that axis.  Blocks are cut at ``_BLOCK_BYTES //
_IN_FLIGHT`` each, a constant, and run on a pool of ``min(2,
os.cpu_count())`` worker threads (``_each_block``), at most two at a time;
numpy's FFTs, GEMMs and ``einsum`` release the interpreter lock, so two
blocks run on two cores.  Every blocked op has one shape, whether it
runs one block or many: it allocates its outputs once, each block writes
its own entries of them and may return terms of a sum, and
``_over_blocks`` sums those terms over the blocks in block order on the
calling thread, so no output depends on the number of workers: one worker
gives the same bits.  Workers touch arrays only; each op still creates
its ``Tensor`` and records its one node on the calling thread, whose tape
it is.  Every channel and row goes through the arithmetic it would go
through in one block, so the outputs and the partials of the blocked
inputs are the same to the bit; only ``feed_forward``'s weight partials,
summed over its blocks of rows, can differ from one block's in the last
bits.  Every micro-model shape runs as one block, on the calling thread.
Every public function has a caller in the package, except ``grad_check``
and ``square``, which the gradient suite uses.

Values are float64 throughout: a tensor converts any real input to
float64 and rejects complex, string, bytes and object values; float32 is
only the storage format of HPX1 files.  Every operation validates that its
output is finite: NaN/Inf anywhere is an error, never a silent state.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

DTYPE = np.float64

# Booleans, signed and unsigned integers and floats: the dtypes that hold reals.
_REAL_KINDS = "biuf"

# The most scratch memory, in bytes, that the blocks of a wide layer in
# flight take between them: ``circular_convolve`` transforms at most
# ``_BLOCK_BYTES // _IN_FLIGHT`` of spectrum per block of trailing channels,
# ``feed_forward`` holds at most that much hidden layer per block of rows, in
# its forward pass and in its VJP, ``pointwise_depthwise`` holds at most that
# much window of zero-padded rows and scratch per block, and the depthwise
# contraction of ``shift_convolve`` writes at most that much output per
# block of rows.  Each op allocates its outputs once and its
# blocks write into them (``_over_blocks``), so the budget counts only a
# block's scratch arrays.  At most ``_IN_FLIGHT`` blocks run at once, so
# the budget holds whatever the number of workers; the cut is a constant,
# so block boundaries, and every output bit, never depend on that number or
# on the machine.  Every micro-model shape runs as one block.
_BLOCK_BYTES = 2 * 2**20
_IN_FLIGHT = 2
# The share of a block's budget that ``pointwise_depthwise`` gives its
# W-wide scratch, which its GEMM and its einsum fill a chunk of rows at a
# time: the rest holds the block's window of zero-padded rows.
_CHUNK_BYTES = _BLOCK_BYTES // _IN_FLIGHT // 8
# Threads that run a wide layer's blocks: one per CPU, at most _IN_FLIGHT.
_WORKERS = min(_IN_FLIGHT, os.cpu_count() or 1)
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()
_WORKER_STATE = threading.local()


def _blocks(n: int, item_bytes: int) -> list[slice]:
    """``range(n)`` cut into the fewest blocks of equal length (the last may
    be shorter) whose items take at most ``_BLOCK_BYTES // _IN_FLIGHT`` at
    ``item_bytes`` each, never less than one item; ``[slice(None)]`` when
    one block holds all ``n``."""
    most = max(1, _BLOCK_BYTES // _IN_FLIGHT // max(item_bytes, 1))
    if n <= most:
        return [slice(None)]
    size = -(-n // -(-n // most))
    return [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _mark_worker() -> None:
    _WORKER_STATE.is_worker = True


def _pool() -> ThreadPoolExecutor:
    """The executor that runs blocks, created at its first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(_WORKERS, "fftmix-block", initializer=_mark_worker)
        return _POOL


def _forget_pool() -> None:
    """In a forked child, where the parent's worker threads do not exist."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _each_block(fn: Callable, blocks: Sequence) -> Iterator:
    """``fn(b)`` for each of ``blocks``, in block order.

    With two blocks or more, two workers or more, and a caller that is not
    itself a worker, the calls run on the pool: block ``i + _WORKERS`` is
    submitted only once block ``i``'s result has been taken, so no more
    than ``_WORKERS`` blocks are in flight.  Otherwise each runs in turn on
    the calling thread, as the iterator is read.  ``fn`` reads and writes
    arrays only: it creates no ``Tensor`` and records nothing, since the
    tape is the calling thread's, and each block writes only its own
    entries.  A block's exception reaches the caller as it was raised,
    after the blocks in flight finish.
    """
    if len(blocks) < 2 or _WORKERS < 2 or getattr(_WORKER_STATE, "is_worker", False):
        return map(fn, blocks)
    return _pooled(fn, blocks)


def _pooled(fn: Callable, blocks: Sequence) -> Iterator:
    """``_each_block`` on the pool."""
    pool, pending = _pool(), collections.deque()
    try:
        for b in blocks:
            if len(pending) == _WORKERS:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, b))
        while pending:
            yield pending.popleft().result()
    finally:
        wait(pending)


def _over_blocks(fn: Callable, blocks: Sequence) -> tuple | None:
    """Runs ``fn`` on each of ``blocks`` through ``_each_block`` and sums the
    terms each call returns, a tuple of arrays or ``None``s, over the blocks
    in block order (``_summed``): with one block, that block's own arrays.
    ``fn`` writes its own entries of the outputs that the op allocated once;
    a ``fn`` that returns nothing gives ``None``."""
    total = None
    for terms in _each_block(fn, blocks):
        total = terms if total is None else tuple(map(_summed, total, terms))
        del terms  # not kept through the next block
    return total


def _summed(total: np.ndarray | None, part: np.ndarray | None) -> np.ndarray | None:
    """``total + part``, added in ``total``'s buffer; ``part`` when ``total``
    is ``None``, the first block's (``None`` for a term no block takes)."""
    if total is None:
        return part
    total += part
    return total


def _as_array(value) -> np.ndarray:
    """``value`` as a float64 array; complex, string, bytes, object and other
    non-real dtypes raise a ``ValueError`` that names the dtype."""
    arr = np.asarray(value)
    if arr.dtype.kind not in _REAL_KINDS:
        raise ValueError(f"a tensor holds real numbers, not values of dtype {arr.dtype}")
    return arr if arr.dtype == DTYPE else arr.astype(DTYPE)


# Tensor keys: a serial number per tensor, never reused in the process.
_KEYS = itertools.count()


class Tensor:
    """Dense N-dimensional real array with optional gradient tracking.

    ``data`` is stored row-major; ``requires_grad`` marks the tensor as a
    differentiation source for a ``GradTape()`` with no sources given.
    ``key`` is the tensor's serial number, the name a tape knows it by; a
    copy or an unpickled tensor gets a fresh one.
    """

    __slots__ = ("data", "requires_grad", "key")

    def __init__(self, data, requires_grad: bool = False):
        arr = _as_array(data)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor contains non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.key = next(_KEYS)

    def __getstate__(self):
        return self.data, self.requires_grad

    def __setstate__(self, state):
        self.data, self.requires_grad = state
        self.key = next(_KEYS)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


class TapeNode:
    """One recorded operation: the keys of its inputs and of its outputs, and
    its vector-Jacobian product.

    Most ops have one output; an op that writes several tensors at once
    records them as one node.  The VJP of a node with one output takes that
    output's cotangent; the VJP of a node with several takes a list of
    cotangents, one per output in order, ``None`` for an output that got no
    gradient, and may empty the list once it has read them, so that those
    not kept for a source are freed before it allocates.

    ``need[k]`` says whether input ``k`` wants a partial.  The VJP closure
    holds the same list (never the node, which would form a reference
    cycle), so ``GradTape.gradient`` can narrow it in place.  The closure
    holds only the arrays and shapes the partials in ``need`` read, never a
    ``Tensor``; ``gradient`` drops it once the node has been replayed.
    """

    __slots__ = ("op", "inputs", "_outputs", "_vjp", "need")

    def __init__(self, op: str, inputs: tuple[int, ...], outputs: int | tuple[int, ...], vjp, need: list[bool]):
        self.op = op
        self.inputs = inputs
        # One output's key as it is, several as a tuple: a tape holds one
        # node per op, and a tuple for each of the one-output ops would
        # grow the tape by 64 bytes a node.
        self._outputs = outputs
        self._vjp = vjp
        self.need = need

    @property
    def outputs(self) -> tuple[int, ...]:
        """The keys of the node's outputs, in order."""
        keys = self._outputs
        return keys if isinstance(keys, tuple) else (keys,)


_TAPE_STATE = threading.local()


def _active_tape():
    return getattr(_TAPE_STATE, "tape", None)


class GradTape:
    """Records operations of one forward pass for a single backward replay.

    ``sources`` names the tensors to differentiate with respect to: the tape
    tracks them and every output computed from them, and records only the
    operations with a tracked input.  ``GradTape()`` tracks every tensor
    whose ``requires_grad`` is set instead.

    Single-writer: one tape per forward pass.  ``gradient`` may be called
    once; a second call without re-recording raises.  ``_tracked`` holds the
    keys of the sources and of recorded outputs.  Keys are never reused, so
    the tape holds no tensor: an intermediate nothing else references is
    freed as soon as the forward pass drops it, and only the arrays its
    consumers' VJPs read stay alive.
    """

    def __init__(self, sources: Sequence[Tensor] | None = None):
        self._nodes: list[TapeNode] = []
        self._by_flag = sources is None
        self._tracked: set[int] = {s.key for s in sources or ()}
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

    def tracks(self, t: Tensor) -> bool:
        """Whether ``t`` is a source of this tape or was computed from one."""
        return t.key in self._tracked or (self._by_flag and t.requires_grad)

    def gradient(
        self,
        target: Tensor,
        sources: Sequence[Tensor],
        upstream=None,
    ) -> list[Tensor]:
        """Backpropagate from ``target``, returning one gradient per source.

        Sources that do not influence the target get exact-zero gradients,
        as do sources the tape does not track.  A forward sweep first marks
        the tensors that depend on a source and narrows each node's ``need``
        to those inputs; the node list is then replayed back-to-front, a
        reverse topological order of the recorded graph, calling only nodes
        with a needed input and an output that got a gradient.  VJPs compute
        only the partials their ``need`` asks for, and the gradient of each
        of a node's outputs is dropped once its VJP has run unless that
        output is a source.  Each node's VJP, with the arrays it captured,
        is dropped as the replay reaches it, so the later stages' captures
        are freed before the earlier VJPs allocate.
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
        live = {s.key for s in sources if self.tracks(s)}
        for node in self._nodes:
            # Only narrowed: a VJP captured what its inputs needed when recorded.
            node.need[:] = [n and k in live for n, k in zip(node.need, node.inputs)]
            if any(node.need):
                live.update(node.outputs)
        keep = {s.key for s in sources}
        grads: dict[int, np.ndarray] = {target.key: seed}
        for node in reversed(self._nodes):
            vjp, node._vjp = node._vjp, None
            if not any(node.need):
                continue
            # Every use of an output comes later on the tape, so its gradient
            # is complete here and, unless it is a source, dead afterwards.
            g_outs = [grads.get(o) if o in keep else grads.pop(o, None) for o in node.outputs]
            if all(g is None for g in g_outs):
                continue
            partials = vjp(g_outs[0] if len(g_outs) == 1 else g_outs)
            for k, need, partial in zip(node.inputs, node.need, partials):
                if not need:
                    continue
                acc = grads.get(k)
                grads[k] = partial if acc is None else acc + partial
            # Not kept alive through the next VJP: a partial added to an
            # earlier one, the sum it replaced.
            partials = partial = acc = None
        return [
            Tensor(grads[s.key]) if s.key in grads else Tensor(np.zeros_like(s.data))
            for s in sources
        ]


def _needs(*inputs: Tensor) -> list[bool] | None:
    """Which of ``inputs`` the active tape tracks, or ``None`` when there is
    no active tape or it tracks none of them, so nothing will be recorded.

    An op calls this before building its VJP, captures only the arrays the
    needed partials read, and passes the same list to ``_record``.  The VJP
    may read the list from its closure and return ``None`` for inputs whose
    partial is not needed; ``GradTape.gradient`` narrows it in place to the
    inputs that depend on the requested sources before any VJP runs.
    """
    tape = _active_tape()
    if tape is None:
        return None
    need = [tape.tracks(i) for i in inputs]
    return need if any(need) else None


def _record(
    op: str, output: Tensor | tuple[Tensor, ...], inputs: tuple[Tensor, ...], need: list[bool] | None, vjp
) -> None:
    """Append ``op`` to the active tape, ``need`` as ``_needs(*inputs)`` gave
    it; nothing is recorded when ``need`` is ``None``.  ``output`` is the
    op's one output or the tuple of its outputs (``TapeNode``)."""
    if need is None:
        return
    tape = _active_tape()
    # From lists, so the tuples are allocated at their size: a tuple built
    # from a generator is resized, and CPython's tuple free lists then fill,
    # step after step, with the sizes it was resized to, until a full
    # collection.
    if isinstance(output, Tensor):
        outputs = output.key
        tape._tracked.add(outputs)
    else:
        outputs = tuple([o.key for o in output])
        tape._tracked.update(outputs)
    tape._nodes.append(TapeNode(op, tuple([i.key for i in inputs]), outputs, vjp, need))


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
    need = _needs(a, b)
    sa, sb = a.shape, b.shape

    def vjp(g):
        return (_unbroadcast(g, sa) if need[0] else None, _unbroadcast(g, sb) if need[1] else None)

    _record("add", out, (a, b), need, vjp)
    return out


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = Tensor(a.data * b.data)
    need = _needs(a, b)
    if need:
        sa, sb = a.shape, b.shape
        ad, bd = (a.data if need[1] else None), (b.data if need[0] else None)

        def vjp(g):
            return (_unbroadcast(g * bd, sa) if need[0] else None,
                    _unbroadcast(g * ad, sb) if need[1] else None)

        _record("mul", out, (a, b), need, vjp)
    return out


def exp(a) -> Tensor:
    a = _lift(a)
    val = np.exp(a.data)
    out = Tensor(val)
    _record("exp", out, (a,), _needs(a), lambda g: (g * val,))
    return out


def sin(a) -> Tensor:
    a = _lift(a)
    ad = a.data
    out = Tensor(np.sin(ad))
    _record("sin", out, (a,), _needs(a), lambda g: (g * np.cos(ad),))
    return out


def square(a) -> Tensor:
    a = _lift(a)
    ad = a.data
    out = Tensor(ad * ad)
    _record("square", out, (a,), _needs(a), lambda g: (g * (2.0 * ad),))
    return out


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Broadcast the gradient of a sum over ``axis`` back to ``shape``."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    sa = a.shape
    _record("sum", out, (a,), _needs(a), lambda g: (_expand_reduced(g, sa, axis, keepdims),))
    return out


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    """Mean over ``axis``, one recorded node: the sum times 1/count."""
    a = _lift(a)
    count = a.size if axis is None else int(np.prod([a.shape[ax] for ax in np.atleast_1d(axis)]))
    inv = 1.0 / count
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims) * inv)
    sa = a.shape
    _record("mean", out, (a,), _needs(a), lambda g: (_expand_reduced(g * inv, sa, axis, keepdims),))
    return out


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    out = Tensor(a.data.reshape(shape))
    sa = a.shape
    _record("reshape", out, (a,), _needs(a), lambda g: (g.reshape(sa),))
    return out


def _gemm_shape(op: str, a_name: str, sa: tuple[int, ...], b_name: str, sb: tuple[int, ...]) -> tuple[int, int]:
    """``b``'s [K, M] for ``a @ b`` with ``a`` of shape [..., K], or a
    ``ValueError`` naming the operand that does not fit."""
    if len(sb) != 2:
        raise ValueError(f"{op} expects {b_name} of shape [K, M], got {sb}")
    k, m = sb
    if len(sa) == 0 or sa[-1] != k:
        raise ValueError(f"{op}: {a_name} of shape {sa} does not end in {b_name}'s K = {k}")
    return k, m


def matmul(a, b) -> Tensor:
    """``a @ b`` where ``a`` is [..., K] and ``b`` is [K, M].

    The leading axes of ``a`` are flattened so that the product, and each
    partial of the VJP, is one [rows, K] x [K, M] GEMM.
    """
    a, b = _lift(a), _lift(b)
    k, m = _gemm_shape("matmul", "a", a.shape, "b", b.shape)
    out = Tensor((a.data.reshape(-1, k) @ b.data).reshape(a.shape[:-1] + (m,)))
    need = _needs(a, b)
    if need:
        sa = a.shape
        ad, bd = (a.data if need[1] else None), (b.data if need[0] else None)

        def vjp(g):
            g2 = g.reshape(-1, m)
            ga = (g2 @ bd.T).reshape(sa) if need[0] else None
            gb = ad.reshape(-1, k).T @ g2 if need[1] else None
            return ga, gb

        _record("matmul", out, (a, b), need, vjp)
    return out


def crop(a, slices: Sequence[slice]) -> Tensor:
    a = _lift(a)
    sl = tuple(slices)
    out = Tensor(a.data[sl].copy())
    sa = a.shape

    def vjp(g):
        full = np.zeros(sa)
        full[sl] = g
        return (full,)

    _record("crop", out, (a,), _needs(a), vjp)
    return out


# ---------------------------------------------------------------------------
# Fused layers: one recorded op each, with a closed-form VJP
# ---------------------------------------------------------------------------


def _check_norm_parameters(op: str, c: int, gamma: Tensor, beta: Tensor) -> None:
    """A ``ValueError`` unless ``gamma`` and ``beta`` both have shape [C]."""
    for name, t in (("gamma", gamma), ("beta", beta)):
        if t.shape != (c,):
            raise ValueError(f"{op}: {name} must have shape ({c},) for C = {c}, got {t.shape}")


def _normalize(xd: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """``xh = (x - mean) * inv`` over the last axis, in a buffer of its own,
    and ``inv = 1 / sqrt(var + eps)`` per position."""
    xh = xd - xd.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.mean(xh * xh, axis=-1, keepdims=True) + eps)
    xh *= inv
    return xh, inv


def _affine(xh: np.ndarray, gd: np.ndarray, bd: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``xh * gamma + beta``, in ``out`` when it is given."""
    y = np.multiply(xh, gd, out=out)
    y += bd
    return y


def _norm_partials(g, xh, inv, gd, need, overwrite_g=False):
    """The partials of ``xh * gamma + beta`` for x, gamma and beta at
    upstream ``g``, those in ``need`` only: ``gx = inv * (gh - mean(gh) -
    xh * mean(gh * xh))`` with ``gh = g * gamma``, ``g_gamma = sum(g * xh)``
    and ``g_beta = sum(g)``.  ``gh`` overwrites ``g`` when ``overwrite_g``
    is set."""
    c = xh.shape[-1]
    gx = None
    gg = (g * xh).reshape(-1, c).sum(axis=0) if need[1] else None
    gb = g.reshape(-1, c).sum(axis=0) if need[2] else None
    if need[0]:
        gh = np.multiply(g, gd, out=g if overwrite_g else None)
        gx = gh - gh.mean(axis=-1, keepdims=True)
        gx -= xh * np.mean(gh * xh, axis=-1, keepdims=True)
        gx *= inv
    return gx, gg, gb


def layer_norm(x, gamma, beta, eps: float) -> Tensor:
    """Normalise over the last axis, then scale by ``gamma`` and shift by ``beta``.

    ``x`` is [..., C]; ``gamma`` and ``beta`` are [C].  With
    ``inv = 1 / sqrt(var + eps)`` and ``xh = (x - mean) * inv`` per position,
    the output is ``xh * gamma + beta``.  The VJP is closed-form
    (``_norm_partials``), and the node keeps only ``xh``, ``inv`` and
    ``gamma``.
    """
    x, gamma, beta = _lift(x), _lift(gamma), _lift(beta)
    if x.ndim == 0:
        raise ValueError("layer_norm expects x with a channel axis")
    _check_norm_parameters("layer_norm", x.shape[-1], gamma, beta)
    xh, inv = _normalize(x.data, eps)
    gd = gamma.data
    out = Tensor(_affine(xh, gd, beta.data))
    need = _needs(x, gamma, beta)
    _record("layer_norm", out, (x, gamma, beta), need, lambda g: _norm_partials(g, xh, inv, gd, need))
    return out


def _check_star_relu_parameters(op: str, x_name: str, sx, ss, sb) -> None:
    """A ``ValueError`` unless StarReLU's scale (shape ``ss``) and shift
    (``sb``) broadcast to its input's shape ``sx`` without widening it."""
    for name, s in (("scale", ss), ("shift", sb)):
        if len(s) > len(sx) or any(a not in (1, b) for a, b in zip(s[::-1], sx[::-1])):
            raise ValueError(f"{op}: {name} of shape {s} does not broadcast to {x_name}'s shape {sx}")


def star_relu(x, scale, shift) -> Tensor:
    """StarReLU, ``scale * relu(x)**2 + shift``, as one op.

    The VJP recomputes ``relu(x)`` from ``x``, so the node keeps only the
    arrays of ``x`` and ``scale``; the x-partial ``2 * scale * relu(x) * g``
    is exactly zero wherever ``x <= 0``.  ``scale`` and ``shift`` broadcast
    to ``x``'s shape, and the output and each partial are computed in their
    own buffers, with no temporary of that shape beyond ``relu(x)``.
    """
    x, scale, shift = _lift(x), _lift(scale), _lift(shift)
    sx, ss, sb = x.shape, scale.shape, shift.shape
    _check_star_relu_parameters("star_relu", "x", sx, ss, sb)
    xd, sd = x.data, scale.data
    y = np.maximum(xd, 0.0)
    y *= y
    y *= sd
    y += shift.data
    out = Tensor(y)
    need = _needs(x, scale, shift)

    def vjp(g):
        gx = gs = gb = None
        r = np.maximum(xd, 0.0)
        if need[0]:
            gx = g * sd
            gx *= r
            gx *= 2.0
            gx = _unbroadcast(gx, sx)
        if need[1]:
            r *= r
            r *= g
            gs = _unbroadcast(r, ss)
        if need[2]:
            gb = _unbroadcast(g, sb)
        return gx, gs, gb

    _record("star_relu", out, (x, scale, shift), need, vjp)
    return out


def feed_forward(x, gamma, beta, eps: float, w1, b1, scale, shift, w2, b2) -> Tensor:
    """The MetaFormer FFN branch, ``layer_norm -> linear -> StarReLU ->
    linear``, as one op.

    ``x`` is [..., C], ``gamma`` and ``beta`` [C] as in ``layer_norm``,
    ``w1`` [C, H], ``b1`` [H], ``w2`` [H, C'] and ``b2`` [C']; ``scale`` and
    ``shift`` are scalars or [H], the same for every row.  The forward
    pass normalises ``x`` to ``xh`` as ``layer_norm`` does, then runs over
    blocks of rows (``_blocks``, ``_BLOCK_BYTES // _IN_FLIGHT`` of hidden
    layer each, on the worker pool of ``_each_block``):
    ``y = xh * gamma + beta``, ``h = y @ w1 + b1``, StarReLU in ``h``'s
    buffer, then ``h @ w2 + b2``.  That is the arithmetic of the composed
    ops, in their order, so every bit matches, and each row's arithmetic is
    the same in any block.  With no tape, ``y`` is written into ``xh``'s
    buffer; on a tape each block's ``y`` is a scratch array of its own.  The
    output is allocated once, and each block writes its own rows of ``xh``
    and of the output.

    The node keeps what ``layer_norm`` keeps, ``xh`` and ``inv``, and the
    parameter arrays: not ``y`` and not the hidden layer.  The VJP runs over
    blocks of rows too, each holding two hidden-width arrays per row (the
    recomputed ``relu(y @ w1 + b1)`` and its gradient) within the same
    share of the budget, and a third in turn, briefly, for the partials of
    ``w2`` and of the StarReLU scale.  Each block recomputes its rows of
    ``y`` with the forward pass's arithmetic, runs the composed ops' VJPs in
    their order, writes its rows of the FFN's x-partial into one array
    allocated up front and returns its terms of the partials of ``w1``,
    ``b1``, ``scale``, ``shift`` and ``w2``, which ``_over_blocks`` sums over
    the blocks in block order; the norm's partials are taken from the whole
    x-partial (``_norm_partials``).  A block
    holds its terms of the ``w1`` and ``w2`` partials until they are summed,
    so where the blocks in flight would hold more of those than the whole
    hidden layer (``_IN_FLIGHT * (C + C') >= 2 * rows``), the rows run as
    one block.  Only the partials ``need`` asks for are computed.  With one
    block every partial is bit-identical to the composed graph's; with
    several, the output and the partials of x, gamma and beta still are.
    """
    x, gamma, beta, w1, b1, scale, shift, w2, b2 = (
        _lift(t) for t in (x, gamma, beta, w1, b1, scale, shift, w2, b2)
    )
    sx, ss, ssh, sb1, sb2 = x.shape, scale.shape, shift.shape, b1.shape, b2.shape
    c, wide = _gemm_shape("feed_forward", "x", sx, "w1", w1.shape)
    _check_norm_parameters("feed_forward", c, gamma, beta)
    sh = sx[:-1] + (wide,)
    _, c_out = _gemm_shape("feed_forward", "the hidden layer", sh, "w2", w2.shape)
    for name, s, n in (("b1", sb1, wide), ("b2", sb2, c_out)):
        if s != (n,):
            raise ValueError(f"feed_forward: {name} must have shape ({n},), got {s}")
    _check_star_relu_parameters("feed_forward", "a hidden row", (wide,), ss, ssh)
    need = _needs(x, gamma, beta, w1, b1, scale, shift, w2, b2)
    xh, inv = _normalize(x.data, eps)
    gd, bd, w1d, b1d, sd, shd, w2d = gamma.data, beta.data, w1.data, b1.data, scale.data, shift.data, w2.data
    xh2 = xh.reshape(-1, c)
    n = len(xh2)
    y = np.empty((n, c_out))

    def forward(r: slice) -> None:
        h = _affine(xh2[r], gd, bd, out=None if need else xh2[r]) @ w1d
        h += b1d
        np.maximum(h, 0.0, out=h)
        h *= h
        h *= sd
        h += shd
        np.matmul(h, w2d, out=y[r])

    _over_blocks(forward, _blocks(n, 8 * wide))
    y += b2.data
    out = Tensor(y.reshape(sx[:-1] + (c_out,)))
    if need:
        # Every partial but b2's recomputes relu(y @ w1 + b1); those of x,
        # the norm, the first GEMM and StarReLU read w2; only w2's reads the
        # shift, and only x's reads inv.
        if not any(need[:8]):
            xh = inv = gd = bd = w1d = b1d = sd = None
        if not any(need[:7]):
            w2d = None
        if not need[7]:
            shd = None
        if not need[0]:
            inv = None
        rows = _blocks(n, 16 * wide)
        # A block holds its terms of the w1 and w2 partials, 8 * wide * (c +
        # c_out) bytes, until they are summed: where those of the blocks in
        # flight would outweigh the whole hidden layer's two arrays, as at
        # stages 3 and 4 of a 224 px model, the rows run as one block.
        if _IN_FLIGHT * (c * need[3] + c_out * need[7]) >= 2 * n:
            rows = [slice(None)]

        def vjp(g):
            gx = gg = gb = gw1 = gb1 = gs = gsh = gw2 = gb2 = None
            if need[8]:
                gb2 = _unbroadcast(g, sb2)
            if not any(need[:8]):
                return gx, gg, gb, gw1, gb1, gs, gsh, gw2, gb2
            g2 = g.reshape(-1, c_out)
            xh2 = xh.reshape(-1, c)
            gy = np.empty((n, c)) if any(need[:3]) else None  # the partial of y

            def block(r: slice) -> tuple:
                """Writes the block's rows of the partial of ``y`` and returns
                its terms of the partials of w2, shift, scale, b1 and w1;
                ``None`` for those ``need`` does not ask for."""
                pw2 = psh = ps = pb1 = pw1 = None
                gr = g2[r]
                hr = _affine(xh2[r], gd, bd) @ w1d
                hr += b1d
                np.maximum(hr, 0.0, out=hr)
                if need[7]:
                    h = hr * hr
                    h *= sd
                    h += shd
                    pw2 = h.T @ gr
                    del h
                if not any(need[:7]):
                    return pw2, psh, ps, pb1, pw1
                gh = gr @ w2d.T
                # Partials of per-row parameters sum a block's rows as one
                # axis; numpy sums the contiguous leading axes of the composed
                # ops' arrays as one too, so one block's partials match theirs.
                if need[6]:
                    psh = _unbroadcast(gh, ssh)
                if need[5]:
                    r2 = hr * hr
                    r2 *= gh
                    ps = _unbroadcast(r2, ss)
                    del r2
                # The x-partial of StarReLU, in gh's buffer: 2 * scale * relu * g.
                gh *= sd
                gh *= hr
                gh *= 2.0
                del hr
                if need[4]:
                    pb1 = _unbroadcast(gh, sb1)
                if need[3]:
                    # The block's y again, not kept beside its hidden layer.
                    pw1 = _affine(xh2[r], gd, bd).T @ gh
                if gy is not None:
                    np.matmul(gh, w1d.T, out=gy[r])
                return pw2, psh, ps, pb1, pw1

            gw2, gsh, gs, gb1, gw1 = _over_blocks(block, rows)
            if gy is not None:
                gx, gg, gb = _norm_partials(gy.reshape(sx), xh, inv, gd, need[:3], overwrite_g=True)
            return gx, gg, gb, gw1, gb1, gs, gsh, gw2, gb2

        _record("feed_forward", out, (x, gamma, beta, w1, b1, scale, shift, w2, b2), need, vjp)
    return out


def cross_entropy(logits, targets) -> Tensor:
    """Batch-mean cross-entropy of ``softmax(logits)`` against ``targets``.

    Both are [N, K]; each row of ``targets`` is a distribution over the K
    classes (it sums to one) and is a constant.  With ``z = logits - max``
    per row (the max detached), the loss is
    ``mean(logsumexp(z) - sum(targets * z))`` and the VJP is
    ``g * (softmax(z) - targets) / N``.
    """
    logits = _lift(logits)
    t = np.asarray(targets, dtype=DTYPE)
    if logits.ndim != 2 or t.shape != logits.shape:
        raise ValueError(
            f"cross_entropy expects [N, K] logits and targets alike, got {logits.shape} and {t.shape}"
        )
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    total = ez.sum(axis=-1, keepdims=True)
    out = Tensor(np.mean(np.log(total[:, 0]) - np.sum(t * z, axis=-1)))
    n = len(z)
    _record("cross_entropy", out, (logits,), _needs(logits), lambda g: (g * (ez / total - t) / n,))
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


def _spectrum_of(h: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``rfftn`` of ``h`` zero-padded at the front of each of ``axes`` to its
    ``_fft_length``; no copy is padded when every such length is smooth."""
    pw = [(0, 0)] * h.ndim
    for ax in axes:
        pw[ax] = (_fft_length(h.shape[ax]) - h.shape[ax], 0)
    return np.fft.rfftn(np.pad(h, pw) if any(lo for lo, _ in pw) else h, axes=axes)


class KernelSpectrum(NamedTuple):
    """The transform ``circular_convolve`` takes of a real kernel of
    ``shape`` over its ``axes``."""

    data: np.ndarray
    shape: tuple[int, ...]
    axes: tuple[int, ...]

    @property
    def ndim(self) -> int:
        return len(self.shape)


def kernel_spectrum(h, dims: Sequence[int]) -> KernelSpectrum:
    """The transform ``circular_convolve`` takes of kernel ``h`` over ``dims``.

    Passed to ``circular_convolve`` in place of ``h``, it saves that
    transform on every call with the same kernel.
    """
    arr = h.data if isinstance(h, Tensor) else np.asarray(h, dtype=DTYPE)
    axes = _normalize_axes(arr.ndim, dims)
    return KernelSpectrum(_spectrum_of(arr, axes), arr.shape, axes)


def _mul_spectrum(f: np.ndarray, hf: np.ndarray) -> np.ndarray:
    """``f * hf``, computed in ``f``'s buffer when it has the product's shape."""
    if np.broadcast_shapes(f.shape, hf.shape) != f.shape:
        return f * hf
    f *= hf
    return f


def _window_pieces(start: int, size: int, m: int) -> tuple[tuple[slice, slice], ...]:
    """Entries (start + s) mod m, s < ``size``, of an axis of length ``m``,
    as (source, destination) slice pairs: one pair, or two when the window
    wraps past the axis's end."""
    first = min(size, m - start)
    pieces = ((slice(start, start + first), slice(0, first)),)
    if first < size:
        pieces += ((slice(0, size - first), slice(first, size)),)
    return pieces


def _pruned_irfftn(
    f: np.ndarray,
    lengths: tuple[int, ...],
    axes: tuple[int, ...],
    starts: tuple[int, ...],
    sizes: tuple[int, ...],
    out: np.ndarray,
) -> None:
    """Writes into ``out`` entries (start + s) mod M, s < size, on each of
    ``axes`` of ``irfftn(f, s=lengths, axes=axes)``, overwriting the half
    spectrum ``f``.

    Over each axis but the last the ``ifft`` writes into ``f``'s own buffer,
    and only the rows the window reads go on to the next axis.  A window that
    wraps past the axis's end has its wrapped rows copied next to the others,
    over rows it does not read, so that one slice holds it; where no such
    rows are free, every row goes on.  The last axis's ``irfft`` then runs
    once, on the kept rows alone.  Every kept entry goes through the same
    transforms as in ``irfftn``, so the two agree bit for bit.
    """
    def at(ax: int, sl: slice) -> tuple:
        return (slice(None),) * ax + (sl,)

    rows, pieces = f, []  # the rows still needed; where each piece of them goes
    for ax, m, start, size in zip(axes[:-1], lengths, starts, sizes):
        np.fft.ifft(rows, axis=ax, out=rows)
        first = min(size, m - start)  # rows start .., then 0 .. wrapped - 1
        wrapped = size - first
        if not wrapped:
            keep, window = slice(start, start + size), ((slice(0, size), slice(0, size)),)
        elif start >= 2 * wrapped:  # rows start - wrapped .. start - 1 are free
            rows[at(ax, slice(start - wrapped, start))] = rows[at(ax, slice(0, wrapped))]
            keep = slice(start - wrapped, m)
            window = ((slice(wrapped, size), slice(0, first)), (slice(0, wrapped), slice(first, size)))
        else:
            keep, window = slice(0, m), _window_pieces(start, size, m)
        rows = rows[at(ax, keep)]
        pieces.append(window)
    pieces.append(_window_pieces(starts[-1], sizes[-1], lengths[-1]))
    _copy_window(np.fft.irfft(rows, n=lengths[-1], axis=axes[-1]), out, axes, pieces)


def _copy_window(src: np.ndarray, out: np.ndarray, axes: tuple[int, ...], pieces) -> None:
    """``out[dst] = src[s]`` for each combination of one (s, dst) slice pair
    per axis of ``axes``, ``pieces`` holding each axis's pairs."""
    for combo in itertools.product(*pieces):
        at_src, at_dst = [slice(None)] * src.ndim, [slice(None)] * src.ndim
        for ax, (s, d) in zip(axes, combo):
            at_src[ax], at_dst[ax] = s, d
        out[tuple(at_dst)] = src[tuple(at_src)]


def _sliced(shape: tuple[int, ...], sl: slice) -> tuple[int, ...]:
    """``shape`` with its trailing axis cut to ``sl``."""
    return shape[:-1] + (len(range(shape[-1])[sl]),)


def circular_convolve(x, h, dims: Sequence[int]) -> Tensor:
    """Centred convolution y[i] = sum_s x[s] * h[i - s + L - 1] along ``dims``,
    L being ``x``'s length on each convolved axis, where ``h`` has exactly
    2L-1 taps, for offsets -(L-1) .. L-1; any other length is an error.  The
    output keeps ``x``'s length L.  ``h`` aligns with ``x`` from the trailing
    axis and has no more axes than ``x``; other axes follow numpy
    broadcasting.
    ``h`` may be ``kernel_spectrum(h, dims)``, which skips the kernel's
    transform on every call with the same kernel and makes the kernel a
    constant.

    The op computes it as a circular convolution of length M, the smallest
    2^a 3^b 5^c 7^d >= 2L-1 on each convolved axis (``_fft_length``).  The
    kernel is zero-padded at its front from 2L-1 to M, so offset -(L-1) sits
    at index M-(2L-1); no copy is padded when every M is 2L-1 already.  ``x``
    is zero-padded at its end to M inside the transform, and the output is
    the last L entries of the length-M convolution, which are exactly the
    centred sum, since no index of it wraps around.  No padded input and no
    full-length output is kept, on a tape or off it.  A smooth M keeps the
    transform on pocketfft's radix kernels, where lengths with a larger
    prime factor, such as ``hb-s4``'s 6271, 1567, 391 = 17 * 23 and 97 at
    224 px, go through Bluestein's algorithm.

    One path computes every call: H = ``rfftn`` of the padded kernel, X =
    ``rfftn(x)`` over the lengths M, and the product X * H inverted over only
    the entries the output keeps (``_pruned_irfftn``): an in-place ``ifft``
    over each convolved axis but the last, then one ``irfft`` of the kept
    rows.  The x-partial is the correlation ``irfftn(G * conj(H))`` of G =
    ``rfftn(g)``, ``g`` zero-padded at its end, read at entries (L + s) mod M
    with the same pruned inverse.  The kernel partial is
    ``irfftn(sum(conj(X) * G))``, the sum over the batch and every axis ``h``
    broadcasts along taken on the spectrum, so one inverse runs per kernel;
    its tap k is entry (k + L + M - (2L-1)) mod M.  A tape keeps H for the
    x-partial and ``x`` for the kernel partial, no spectrum of ``x``.

    The output and each partial are allocated once, and every pass runs
    over blocks of channels (``_over_blocks``), each block writing its
    channels of them: the inverses are copied straight into their windows.
    When the trailing axis holds channels, not convolved and of the same
    length in ``x`` and ``h``, those blocks are cut by ``_blocks``, each
    transforming at most ``_BLOCK_BYTES // _IN_FLIGHT`` of spectrum, and
    run on the worker pool; otherwise all channels are one block.  A block
    of the kernel partial holds two spectra of the batch and then the first
    pass of one inverse, so its channels are cut by all three.  Every
    channel goes through the same transforms in any block, so the results
    are the same to the bit; the op still records one node.
    """
    x = _lift(x)
    spectral = isinstance(h, KernelSpectrum)
    h = h if spectral else _lift(h)
    x_axes = _normalize_axes(x.ndim, dims)
    offset = x.ndim - h.ndim
    if offset < 0:
        raise ValueError(f"h has {h.ndim} axes, more than x's {x.ndim}")
    sx = x.shape
    sizes = tuple(sx[ax] for ax in x_axes)
    taps = tuple(2 * n - 1 for n in sizes)
    for ax, n, k in zip(x_axes, sizes, taps):
        got = h.shape[ax - offset] if ax >= offset else "none"
        if got != k:
            raise ValueError(f"convolved axis {ax}: x has length L = {n}, so h needs 2L-1 = {k} taps, got {got}")
    h_axes = tuple(ax - offset for ax in x_axes)
    if spectral and h.axes != h_axes:
        raise ValueError(f"kernel spectrum taken over axes {h.axes}, not {h_axes}")
    lengths = tuple(_fft_length(k) for k in taps)
    # The output is entries M-L .. M-1 of the convolution.  The partials
    # transform g zero-padded at its end, so its correlation with the padded
    # kernel sits L entries on: entries (L + s) mod M, which wrap once when
    # M < 2L.
    out_starts = tuple(m - n for n, m in zip(sizes, lengths))
    gx_starts = tuple(n % m for n, m in zip(sizes, lengths))
    need = _needs(x) if spectral else _needs(x, h)
    hf = h.data if spectral else _spectrum_of(h.data, h_axes)
    hf_shape = hf.shape
    spec = np.broadcast_shapes(tuple(1 if ax in x_axes else n for ax, n in enumerate(sx)), hf_shape)
    chans, per_channel = [slice(None)], 0
    if x.ndim - 1 not in x_axes and h.shape[-1] == sx[-1]:  # channels that x and h share
        per_channel = 16 * math.prod(spec[:-1])  # bytes of one channel's spectrum
        chans = _blocks(sx[-1], per_channel)
    y = np.empty(tuple(sizes[x_axes.index(ax)] if ax in x_axes else n for ax, n in enumerate(spec)))
    # Each block takes its own view of the kernel spectrum and drops it once
    # multiplied, so a spectrum taken here and not kept for the x-partial is
    # freed before one block's inverse allocates.
    hf_blocks = [hf[..., sl] for sl in chans]
    if not (need and need[0]):
        hf = None

    def forward(i: int) -> None:
        hb, hf_blocks[i] = hf_blocks[i], None
        xf = _mul_spectrum(np.fft.rfftn(x.data[..., chans[i]], s=lengths, axes=x_axes), hb)
        del hb
        _pruned_irfftn(xf, lengths, x_axes, out_starts, sizes, y[..., chans[i]])

    _over_blocks(forward, range(len(chans)))
    out = Tensor(y)
    if need:
        xd = x.data if not spectral and need[1] else None
        sh = h.shape
        # A block of the kernel partial holds two spectra of the batch at
        # once, G and X, and then the first pass of the summed spectrum's
        # inverse beside them.
        grad_chans = chans
        if per_channel and not spectral and need[1]:
            grad_chans = _blocks(sx[-1], 2 * per_channel + 16 * math.prod(hf_shape[:-1]))

        def vjp(g):
            gx = np.empty(g.shape) if need[0] else None
            gh = np.empty(sh) if not spectral and need[1] else None

            def block(sl: slice) -> None:
                """Writes the block's channels of the x-partial and of the
                kernel partial, of those ``need`` asks for."""
                gf = np.fft.rfftn(g[..., sl], s=lengths, axes=x_axes)
                if gh is not None:  # before the x-partial overwrites gf
                    # The correlation of g with x, summed down to h's shape on
                    # the spectrum.  G holds g at the head of the transform,
                    # where the output was its tail, so tap k of the padded
                    # kernel is entry (k + L) mod M, and h's 2L-1 taps are
                    # the last of its M.
                    cf = np.fft.rfftn(xd[..., sl], s=lengths, axes=x_axes)
                    cf = _unbroadcast(_mul_spectrum(np.conjugate(cf, out=cf), gf), _sliced(hf_shape, sl))
                    cf = np.fft.irfftn(cf, s=lengths, axes=h_axes)  # the spectrum freed before the copy
                    windows = [_window_pieces((m - n + 1) % m, 2 * n - 1, m) for n, m in zip(sizes, lengths)]
                    _copy_window(cf, gh[..., sl], h_axes, windows)
                    del cf
                if gx is not None:
                    # irfftn(G * conj(H)) taken as irfftn(conj(conj(G) * H)),
                    # which needs no conjugate copy of H; the products are
                    # the same.
                    gf = _mul_spectrum(np.conjugate(gf, out=gf), hf[..., sl])
                    _pruned_irfftn(np.conjugate(gf, out=gf), lengths, x_axes, gx_starts, sizes, gx[..., sl])

            _over_blocks(block, grad_chans)
            if gx is not None:
                gx = _unbroadcast(gx, sx)
            return (gx,) if spectral else (gx, gh)

        _record("circular_convolve", out, (x,) if spectral else (x, h), need, vjp)
    return out


class _Taps:
    """The taps of a small dense convolution over ``axes`` of an array of
    ``shape``: ``w`` is [T, ...], one row per offset, its trailing axes
    broadcasting on the axes of the array after the convolved ones.

    The taps are scattered onto their bounding box, stretched to hold offset
    0, as a dense grid with zero taps at missing offsets.  ``apply`` is an
    ``np.einsum`` of that grid with a sliding-window view of the array
    zero-padded by ``pads``, run over blocks of output rows (``_contract``),
    each block writing its rows of one output allocated up front; the
    partials contract window views the same way, the x-partial in blocks
    too.
    """

    def __init__(self, shape: tuple[int, ...], w_shape: tuple[int, ...], offsets, axes):
        ndim = len(shape)
        ax = self.axes = _normalize_axes(ndim, axes)
        for off in offsets:
            if len(off) != len(ax):
                raise ValueError(f"offset {tuple(off)} has {len(off)} entries for {len(ax)} axes")
        offs = np.array(offsets, dtype=np.int64).reshape(-1, len(ax))
        if len(offs) != w_shape[0]:
            raise ValueError("offset count must match tap count")
        tail = len(w_shape) - 1
        if tail > ndim - 1 - max(ax):
            raise ValueError(f"tap weights of shape {w_shape[1:]} reach into the convolved axes")
        # A tap shifted by a whole axis length or more reads only zeros.
        self.live = np.all(np.abs(offs) < [shape[a] for a in ax], axis=1)
        lo = np.minimum(offs[self.live].min(axis=0, initial=0), 0)
        hi = np.maximum(offs[self.live].max(axis=0, initial=0), 0)
        self.box, self.index = tuple(int(k) for k in hi - lo + 1), offs - lo
        # The shape ``_contract`` writes, for ``apply`` and ``x_partial``
        # alike: the convolution's output, whose partial has its shape.
        self.out_shape = np.broadcast_shapes(tuple(shape), tuple(w_shape[1:]))
        letters = "abcdefghijklmnopqrstuvwxyz"
        xs, ws = letters[:ndim], letters[ndim : ndim + len(ax)]
        cs = xs[ndim - tail :]  # the axes of the array that w's trailing axes cover
        self.conv, self.corr = f"{xs}{ws},{ws}{cs}->{xs}", f"{xs}{ws},{xs}->{ws}{cs}"
        self.flip = (slice(None, None, -1),) * len(ax)
        # y[i] = sum_k grid[k] x[i - lo - k].  With x padded by (hi, -lo), window
        # entry j at i reads x[i - hi + j], which tap k = box - 1 - j multiplies.
        self.pads, self.g_pads = [(0, 0)] * ndim, [(0, 0)] * ndim
        for d, a_d in enumerate(ax):
            self.pads[a_d], self.g_pads[a_d] = (int(hi[d]), int(-lo[d])), (int(-lo[d]), int(hi[d]))

    def _grid(self, w: np.ndarray) -> np.ndarray:
        """The live taps of ``w`` on their box, zero at missing offsets."""
        grid = np.zeros(self.box + w.shape[1:], dtype=w.dtype)
        np.add.at(grid, tuple(self.index[self.live].T), w[self.live])
        return grid

    def _windows(self, padded: np.ndarray) -> np.ndarray:
        return np.lib.stride_tricks.sliding_window_view(padded, self.box, axis=self.axes)

    def _contract(self, padded: np.ndarray, grid: np.ndarray) -> np.ndarray:
        """``np.einsum(self.conv, windows of padded, grid)``, over blocks of
        rows of the first convolved axis (``_blocks``, at most
        ``_BLOCK_BYTES // _IN_FLIGHT`` of output each; one block or many run
        the same lines).  A block's windows reach ``box - 1`` rows past it,
        and each block writes its own rows of one output; every output entry
        sums the same products in the same order in any block."""
        win = self._windows(padded)
        ndim, ax = padded.ndim, self.axes[0]
        blocks = _blocks(win.shape[ax], 8 * math.prod(win.shape[:ax] + win.shape[ax + 1 : ndim]))
        out = np.empty(self.out_shape)
        head = (slice(None),) * ax

        def rows(r: slice) -> None:
            np.einsum(self.conv, win[head + (r,)], grid, out=out[head + (r,)])

        _over_blocks(rows, blocks)
        return out

    def apply(self, padded: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The convolution of the array that ``padded`` holds padded by ``pads``."""
        return self._contract(padded, self._grid(w)[self.flip])

    def x_partial(self, g: np.ndarray, w: np.ndarray) -> np.ndarray:
        # gx[i] = sum_k grid[k] g[i + lo + k]: g padded by (-lo, hi).
        return self._contract(np.pad(g, self.g_pads), self._grid(w))

    def w_partial(self, padded: np.ndarray, g: np.ndarray, w_shape: tuple[int, ...]) -> np.ndarray:
        """The partial of taps of ``w_shape``, ``padded`` as in ``apply``."""
        ggrid = np.einsum(self.corr, self._windows(padded), g)[self.flip]
        gw = np.zeros((len(self.index),) + ggrid.shape[len(self.axes) :])
        gw[self.live] = ggrid[tuple(self.index[self.live].T)]
        return _unbroadcast(gw, w_shape)


def shift_convolve(x, w, offsets: Sequence[tuple[int, ...]], axes: Sequence[int]) -> Tensor:
    """Small dense convolution y = sum_t w[t] * shift(x, offsets[t]).

    Shifts fill with zeros outside the array; ``offsets[t]`` holds one shift
    per axis in ``axes``.  ``w`` is [T, C] (or [T] scalars) broadcasting on
    the axes of x after the convolved ones.  y is one ``np.einsum`` of the
    taps' dense grid with a sliding-window view of x zero-padded once
    (``_Taps``), run over blocks of rows of the first convolved axis on the
    worker pool, and the VJP contracts window views the same way.  Used for
    the causal long convolution.  Each output sums only the positions its
    taps reach, so with offsets 0..T-1 no output reads a later position and
    the Jacobian above the diagonal is exactly zero.
    """
    x, w = _lift(x), _lift(w)
    taps = _Taps(x.shape, w.shape, offsets, axes)
    out = Tensor(taps.apply(np.pad(x.data, taps.pads), w.data))
    need = _needs(x, w)
    if need:
        sw = w.shape
        xd, wd = (x.data if need[1] else None), (w.data if need[0] else None)

        def vjp(g):
            gx = taps.x_partial(g, wd) if need[0] else None
            gw = taps.w_partial(np.pad(xd, taps.pads), g, sw) if need[1] else None
            return gx, gw

        _record("shift_convolve", out, (x, w), need, vjp)
    return out


def pointwise_depthwise(
    x, pw, pb, dw, db, offsets: Sequence[tuple[int, ...]], axes: Sequence[int], parts: int = 1
) -> tuple[Tensor, ...]:
    """A pointwise layer and a depthwise short convolution,
    ``shift_convolve(x @ pw + pb, dw, offsets, axes) + db``, as one op whose
    W output channels are split into ``parts`` equal parts, one tensor each,
    in channel order.

    ``x`` is [..., C], ``pw`` [C, W], ``pb`` and ``db`` [W], and ``dw`` is
    [T, W], one row per offset as in ``shift_convolve``.  The op works on
    rows of the first convolved axis through a window: a buffer zero-padded
    for the taps that holds a run of output rows' input rows, the taps'
    halo (``box - 1`` rows) included, as ``x @ pw + pb``.  The depthwise
    einsum of the window's sliding views (``_Taps``) writes those output
    rows, plus ``db``, into each part's output, allocated once.  The GEMM
    and the einsum each fill a W-wide scratch a chunk of rows at a time
    (``_CHUNK_BYTES``), and the window takes as many rows as fit beside one
    chunk in a block's share of the budget.  When one window does not hold
    every row, the rows run as ``_IN_FLIGHT`` blocks on the worker pool, and
    each block slides its window down its rows: the halo rows that the next
    position reads move to the window's top, so only the halo at a block's
    start goes through the GEMM twice.  That is the arithmetic of the
    composed ``linear``, ``shift_convolve`` and ``add``, in their order, and
    the same in any chunk or block, so every bit matches the composed ops
    cropped to each part; no W-wide map exists, padded or not, and no part
    is copied out of one.  Every micro-model shape is one window.

    All parts are one node.  It keeps ``x`` and the parameter arrays, not
    the wide map.  Its VJP puts the parts' cotangents side by side in one
    W-wide partial, zero for a part that got no gradient, and runs the
    composed ops' VJPs on it in their order, computing only the partials
    ``need`` asks for; the partial of ``dw`` recomputes ``x @ pw + pb`` into
    one zero-padded buffer of all rows.
    """
    x, pw, pb, dw, db = (_lift(t) for t in (x, pw, pb, dw, db))
    sx = x.shape
    c, wide = _gemm_shape("pointwise_depthwise", "x", sx, "pw", pw.shape)
    for name, t in (("pb", pb), ("db", db)):
        if t.shape != (wide,):
            raise ValueError(f"pointwise_depthwise: {name} must have shape ({wide},), got {t.shape}")
    if parts < 1 or wide % parts:
        raise ValueError(f"pointwise_depthwise: {wide} channels do not split into {parts} equal parts")
    sw = sx[:-1] + (wide,)
    taps = _Taps(sw, dw.shape, offsets, axes)
    xd, pwd, pbd, dwd, dbd = x.data, pw.data, pb.data, dw.data, db.data
    ax = taps.axes[0]
    n, (before, after) = sw[ax], taps.pads[ax]
    head = (slice(None),) * ax
    padded = tuple([k + lo + hi for k, (lo, hi) in zip(sw, taps.pads)])
    interior = [slice(lo, lo + k) for k, (lo, _) in zip(sw, taps.pads)]
    # Bytes of one row of the first convolved axis: of the padded map, and of
    # the W-wide scratch, which the GEMM and the einsum each fill ``chunk``
    # rows at a time.
    padded_row = 8 * math.prod(padded[:ax] + padded[ax + 1 :])
    wide_row = 8 * math.prod(sw[:ax] + sw[ax + 1 :])
    chunk = max(1, _CHUNK_BYTES // wide_row)
    row_positions = wide_row // (8 * wide)
    # Output rows a window covers at a time: it holds their input rows, halo
    # included, and with one chunk of scratch it fits a block's share.
    halo = before + after
    step = max(1, (_BLOCK_BYTES // _IN_FLIGHT - chunk * wide_row) // padded_row - halo)

    def fill(buf: np.ndarray, at: int, lo: int, hi: int) -> None:
        """Rows lo .. hi - 1 of ``x @ pw + pb`` into ``buf``'s interior from
        row ``at`` of the first convolved axis on; rows outside the map are
        zeros."""
        dst = list(interior)
        inside = range(max(lo, 0), min(hi, n))
        for a in range(inside.start, inside.stop, chunk):
            b = min(a + chunk, inside.stop)
            # BLAS takes a single position through its matrix-vector path,
            # whose bits differ from the matrix-matrix path of every longer
            # run of rows, so a lone position is computed with a neighbour.
            a0, b0 = a, b
            if (b - a) * row_positions == 1 and n > 1:
                a0, b0 = (a, b + 1) if b < n else (a - 1, b)
            rows = xd[head + (slice(a0, b0),)]
            t = (rows.reshape(-1, c) @ pwd).reshape(rows.shape[:-1] + (wide,))
            dst[ax] = slice(at + a - lo, at + b - lo)
            np.add(t[head + (slice(a - a0, b - a0),)], pbd, out=buf[tuple(dst)])
            del t  # not held through the next chunk's GEMM
        for a, b in ((lo, inside.start), (inside.stop, hi)):
            if a < b:
                buf[head + (slice(at + a - lo, at + b - lo),)] = 0.0

    size = wide // parts
    chans = [slice(i * size, (i + 1) * size) for i in range(parts)]
    outs = [np.empty(sw[:-1] + (size,)) for _ in chans]
    grid = taps._grid(dwd)[taps.flip]

    def forward(r: slice) -> None:
        """Output rows ``r``, a window of ``step`` rows at a time.  A window
        keeps the halo rows its successor reads, moved to its top, so each
        input row of the block goes through the GEMM once."""
        lo, hi, _ = r.indices(n)
        buf = np.zeros(padded[:ax] + (min(step, hi - lo) + halo,) + padded[ax + 1 :])
        for s in range(lo, hi, step):
            e = min(s + step, hi)
            if s == lo:
                fill(buf, 0, s - before, e + after)
            else:
                # Row by row from the top: a row is read before any copy
                # overwrites it, and no copy overlaps itself, so numpy makes
                # no temporary of the halo when it is taller than a step.
                for i in range(halo):
                    buf[head + (i,)] = buf[head + (step + i,)]
                fill(buf, halo, s + after, e + after)
            win = taps._windows(buf[head + (slice(0, e - s + halo),)])
            for a in range(s, e, chunk):
                b = min(a + chunk, e)
                y = np.einsum(taps.conv, win[head + (slice(a - s, b - s),)], grid)
                y += dbd
                for out, ch in zip(outs, chans):
                    out[head + (slice(a, b),)] = y[..., ch]
                del y  # not held through the next chunk's einsum

    # Rows that need more than one window run as one block per worker in
    # flight, each sliding its window down its rows.
    per_block = -(-n // _IN_FLIGHT) if n > step else n
    _over_blocks(forward, [slice(lo, min(lo + per_block, n)) for lo in range(0, n, per_block)])
    out = tuple([Tensor(y) for y in outs])
    need = _needs(x, pw, pb, dw, db)
    if need:
        # The partial of dw recomputes the wide map from x, pw and pb; those
        # of x, pw and pb read dw, and then pw's reads x and x's reads pw.
        if not (need[1] or need[3]):
            xd = None
        if not (need[0] or need[3]):
            pwd = None
        if not need[3]:
            pbd = None
        if not any(need[:3]):
            dwd = None
        sdw = dw.shape

        def vjp(g):
            if parts > 1:  # one cotangent per part, side by side
                gs, g = g, np.zeros(sw)
                for ch, gi in zip(chans, gs):
                    if gi is not None:
                        g[..., ch] = gi
                gs.clear()  # freed before the partials allocate
                del gs, gi
            gx = gpw = gpb = gdw = gdb = None
            if need[4]:
                gdb = _unbroadcast(g, (wide,))
            if need[3]:
                full = np.zeros(padded)
                fill(full, 0, -before, n + after)
                gdw = taps.w_partial(full, g, sdw)
                del full
            if any(need[:3]):
                gw = taps.x_partial(g, dwd)  # the partial of x @ pw + pb
                if need[2]:
                    gpb = _unbroadcast(gw, (wide,))
                gw2 = gw.reshape(-1, wide)
                if need[1]:
                    gpw = xd.reshape(-1, c).T @ gw2
                if need[0]:
                    gx = (gw2 @ pwd.T).reshape(sx)
            return gx, gpw, gpb, gdw, gdb

        _record("pointwise_depthwise", out, (x, pw, pb, dw, db), need, vjp)
    return out


def _im2col(xp: np.ndarray, k: int, stride: int) -> np.ndarray:
    """The k x k windows of ``xp`` at ``stride`` as [N*Ho*Wo, k*k*Cin] rows,
    ordered (dy, dx, cin) like a [k, k, Cin, Cout] weight's leading axes."""
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    win = win[:, ::stride, ::stride]  # [N, Ho, Wo, Cin, k, k]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, k * k * xp.shape[3])


def strided_conv2d(x, weight, bias, stride: int, padding: int) -> Tensor:
    """Strided dense 2D convolution for the patch stem and merging layers.

    x: [N, H, W, Cin]; weight: [k, k, Cin, Cout]; bias: [Cout].
    Zero padding; output extent (H + 2p - k)//stride + 1.  Runs as one GEMM
    of the im2col rows of the padded input with the flattened weight.
    """
    x, weight, bias = _lift(x), _lift(weight), _lift(bias)
    if x.ndim != 4:
        raise ValueError("strided_conv2d expects [N, H, W, C] input")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must not be negative, got {padding}")
    if weight.ndim != 4 or weight.shape[0] != weight.shape[1]:
        raise ValueError(f"weight must be square [k, k, Cin, Cout], got shape {weight.shape}")
    k, _, cin, cout = weight.shape
    n, hh, ww, _ = x.shape
    if x.shape[3] != cin:
        raise ValueError("channel mismatch between input and weight")
    if bias.shape != (cout,):
        raise ValueError(f"bias must have shape ({cout},), got {bias.shape}")
    ho = (hh + 2 * padding - k) // stride + 1
    wo = (ww + 2 * padding - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError("input too small for kernel/stride")
    pw = ((0, 0), (padding, padding), (padding, padding), (0, 0))
    y = (_im2col(np.pad(x.data, pw), k, stride) @ weight.data.reshape(-1, cout)).reshape(n, ho, wo, cout)
    y += bias.data
    out = Tensor(y)
    need = _needs(x, weight, bias)
    if need:
        xd, wd = (x.data if need[1] else None), (weight.data if need[0] else None)

        def vjp(g):
            gx = gw = gb = None
            g2 = g.reshape(-1, cout)
            if need[0]:
                gcols = (g2 @ wd.reshape(-1, cout).T).reshape(n, ho, wo, k, k, cin)
                # Tap (dy, dx) = (s*qy + py, s*qx + px) of output (oy, ox) lands
                # on padded row s*(oy + qy) + py and column s*(ox + qx) + px:
                # with the padded input viewed as [N, H/s, s, W/s, s, Cin],
                # one strided add per (qy, qx) scatters every phase (py, px)
                # at once.  Each entry takes its taps in (dy, dx) order, as
                # a loop over the k*k taps adds them.
                q = -(-k // stride)
                hq = max(ho + q - 1, -(-(hh + 2 * padding) // stride))
                wq = max(wo + q - 1, -(-(ww + 2 * padding) // stride))
                gxp = np.zeros((n, hq, stride, wq, stride, cin))
                for qy in range(q):
                    ys = slice(qy * stride, min(qy * stride + stride, k))
                    for qx in range(q):
                        xs = slice(qx * stride, min(qx * stride + stride, k))
                        phase = gcols[:, :, :, ys, xs].transpose(0, 1, 3, 2, 4, 5)
                        gxp[:, qy : qy + ho, : ys.stop - ys.start, qx : qx + wo, : xs.stop - xs.start] += phase
                gxp = gxp.reshape(n, hq * stride, wq * stride, cin)
                gx = gxp[:, padding : padding + hh, padding : padding + ww]
            if need[1]:
                gw = (_im2col(np.pad(xd, pw), k, stride).T @ g2).reshape(k, k, cin, cout)
            if need[2]:
                gb = g.sum(axis=(0, 1, 2))
            return gx, gw, gb

        _record("strided_conv2d", out, (x, weight, bias), need, vjp)
    return out


def linear(x, weight, bias) -> Tensor:
    """``x @ weight + bias`` with x of shape [..., Cin], as a ``matmul`` and
    an ``add``."""
    return add(matmul(x, weight), bias)


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
    inside a model), whether or not their ``requires_grad`` is set.  Checks
    every coordinate, or a fixed seeded subsample when an input has more
    than ``max_coords`` of them.  Returns the max relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1).  Input data is
    restored exactly afterwards.
    """
    if not 0.0 < eps <= 1e-2:
        raise ValueError("eps must lie in (0, 1e-2]")
    tensors = [_lift(x) for x in inputs]
    with GradTape(tensors) as tape:
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
    return worst
