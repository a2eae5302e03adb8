"""Per-layer tracing from outside the program.

``Tracer`` replaces public functions and methods of the package's layers
with timing wrappers for the duration of a ``with`` block and puts the
originals back on exit.  The layer classes bind ``__call__ = forward`` when
they are defined, so the class attribute ``__call__`` is what gets wrapped.

Forward time is the inclusive wall time of a wrapped call.  Backward time
is assigned through the tape: each wrapped call notes how many nodes the
active ``GradTape`` held before and after it, and when that tape's
``gradient`` runs, every node's vector-Jacobian product is timed and
credited to each layer whose node range holds the node's index.

With ``memory=True`` only the mixers are wrapped, and each reports the
bytes ``tracemalloc`` still counts after its forward pass under a tape.
"""

from __future__ import annotations

import contextlib
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from fftmix import filters, hpxio, mixers, model, numerics, training

STAGES = (1, 2, 3, 4)
MODEL_LAYERS = (
    ["model.stem"]
    + [f"model.stage{s}.{part}" for s in STAGES for part in ("mixer", "ffn")]
    + ["model.norm", "model.down", "model.head"]
)
MIXER_LAYERS = ["mixers.global2d", "mixers.bidirectional", "mixers.local", "mixers.project_qkv"]
NUMERIC_OPS = ["circular_convolve", "shift_convolve", "strided_conv2d", "matmul"]
FFT_FUNCS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")

# Metrics reported per training run rather than per step.
PER_RUN = ("training.steps", "hpxio.save_checkpoint_s", "hpxio.bytes_written")

PER_LAYER = (
    [f"{n}.{d}" for n in MODEL_LAYERS for d in ("fwd_s", "bwd_s")]
    + [f"model.stage{s}.mixer.retained_mb" for s in STAGES]
    + [f"{n}.{d}" for n in MIXER_LAYERS for d in ("fwd_s", "bwd_s")]
    + ["filters.materialize.fwd_s", "filters.materialize.bwd_s",
       "filters.materialize.calls", "filters.materialize.taps"]
    + [f"numerics.{op}.{d}" for op in NUMERIC_OPS for d in ("fwd_s", "bwd_s")]
    + ["numerics.circular_convolve.calls", "numerics.fft.calls", "numerics.fft.points",
       "numerics.tape.nodes", "numerics.tape.backward_s",
       "numerics.tensor.count", "numerics.tensor.init_s"]
    + ["training.forward_s", "training.backward_s", "training.optimizer_s",
       "training.eval_s", "training.data_s", "training.steps"]
    + ["hpxio.save_checkpoint_s", "hpxio.bytes_written", "trace.overhead_s"]
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "hpxio.bytes_written":
        return "bytes"
    return "count"


class Tracer:
    """Collects per-layer totals while active; ``register`` each model first."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.totals: dict[str, float] = defaultdict(float)
        self._saved = []
        self._layer_names: dict[int, list[str]] = {}
        self._tape = None
        self._ranges = defaultdict(list)
        self._outer = 0  # depth inside stem, downsampling or head, whose norms are their own
        self._training = 0

    # -- setup ----------------------------------------------------------------

    def register(self, m) -> None:
        """Name the layers of model ``m`` by stage."""
        self._layer_names[id(m.stem)] = ["model.stem"]
        for down in m.downsamples:
            self._layer_names[id(down)] = ["model.down"]
        for s, blocks in enumerate(m.stages, start=1):
            for block in blocks:
                variant = block.mixer.config.variant
                self._layer_names[id(block.mixer)] = [f"model.stage{s}.mixer", f"mixers.{variant}"]
                self._layer_names[id(block.ffn)] = [f"model.stage{s}.ffn"]

    def _replace(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    def __enter__(self) -> "Tracer":
        self._replace(numerics.GradTape, "__enter__", self._tape_enter)
        self._replace(numerics.GradTape, "__exit__", self._tape_exit)
        for cls in (mixers.GatedConvMixer, mixers.LocalConvMixer):
            self._replace(cls, "__call__", self._retained if self.memory else self._layer_by_id)
        if self.memory:
            return self
        for cls in (model.ConvNormLayer, model.FeedForward):
            self._replace(cls, "__call__", self._layer_by_id)
        self._replace(model.Model, "head", self._span(["model.head"], outer=True))
        self._replace(model, "layer_norm", self._norm)
        self._replace(mixers, "project_qkv", self._span(["mixers.project_qkv"]))
        self._replace(filters.ImplicitFilter, "materialize", self._materialize)
        for op in NUMERIC_OPS:
            self._replace(numerics, op, self._span([f"numerics.{op}"], count=op == "circular_convolve"))
        for name in FFT_FUNCS:
            self._replace(np.fft, name, self._fft(inverse_real=name.startswith("irfft")))
        self._replace(numerics.Tensor, "__init__", self._tensor_init)
        self._replace(numerics.GradTape, "gradient", self._gradient)
        self._replace(training, "train", self._in_training)
        self._replace(training, "load_dataset", self._timed("training.data_s"))
        self._replace(training, "evaluate_accuracy", self._timed("training.eval_s"))
        self._replace(training, "adamw_step", self._timed("training.optimizer_s", count="training.steps"))
        self._replace(model.Model, "apply_constraints", self._timed("training.optimizer_s"))
        self._replace(hpxio, "save_checkpoint", self._checkpoint)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------------

    def _credit_forward(self, names, n0, dt) -> None:
        for n in names:
            self.totals[n + ".fwd_s"] += dt
        tape = self._tape
        if tape is not None and len(tape.nodes) > n0:
            self._ranges[tape].append((names, n0, len(tape.nodes)))

    def _run(self, fn, names, outer, count, args, kwargs):
        n0 = len(self._tape.nodes) if self._tape is not None else 0
        self._outer += outer
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._outer -= outer
        self._credit_forward(names, n0, dt)
        if count:
            self.totals[names[0] + ".calls"] += 1
        return out

    def _span(self, names, outer=False, count=False):
        def wrap(fn):
            def traced(*args, **kwargs):
                return self._run(fn, names, outer, count, args, kwargs)
            return traced
        return wrap

    def _layer_by_id(self, fn):
        def traced(layer, *args, **kwargs):
            names = self._layer_names[id(layer)]
            outer = names[0] in ("model.stem", "model.down")
            return self._run(fn, names, outer, False, (layer,) + args, kwargs)
        return traced

    def _norm(self, fn):
        inner = self._span(["model.norm"])(fn)

        def traced(*args, **kwargs):
            return fn(*args, **kwargs) if self._outer else inner(*args, **kwargs)
        return traced

    def _materialize(self, fn):
        inner = self._span(["filters.materialize"], count=True)(fn)

        def traced(filt):
            out = inner(filt)
            self.totals["filters.materialize.taps"] += out.size
            return out
        return traced

    def _fft(self, inverse_real: bool):
        def wrap(fn):
            def traced(a, *args, **kwargs):
                out = fn(a, *args, **kwargs)
                self.totals["numerics.fft.calls"] += 1
                self.totals["numerics.fft.points"] += out.size if inverse_real else np.size(a)
                return out
            return traced
        return wrap

    def _tensor_init(self, fn):
        def traced(tensor, *args, **kwargs):
            t0 = perf_counter()
            fn(tensor, *args, **kwargs)
            self.totals["numerics.tensor.init_s"] += perf_counter() - t0
            self.totals["numerics.tensor.count"] += 1
        return traced

    def _tape_enter(self, fn):
        def traced(tape):
            out = fn(tape)
            self._tape = tape
            self._tape_t0 = perf_counter()
            return out
        return traced

    def _tape_exit(self, fn):
        def traced(tape, *exc):
            if self._training and not self.memory:
                self.totals["training.forward_s"] += perf_counter() - self._tape_t0
            self._tape = None
            return fn(tape, *exc)
        return traced

    def _gradient(self, fn):
        def traced(tape, *args, **kwargs):
            nodes = tape.nodes
            node_s = np.zeros(len(nodes))
            for i, node in enumerate(nodes):
                node._vjp = _timed_vjp(node._vjp, node_s, i)
            t0 = perf_counter()
            out = fn(tape, *args, **kwargs)
            dt = perf_counter() - t0
            self.totals["numerics.tape.backward_s"] += dt
            self.totals["numerics.tape.nodes"] += len(nodes)
            if self._training:
                self.totals["training.backward_s"] += dt
            cumulative = np.concatenate([[0.0], np.cumsum(node_s)])
            for names, a, b in self._ranges.pop(tape, []):
                for n in names:
                    self.totals[n + ".bwd_s"] += cumulative[b] - cumulative[a]
            return out
        return traced

    def _timed(self, name, count=None):
        def wrap(fn):
            def traced(*args, **kwargs):
                t0 = perf_counter()
                out = fn(*args, **kwargs)
                self.totals[name] += perf_counter() - t0
                if count:
                    self.totals[count] += 1
                return out
            return traced
        return wrap

    def _in_training(self, fn):
        def traced(*args, **kwargs):
            self._training += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._training -= 1
        return traced

    def _checkpoint(self, fn):
        def traced(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.totals["hpxio.save_checkpoint_s"] += perf_counter() - t0
            self.totals["hpxio.bytes_written"] += sum(
                p.stat().st_size for p in Path(out).iterdir() if p.is_file())
            return out
        return traced

    def _retained(self, fn):
        def traced(layer, *args, **kwargs):
            if self._tape is None:
                return fn(layer, *args, **kwargs)
            before = tracemalloc.get_traced_memory()[0]
            out = fn(layer, *args, **kwargs)
            stage = self._layer_names[id(layer)][0]
            self.totals[stage + ".retained_mb"] += (tracemalloc.get_traced_memory()[0] - before) / 1e6
            return out
        return traced


def _timed_vjp(vjp, node_s, i):
    def traced(g):
        t0 = perf_counter()
        out = vjp(g)
        node_s[i] += perf_counter() - t0
        return out
    return traced


@contextlib.contextmanager
def capture_mixers():
    """Record (mixer, input, output) of every gated long-convolution mixer call."""
    calls = []
    original = mixers.GatedConvMixer.__call__

    def recording(mixer, x, *args, **kwargs):
        out = original(mixer, x, *args, **kwargs)
        calls.append((mixer, x.data.copy(), out.data.copy()))
        return out

    mixers.GatedConvMixer.__call__ = recording
    try:
        yield calls
    finally:
        mixers.GatedConvMixer.__call__ = original
