"""Correctness checks that do not trust the code they check.

Each check recomputes a result by a different route than the program takes:
direct summation instead of the FFT, central finite differences instead of
the tape, the learning gate's accuracy floors instead of a stored answer.
Every function returns a list of problems; an empty list means the check
passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

ORACLE_TOL = 1e-10  # acceptance criterion 1: max abs error against direct summation
FD_TOL = 1e-5  # acceptance criterion 3: relative error of a central difference
FD_EPS = 1e-5
MAX_ORACLE_POSITIONS = 256
TRAIN_FLOORS = {"global2d": 0.95, "bidirectional": 0.90, "local": 0.90}
LOSS_CEILING = math.log(4.0)  # a four-class guess


def short_conv_direct(wide: np.ndarray, weights: np.ndarray, bias: np.ndarray, offsets, ndim: int):
    """Depthwise short convolution with zero fill, summed tap by tap.

    ``wide`` is [..., L, C] (``ndim`` 1) or [..., Ly, Lx, C] (``ndim`` 2);
    out[i] = sum_t w[t] * wide[i - offset_t] + b.
    """
    spatial = wide.shape[-1 - ndim : -1]
    reach = max(abs(o) for off in offsets for o in off)
    pad = [(0, 0)] * (wide.ndim - 1 - ndim) + [(reach, reach)] * ndim + [(0, 0)]
    padded = np.pad(wide, pad)
    out = np.zeros_like(wide)
    for w, off in zip(weights, offsets):
        window = [slice(None)] * (wide.ndim - 1 - ndim)
        window += [slice(reach - o, reach - o + n) for o, n in zip(off, spatial)]
        out += w * padded[tuple(window)]
    return out + bias


def sample_positions(shape: tuple[int, ...], rng: np.random.Generator) -> list[tuple[int, ...]]:
    """Every position of a small grid; the corners plus a seeded sample otherwise."""
    total = int(np.prod(shape))
    if total <= MAX_ORACLE_POSITIONS:
        return [tuple(int(i) for i in np.unravel_index(k, shape)) for k in range(total)]
    corners = sorted(set(itertools.product(*[(0, n - 1) for n in shape])))
    picks = rng.choice(total, size=MAX_ORACLE_POSITIONS - len(corners), replace=False)
    return corners + [tuple(int(i) for i in np.unravel_index(k, shape)) for k in picks]


def mixer_direct(x: np.ndarray, mixer, kernel: np.ndarray, positions) -> np.ndarray:
    """Gated long-convolution mixer output at ``positions``, by direct summation.

    ``x`` is one unbatched mixer input, [L, C] or [Ly, Lx, C]; ``kernel`` is
    the materialised centred kernel [P, C].  No FFT is involved: the long
    convolution is y[i] = sum_s qk[s] * h[i - s] over every input position.
    """
    variant = mixer.config.variant
    if variant not in ("bidirectional", "global2d"):
        raise ValueError(f"no direct-summation oracle for {variant!r}")
    proj = mixer.proj
    ndim = 1 if variant == "bidirectional" else 2
    c = proj.channels
    wide = x @ proj.pointwise_w.data + proj.pointwise_b.data
    wide = short_conv_direct(wide, proj.depthwise_w.data, proj.depthwise_b.data, proj.offsets, ndim)
    q, k, v = wide[..., :c], wide[..., c : 2 * c], wide[..., 2 * c :]
    qk = q * k
    spatial = x.shape[:-1]
    h = kernel.reshape(tuple(2 * n - 1 for n in spatial) + (c,))
    out = np.empty((len(positions), c))
    for row, pos in enumerate(positions):
        # h[i - s + L - 1] over s = 0..L-1 is h[i : i + L] reversed, per axis.
        taps = h[tuple(slice(i, i + n) for i, n in zip(pos, spatial))]
        taps = taps[tuple(slice(None, None, -1) for _ in spatial)]
        g = (qk * taps).sum(axis=tuple(range(ndim)))
        out[row] = (g * v[pos]) @ mixer.out_proj.data
    return out


def check_mixer(x: np.ndarray, y: np.ndarray, mixer, kernel: np.ndarray, rng, label: str) -> list[str]:
    """Mixer output ``y`` against direct summation on the same input ``x``.

    Both carry a leading batch axis; every batch item is checked at the same
    sampled positions.
    """
    positions = sample_positions(x.shape[1:-1], rng)
    worst = 0.0
    for xb, yb in zip(x, y):
        ref = mixer_direct(xb, mixer, kernel, positions)
        got = np.stack([yb[p] for p in positions])
        worst = max(worst, float(np.abs(got - ref).max()))
    if not worst < ORACLE_TOL:
        return [f"{label}: max abs error {worst:.3e} against direct summation (limit {ORACLE_TOL:g})"]
    return []


def check_directional(f, x: np.ndarray, grad: np.ndarray, direction: np.ndarray, label: str) -> list[str]:
    """Tape gradient ``grad`` of scalar ``f`` at ``x`` against a central difference.

    The step is ``FD_EPS`` times ``direction``, so its length sets the step
    size.  The error is relative to the larger of the two derivatives and the
    typical size of a derivative along a random direction of that length,
    |grad| |direction| / sqrt(n); a draw nearly orthogonal to the gradient
    therefore does not inflate it.
    """
    numeric = (f(x + FD_EPS * direction) - f(x - FD_EPS * direction)) / (2.0 * FD_EPS)
    analytic = float(np.vdot(grad, direction))
    typical = float(np.linalg.norm(grad) * np.linalg.norm(direction)) / math.sqrt(direction.size)
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), typical)
    if not err < FD_TOL:
        return [f"{label}: directional derivative {analytic:.9e} vs central difference "
                f"{numeric:.9e} (relative error {err:.2e}, limit {FD_TOL:g})"]
    return []


def check_erf_grid(grid: np.ndarray, input_grad: np.ndarray, label: str) -> list[str]:
    """ERF map against the input gradient it is built from.

    The map must be |grad| summed over colour channels and max-normalised:
    its maximum exactly 1 and, for models with global kernels, every pixel
    above 0.
    """
    problems = []
    expected = np.abs(input_grad).sum(axis=-1)
    expected = expected / expected.max()
    if grid.shape != expected.shape:
        return [f"{label}: ERF map shape {grid.shape}, expected {expected.shape}"]
    err = float(np.abs(grid - expected).max())
    if not err <= 1e-12:
        problems.append(f"{label}: ERF map differs from the normalised input gradient by {err:.3e}")
    if grid.max() != 1.0:
        problems.append(f"{label}: ERF map maximum {grid.max()!r}, expected exactly 1")
    if not grid.min() > 0.0:
        problems.append(f"{label}: ERF map has {int((grid <= 0).sum())} pixels at or below 0")
    return problems


def check_training(history: list[dict], variant: str, label: str) -> list[str]:
    """The learning gate's floors on the last epoch of one training run."""
    problems = []
    last = history[-1]
    floor = TRAIN_FLOORS[variant]
    if not last["val_acc"] >= floor:
        problems.append(f"{label}: final val_acc {last['val_acc']:.4f} below the floor {floor}")
    if not last["train_loss"] < LOSS_CEILING:
        problems.append(f"{label}: final train_loss {last['train_loss']:.4f} not below ln 4")
    return problems


def check_checkpoint(saved: dict[str, np.ndarray], params: list, label: str) -> list[str]:
    """A written checkpoint holds every parameter, equal to it at float32."""
    names = {n for n, _ in params}
    if set(saved) != names:
        return [f"{label}: checkpoint tensors {sorted(set(saved) ^ names)[:3]} do not match the model"]
    for name, tensor in params:
        want = tensor.data.astype(np.float32).astype(np.float64)
        if saved[name].shape != tensor.shape or not np.array_equal(saved[name], want):
            return [f"{label}: checkpoint tensor {name} differs from the parameter"]
    return []


def close_to(out: np.ndarray, ref: np.ndarray) -> bool:
    """A repeated call on the same input returns the verified result."""
    return out.shape == ref.shape and bool(np.all(np.isfinite(out))) and bool(
        np.allclose(out, ref, rtol=1e-9, atol=1e-12))
