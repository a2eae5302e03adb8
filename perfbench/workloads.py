"""The benchmark's three workloads over the public API of ``fftmix``.

Each workload holds three models, one per slot named after a preset:
``hpx`` (global2d mixers), ``hb`` (bidirectional) and ``chpx`` (local mixers
in the early stages).  ``train-micro`` fills the slots with the micro models
of the learning gate, global2d, bidirectional and local.

A workload offers:

* ``setup()``: build the models and inputs (timed as ``setup_s``);
* ``verify()``: the independent checks of ``checks``; returns problems;
* ``prepare(slot)``: untimed work before one operation; returns the model
  and a callable that performs the operation;
* ``check(slot, output)``: problems with one operation's output;
* ``memory_ops()``: calls that record a tape, for the retained-memory pass;
* ``steps_per_op``, ``images_per_op`` and ``peak_slots``: the optimiser steps
  and images in one operation, and the slots of the peak-memory pass.

Outputs the operations write go under ``out_dir``, which the caller removes.
"""

from __future__ import annotations

import copy

import numpy as np

from fftmix import analysis, hpxio, model as mdl, numerics as nx, training as tr
from fftmix.numerics import GradTape, Tensor

import checks
import layertrace

SLOTS = ("hpx", "hb", "chpx")
PRESETS = {"hpx": "hpx-s4", "hb": "hb-s4", "chpx": "chpx-s4"}
MICRO_VARIANTS = {"hpx": "global2d", "hb": "bidirectional", "chpx": "local"}
IMAGE_SIZE = 224
MODEL_SEED = 0


def make_image(rng: np.random.Generator, size: int) -> np.ndarray:
    """One [1, size, size, 3] image: unit Gaussian noise plus a bright blob."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    cy, cx = rng.uniform(0.2 * size, 0.8 * size, size=2)
    sigma = rng.uniform(0.03 * size, 0.1 * size)
    blob = 3.0 * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
    return (rng.normal(size=(size, size, 3)) + blob[:, :, None])[None]


class Preset224:
    """Shared set-up of ``infer-224`` and ``erf-224``: the s4 presets at 224 px."""

    steps_per_op = 1
    images_per_op = 1
    peak_slots = SLOTS

    def __init__(self, seed: int, out_dir):
        self.seed = seed
        self.models: dict = {}
        self.images: dict = {}
        self.reference: dict = {}

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.models = {s: mdl.build_model(mdl.preset_config(PRESETS[s]), seed=MODEL_SEED) for s in SLOTS}
        self.images = {s: make_image(rng, IMAGE_SIZE) for s in SLOTS}


class Infer224(Preset224):
    """Forward pass with no tape, batch 1."""

    def verify(self) -> list[str]:
        problems = []
        rng = np.random.default_rng(self.seed)
        for s in SLOTS:
            with layertrace.capture_mixers() as calls:
                logits = self.models[s](Tensor(self.images[s])).data
            for i, (mixer, x, y) in enumerate(calls):
                label = f"{PRESETS[s]} {mixer.config.variant} mixer {i + 1}"
                problems += checks.check_mixer(x, y, mixer, mixer.kernel(0).data, rng, label)
            self.reference[s] = logits
        return problems

    def prepare(self, slot):
        m = self.models[slot]
        image = Tensor(self.images[slot])
        return m, lambda: m(image).data

    def check(self, slot, out) -> list[str]:
        if not checks.close_to(out, self.reference[slot]):
            return [f"{PRESETS[slot]}: forward output differs from the verified pass"]
        return []

    def memory_ops(self):
        return []  # no tape, so nothing is retained


def centre_sum(feats: Tensor) -> Tensor:
    """Channel sum at the centre position of a [1, F, F, C] feature map."""
    cy, cx = feats.shape[1] // 2, feats.shape[2] // 2
    return nx.tensor_sum(nx.crop(feats, [slice(None), slice(cy, cy + 1), slice(cx, cx + 1), slice(None)]))


def input_gradient(m, image: np.ndarray) -> np.ndarray:
    """Tape gradient of the centre-feature sum with respect to the image."""
    img = Tensor(image, requires_grad=True)
    with GradTape() as tape:
        scalar = centre_sum(m.features(img))
    return tape.gradient(scalar, [img])[0].data


class Erf224(Preset224):
    """``analysis.erf_map`` on one image per call."""

    def verify(self) -> list[str]:
        problems = []
        rng = np.random.default_rng(self.seed + 1)
        for s in SLOTS:
            m, image, label = self.models[s], self.images[s], PRESETS[s]
            grad = input_gradient(m, image)
            problems += checks.check_directional(
                lambda x: float(centre_sum(m.features(Tensor(x))).data),
                image, grad, rng.normal(size=image.shape), f"{label} input gradient")  # 1e-5 per pixel
            grid = analysis.erf_map(m, image).grid
            problems += checks.check_erf_grid(grid, grad[0], label)
            self.reference[s] = grid
        return problems

    def prepare(self, slot):
        m, image = self.models[slot], self.images[slot]
        return m, lambda: analysis.erf_map(m, image).grid

    def check(self, slot, out) -> list[str]:
        ref = self.reference[slot]
        if not (checks.close_to(out, ref) and out.max() == 1.0 and out.min() > 0.0):
            return [f"{PRESETS[slot]}: ERF map differs from the verified map"]
        return []

    def memory_ops(self):
        return [self.prepare(s) for s in SLOTS]


class TrainMicro:
    """``training.train`` of the three learning-gate micro models, checkpoint written."""

    # A training run under tracemalloc takes twice as long as a timed one, so
    # the peak is taken on the global2d model only, the largest of the three
    # (417 MB against 385 and 349 MB).
    peak_slots = ("hpx",)

    def __init__(self, seed: int, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.spec = tr.DatasetSpec(train_size=1024, val_size=256, seed=seed)
        self.config = tr.TrainConfig(lr_peak=5e-3, warmup_epochs=1, total_epochs=3, seed=seed)
        self.steps_per_op = self.spec.train_size // self.config.batch_size * self.config.total_epochs
        self.images_per_op = self.steps_per_op * self.config.batch_size
        self.models: dict = {}
        self.first_batch = None

    def setup(self) -> None:
        self.models = {s: mdl.build_model(mdl.micro_config(v), seed=MODEL_SEED)
                       for s, v in MICRO_VARIANTS.items()}
        train_x, train_y, _, _ = tr.synthetic_quadrant_dataset(self.spec)
        # The batch the first optimiser step of a run sees.
        idx = np.random.default_rng(self.config.seed).permutation(len(train_x))[: self.config.batch_size]
        self.first_batch = (train_x[idx], train_y[idx])

    def _loss(self, m) -> Tensor:
        x, y = self.first_batch
        return tr.cross_entropy_smoothed(m(Tensor(x)), y, self.config.label_smoothing)

    def verify(self) -> list[str]:
        problems = []
        rng = np.random.default_rng(self.seed + 2)
        for s in SLOTS:
            m = copy.deepcopy(self.models[s])
            params = m.parameter_tensors()
            with GradTape() as tape:
                loss = self._loss(m)
            grad = np.concatenate([g.data.ravel() for g in tape.gradient(loss, params)])
            theta = np.concatenate([p.data.ravel() for p in params])

            def loss_at(flat, m=m, params=params):
                offset = 0
                for p in params:
                    p.data = flat[offset : offset + p.size].reshape(p.shape)
                    offset += p.size
                return float(self._loss(m).data)

            # Unit length: parameters differ in scale, and a longer step meets curvature.
            direction = rng.normal(size=theta.shape)
            problems += checks.check_directional(
                loss_at, theta, grad, direction / np.linalg.norm(direction),
                f"micro {MICRO_VARIANTS[s]} loss gradient")
        return problems

    def prepare(self, slot):
        m = copy.deepcopy(self.models[slot])
        out = self.out_dir / slot
        return m, lambda: (tr.train(m, self.spec, self.config, out_dir=out), m, out)

    def check(self, slot, out) -> list[str]:
        history, m, path = out
        label = f"micro {MICRO_VARIANTS[slot]}"
        problems = checks.check_training(history, MICRO_VARIANTS[slot], label)
        saved = hpxio.load_checkpoint_tensors(path / "checkpoint")
        return problems + checks.check_checkpoint(saved, m.parameters(), label)

    def memory_ops(self):
        ops = []
        for s in SLOTS:
            m = copy.deepcopy(self.models[s])

            def step(m=m):
                with GradTape():
                    return self._loss(m)
            ops.append((m, step))
        return ops


WORKLOADS = {"train-micro": TrainMicro, "infer-224": Infer224, "erf-224": Erf224}
