"""Desk-scale supervised training: AdamW, warmup+cosine schedule, smoothed
cross-entropy, and a seeded synthetic dataset.

The synthetic task places one bright Gaussian blob in a random quadrant of
a small image; the label is the quadrant.  Solving it requires the token
mixer to move spatial information into channels before mean pooling, which
is exactly what these models are supposed to do.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import hpxio
from . import numerics as nx
from .model import Model, check_field_types
from .numerics import GradTape, Tensor

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    lr_peak: float = 1e-3
    lr_final: float = 1e-5
    warmup_epochs: int = 2
    total_epochs: int = 20
    weight_decay: float = 0.05
    batch_size: int = 32
    label_smoothing: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        for key in ("lr_peak", "lr_final", "weight_decay"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be at least 0, got {getattr(self, key)}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label smoothing must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be at least 1")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be non-negative")
        if not self.warmup_epochs < self.total_epochs:
            raise ValueError("warmup must be shorter than the run")


@dataclass
class DatasetSpec:
    source: str = "synthetic"
    image_size: int = 32
    num_classes: int = 4
    train_size: int = 512
    val_size: int = 128
    seed: int = 0
    path: str | None = None

    def __post_init__(self):
        check_field_types(self)
        if self.source not in ("synthetic", "directory"):
            raise ValueError("source must be 'synthetic' or 'directory'")
        if self.source == "directory" and not self.path:
            raise ValueError("directory source requires a path")
        for key in ("train_size", "val_size"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be non-negative, got {getattr(self, key)}")
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be at least 1, got {self.num_classes}")
        # A synthetic blob's centre is drawn from [margin, size / 2 - margin]
        # of the class's quadrant, and an image has four quadrants.
        if self.source == "synthetic" and self.image_size < 8:
            raise ValueError(f"image_size must be at least 8 for synthetic images, got {self.image_size}")
        if self.source == "synthetic" and self.num_classes > 4:
            raise ValueError(f"num_classes must be at most 4 for synthetic images, got {self.num_classes}")


# ---------------------------------------------------------------------------
# Schedule and loss
# ---------------------------------------------------------------------------


def cosine_warmup_lr(step: int, config: TrainConfig, steps_per_epoch: int = 1) -> float:
    """Linear ramp 0 -> lr_peak over the warmup, then cosine to lr_final.

    ``step`` counts optimizer steps; the last step of the run lands exactly
    on lr_final and the warmup end exactly on lr_peak.
    """
    if step < 0:
        raise ValueError("step must be non-negative")
    warmup = config.warmup_epochs * steps_per_epoch
    last = max(config.total_epochs * steps_per_epoch - 1, 1)
    if warmup > 0 and step < warmup:
        return config.lr_peak * step / warmup
    if step >= last:
        return config.lr_final
    span = max(last - warmup, 1)
    phase = math.pi * (step - warmup) / span
    return config.lr_final + 0.5 * (config.lr_peak - config.lr_final) * (1.0 + math.cos(phase))


def cross_entropy_smoothed(logits: Tensor, labels: np.ndarray, smoothing: float) -> Tensor:
    """Mean batch cross-entropy against (1-eps)*onehot + eps/num_classes."""
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError("labels must be a vector matching the batch")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integer class indices, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("label out of range")
    if not np.all(np.isfinite(logits.data)):
        raise ValueError("non-finite logits")
    targets = np.full((n, k), smoothing / k)
    targets[np.arange(n), labels] += 1.0 - smoothing
    return nx.cross_entropy(logits, targets)


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


def init_adamw_state(params: list[Tensor]) -> dict:
    return {
        "step": 0,
        "m": [np.zeros_like(p.data) for p in params],
        "v": [np.zeros_like(p.data) for p in params],
    }


def adamw_step(
    params: list[Tensor],
    grads: list[np.ndarray],
    state: dict,
    lr: float,
    weight_decay: float = 0.0,
) -> dict:
    """One decoupled-weight-decay Adam update with bias correction, with
    ``ADAM_BETAS`` and ``ADAM_EPS``.

    Decay multiplies parameters by (1 - lr*wd) before the moment update, so
    with wd = 0 the trajectory is exactly plain Adam.  Raw ndarray gradients
    are scanned for non-finite values; ``Tensor`` gradients were scanned when
    they were built.  Each elementwise step writes into one of two scratch
    arrays of the parameter's size, in the order of the textbook formula
    ``m / c1 / (sqrt(v / c2) + eps)``, so the result is that formula's to the
    bit.
    """
    beta1, beta2 = ADAM_BETAS
    state["step"] += 1
    t = state["step"]
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        if isinstance(g, Tensor):
            g = g.data
        else:
            g = np.asarray(g)
            if not np.all(np.isfinite(g)):
                raise ValueError("non-finite gradient")
        if weight_decay != 0.0:
            p.data *= 1.0 - lr * weight_decay
        a, b = np.empty_like(p.data), np.empty_like(p.data)
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=a)
        v *= beta2
        np.multiply(g, 1.0 - beta2, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, c1, out=a)
        np.sqrt(np.divide(v, c2, out=b), out=b)
        b += ADAM_EPS
        a /= b
        p.data -= np.multiply(a, lr, out=a)
    return state


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def synthetic_quadrant_dataset(spec: DatasetSpec):
    """Seeded blob-in-quadrant images; class-balanced, train/val disjoint.

    Image i has label ``i % num_classes``, and label q's blob lies in
    quadrant ``divmod(q, 2)``, which is why ``DatasetSpec`` allows at most
    four synthetic classes.  Returns (train_x, train_y, val_x, val_y) with images [N, S, S, 3].
    """
    rng = np.random.default_rng(spec.seed)
    size = spec.image_size
    half = size // 2
    total = spec.train_size + spec.val_size
    coords = np.arange(size, dtype=np.float64)
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    images = np.empty((total, size, size, 3))
    labels = np.empty(total, dtype=np.int64)
    margin = max(2, size // 10)
    for i in range(total):
        label = i % spec.num_classes
        qy, qx = divmod(label, 2)
        cy = rng.uniform(margin, half - margin) + qy * half
        cx = rng.uniform(margin, half - margin) + qx * half
        sigma = rng.uniform(1.5, 2.5)
        amp = rng.uniform(2.0, 3.0)
        blob = amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
        tint = 1.0 + rng.uniform(-0.2, 0.2, size=3)
        img = rng.normal(0.0, 0.05, size=(size, size, 3)) + blob[:, :, None] * tint
        images[i] = img
        labels[i] = label
    return (
        images[: spec.train_size],
        labels[: spec.train_size],
        images[spec.train_size :],
        labels[spec.train_size :],
    )


def directory_dataset(spec: DatasetSpec):
    """Load HPX1 images from <path>/{train,val}/<class>/*.hpx1.

    Labels index the sorted class folders of ``train``; ``val`` must hold
    the same folders, so that a label means the same class in both splits.
    """
    root = Path(spec.path)
    splits = []
    for split in ("train", "val"):
        base = root / split
        found = sorted(p.name for p in base.iterdir() if p.is_dir())
        if not found:
            raise ValueError(f"no class directories under {base}")
        if split == "train":
            classes = found
        elif found != classes:
            raise ValueError(
                f"class directories under {base} {found} differ from train's {classes}"
            )
        files = [(f, ci) for ci, cname in enumerate(classes) for f in sorted((base / cname).glob("*.hpx1"))]
        if not files:
            raise ValueError(f"the {split} split holds no .hpx1 images under {base}")
        images = hpxio.read_hpx1_stack([f for f, _ in files], f"the {split} split")
        splits.append((images, np.asarray([ci for _, ci in files], dtype=np.int64)))
    (tx, ty), (vx, vy) = splits
    return tx, ty, vx, vy


def load_dataset(spec: DatasetSpec):
    if spec.source == "synthetic":
        return synthetic_quadrant_dataset(spec)
    return directory_dataset(spec)


# ---------------------------------------------------------------------------
# Loop
# ---------------------------------------------------------------------------


def evaluate_accuracy(model: Model, images: np.ndarray, labels: np.ndarray, batch_size: int = 64) -> float:
    if len(images) == 0:
        raise ValueError("evaluate_accuracy: the image array is empty")
    hits = 0
    for start in range(0, len(images), batch_size):
        xb = Tensor(images[start : start + batch_size])
        logits = model(xb).data
        hits += int((logits.argmax(axis=-1) == labels[start : start + batch_size]).sum())
    return hits / len(images)


def train(model: Model, dataset: DatasetSpec, config: TrainConfig, out_dir=None):
    """Train in place; returns the per-epoch history list.

    Deterministic given seeds: fixed batch order per epoch from the config
    seed, seeded data generation, and a serial reduction order.  When
    ``out_dir`` is given, writes history.csv plus a checkpoint directory.
    """
    train_x, train_y, val_x, val_y = load_dataset(dataset)
    expected = (*model.config.input_size, 3)
    for split, images in (("training", train_x), ("validation", val_x)):
        if len(images) == 0:
            raise ValueError(f"the {split} split is empty")
        if images.shape[1:] != expected:
            raise ValueError(
                f"the {split} split's images are {list(images.shape[1:])}, "
                f"the model expects {list(expected)}"
            )
    if dataset.num_classes != model.config.num_classes:
        raise ValueError("dataset/model class-count mismatch")
    params = model.parameter_tensors()
    state = init_adamw_state(params)
    order_rng = np.random.default_rng(config.seed)
    steps_per_epoch = max(len(train_x) // config.batch_size, 1)
    history = []
    step = 0
    for epoch in range(config.total_epochs):
        perm = order_rng.permutation(len(train_x))
        losses = []
        lr = 0.0
        for b in range(steps_per_epoch):
            idx = perm[b * config.batch_size : (b + 1) * config.batch_size]
            lr = cosine_warmup_lr(step, config, steps_per_epoch)
            with GradTape(params) as tape:
                logits = model(Tensor(train_x[idx]))
                loss = cross_entropy_smoothed(logits, train_y[idx], config.label_smoothing)
            grads = tape.gradient(loss, params)
            adamw_step(params, grads, state, lr, weight_decay=config.weight_decay)
            model.apply_constraints()
            losses.append(float(loss.data))
            step += 1
        val_acc = evaluate_accuracy(model, val_x, val_y, config.batch_size)
        history.append(
            {
                "epoch": epoch,
                "lr": lr,
                "train_loss": float(np.mean(losses)),
                "val_acc": val_acc,
            }
        )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_history_csv(out / "history.csv", history)
        hpxio.save_checkpoint(out / "checkpoint", model.config.to_dict(), model.parameters())
    return history


def write_history_csv(path, history) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "train_loss", "val_acc"])
        for row in history:
            writer.writerow([row["epoch"], row["lr"], row["train_loss"], row["val_acc"]])
