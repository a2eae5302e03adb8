"""File formats: HPX1 tensors, written 8-bit PGM images, and checkpoint directories.

HPX1 layout: magic bytes ``HPX1``, u32 little-endian rank, one u32 per
dimension, then a float32 little-endian row-major payload.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"HPX1"
CHECKPOINT_MANIFEST = "manifest.json"
F32_MAX = float(np.finfo(np.float32).max)


def write_hpx1(path, array: np.ndarray) -> None:
    """Write ``array`` as HPX1; values must be finite in float32."""
    arr = np.asarray(array)
    if arr.dtype.kind != "f":
        raise ValueError("HPX1 stores float tensors")
    if not np.all(np.abs(arr) <= F32_MAX):
        raise ValueError(f"{path}: values are not finite in float32 (|x| > {F32_MAX:.4g} or NaN)")
    payload = np.ascontiguousarray(arr, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(payload.tobytes())


def _read_exact(fh, size: int, path, what: str) -> bytes:
    """``size`` bytes of ``fh``; a size beyond what the file still holds is
    rejected before any buffer is asked for, since it comes from the file."""
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{path}: truncated {what}")
    return fh.read(size)


def read_hpx1(path) -> np.ndarray:
    """Read an HPX1 file; the payload must fill the file exactly and be finite."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        (rank,) = struct.unpack("<I", _read_exact(fh, 4, path, "header"))
        shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, path, "shape"))
        count = math.prod(shape)  # exact; np.prod wraps around in int64
        data = np.frombuffer(_read_exact(fh, 4 * count, path, "payload"), dtype="<f4")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the payload")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite payload")
    return data.reshape(shape).astype(np.float64)


def read_hpx1_stack(paths, what: str) -> np.ndarray:
    """The HPX1 files ``paths``, read and stacked along a new first axis.
    A file whose shape differs from the first file's raises a ``ValueError``
    naming ``what``, that file and both shapes."""
    arrays = []
    for path in paths:
        arrays.append(read_hpx1(path))
        if arrays[-1].shape != arrays[0].shape:
            raise ValueError(
                f"{what} mixes image shapes: {path} is {list(arrays[-1].shape)}, "
                f"{paths[0]} is {list(arrays[0].shape)}"
            )
    return np.stack(arrays)


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2D array as binary 8-bit PGM, min/max normalized to [0, 255]."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("PGM expects a 2D array")
    lo, hi = float(img.min()), float(img.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    quant = np.clip(np.round((img - lo) * scale), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(quant.tobytes())


def save_checkpoint(out_dir, config_dict: dict, named_params) -> Path:
    """Write one HPX1 file per parameter plus a JSON manifest.

    The manifest echoes the model configuration and maps each parameter
    name to its tensor file.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tensor_map = {}
    for i, (name, tensor) in enumerate(named_params):
        fname = f"t{i:04d}.hpx1"
        write_hpx1(out / fname, tensor.data)
        tensor_map[name] = fname
    manifest = {"format": "fftmix-checkpoint-v1", "config": config_dict, "tensors": tensor_map}
    with open(out / CHECKPOINT_MANIFEST, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return out


def load_checkpoint_manifest(ckpt_dir) -> dict:
    """The checkpoint's manifest, checked for shape: a JSON object with the
    format tag, a ``config`` object, and ``tensors`` mapping each parameter
    name to the name of a file that exists directly inside ``ckpt_dir``."""
    path = Path(ckpt_dir) / CHECKPOINT_MANIFEST
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != "fftmix-checkpoint-v1":
        raise ValueError(f"{path}: not a checkpoint manifest")
    if not isinstance(manifest.get("config"), dict):
        raise ValueError(f"{path}: 'config' must be an object")
    tensors = manifest.get("tensors")
    if not isinstance(tensors, dict) or not all(
        isinstance(f, str) and f not in ("", "..") and Path(f).name == f for f in tensors.values()
    ):
        raise ValueError(f"{path}: 'tensors' must map names to file names in {ckpt_dir}")
    missing = sorted(f for f in set(tensors.values()) if not (Path(ckpt_dir) / f).is_file())
    if missing:
        raise ValueError(f"{path}: missing tensor files {missing[:3]}")
    return manifest


def load_checkpoint_tensors(ckpt_dir) -> dict[str, np.ndarray]:
    manifest = load_checkpoint_manifest(ckpt_dir)
    root = Path(ckpt_dir)
    return {name: read_hpx1(root / fname) for name, fname in manifest["tensors"].items()}
