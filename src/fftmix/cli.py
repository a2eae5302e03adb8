"""Command-line interface: train, model info, erf, coverage, truncate,
bench, and filters dump over JSON configs.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Every run that
produces files writes them under ``--out`` together with a manifest
recording the subcommand, a hash of the effective config, the seed, the
subcommand's wall time, and tool versions.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, analysis, hpxio, model as mdl, training
from .mixers import GatedConvMixer


@dataclass
class CliConfig:
    subcommand: str
    args: dict
    payload: dict = field(default_factory=dict)  # validated JSON config body
    started: float = field(default_factory=time.perf_counter)  # when the command was parsed

    @property
    def seed(self) -> int:
        return int(self.args.get("seed") or 0)


def _strict_keys(d: dict, allowed, context: str) -> None:
    unknown = set(d) - set(allowed)
    if unknown:
        raise ValueError(f"unknown keys in {context}: {sorted(unknown)}")


def _load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


TRAIN_SECTIONS = ("model", "train", "data")


def _model_config(model_sec: dict) -> mdl.ModelConfig:
    """The ``model`` section as a config: a ``preset`` name with optional
    ``input_size`` and ``num_classes``, or the config's fields themselves."""
    if "preset" not in model_sec:
        return mdl.config_from_dict(model_sec)
    _strict_keys(model_sec, ("preset", "input_size", "num_classes"), "config.model")
    preset = model_sec["preset"]
    if not isinstance(preset, str):
        raise ValueError("config.model.preset must be a string")
    overrides = {k: v for k, v in model_sec.items() if k != "preset"}
    return mdl.config_from_dict({**mdl.preset_config(preset).to_dict(), **overrides})


def _validate_train_payload(payload: dict) -> dict:
    if not isinstance(payload, dict):
        raise ValueError("the config must be a JSON object")
    _strict_keys(payload, TRAIN_SECTIONS, "config")
    model_sec = dict(payload.get("model", {}))
    _model_config(model_sec)
    train_sec = dict(payload.get("train", {}))
    _strict_keys(train_sec, training.TrainConfig.__dataclass_fields__, "config.train")
    training.TrainConfig(**train_sec)
    data_sec = dict(payload.get("data", {}))
    _strict_keys(data_sec, training.DatasetSpec.__dataclass_fields__, "config.data")
    training.DatasetSpec(**data_sec)
    return {"model": model_sec, "train": train_sec, "data": data_sec}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fftmix", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_train = sub.add_parser("train", help="train a model from a JSON config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--seed", type=int, default=0)

    p_model = sub.add_parser("model", help="model utilities")
    model_sub = p_model.add_subparsers(dest="model_cmd", required=True)
    p_info = model_sub.add_parser("info", help="print shape ladder and parameter count")
    src = p_info.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset")
    src.add_argument("--checkpoint")
    p_info.add_argument("--input-size", type=_positive_int, default=224)
    p_info.add_argument("--num-classes", type=_positive_int, default=1000)
    p_info.add_argument("--out")
    p_info.add_argument("--seed", type=int, default=0)

    p_erf = sub.add_parser("erf", help="effective receptive field map")
    p_erf.add_argument("--model", required=True)
    p_erf.add_argument("--images", default="synthetic")
    p_erf.add_argument("--num", type=_positive_int, default=8)
    p_erf.add_argument("--out", required=True)
    p_erf.add_argument("--seed", type=int, default=0)

    p_cov = sub.add_parser("coverage", help="kernel coverage report")
    p_cov.add_argument("--model", required=True)
    p_cov.add_argument("--threshold", type=float, default=0.05)
    p_cov.add_argument("--out", required=True)
    p_cov.add_argument("--seed", type=int, default=0)

    p_tr = sub.add_parser("truncate", help="truncate stage kernels and evaluate")
    p_tr.add_argument("--model", required=True)
    p_tr.add_argument("--stage", type=int, required=True)
    p_tr.add_argument("--rel", type=float, required=True)
    p_tr.add_argument("--eval", action="store_true")
    p_tr.add_argument("--out", required=True)
    p_tr.add_argument("--seed", type=int, default=0)

    p_bench = sub.add_parser("bench", help="runtime scaling benchmark")
    p_bench.add_argument("--variants", required=True, help="comma-separated variant names")
    p_bench.add_argument("--extents", required=True, help="comma-separated side lengths")
    p_bench.add_argument("--channels", type=int, default=4)
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--seed", type=int, default=0)

    p_filters = sub.add_parser("filters", help="filter utilities")
    f_sub = p_filters.add_subparsers(dest="filters_cmd", required=True)
    p_dump = f_sub.add_parser("dump", help="dump materialized kernels")
    p_dump.add_argument("--model", required=True)
    p_dump.add_argument("--per-channel", action="store_true")
    p_dump.add_argument("--out", required=True)
    p_dump.add_argument("--seed", type=int, default=0)
    return parser


def parse_args(argv) -> CliConfig:
    """Parse and validate; raises SystemExit(2) on any usage error."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    args = vars(ns)
    payload: dict = {}
    if ns.subcommand == "train":
        try:
            raw = _load_json(ns.config)
            payload = _validate_train_payload(raw)
        except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
            parser.exit(2, f"fftmix train: invalid config: {exc}\n")
    return CliConfig(subcommand=ns.subcommand, args=args, payload=payload)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _config_hash(obj) -> str:
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_manifest(out: Path, cfg: CliConfig, subcommand: str, effective_config) -> None:
    """``manifest.json`` under ``out``.  ``wall_s`` is the seconds since
    ``cfg`` was parsed; it sits outside ``config``, so ``config_hash``
    depends on the inputs alone."""
    manifest = {
        "subcommand": subcommand,
        "config_hash": _config_hash(effective_config),
        "config": effective_config,
        "seed": cfg.seed,
        "wall_s": time.perf_counter() - cfg.started,
        "versions": {
            "fftmix": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _out_dir(cfg: CliConfig) -> Path:
    """The ``--out`` directory, created.  Commands call this once their
    inputs are checked, so a run that fails on them leaves no directory."""
    out = Path(cfg.args["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_model(ckpt_dir) -> mdl.Model:
    """The model a checkpoint directory holds, its manifest read once.  A
    fault in the manifest's config, or tensors that do not fit it, raise
    ``ValueError`` naming the manifest."""
    manifest = hpxio.load_checkpoint_manifest(ckpt_dir)
    try:
        model = mdl.build_model(mdl.config_from_dict(manifest["config"]), seed=0)
        tensors = {n: hpxio.read_hpx1(Path(ckpt_dir) / f) for n, f in manifest["tensors"].items()}
        mdl.load_params(model, tensors)
    except ValueError as exc:
        raise ValueError(f"{Path(ckpt_dir) / hpxio.CHECKPOINT_MANIFEST}: {exc}") from None
    return model


def _synthetic_images(model: mdl.Model, num: int, seed: int) -> np.ndarray:
    """``num`` quadrant-task images of the model's input size, drawn from
    the task's four classes whatever the model's class count: an ERF map
    reads no label."""
    spec = training.DatasetSpec(image_size=model.config.input_size[0], train_size=num, val_size=0, seed=seed)
    images, _, _, _ = training.synthetic_quadrant_dataset(spec)
    return images


def _cmd_train(cfg: CliConfig) -> int:
    out = Path(cfg.args["out"])  # ``train`` creates it when training is done
    model = mdl.build_model(_model_config(cfg.payload.get("model", {})), seed=cfg.seed)
    tconf = training.TrainConfig(**cfg.payload.get("train", {}))
    dspec = training.DatasetSpec(**cfg.payload.get("data", {}))
    history = training.train(model, dspec, tconf, out_dir=out)
    _write_manifest(out, cfg, "train", cfg.payload)
    last = history[-1]
    print(f"trained {tconf.total_epochs} epochs; final val_acc {last['val_acc']:.4f}")
    print(f"history: {out / 'history.csv'}")
    print(f"checkpoint: {out / 'checkpoint'}")
    return 0


def _cmd_model_info(cfg: CliConfig) -> int:
    if cfg.args.get("checkpoint"):
        model = _load_model(cfg.args["checkpoint"])
    else:
        size = cfg.args["input_size"]
        config = mdl.preset_config(cfg.args["preset"], input_size=(size, size), num_classes=cfg.args["num_classes"])
        model = mdl.build_model(config, seed=cfg.seed)
    config = model.config
    echo = json.dumps(config.to_dict(), sort_keys=True)
    print(f"config: {echo}")
    for i, (fy, fx, c) in enumerate(model.shape_ladder()):
        variant = config.mixer_layout[i]
        print(f"stage {i + 1}: {fy}x{fx} x{c} ({variant}, {config.stage_blocks[i]} blocks)")
    print(f"params: {mdl.count_params(model)}")
    if cfg.args.get("out"):
        _write_manifest(_out_dir(cfg), cfg, "model info", config.to_dict())
    return 0


def _cmd_erf(cfg: CliConfig) -> int:
    model = _load_model(cfg.args["model"])
    source = cfg.args["images"]
    if source == "synthetic":
        images = _synthetic_images(model, int(cfg.args["num"]), cfg.seed)
    else:
        files = sorted(Path(source).glob("*.hpx1"))[: int(cfg.args["num"])]
        if not files:
            raise FileNotFoundError(f"no .hpx1 images under {source}")
        images = hpxio.read_hpx1_stack(files, f"the image directory {source}")
    emap = analysis.erf_map(model, images)
    out = _out_dir(cfg)
    hpxio.write_hpx1(out / "erf.hpx1", emap.grid)
    hpxio.write_pgm(out / "erf.pgm", emap.grid)
    _write_manifest(out, cfg, "erf", {"model": str(cfg.args["model"]), "num": emap.num_images})
    print(f"erf over {emap.num_images} images -> {out / 'erf.pgm'}")
    return 0


def _cmd_coverage(cfg: CliConfig) -> int:
    model = _load_model(cfg.args["model"])
    report = analysis.coverage_report(model, threshold=float(cfg.args["threshold"]))
    out = _out_dir(cfg)
    with open(out / "coverage.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "block", "diameter", "coverage"])
        for row in report.rows:
            writer.writerow([row.stage, row.block, row.diameter, row.coverage])
    _write_manifest(
        out, cfg, "coverage", {"model": str(cfg.args["model"]), "threshold": cfg.args["threshold"]}
    )
    print(f"coverage for {len(report.rows)} blocks -> {out / 'coverage.csv'}")
    return 0


def _cmd_truncate(cfg: CliConfig) -> int:
    model = _load_model(cfg.args["model"])
    stage, rel = int(cfg.args["stage"]), float(cfg.args["rel"])
    truncated = analysis.truncate_kernels(model, stage, rel)
    result = {"stage": stage, "relative_size": rel}
    if cfg.args.get("eval"):
        spec = training.DatasetSpec(
            image_size=model.config.input_size[0],
            num_classes=model.config.num_classes,
            train_size=0,
            val_size=256,
            seed=cfg.seed + 1,
        )
        _, _, val_x, val_y = training.synthetic_quadrant_dataset(spec)
        result["val_acc"] = training.evaluate_accuracy(truncated, val_x, val_y)
        result["val_acc_untruncated"] = training.evaluate_accuracy(model, val_x, val_y)
    out = _out_dir(cfg)
    with open(out / "results.json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    _write_manifest(out, cfg, "truncate", result)
    print(f"truncated stage {stage} at rel {rel} -> {out / 'results.json'}")
    return 0


def _cmd_bench(cfg: CliConfig) -> int:
    variants = [v.strip() for v in cfg.args["variants"].split(",") if v.strip()]
    extents = [int(e) for e in cfg.args["extents"].split(",") if e.strip()]
    table = analysis.bench_runtime(
        variants, extents, channels=int(cfg.args["channels"]), repeats=int(cfg.args["repeats"]),
        seed=cfg.seed,
    )
    out = _out_dir(cfg)
    with open(out / "bench.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "extent", "channels", "median_seconds", "pixels"])
        for row in table.rows:
            writer.writerow([row.variant, row.extent, row.channels, row.median_seconds, row.pixels])
    with open(out / "slopes.json", "w") as fh:
        json.dump(table.slopes, fh, indent=2, sort_keys=True)
    _write_manifest(
        out,
        cfg,
        "bench",
        {"variants": variants, "extents": extents, "channels": cfg.args["channels"],
         "repeats": cfg.args["repeats"]},
    )
    for variant, slope in sorted(table.slopes.items()):
        print(f"{variant}: fitted log-log slope {slope:.3f}")
    print(f"table -> {out / 'bench.csv'}")
    return 0


def _cmd_filters_dump(cfg: CliConfig) -> int:
    model = _load_model(cfg.args["model"])
    kernels = []  # (tag, kernel shaped [*grid, C])
    for s, blocks in enumerate(model.stages):
        for b, block in enumerate(blocks):
            mixer = block.mixer
            if not isinstance(mixer, GatedConvMixer):
                continue
            for i, f in enumerate(mixer.filters):
                kernel = mixer.kernel(i).data  # [P, C]
                tag = f"s{s + 1}b{b + 1}" + (f"f{i}" if len(mixer.filters) > 1 else "")
                kernels.append((tag, kernel.reshape(*f.basis.grid, kernel.shape[-1])))
    if not kernels:
        raise ValueError("model contains no implicit-filter mixers")
    out = _out_dir(cfg)
    for tag, shaped in kernels:
        hpxio.write_hpx1(out / f"kernel_{tag}.hpx1", shaped)
        mean = shaped.mean(axis=-1)
        hpxio.write_hpx1(out / f"kernel_{tag}_mean.hpx1", mean)
        hpxio.write_pgm(out / f"kernel_{tag}_mean.pgm", np.atleast_2d(mean))
        if cfg.args.get("per_channel"):
            for c in range(shaped.shape[-1]):
                hpxio.write_pgm(out / f"kernel_{tag}_c{c:03d}.pgm", np.atleast_2d(shaped[..., c]))
    count = len(kernels)
    _write_manifest(out, cfg, "filters dump", {"model": str(cfg.args["model"]), "kernels": count})
    print(f"dumped {count} kernels -> {out}")
    return 0


_DISPATCH = {
    "train": _cmd_train,
    "erf": _cmd_erf,
    "coverage": _cmd_coverage,
    "truncate": _cmd_truncate,
    "bench": _cmd_bench,
    "model": _cmd_model_info,
    "filters": _cmd_filters_dump,
}


def run(config: CliConfig) -> int:
    """Dispatch a parsed CliConfig; module errors surface as exit code 1."""
    try:
        return _DISPATCH[config.subcommand](config)
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"fftmix {config.subcommand}: error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
