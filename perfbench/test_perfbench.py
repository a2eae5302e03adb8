"""Self-tests of the benchmark: every check rejects a wrong input, the printed
metric names match BENCHMARK.json, and short runs complete.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import layertrace  # noqa: E402
from fftmix import model as mdl  # noqa: E402
from fftmix.mixers import GatedConvMixer, MixerConfig  # noqa: E402
from fftmix.numerics import Tensor  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


# -- checks reject wrong inputs ---------------------------------------------------


@pytest.mark.parametrize("variant,extent", [("global2d", (5, 6)), ("bidirectional", 11)])
def test_mixer_check_rejects_kernel_shifted_by_one_tap(variant, extent):
    rng = np.random.default_rng(0)
    mixer = GatedConvMixer(MixerConfig(variant, 3, extent, embed_dim=4), rng)
    shape = (1,) + (extent if isinstance(extent, tuple) else (extent,)) + (3,)
    x = rng.normal(size=shape)
    y = mixer(Tensor(x)).data
    kernel = mixer.kernel(0).data
    assert checks.check_mixer(x, y, mixer, kernel, np.random.default_rng(1), "ok") == []
    shifted = np.roll(kernel, 1, axis=0)
    assert checks.check_mixer(x, y, mixer, shifted, np.random.default_rng(1), "shifted")


def test_mixer_oracle_samples_corners_of_large_grids():
    positions = checks.sample_positions((56, 56), np.random.default_rng(0))
    assert len(positions) == checks.MAX_ORACLE_POSITIONS
    assert {(0, 0), (0, 55), (55, 0), (55, 55)} <= set(positions)
    assert len(checks.sample_positions((7, 7), np.random.default_rng(0))) == 49


def test_directional_check_rejects_perturbed_gradient():
    rng = np.random.default_rng(0)
    x = rng.normal(size=20)
    direction = rng.normal(size=20)

    def f(v):
        return float(np.sin(v).sum())

    grad = np.cos(x)
    assert checks.check_directional(f, x, grad, direction, "ok") == []
    assert checks.check_directional(f, x, grad * (1 + 1e-3), direction, "scaled")
    bumped = grad.copy()
    bumped[3] += 1e-3
    assert checks.check_directional(f, x, bumped, direction, "one entry")


def test_erf_check_rejects_wrong_maps():
    grad = np.random.default_rng(0).normal(size=(8, 8, 3))
    grid = np.abs(grad).sum(axis=-1)
    grid /= grid.max()
    assert checks.check_erf_grid(grid, grad, "ok") == []
    assert checks.check_erf_grid(grid * 0.999, grad, "scaled")
    assert checks.check_erf_grid(np.roll(grid, 1, axis=0), grad, "shifted")
    holed = grad.copy()
    holed[2, 5] = 0.0
    holed_grid = np.abs(holed).sum(axis=-1)
    assert checks.check_erf_grid(holed_grid / holed_grid.max(), holed, "zero pixel")


def test_training_check_enforces_gate_floors():
    good = [{"val_acc": 0.96, "train_loss": 0.5}]
    assert checks.check_training(good, "global2d", "ok") == []
    assert checks.check_training([{"val_acc": 0.94, "train_loss": 0.5}], "global2d", "low")
    assert checks.check_training([{"val_acc": 0.91, "train_loss": 0.5}], "local", "ok") == []
    assert checks.check_training([{"val_acc": 0.99, "train_loss": math.log(4.0)}], "local", "loss")


def test_checkpoint_check_rejects_altered_or_missing_tensor():
    m = mdl.build_model(mdl.micro_config("local"), seed=0)
    params = m.parameters()
    saved = {n: t.data.astype(np.float32).astype(np.float64) for n, t in params}
    assert checks.check_checkpoint(saved, params, "ok") == []
    name = params[5][0]
    altered = dict(saved)
    altered[name] = saved[name] + 1e-3
    assert checks.check_checkpoint(altered, params, "altered")
    missing = dict(saved)
    del missing[name]
    assert checks.check_checkpoint(missing, params, "missing")


def test_repeat_check_rejects_changed_output():
    ref = np.random.default_rng(0).normal(size=(1, 1000))
    assert checks.close_to(ref.copy(), ref)
    assert not checks.close_to(ref + 1e-6, ref)
    assert not checks.close_to(ref[:, :999], ref)


# -- tracing ----------------------------------------------------------------------


def test_tracer_attributes_forward_and_backward_and_restores():
    from fftmix import numerics, training
    from fftmix.numerics import GradTape

    originals = (numerics.circular_convolve, numerics.Tensor.__init__, GatedConvMixer.__call__, np.fft.rfftn)
    m = mdl.build_model(mdl.micro_config("global2d"), seed=0)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 32, 32, 3)))
    with layertrace.Tracer() as tracer:
        tracer.register(m)
        with GradTape() as tape:
            loss = training.cross_entropy_smoothed(m(x), np.array([0, 1]), 0.1)
        tape.gradient(loss, m.parameter_tensors())
    assert (numerics.circular_convolve, numerics.Tensor.__init__, GatedConvMixer.__call__,
            np.fft.rfftn) == originals
    t = tracer.totals
    assert t["numerics.tape.nodes"] == len(tape.nodes)
    assert t["numerics.circular_convolve.calls"] == 4 and t["filters.materialize.calls"] == 4
    assert t["numerics.fft.calls"] == 4 * (3 + 6)  # three transforms forward, six backward
    for s in layertrace.STAGES:
        assert t[f"model.stage{s}.mixer.fwd_s"] > 0 and t[f"model.stage{s}.mixer.bwd_s"] > 0
    layer_bwd = sum(t[f"{n}.bwd_s"] for n in layertrace.MODEL_LAYERS)
    assert 0 < layer_bwd <= t["numerics.tape.backward_s"]


# -- metric names -----------------------------------------------------------------


def test_per_layer_names_match_benchmark_json():
    listed = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert listed == [(n, layertrace.unit_of(n)) for n in layertrace.PER_LAYER]
    for name, _ in listed:
        assert NAME.match(name), name


def test_end_to_end_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert "setup_s" in names and len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name


# -- short runs -------------------------------------------------------------------


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric(trace, section):
    proc = run_bench("--workload", "infer-224", "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == expected


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "infer-224", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
