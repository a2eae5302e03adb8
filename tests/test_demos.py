"""Smoke test of the demo scripts: each runs to completion.

Demos 04 (training on the quadrant task) and 06 (coverage and truncation
after training) are left out: each trains a model and takes about a minute,
and the training loop and the truncation sweep they show are covered by
``test_training.py``, ``test_analysis.py`` and the acceptance criteria.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_gated_convolution_mixers.py",
    "02_implicit_filters.py",
    "03_model_zoo.py",
    "05_effective_receptive_field.py",
    "07_runtime_scaling.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,  # demos write their images into the working directory
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
