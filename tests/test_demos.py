"""The narrative demo scripts run to completion against this checkout."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_phantom_volume", "02_centerline_and_straightening",
                                  "03_targets_and_loss", "04_detection_to_grading",
                                  "05_evaluation_study"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
