"""Every demo script runs to completion, as `python demos/<name>.py` with
PYTHONPATH=src, and prints its results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import specsim

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["demo_mitigation_transforms.py",
                                  "demo_sloth_policies.py", "demo_spectre_1_0.py",
                                  "demo_timer_amplification.py"])
def test_demo_runs(tmp_path, name):
    src = str(Path(specsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()
