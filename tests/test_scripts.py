"""The scripts under scripts/ run end to end on small inputs."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args", [
    ("survey_small_graphs.py", ["--max-vertices", "2", "--radius", "2"]),
    ("ball_growth.py", ["--vertices", "2", "--edges", "", "--radius", "3",
                        "--sweep"]),
])
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
