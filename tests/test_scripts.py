"""The scripts under scripts/ run end to end on small inputs."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


# a line each script must print, where one is checked
EXPECT = {
    "ball_growth.py":
        r"^sweep radius 3: clean in \d+\.\d\ds, peak RSS \d+ MB$",
}


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
    if script in EXPECT:
        assert re.search(EXPECT[script], proc.stdout, re.MULTILINE), \
            proc.stdout


def test_bench_pairs_verdict():
    """The pair summary: ties count for neither side, and the gap is set
    against the parent's interquartile range."""
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import bench_pairs
    finally:
        sys.path.pop(0)
    parent = [1.0, 1.1, 0.9, 1.0, 1.2]
    change = [0.4, 1.1, 0.5, 0.4, 0.3]
    got = bench_pairs.compare(parent, change, "lower")
    assert (got["change_wins"], got["change_losses"]) == (4, 0)
    assert got["parent"]["median"] == 1.0
    assert (got["parent"]["q1"], got["parent"]["q3"]) == (1.0, 1.1)
    assert got["change"]["median"] == 0.4
    assert got["gap_exceeds_parent_iqr"]
    flipped = bench_pairs.compare(change, parent, "higher")
    assert (flipped["change_wins"], flipped["change_losses"]) == (4, 0)
