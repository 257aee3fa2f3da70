"""The scripts under scripts/ run end to end on small inputs."""

import importlib
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


# a line each script must print, where one is checked
EXPECT = {
    "ball_growth.py":
        r"^sweep radius 3: clean in \d+\.\d\ds, peak RSS \d+ MB$",
}


@pytest.mark.parametrize("script,args", [
    ("survey_small_graphs.py", ["--max-vertices", "2"]),
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


def _script_module(name):
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.pop(0)


def test_ball_growth_refuses_radius_above_ceiling(monkeypatch, capsys):
    """A radius past the sweep's ceiling exits 2 before the system or any
    level is built: radius 9 would first build the 2.4 M elements through
    radius 8."""
    ball_growth = _script_module("ball_growth")

    def unreachable(*args, **kwargs):
        raise AssertionError("built before the radius was checked")

    monkeypatch.setattr(ball_growth, "build_C", unreachable)
    monkeypatch.setattr(ball_growth, "ball_levels", unreachable)
    monkeypatch.setattr(sys, "argv", ["ball_growth.py", "--vertices", "2",
                                      "--edges", "", "--radius", "9"])
    start = time.monotonic()
    assert ball_growth.main() == 2
    assert time.monotonic() - start < 0.5
    out, err = capsys.readouterr()
    assert out == ""
    assert re.search("cap|ceiling", err), err


def test_ball_growth_refuses_negative_radius():
    """A negative radius gets the sweep's refusal: exit 2 with a message,
    no traceback."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ROOT / "scripts" / "ball_growth.py"
    proc = subprocess.run([sys.executable, str(script), "--radius", "-1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "input error: radius must be nonnegative\n"


@pytest.mark.parametrize("args,message", [
    (["--vertices", "1", "--sweep"],
     "input error: --sweep needs at least 2 vertices: it sweeps vertices 0 "
     "and 1\n"),
    (["--edges", "x"], "input error: edge 'x' is not of the form u-v\n"),
    (["--edges", "0-1-2"],
     "input error: edge '0-1-2' is not of the form u-v\n"),
])
def test_ball_growth_refuses_bad_input(args, message):
    """Input the sweep cannot take exits 2 with a message before anything
    is built, never with a traceback."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ROOT / "scripts" / "ball_growth.py"
    proc = subprocess.run([sys.executable, str(script), "--radius", "2",
                           *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


def test_survey_refuses_vertices_above_ceiling(monkeypatch, capsys):
    """More vertices than the exhaustive theorem check takes exits 2
    before any graph is enumerated: 9 would ask for 2^36 graphs."""
    survey = _script_module("survey_small_graphs")

    def unreachable(*args, **kwargs):
        raise AssertionError("enumerated before the ceiling was checked")

    monkeypatch.setattr(survey, "all_labeled_graphs", unreachable)
    limit = survey.THEOREM_MAX_VERTICES
    monkeypatch.setattr(sys, "argv", ["survey_small_graphs.py",
                                      "--max-vertices", str(limit + 1)])
    assert survey.main() == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"input error: max vertices {limit + 1} is above the "
                   f"ceiling of {limit} for the exhaustive survey\n")


def test_bench_pairs_verdict():
    """The pair summary: ties count for neither side, and the gap is set
    against the parent's interquartile range."""
    bench_pairs = _script_module("bench_pairs")
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
