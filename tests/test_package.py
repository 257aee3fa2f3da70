"""The package surface: what ``epicox`` exports, and the functions the
benchmark's layer tracer (``perfbench/layertrace.py``) wraps."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import epicox
import epicox.cli  # noqa: F401  the tracer also wraps cli and acceptance

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = object()
    stale = [name for name in epicox.__all__
             if getattr(epicox, name, missing) is missing]
    assert stale == []


def test_import_loads_no_numpy():
    """numpy serves the sweep oracle alone: importing the package, and
    building, censusing and reconstructing a graph with it, loads none."""
    code = ("import sys, epicox\n"
            "g = epicox.FiniteGraph.from_edges(3, [(0, 1)])\n"
            "epicox.verify_reconstruction(g)\n"
            "print('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def _layertrace(monkeypatch):
    path = ROOT / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    monkeypatch.setitem(sys.modules, "layertrace", module)
    spec.loader.exec_module(module)
    return module


# The ball and the sweep moved to ``oracles``; the tracer still names them
# under their old modules until the benchmark's trace list follows them.
MOVED = ["coxeter.ball_levels", "reconstruction.bounded_centralizer_check"]


def test_every_traced_function_exists(monkeypatch):
    """A traced name that epicox no longer defines is reported by the
    benchmark as ``trace.absent``; deleting library code must not make one,
    and the only absent names are the two that moved."""
    tracer = _layertrace(monkeypatch).Tracer()
    tracer.install()
    try:
        assert tracer.absent == MOVED
    finally:
        tracer.uninstall()
