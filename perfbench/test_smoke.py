"""Smoke test for the benchmark itself, on each workload's smallest input.

    python3 -m pytest perfbench/test_smoke.py

It is not part of the tier-1 suite (pytest collects only ``tests/`` by
default); it checks the benchmark, not epicox.
"""

import json
import os
import subprocess
import sys
import types

import pytest

from layertrace import Traced, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert any(line.strip().startswith("fail_rate = 0.0") for line in lines)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_directory_without_the_sources(tmp_path):
    proc = run_bench("kgraph", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_functions_are_reported_absent():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.engine")

    def inner(x):
        return [x]

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    pkg.outer = outer  # re-exported, as epicox/__init__.py does
    sys.modules.update({"fakepkg": pkg, "fakepkg.engine": mod})
    try:
        tracer = Tracer((Traced("engine", "outer", "", "items", len),
                         Traced("engine", "inner", ""),
                         Traced("engine", "deleted", "")), package="fakepkg")
        tracer.install()
        assert tracer.absent == ["engine.deleted"]
        assert pkg.outer is mod.outer is not outer
        assert pkg.outer(7) == [7, 7]
        stats = tracer.stats()
        assert stats["engine.outer.calls"] == 1
        assert stats["engine.inner.calls"] == 2
        assert stats["engine.outer.items"] == 2
        assert stats["engine.deleted.calls"] == 0
        assert 0 <= stats["engine.outer.self_s"] <= stats["engine.outer.s"]
        assert stats["engine.outer.self_s"] == pytest.approx(
            stats["engine.outer.s"] - stats["engine.inner.s"])
        tracer.uninstall()
        assert pkg.outer is outer and mod.inner is inner
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.engine"]
