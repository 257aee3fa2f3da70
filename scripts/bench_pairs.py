#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarised as one
BENCH_<label>.json.

    python3 scripts/bench_pairs.py --parent ../epicox-parent --change . \\
        --label pr6 --seed 601

Both sides are checkouts holding their own ``perfbench/run.py``; each run
lasts the ``run_seconds`` that the change side's ``BENCHMARK.json`` sets.
There are ten pairs.  Pair k runs every workload once on each side at
seed + k, the parent first when k is even and the change first when k is
odd; then each side makes one traced run (``--trace 1``) per workload at
the first seed.  Every figure is read from what ``run.py`` prints; this
script only orders the runs and summarises them into ``BENCH_<label>.json``
in the change checkout.  Per workload and end-to-end metric it reports each
side's samples, median and quartiles, the pairs the change won (ties count
for neither side), and whether the medians differ by more than the distance
between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
PAIRS = 10


def run_bench(checkout: str, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One run of the checkout's run.py: its meta line and its result
    line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(ln[5:]) for ln in lines if ln.startswith("meta "))
    return {"meta": meta, "result": json.loads(lines[-1])}


def spread(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"samples": samples, "median": median, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' spreads and the pairwise verdict for one metric."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ps, cs = spread(parent), spread(change)
    gap = cs["median"] - ps["median"]
    iqr = ps["q3"] - ps["q1"]
    return {"parent": ps, "change": cs, "change_wins": wins,
            "change_losses": losses, "median_change": gap,
            "relative_change": gap / ps["median"] if ps["median"] else None,
            "parent_iqr": iqr, "gap_exceeds_parent_iqr": abs(gap) > iqr}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--label", required=True, help="BENCH_<label>.json")
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    dirs = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.change, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]

    runs = {w: {side: [] for side in SIDES} for w in workloads}
    orders = []
    for k in range(PAIRS):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        orders.append(list(order))
        for w in workloads:
            for side in order:
                run = run_bench(dirs[side], w, args.seed + k, seconds, 0)
                runs[w][side].append(run)
                print(f"pair {k} {w} {side}: "
                      f"wall_s {run['result']['metrics']['wall_s']['value']:.4f}",
                      file=sys.stderr)
    traced = {w: {side: run_bench(dirs[side], w, args.seed, seconds, 1)
                  for side in SIDES} for w in workloads}

    report = {
        "label": args.label,
        "command": "perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0|1",
        "pairs": PAIRS,
        "seeds": [args.seed + k for k in range(PAIRS)],
        "pair_orders": orders,
        "host": {"cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0))},
        "sides": {side: {key: runs[workloads[0]][side][0]["meta"][key]
                         for key in ("git_commit", "src_sha256", "python",
                                     "numpy", "nproc")}
                  for side in SIDES},
        "workloads": {},
    }
    for w in workloads:
        entry = {}
        for m in metrics:
            name = m["name"]
            values = {side: [r["result"]["metrics"][name]["value"]
                             for r in runs[w][side]] for side in SIDES}
            entry[name] = {"unit": m["unit"], "better": m["better"],
                           "bound": m["bound"],
                           **compare(values["parent"], values["change"],
                                     m["better"])}
        entry["failed_of_attempted"] = {
            side: [[r["result"]["failed"], r["result"]["attempted"]]
                   for r in runs[w][side]] for side in SIDES}
        entry["traced"] = {
            side: {name: v["value"]
                   for name, v in traced[w][side]["result"]["metrics"].items()}
            for side in SIDES}
        report["workloads"][w] = entry
    out = os.path.join(args.change, f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for w in workloads:
        for m in metrics:
            e = report["workloads"][w][m["name"]]
            print(f"{w} {m['name']}: parent {e['parent']['median']:.4g} "
                  f"[{e['parent']['q1']:.4g}, {e['parent']['q3']:.4g}] "
                  f"change {e['change']['median']:.4g} "
                  f"[{e['change']['q1']:.4g}, {e['change']['q3']:.4g}] "
                  f"wins {e['change_wins']}/{PAIRS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
