#!/usr/bin/env python3
"""The epicox benchmark: one workload, one seed, one JSON result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kgraph --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``kgraph`` (census over a seeded ladder
of random graphs) and ``theorem`` (exhaustive lift check, criterion 8),
each paying the radius-6 centralizer sweep once per job.  Each process is a
fresh single-threaded interpreter that imports epicox from ``src/``.

With ``--trace 0`` the run starts at least ``SETUP_REPEATS`` processes.
Each one times its own set-up; the first then times jobs for ``--seconds``
(at least three).  The end-to-end metrics are

    wall_s       mean time of one job over the run, answer checked
    setup_s      median set-up time: import and inputs
    peak_rss_mb  highest resident set of any process in the run

and ``fail_rate`` is ``failed / attempted`` in the result line.  With
``--trace 1`` one process wraps the functions in ``layertrace.TRACED``,
traces its set-up, alternates untraced and traced jobs, and reports the
per-layer metrics for one set-up plus one job, and ``trace.overhead_share``.

Every answer is checked; a wrong answer or a non-zero exit counts its
operations as failed.  The last line of standard output is the result
object; the lines before it are a readable summary with the Python and
numpy versions, ``nproc``, the seed and the source revision, which are also
written to ``perfbench/out/`` with the per-job samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
# set-up is timed in at least SETUP_REPEATS processes, and cheap set-ups
# are repeated until they add up to SETUP_BUDGET_S, at most MAX_SETUP_REPEATS
SETUP_REPEATS = 3
SETUP_BUDGET_S = 2.0
MAX_SETUP_REPEATS = 10
# the whole run, every worker included, ends within this many seconds
RUN_DEADLINE_S = 170
# a single-threaded interpreter: no BLAS or OpenMP thread pools
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


def source_revision(root: str) -> dict:
    """Git commit when the checkout is a repository, and always a digest of
    the package sources, which identifies the code in a plain export."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "epicox")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_worker(args, role: str, deadline: float) -> dict:
    """Start one worker process, wait for it, and return its report.  The
    worker and the jobs it forks share a process group, which is killed
    whole once the worker is done or the run's deadline passes."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--role", role]
    if args.smoke:
        cmd.append("--smoke")
    # str hashes, and so set and dict layouts, follow the seed
    env = dict(os.environ, **SINGLE_THREADED,
               PYTHONHASHSEED=str(args.seed % 2**32))
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{role} worker ran past the deadline")
    finally:
        try:  # whatever of the group is still running
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{role} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("share", "per_epi", "fail_rate")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("kgraph", "theorem"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest inputs, for the benchmark's own test")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "epicox", "__init__.py")):
        print("run from the root of an epicox checkout: src/epicox is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)

    # a terminated run takes its workers and their jobs down with it
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.trace:
        reports = [run_worker(args, "traced", deadline)]
    else:
        reports = [run_worker(args, "timed", deadline)]
        while len(reports) < SETUP_REPEATS or (
                len(reports) < MAX_SETUP_REPEATS
                and sum(r["setup_s"] for r in reports) < SETUP_BUDGET_S):
            reports.append(run_worker(args, "setup", deadline))
    main_report = reports[0]
    if main_report["wall_s"] is None:
        raise SystemExit("no job finished; see the errors above")
    jobs = main_report["jobs"]
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    errors = [e for j in jobs for e in j["errors"]]
    # ru_maxrss is in KiB on Linux; children include the forked jobs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    if args.trace:
        layers = dict(main_report["layers"])
        calls = layers["coxeter.is_spherical.calls"]
        layers["coxeter.is_spherical.true_share"] = (
            layers["coxeter.is_spherical.true"] / calls if calls else 0.0)
        epis = main_report["epimorphisms"]
        layers["homomorphisms.verify_relators.per_epi"] = (
            layers["homomorphisms.verify_relators.calls"] / epis if epis else 0.0)
        untraced = main_report["wall_s"]
        layers["trace.overhead_share"] = (
            main_report["traced_wall_s"] - untraced) / untraced
        layers["trace.absent"] = len(main_report["absent"])
        values = layers
        chosen = spec["per_layer"]
    else:
        values = {"wall_s": main_report["wall_s"],
                  "setup_s": statistics.median(r["setup_s"] for r in reports),
                  "peak_rss_mb": peak_rss_mb}
        chosen = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in chosen}

    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "python": main_report["python"],
            "numpy": main_report["numpy"],
            "nproc": len(os.sched_getaffinity(0)), **source_revision(root)}
    record = {"meta": meta, "metrics": values,
              "fail_rate": failed / attempted if attempted else 1.0,
              "absent": main_report.get("absent", []),
              "setup_s_samples": [r["setup_s"] for r in reports],
              "wall_median_s": main_report["wall_median_s"],
              "jobs": [{k: j[k] for k in ("wall_s", "traced", "attempted",
                                          "failed")} for j in jobs],
              "errors": errors}
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            f"{'-smoke' if args.smoke else ''}.json")
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("meta " + json.dumps(meta))
    for key in sorted(values):
        print(f"  {key} = {values[key]} {unit_of(key)}")
    print(f"  fail_rate = {record['fail_rate']} ratio ({failed}/{attempted})")
    print(f"  jobs = {len(jobs)}, median wall_s = {record['wall_median_s']} s")
    if record["absent"]:
        print("  absent: " + " ".join(record["absent"]))
    for err in errors[:10]:
        print(f"  error: {err}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
