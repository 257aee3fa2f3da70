"""One benchmark process: set a workload up, then time or trace its jobs.

``run.py`` starts this file in a fresh single-threaded interpreter from the
root of a checkout and reads the one JSON line it prints last.  Set-up is
what every process pays before it can run a job: importing epicox from
``src/`` and writing the inputs.  Each job runs in a child forked from the
state after set-up, so every cache starts empty, as in a new ``epicox``
process, and no job sees what an earlier job cached or allocated.

    python3 perfbench/worker.py --workload kgraph --seed 1 --seconds 20 \\
        --role timed
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402  (set-up time starts before these imports)
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

from layertrace import Tracer, combine  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS, Workload  # noqa: E402

# a run times at least this many jobs, however long they take, and then
# only jobs expected to end within --seconds
MIN_JOBS = 3
HERE = os.path.dirname(os.path.abspath(__file__))
# span files of the traced role go here, beside run.py's results
OUT_DIR = os.path.join(HERE, "out")


def import_cli(root: str):
    """Import epicox from the checkout's ``src/`` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import epicox.cli
    if not os.path.abspath(epicox.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"epicox was imported from {epicox.cli.__file__}")
    return epicox.cli


def in_child(fn):
    """Run ``fn()`` in a forked child and return its JSON result, or None
    when the child died without one."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(json.dumps(fn()).encode())
        except BaseException:  # the child must never return into the loop
            traceback.print_exc()
            code = 1
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        return None
    return json.loads(data)


def run_job(workload, cli, tracer, traced: bool, spans_path) -> dict:
    """Body of one forked job.  A traced job records its own spans; an
    untraced one first takes out any wrappers the tracer installed."""
    if tracer is not None:
        if traced:
            tracer.reset()
        else:
            tracer.uninstall()
    start = time.perf_counter()
    outcome = workload.job(lambda argv: cli.main(argv))
    wall = time.perf_counter() - start
    result = {"wall_s": wall, "attempted": outcome.attempted,
              "failed": outcome.failed, "errors": outcome.errors[:5],
              "traced": traced}
    if traced:
        result["layers"] = tracer.stats()
        if spans_path:
            tracer.write_spans(spans_path)
    return result


def typical_wall(jobs) -> float:
    """Median time of the jobs so far: a further job starts only if one
    that long still ends within ``--seconds``."""
    return statistics.median(j["wall_s"] or 0.0 for j in jobs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", choices=("setup", "timed", "traced"),
                    required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    root = os.getcwd()
    cli = import_cli(root)
    import numpy

    stem = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    tracer = None
    if args.role == "traced":
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer = Tracer()
        tracer.install()
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=HERE)
    try:
        workload = Workload(args.workload, args.seed,
                            SMOKE if args.smoke else FULL, workdir)
        report = {"setup_s": time.perf_counter() - T0,
                  "python": sys.version.split()[0],
                  "numpy": numpy.__version__,
                  "epimorphisms": workload.epimorphisms, "jobs": []}
        if tracer is not None:
            report["absent"] = tracer.absent
            report["setup_layers"] = tracer.stats()
            tracer.write_spans(os.path.join(
                OUT_DIR, f"{stem}-setup.spans.tsv.gz"))
        if args.role != "setup":
            start = time.perf_counter()
            while len(report["jobs"]) < MIN_JOBS or (
                    time.perf_counter() - start + typical_wall(report["jobs"])
                    <= args.seconds):
                # the traced role alternates untraced and traced jobs so
                # the two can be compared for the tracing overhead
                traced = (tracer is not None and len(report["jobs"]) % 2 == 1)
                spans_path = None
                if len(report["jobs"]) == 1:  # the first traced job
                    spans_path = os.path.join(
                        OUT_DIR, f"{stem}-job.spans.tsv.gz")
                job = in_child(lambda: run_job(
                    workload, cli, tracer, traced, spans_path))
                if job is None:
                    ops = workload.operations
                    job = {"wall_s": None, "attempted": ops, "failed": ops,
                           "errors": ["job process died"], "traced": traced}
                report["jobs"].append(job)
            traced_jobs = [j["layers"] for j in report["jobs"] if "layers" in j]
            if tracer is not None and traced_jobs:
                report["layers"] = combine(report["setup_layers"], traced_jobs)
            # the mean job time: a run holds 3 to 6 jobs, and their mean
            # varies less from run to run than their median does
            for key, traced in (("wall_s", False), ("traced_wall_s", True)):
                walls = [j["wall_s"] for j in report["jobs"]
                         if j["traced"] == traced and j["wall_s"] is not None]
                report[key] = statistics.fmean(walls) if walls else None
                report[key.replace("wall", "wall_median")] = (
                    statistics.median(walls) if walls else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
