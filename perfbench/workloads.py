"""Workload inputs, jobs and answer checks for the epicox benchmark.

Every job calls ``epicox.cli.main`` with an argument list, exactly as the
``epicox`` command would, and checks the answer it prints.  The benchmark
makes the inputs from the seed and hands epicox only graph files.

    kgraph   ``k-graph <file> --json`` over a seeded ladder of random graphs
             on 2 to 6 vertices, each size drawn sparse (p = 0.25) and dense
             (p = 0.75).
             One operation is one graph.
    theorem  ``check-theorem --max-vertices 3``: every base-preserving
             epimorphism between pointed graphs on at most 3 vertices
             (12 graphs, 144 pairs, 375 epimorphisms).  Exhaustive, so the
             seed is recorded but changes nothing.  One operation is one
             epimorphism.

Both run cold, as a fresh ``epicox`` process would, so each job also pays
the radius-6 centralizer sweep once: its result is cached per two-block
subsystem and every non-adjacent pair in the job shares that one entry.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field

SPARSE, DENSE = 0.25, 0.75


@dataclass(frozen=True)
class Size:
    """How big each workload's input is.  ``FULL`` is what the benchmark
    measures; ``SMOKE`` is the smallest input, for the benchmark's own test."""
    ladder: tuple[int, ...]
    radius: int
    theorem_vertices: int
    # graphs, ordered pairs, epimorphisms for check-theorem at that size
    theorem_counts: tuple[int, int, int]


FULL = Size(ladder=(2, 3, 4, 5, 6), radius=6, theorem_vertices=3,
            theorem_counts=(12, 144, 375))
SMOKE = Size(ladder=(2, 3), radius=2, theorem_vertices=2,
             theorem_counts=(4, 16, 17))

WORKLOADS = ("kgraph", "theorem")


@dataclass
class Outcome:
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)


def run_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI entry point in-process; return exit code, stdout and
    stderr.  An exception escaping ``main`` is a crash, reported as exit 1
    like the command line would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # the job boundary: record and go on
            err.write(f"{type(exc).__name__}: {exc}\n")
            code = 1
    return code, out.getvalue(), err.getvalue()


def gnm_ladder(seed: int, sizes) -> list[tuple[int, list[tuple[int, int]]]]:
    """One sparse and one dense graph per size, from the seed.  Each is
    G(n, m) with m = round(p * C(n, 2)) edges: G(n, p) with its edge count
    held at the mean, so the census work, which grows with the edge count,
    changes little from seed to seed."""
    rng = random.Random(seed)
    graphs = []
    for n in sizes:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for p in (SPARSE, DENSE):
            edges = sorted(rng.sample(pairs, round(p * len(pairs))))
            graphs.append((n, edges))
    return graphs


def write_graph(path: str, n: int, edges) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {n} irreflexive\n")
        fh.writelines(f"e {u} {v}\n" for u, v in edges)


def check_k_graph(code: int, out: str, n: int, edges) -> str | None:
    """None when the emitted class graph is the reflexive closure of the
    input and a witness exists exactly for each edge; else what is wrong."""
    if code != 0:
        return f"exit {code}"
    try:
        got = json.loads(out)
        got_edges = {tuple(sorted((int(u), int(v))))
                     for u, v in got["edges"] if u != v}
        got_witnesses = set(got["witnesses"])
        reflexive, size = got["reflexive"], got["n"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    want = set(edges)
    if size != n or reflexive is not True or got_edges != want:
        return (f"class graph {size} {reflexive} {sorted(got_edges)}, "
                f"want {n} True {sorted(want)}")
    if got_witnesses != {f"{u}-{v}" for u, v in want}:
        return f"witnesses for {sorted(got_witnesses)}, edges {sorted(want)}"
    return None


def check_theorem(code: int, out: str, counts) -> str | None:
    graphs, pairs, epis = counts
    want = [f"graphs: {graphs}", f"ordered pairs: {pairs}",
            f"epimorphisms: {epis}", "verdict: PASS"]
    lines = out.strip().splitlines()
    if code != 0 or lines != want:
        return f"exit {code}, output {lines!r}"
    return None


class Workload:
    """Inputs for one workload, written as files under ``workdir``."""

    def __init__(self, name: str, seed: int, size: Size, workdir: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name, self.seed, self.size = name, seed, size
        self.graphs = []
        if name == "kgraph":
            for k, (n, edges) in enumerate(gnm_ladder(seed, size.ladder)):
                path = os.path.join(workdir, f"g{k:02d}_n{n}.txt")
                write_graph(path, n, edges)
                self.graphs.append((path, n, edges))

    @property
    def operations(self) -> int:
        """Operations one job attempts."""
        if self.name == "kgraph":
            return len(self.graphs)
        return self.epimorphisms

    @property
    def epimorphisms(self) -> int:
        """Epimorphisms one job checks; 0 where the job lifts none."""
        return self.size.theorem_counts[2] if self.name == "theorem" else 0

    def job(self, main) -> Outcome:
        """One timed job; failed counts operations with a wrong answer or a
        non-zero exit."""
        if self.name == "theorem":
            code, out, err = run_cli(main, [
                "check-theorem", "--max-vertices",
                str(self.size.theorem_vertices),
                "--radius", str(self.size.radius)])
            problem = check_theorem(code, out, self.size.theorem_counts)
            ops = self.operations
            # one exit code and verdict cover every epimorphism at once
            return Outcome(ops, ops if problem else 0,
                           [f"theorem: {problem} {err.strip()}"] if problem else [])
        outcome = Outcome(len(self.graphs), 0)
        for path, n, edges in self.graphs:
            code, out, err = run_cli(main, [
                "k-graph", path, "--json", "--radius", str(self.size.radius)])
            problem = check_k_graph(code, out, n, edges)
            if problem:
                outcome.failed += 1
                outcome.errors.append(
                    f"{os.path.basename(path)}: {problem} {err.strip()}")
        return outcome
