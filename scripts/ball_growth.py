#!/usr/bin/env python3
"""Print word-length ball sizes for the block system over a graph.

Useful for eyeballing how fast the centralizer sweep grows with radius
before committing to one.  With --sweep it also times the centralizer
sweep on vertices 0 and 1 at the same radius, in the same process, after
the ball (each process starts with empty caches, so run it several times
for a spread), and prints the process's peak resident memory beside the
time.  The printed ball is dropped before the sweep builds its own, so
that peak is the larger of the two, not their sum.

    python scripts/ball_growth.py --vertices 2 --edges "" --radius 6
    python scripts/ball_growth.py --vertices 2 --edges "0-1" --radius 5
    python scripts/ball_growth.py --vertices 2 --edges "" --radius 6 --sweep
"""

import argparse
import resource
import sys
import time

from epicox.construction import build_C
from epicox.errors import EnumerationCapExceeded, PreconditionError
from epicox.graphs import FiniteGraph
from epicox.oracles import (SWEEP_BALL_CAP, ball_levels,
                            bounded_centralizer_check, check_radius)


def parse_edges(text: str):
    if not text.strip():
        return []
    out = []
    for part in text.split(","):
        try:
            u, v = part.strip().split("-")
            out.append((int(u), int(v)))
        except ValueError:
            raise PreconditionError(
                f"edge {part.strip()!r} is not of the form u-v") from None
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--vertices", type=int, default=2)
    ap.add_argument("--edges", default="", help='e.g. "0-1,1-2"')
    ap.add_argument("--radius", type=int, default=6)
    ap.add_argument("--cap", type=int, default=SWEEP_BALL_CAP,
                    help="abort past this many elements (default %(default)s, "
                         "the centralizer sweep's ball cap)")
    ap.add_argument("--sweep", action="store_true",
                    help="also time the centralizer sweep on vertices 0 "
                         "and 1 at the radius")
    args = ap.parse_args()
    try:
        # the sweep's refusals, before any level is built (radius 9 is huge)
        check_radius(args.radius)
        if args.sweep and args.vertices < 2:
            raise PreconditionError(
                "--sweep needs at least 2 vertices: it sweeps vertices 0 and 1")
        g = FiniteGraph.from_edges(args.vertices, parse_edges(args.edges))
        system = build_C(g)
        print(f"system rank {system.matrix.n} over {args.vertices} vertices")
        start = time.monotonic()
        sizes = [len(level) for level in
                 ball_levels(system.matrix, args.radius, cap=args.cap)]
    except PreconditionError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    total = 0
    for r, size in enumerate(sizes):
        total += size
        print(f"radius {r:2d}: {size:8d} new, {total:8d} total")
    print(f"{time.monotonic() - start:.2f}s")
    if args.sweep:
        start = time.monotonic()
        # the sweep itself, not the certificate that k-graph would use
        ok = bounded_centralizer_check(system, 0, 1, args.radius)
        elapsed = time.monotonic() - start
        # ru_maxrss is in kilobytes on Linux
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"sweep radius {args.radius}: "
              f"{'clean' if ok else 'violation'} "
              f"in {elapsed:.2f}s, peak RSS {peak_mb:.0f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
