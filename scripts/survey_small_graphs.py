#!/usr/bin/env python3
"""Survey every labeled graph up to a vertex bound: reconstruction result,
class count, and the injective-vs-onto equivalence against each other graph.

    python scripts/survey_small_graphs.py --max-vertices 3
"""

import argparse
import itertools
import sys
import time

from epicox.acceptance import THEOREM_MAX_VERTICES
from epicox.graphs import (all_labeled_graphs, f_reduce, find_epimorphism,
                           find_injective_hom)
from epicox.reconstruction import verify_reconstruction


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-vertices", type=int, default=3,
                    help=f"at most {THEOREM_MAX_VERTICES}, the exhaustive "
                         "theorem check's ceiling")
    args = ap.parse_args()
    # the exhaustive check's ceiling: 2^C(n, 2) graphs at n, about 2.1 M
    # at 7, so larger requests are refused before any is made
    if args.max_vertices > THEOREM_MAX_VERTICES:
        print(f"input error: max vertices {args.max_vertices} is above the "
              f"ceiling of {THEOREM_MAX_VERTICES} for the exhaustive survey",
              file=sys.stderr)
        return 2

    graphs = all_labeled_graphs(args.max_vertices)
    print(f"{len(graphs)} labeled graphs up to {args.max_vertices} vertices")

    start = time.monotonic()
    for idx, g in enumerate(graphs):
        iso = verify_reconstruction(g)
        print(f"graph {idx:3d}: n={g.n} edges={g.edges()} "
              f"reconstructed -> {iso.image}")
    print(f"reconstruction sweep: {time.monotonic() - start:.2f}s")

    reducible = [g for g in graphs
                 if g.n > 0 and not any(g.is_isolated(v) for v in g.vertices())]
    agree = disagree = 0
    for g, h in itertools.product(reducible, repeat=2):
        inj = find_injective_hom(g, h) is not None
        epi = find_epimorphism(f_reduce(h), f_reduce(g)) is not None
        if inj == epi:
            agree += 1
        else:
            disagree += 1
            print(f"MISMATCH: {g.edges()} vs {h.edges()}: inj={inj} epi={epi}")
    print(f"reduction equivalence: {agree} pairs agree, {disagree} disagree")
    return 0 if disagree == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
