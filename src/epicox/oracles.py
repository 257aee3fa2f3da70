"""Independent brute-force oracles.

Everything here is deliberately naive: exhaustive vertex maps, plain
breadth-first search, relators evaluated as matrices.  The acceptance
criteria and the tests compare the package's answers against these rather
than against the code path under test.
"""

from __future__ import annotations

import itertools

from .coxeter import evaluate, identity, mul_gen
from .homomorphisms import GeneratorMap, map_word, presentation_of


def naive_hom_exists(source, target, injective=False, onto=False) -> bool:
    """Exhaustive check over all vertex maps.  Loops count as edges."""
    for image in itertools.product(range(target.n), repeat=source.n):
        if injective and len(set(image)) != source.n:
            continue
        if onto and set(image) != set(range(target.n)):
            continue
        if all(not source.adj[u][v] or target.adj[image[u]][image[v]]
               for u in range(source.n) for v in range(u, source.n)):
            return True
    return False


def bfs_lengths(C, subset):
    """Word length of every element of the standard subgroup on subset,
    keyed by matrix.  Terminates only for a finite subgroup."""
    idn = identity(C)
    dist = {idn.mat: 0}
    frontier = [idn]
    d = 0
    while frontier:
        nxt = []
        d += 1
        for w in frontier:
            for i in sorted(subset):
                cand = mul_gen(C, w, i)
                if cand.mat not in dist:
                    dist[cand.mat] = d
                    nxt.append(cand)
        frontier = nxt
    return dist


def relators_hold_by_matrices(phi: GeneratorMap) -> bool:
    """Does every source relator, pushed through the map, evaluate to the
    identity matrix of the target?"""
    idn = identity(phi.target)
    return all(evaluate(phi.target, map_word(phi, rel)) == idn
               for rel in presentation_of(phi.source).relators)
