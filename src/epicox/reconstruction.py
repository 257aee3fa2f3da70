"""Rebuilding a graph from its block system.

Vertices of the rebuilt graph are the conjugacy classes of order-120
nonabelian standard subgroups (one per block).  Two classes get an edge when
the designated even involutions of the two blocks commute, which happens
exactly for adjacent source vertices.  For pairs without a commuting
witness, a bounded sweep corroborates the expected picture: inside the
subsystem on the two blocks, nothing of small length outside the first
block's subgroup commutes with any of its even involutions.

The sweep tests commutation first, a chunk of a ball level against all the
involutions at once: a scalar probe u^T X a v == u^T a X v with fixed
vectors u, v, then the full Xa == aX on the pairs that pass it.  Only those
full hits (44 elements in the radius-6 ball of a non-adjacent pair) are
looked up in the block's subgroup.  The ball and the probe each run in the
narrowest integer dtype that a proven bound allows (``coxeter.exact_dtype``):
at radius 6 the ball is int16 and the probe int32, and past the int64 guard
both fall back to exact object arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .construction import (BLOCK_SIZE, LabeledCoxeterSystem, alt_involution,
                           build_C)
from .coxeter import (CoxeterMatrix, Word, ball_levels, enumerate_parabolic,
                      evaluate, exact_dtype, length)
from .errors import FalsificationError, PreconditionError
from .graphs import (FiniteGraph, PointedReflexiveGraph, VertexMap,
                     make_pointed)
from .parabolics import ConjugacyClass, classify_s5_classes

DEFAULT_RADIUS = 6

# Elements the sweep's ball may hold.  In a two-block subsystem (rank 8) the
# ball grows about 5.9x per radius: 69,420 elements at radius 6, 405,826 at
# 7 and 2,372,410 at 8.  Its largest entry is 269 at radius 6 and 1,913 at
# 8, so the whole ball stays int16 there: 128 bytes per element (an int64
# matrix would take 512), about 0.3 GB at radius 8 and 0.6 GB peak while the
# last level is concatenated.  Radius 9 would be about 14 M elements, some
# 1.8 GB.  This cap lets radius 8 through; ball_levels checks it after each
# per-generator part of a level, so radius 9 is refused after at most one
# part past the cap.
SWEEP_BALL_CAP = 4_000_000


@dataclass
class KGraph:
    """The class graph of a graph's block system, with the system and the
    class census it was read from.  Only ``k_graph`` builds one, so holding
    a KGraph means the census has confirmed that the blocks are the only
    order-120 nonabelian standard subgroups, pairwise non-conjugate, and
    ``classes[v]`` is the class of the block of vertex v."""
    graph: FiniteGraph
    classes: tuple[ConjugacyClass, ...]
    witnesses: dict[tuple[int, int], tuple[Word, Word]]
    system: LabeledCoxeterSystem


def _two_block_labels(system: LabeledCoxeterSystem, s: int,
                      t: int) -> tuple[tuple[int, ...], ...]:
    """The labels among the generators of the blocks of s and t, the block
    of s first, each block in position order."""
    order = sorted(system.block(s)) + sorted(system.block(t))
    m = system.matrix.m
    return tuple(tuple(m[i][j] for j in order) for i in order)


def _named(labels: tuple[tuple[int, ...], ...]) -> CoxeterMatrix:
    # canonical names so structurally equal pairs share a cache entry
    return CoxeterMatrix(len(labels), labels,
                         tuple(f"g{i}" for i in range(len(labels))))


# Two block involutions lie in the standard subgroup on their two blocks,
# and elements of a standard subgroup commute in W exactly when they commute
# in it.  So the answer depends only on the pair's rank-8 label block, read
# from the group, and is decided once per distinct block at rank 8.  A
# build_C system has two such blocks, adjacent or not; the bound keeps any
# other system's cache small.
@lru_cache(maxsize=64)
def _shape_commutes(labels: tuple[tuple[int, ...], ...]) -> bool:
    sub = _named(labels)
    # alt_involution's positions 1 and 3 in each of the two blocks
    wa, wb = (0, 2), (BLOCK_SIZE, BLOCK_SIZE + 2)
    return evaluate(sub, wa + wb) == evaluate(sub, wb + wa)


def commuting_witness(system: LabeledCoxeterSystem, s: int,
                      t: int) -> tuple[Word, Word] | None:
    """The pair of block involution words if they commute, else None."""
    if s == t:
        raise PreconditionError("witness needs two distinct vertices")
    if _shape_commutes(_two_block_labels(system, s, t)):
        return alt_involution(system, s), alt_involution(system, t)
    return None


# fixed probe vectors for the first commute test; any vectors give the same
# answer, and ones with unpatterned entries rarely make u^T (Xa - aX) v
# vanish by chance, so few pairs reach the full comparison
_PROBES = ((2, 7, 1, 8, 3, 1, 4, 6), (3, 1, 4, 1, 5, 9, 2, 6))
# elements probed at once; bounds the probe's temporaries (its cast copy of
# the chunk and the chunk-by-involution tables) apart from the ball's size
_PROBE_CHUNK = 8192


def _commuting(X: np.ndarray, A: np.ndarray, u: np.ndarray,
               v: np.ndarray) -> np.ndarray:
    """Sorted indices i such that X[i] commutes with some A[k].

    First the probe u^T X a v == u^T a X v, for every X and every a at once,
    from X^T u and X v; it is necessary for Xa == aX, and only the pairs
    passing it get the full matrix comparison.
    """
    lhs = np.matmul(np.matmul(u, X), np.matmul(A, v).T)
    rhs = np.matmul(np.matmul(X, v), np.matmul(u, A).T)
    i, k = np.nonzero(lhs == rhs)
    Y, B = X[i], A[k]
    # a mask rather than np.unique, whose first call imports numpy.ma
    hit = np.zeros(len(X), dtype=bool)
    hit[i[(np.matmul(Y, B) == np.matmul(B, Y)).all(axis=(1, 2))]] = True
    return np.flatnonzero(hit)


# Keyed, like _shape_commutes, by the pair's rank-8 label block read from the
# group, so the subsystem is built only on a miss.  A build_C system has two
# such blocks, adjacent or not, times the radii used; the bound keeps any
# other system's cache small.
@lru_cache(maxsize=16)
def _centralizer_core(labels: tuple[tuple[int, ...], ...], radius: int) -> bool:
    sub = _named(labels)
    s5 = enumerate_parabolic(sub, frozenset(range(BLOCK_SIZE)))
    S = np.array([w.mat for w in s5], dtype=np.int64)
    eye = np.eye(sub.n, dtype=np.int64)
    # the nonidentity involutions of the block subgroup, by S @ S == I over
    # the whole subgroup at once; the parity test then runs on those alone
    inv = (np.matmul(S, S) == eye).all(axis=(1, 2)) & \
        (S != eye).any(axis=(1, 2))
    even = [k for k in np.flatnonzero(inv) if length(sub, s5[k]) % 2 == 0]
    if radius == 0 or not even:
        return True
    A = S[even]
    s5_mats = {w.mat for w in s5}
    u, v = (np.array([p[i % len(p)] for i in range(sub.n)], dtype=np.int64)
            for p in _PROBES)
    # every entry and partial sum _commuting forms is at most max|X| times
    # this: (X^T u).(a v) and (X v).(a^T u) by the 1-norms of u and a v, and
    # of v and a^T u; X a and a X by the column and row sums of |a|
    absA = np.abs(A)
    growth = max(int(np.abs(u).sum() * np.abs(np.matmul(A, v)).sum(1).max()),
                 int(np.abs(v).sum() * np.abs(np.matmul(u, A)).sum(1).max()),
                 int(absA.sum(1).max()), int(absA.sum(2).max()))
    for X in ball_levels(sub, radius, SWEEP_BALL_CAP)[1:]:
        dtype = exact_dtype(int(np.abs(X).max()) * growth)
        args = [a.astype(dtype) for a in (A, u, v)]
        for start in range(0, len(X), _PROBE_CHUNK):
            Y = X[start:start + _PROBE_CHUNK].astype(dtype, copy=False)
            for i in _commuting(Y, *args):
                if tuple(tuple(int(x) for x in row) for row in Y[i]) \
                        not in s5_mats:
                    return False
    return True


def bounded_centralizer_check(system: LabeledCoxeterSystem, s: int, t: int,
                              radius: int = DEFAULT_RADIUS) -> bool:
    """In the subsystem on the blocks of s and t: does every element of
    length <= radius that commutes with some even involution of the first
    block already lie in that block's subgroup?

    True means no violation up to the radius (vacuously so at radius 0).
    Intended for non-adjacent s, t; calling it on an adjacent pair is allowed
    and demonstrates a violation, since the other block's involution commutes
    while lying outside.
    """
    if s == t:
        raise PreconditionError("centralizer check needs two distinct vertices")
    if radius < 0:
        raise PreconditionError("radius must be nonnegative")
    return _centralizer_core(_two_block_labels(system, s, t), radius)


def k_graph(graph: FiniteGraph, radius: int = DEFAULT_RADIUS) -> KGraph:
    """Class graph of the block system of the input graph.

    Reflexive by construction; an off-diagonal edge is present exactly when
    a commuting witness exists.  Every witnessless pair must additionally
    pass the bounded centralizer sweep, otherwise the construction itself is
    in doubt and we abort loudly.
    """
    system = build_C(graph)
    classes = tuple(classify_s5_classes(system))
    n = len(classes)
    adj = [[u == v for v in range(n)] for u in range(n)]
    witnesses: dict[tuple[int, int], tuple[Word, Word]] = {}
    for s in range(n):
        for t in range(s + 1, n):
            wit = commuting_witness(system, s, t)
            if wit is not None:
                adj[s][t] = adj[t][s] = True
                witnesses[(s, t)] = wit
            else:
                if not bounded_centralizer_check(system, s, t, radius):
                    raise FalsificationError(
                        f"vertices {s},{t}: no commuting witness, yet some "
                        f"element of length <= {radius} commutes with an even "
                        "involution from outside its block subgroup")
    g = FiniteGraph(n, tuple(tuple(row) for row in adj), reflexive=True)
    return KGraph(g, classes, witnesses, system)


def k_pointed(graph: FiniteGraph,
              radius: int = DEFAULT_RADIUS) -> PointedReflexiveGraph:
    """Class graph with a fresh dominating base adjoined."""
    return make_pointed(k_graph(graph, radius).graph)


def verify_reconstruction(graph: FiniteGraph, radius: int = DEFAULT_RADIUS,
                          kg: KGraph | None = None) -> VertexMap:
    """Check vertex -> class-of-its-block is an isomorphism onto the class
    graph and return it.  Adjacency is compared in both directions against
    the reflexive closure of the input."""
    if kg is None:
        kg = k_graph(graph, radius)
    system = kg.system
    refl = graph.reflexive_closure()
    image = []
    for v in range(graph.n):
        block = system.block(v)
        matches = [i for i, cls in enumerate(kg.classes)
                   if cls.representative == block]
        if len(matches) != 1:
            raise FalsificationError(
                f"block of vertex {v} matches {len(matches)} classes")
        image.append(matches[0])
    if len(set(image)) != kg.graph.n:
        raise FalsificationError("vertex-to-class map is not a bijection")
    for u in range(graph.n):
        for v in range(graph.n):
            if refl.adjacent(u, v) != kg.graph.adjacent(image[u], image[v]):
                raise FalsificationError(
                    f"adjacency mismatch at ({u},{v}) under reconstruction")
    return VertexMap(graph.n, kg.graph.n, tuple(image))
