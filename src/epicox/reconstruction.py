"""Rebuilding a graph from its block system.

Vertices of the rebuilt graph are the conjugacy classes of order-120
nonabelian standard subgroups (one per block).  Two classes get an edge when
the designated even involutions of the two blocks commute, which happens
exactly for adjacent source vertices.  For a pair without a commuting
witness, the expected picture is that inside the subsystem W on the two
blocks nothing outside the first block's subgroup W_J commutes with any of
its even involutions.  A normaliser certificate proves this at every length
when it holds; a bounded sweep checks it up to a radius wherever the
certificate is inconclusive, and serves as the certificate's oracle.

The certificate looks at a = s1 s3 (alt_involution's positions 1 and 3,
which commute) and I = {s1, s3}.  An intersection of parabolic subgroups is
parabolic, so a has a parabolic closure (Krammer, The conjugacy problem for
Coxeter groups, Groups Geom. Dyn. 3, 2009; Qi, Expo. Math. 25, 2007), and
here it is W_I.  Whatever commutes with a normalises its closure, and
N_W(W_I) is W_I times the elements w with w I w^-1 == I, each a product of
the steps w_{K-s} w_K along a path in the groupoid of subsets conjugate to
I (Deodhar, Comm. Algebra 10, 1982; Brink-Howlett, Invent. Math. 136,
1999): exactly the conjugators ``parabolics.ks_step`` forms.  So when no
member of I's conjugacy component has a step along a generator outside J,
C_W(a) lies in W_J.  When the even involutions also form one class under
W_J, each is u a u^-1 for some u in W_J, and its centraliser lies in W_J
too.  A failed certificate is inconclusive, not a violation: a step
normalises W_I but need not centralise a.

The sweep rests on the parabolic factorisation W = W_J . JW, J the first
block (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.4): every X is
u x with u in W_J, x a minimal coset representative (no left descent in J)
and l(X) = l(u) + l(x).  X lies outside W_J exactly when x != 1, and X
commutes with an even involution a exactly when x a == b x for
b = u^-1 a u, again an even involution of the block.  So a violation
within radius r is an x with 1 <= l(x) <= r and a pair (a, b) with
x a == b x and D[a, b] <= r - l(x), where D[a, b] is the length of a
shortest u in W_J with a u == u b; on the top level only b == a remains.
The sweep walks only the representatives (33,970 of the 69,420 elements
of the radius-6 ball) and looks nothing up in the block's subgroup.

Each chunk of a level is tested against its pairs at once: first a scalar
probe 1^T x a v == 1^T b x v, from the heights 1^T x and from x v for a
fixed vector v, then the full x a == b x on the triples that pass it.  The
ball and the probe each run in the narrowest integer dtype that a proven
bound allows (``coxeter.exact_dtype``): at radius 6 the ball is int16 and
the probe int32, and past the int64 guard both fall back to exact object
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .construction import (BLOCK_SIZE, LabeledCoxeterSystem, alt_involution,
                           build_C)
from .coxeter import (CoxeterMatrix, Word, ball_levels, evaluate, exact_dtype,
                      max_abs, parabolic_levels, simple_reflection)
from .errors import (EnumerationCapExceeded, FalsificationError,
                     PreconditionError)
from .graphs import FiniteGraph, VertexMap
from .parabolics import (ConjugacyClass, classify_s5_classes,
                         conjugacy_component, ks_step)

DEFAULT_RADIUS = 6

# Representatives the sweep's ball may hold.  In a two-block subsystem
# (rank 8) the whole ball has 69,420 elements at radius 6, 405,826 at 7 and
# 2,372,410 at 8; the first block's minimal coset representatives, which
# the sweep walks, number 33,970, 198,584 and 1,160,895, growing about
# 5.8x per radius.  Their largest entry is 269 at radius 6 and 1,913 at 8,
# so they stay int16: 128 bytes each, about 150 MB at radius 8, where a
# cold sweep peaks near 190 MB RSS.  Radius 9 would be about 6.8 M
# representatives.  This cap lets radius 8 through; ball_levels counts each
# per-generator part of a level on heights alone, so the over-cap level is
# never allocated.  It is the memory guard for label blocks whose ball grows
# faster than build_C's.
SWEEP_BALL_CAP = 4_000_000
# The cap would stop radius 9 only after building every representative of
# radius 8 (2.2 s, 259 MB), so larger radii are refused before the sweep.
SWEEP_MAX_RADIUS = 8


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

    @cached_property
    def class_of_member(self) -> dict[frozenset[int], int]:
        """The class vertex of every member of every class, the first class
        holding a member winning."""
        out: dict[frozenset[int], int] = {}
        for u, cls in enumerate(self.classes):
            for member in cls.members:
                out.setdefault(member, u)
        return out


def _two_block_labels(system: LabeledCoxeterSystem, s: int,
                      t: int) -> tuple[tuple[int, ...], ...]:
    """The labels among the generators of the blocks of s and t, the block
    of s first, each block in position order."""
    order = system.block_generators[s] + system.block_generators[t]
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


# fixed probe vector for the first commute test; any vector gives the same
# answer, and one with unpatterned entries rarely makes 1^T (xa - bx) v
# vanish by chance, so few pairs reach the full comparison
_PROBE = (3, 1, 4, 1, 5, 9, 2, 6)
# elements probed at once; bounds the probe's temporaries (its cast copy of
# the chunk and the chunk-by-pair tables) apart from the ball's size
_PROBE_CHUNK = 8192


def _commuting(X: np.ndarray, A: np.ndarray, v: np.ndarray, ka: np.ndarray,
               kb: np.ndarray) -> bool:
    """Whether X[i] A[ka[p]] == A[kb[p]] X[i] for some i and some p.

    First the probe 1^T x a v == 1^T b x v, for every x and every pair
    (a, b) at once, from the heights 1^T x and from x v; it is necessary
    for xa == bx, and only the triples passing it get the full matrix
    comparison.  The probe runs in einsum, whose integer loops are
    several times faster than matmul's on these small shapes.
    """
    av = np.matmul(A[ka], v).T.copy()
    hb = A[kb].sum(axis=1, dtype=A.dtype).T.copy()
    lhs = np.einsum("nj,jp->np", np.einsum("nij->nj", X), av)
    rhs = np.einsum("ni,ip->np", np.einsum("nij,j->ni", X, v), hb)
    i, p = np.nonzero(lhs == rhs)
    Y, a, b = X[i], A[ka[p]], A[kb[p]]
    return bool((np.matmul(Y, a) == np.matmul(b, Y)).all(axis=(1, 2)).any())


def _even_involutions(sub: CoxeterMatrix, block) -> np.ndarray:
    """The nonidentity involutions of even length in the standard subgroup
    on the block, found by S @ S == I over the whole subgroup at once."""
    by_length = parabolic_levels(sub, block)
    S = np.array([w for level in by_length for w in level],
                 dtype=np.int64)
    lengths = np.repeat(np.arange(len(by_length)),
                        [len(level) for level in by_length])
    eye = np.eye(sub.n, dtype=np.int64)
    inv = (np.matmul(S, S) == eye).all(axis=(1, 2)) & \
        (S != eye).any(axis=(1, 2))
    return S[inv & (lengths % 2 == 0)]


def _conjugation_distances(sub: CoxeterMatrix, block, A: np.ndarray,
                           far: int) -> np.ndarray:
    """D[a, b]: the length of a shortest u in the standard subgroup on the
    block with A[a] u == u A[b], or at least ``far`` when that length is
    ``far`` or more or there is no such u.

    It is the distance from a to b when each a is joined to s a s for every
    generator s of the block (a reduced word of u walks from a to b, and a
    walk spells such a u), found by Floyd-Warshall.
    """
    G = np.array([simple_reflection(sub, t) for t in sorted(block)],
                 dtype=np.int64)
    sas = np.matmul(np.matmul(G[:, None], A), G[:, None])
    near = (sas[:, :, None] == A).all(axis=(3, 4)).any(axis=0)
    D = np.where(near, 1, far)
    np.fill_diagonal(D, 0)
    for k in range(len(A)):
        D = np.minimum(D, D[:, k, None] + D[k])
    return D


# Keyed, like _shape_commutes, by the pair's rank-8 label block read from the
# group, so the subsystem is built only on a miss.  A build_C system has two
# such blocks, adjacent or not, times the radii used; the bound keeps any
# other system's cache small.
@lru_cache(maxsize=16)
def _centralizer_core(labels: tuple[tuple[int, ...], ...], radius: int) -> bool:
    sub = _named(labels)
    block = frozenset(range(BLOCK_SIZE))
    A = _even_involutions(sub, block)
    if radius == 0 or not len(A):
        return True
    D = _conjugation_distances(sub, block, A, radius + 1)
    v = np.array([_PROBE[i % len(_PROBE)] for i in range(sub.n)],
                 dtype=np.int64)
    # every entry and partial sum _commuting forms is at most max|x| times
    # this: (1^T x).(a v) and (x v).(1^T b) by n times the 1-norm of a v,
    # and by the 1-norms of v and 1^T b; x a and b x by the column and row
    # sums of |a| and |b|
    absA = np.abs(A)
    growth = max(int(sub.n * np.abs(np.matmul(A, v)).sum(1).max()),
                 int(np.abs(v).sum() * np.abs(A.sum(axis=1)).sum(1).max()),
                 int(absA.sum(1).max()), int(absA.sum(2).max()))
    for k, X in enumerate(
            ball_levels(sub, radius, SWEEP_BALL_CAP, reps_of=block)[1:], 1):
        # x a == b x counts when some u with a u == u b fits in radius - k
        ka, kb = np.nonzero(D <= radius - k)
        dtype = exact_dtype(max_abs(X) * growth)
        args = [a.astype(dtype) for a in (A, v)]
        for start in range(0, len(X), _PROBE_CHUNK):
            Y = X[start:start + _PROBE_CHUNK].astype(dtype, copy=False)
            if _commuting(Y, *args, ka, kb):
                return False
    return True


# Keyed and bounded like _shape_commutes: a build_C system has two label
# blocks, and only the non-adjacent one ever reaches the certificate.
@lru_cache(maxsize=64)
def _centralizer_certificate(labels: tuple[tuple[int, ...], ...]) -> bool:
    """Whether, in the subsystem on the pair's two blocks, the centraliser
    of every even involution of the first block J lies in W_J, at every
    length.  False means the certificate cannot tell (module docstring)."""
    sub = _named(labels)
    block = frozenset(range(BLOCK_SIZE))
    I = (0, 2)  # alt_involution's positions 1 and 3
    A = _even_involutions(sub, block)
    hit = np.flatnonzero(
        (A == np.array(evaluate(sub, I), dtype=np.int64)).all(axis=(1, 2)))
    # a path between involutions is shorter than their count
    if not len(hit) or \
            (_conjugation_distances(sub, block, A, len(A))[hit[0]]
             >= len(A)).any():
        return False
    members = conjugacy_component(sub, I).members
    return all(X <= block for X in members) and \
        all(ks_step(sub, X, s) is None
            for X in members for s in range(BLOCK_SIZE, sub.n))


def _check_radius(radius: int) -> None:
    """The sweep's refusals of a radius, before anything is built."""
    if radius < 0:
        raise PreconditionError("radius must be nonnegative")
    if radius > SWEEP_MAX_RADIUS:
        raise EnumerationCapExceeded(
            f"sweep radius {radius} is above the ceiling of "
            f"{SWEEP_MAX_RADIUS}")


def bounded_centralizer_check(system: LabeledCoxeterSystem, s: int, t: int,
                              radius: int = DEFAULT_RADIUS) -> bool:
    """In the subsystem on the blocks of s and t: does every element of
    length <= radius that commutes with some even involution of the first
    block already lie in that block's subgroup?

    True means no violation up to the radius (vacuously so at radius 0).
    The normaliser certificate answers True for every radius when it holds;
    otherwise the sweep decides.  Intended for non-adjacent s, t; calling it
    on an adjacent pair is allowed and demonstrates a violation, since the
    other block's involution commutes while lying outside.
    """
    if s == t:
        raise PreconditionError("centralizer check needs two distinct vertices")
    _check_radius(radius)
    if radius == 0:
        return True
    labels = _two_block_labels(system, s, t)
    return _centralizer_certificate(labels) or \
        _centralizer_core(labels, radius)


def k_graph(graph: FiniteGraph, radius: int = DEFAULT_RADIUS) -> KGraph:
    """Class graph of the block system of the input graph.

    Reflexive by construction; an off-diagonal edge is present exactly when
    a commuting witness exists.  Every witnessless pair must additionally
    pass the centralizer check (the certificate, else the bounded sweep),
    otherwise the construction itself is in doubt and we abort loudly.
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
