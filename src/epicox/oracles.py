"""Slow checks that the library's answers are compared against.

Exhaustive vertex maps, plain breadth-first search, relators evaluated
as matrices, and a sweep of the word-length ball for the claim
``reconstruction``'s certificate proves.  The acceptance criteria and the
tests compare the package's answers against these rather than against the
code path under test.

The sweep rests on the parabolic factorisation W = W_J . JW, W the
subsystem on two blocks and J the first block (Bjorner-Brenti,
Combinatorics of Coxeter Groups, 2.4): every X is u x with u in W_J, x a
minimal coset representative (no left descent in J) and
l(X) = l(u) + l(x).  X lies outside W_J exactly when x != 1, and X
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
bound allows (``exact_dtype``): at radius 6 the ball is int16 and the
probe int32, and past the int64 guard both fall back to exact object
arrays.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .construction import BLOCK_SIZE, LabeledCoxeterSystem
from .coxeter import (CoxeterMatrix, Word, evaluate, identity, mul_gen,
                      parabolic_levels, simple_reflection)
from .errors import EnumerationCapExceeded, PreconditionError
from .homomorphisms import GeneratorMap, map_word, presentation_of
from .reconstruction import _named, _two_block_labels


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
    dist = {idn: 0}
    frontier = [idn]
    d = 0
    while frontier:
        nxt = []
        d += 1
        for w in frontier:
            for i in sorted(subset):
                cand = mul_gen(C, w, i)
                if cand not in dist:
                    dist[cand] = d
                    nxt.append(cand)
        frontier = nxt
    return dist


def relators_hold(phi: GeneratorMap, relators) -> bool:
    """Does every relator, pushed through the map, evaluate to the
    identity?  Each distinct mapped word is evaluated once, in relator
    order, up to the first that fails."""
    idn = identity(phi.target)
    words = dict.fromkeys(map_word(phi, rel) for rel in relators)
    return all(evaluate(phi.target, word) == idn for word in words)


def relators_hold_by_matrices(phi: GeneratorMap) -> bool:
    """Does every source relator, pushed through the map, evaluate to the
    identity matrix of the target?  One-shot: nothing is kept between
    calls."""
    return relators_hold(phi, presentation_of(phi.source).relators)


def words_commute_by_matrices(C: CoxeterMatrix, wa: Word, wb: Word) -> bool:
    """Do the two words commute, evaluated at the full rank of C?"""
    return evaluate(C, wa + wb) == evaluate(C, wb + wa)


# Guards of the exact integer dtypes, each a quarter of its type's range:
# a bound at or below a guard is safe to form in that type.  _INT64_SAFE is
# the top rung; past it exact_dtype falls back to object arrays.
_INT16_SAFE = 2**13
_INT32_SAFE = 2**29
_INT64_SAFE = 2**61

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


def check_radius(radius: int) -> None:
    """The sweep's refusals of a radius, before anything is built."""
    if radius < 0:
        raise PreconditionError("radius must be nonnegative")
    if radius > SWEEP_MAX_RADIUS:
        raise EnumerationCapExceeded(
            f"sweep radius {radius} is above the ceiling of "
            f"{SWEEP_MAX_RADIUS}")


def exact_dtype(bound: int) -> np.dtype:
    """The narrowest of int16, int32 and int64 whose guard covers integers
    of magnitude up to ``bound``, or object past ``_INT64_SAFE``; callers
    pass a proven bound on every entry and partial sum they will form."""
    if bound > _INT64_SAFE:
        return np.dtype(object)
    for dtype, safe in ((np.int16, _INT16_SAFE), (np.int32, _INT32_SAFE)):
        if bound <= safe:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def max_abs(a: np.ndarray) -> int:
    """The largest magnitude of an entry, without an |a| temporary."""
    return max(int(a.max()), -int(a.min()))


def ball_levels(C: CoxeterMatrix, radius: int, cap: int | None = None,
                reps_of=frozenset()) -> list[np.ndarray]:
    """Matrices of the elements of length <= radius that have no left
    descent in ``reps_of``, grouped by length.  With the default empty set
    that is the whole ball; with a set J it is the ball's part of the
    minimal coset representatives of W_J, which meet each coset W_J X once.

    Level k is an array of shape (N_k, n, n).  Each element is generated
    exactly once, from its lowest right descent s: an element w of level k
    is extended by every ascent s of w, and ws is kept only when no
    generator below s is a descent of ws.  So no set of seen elements is
    needed.  Order within a level: by that lowest descent s, then in the
    order of the previous level.

    Descents are read from root heights h(w) = 1^T w, the column sums: a
    column is a root, so s is a descent of w exactly when h(w)_s < 0, and
    h(ws) is the column update of ``mul_gen`` applied to the vector h(w).
    By Deodhar's lemma a representative x leaves the set under an ascent s
    exactly when x sends alpha_s to a simple root alpha_t with t in J: the
    column has height 1 and its 1 sits in a row of J.  So every candidate
    is decided on its height vector, and a level is allocated once, at its
    final size, before any matrix of it is formed.  Heights are formed for
    every level but the last, which no later level reads.  The cap counts
    the elements generated and is checked per generator, before that.

    Right multiplication by a generator at most triples the largest entry.
    The ball starts in int16 and each level is built in
    ``exact_dtype(3 * max|entry|)`` of the level before, moving up a rung
    (int32, int64, then exact object arrays) and never down; the heights
    climb the same rungs on n times that bound.  In rank 8 the ball stays
    int16 through radius 8, at 128 bytes per element.  The result is
    always exact; no float dtype is used.
    """
    if radius < 0:
        raise PreconditionError("radius must be nonnegative")
    n = C.n
    J = sorted(reps_of)
    for t in J:
        if not (0 <= t < n):
            raise PreconditionError(f"generator index {t} out of range")
    cur = np.eye(n, dtype=np.int16)[None, :, :]
    levels = [cur]
    if radius == 0 or n == 0:
        return levels
    heights = np.ones((1, n), dtype=np.int16)
    total = 1
    for k in range(1, radius + 1):
        if cur.dtype != object:
            bound = 3 * max_abs(cur)
            dtype = np.result_type(cur.dtype, exact_dtype(bound))
            hdtype = np.result_type(heights.dtype, exact_dtype(n * bound))
            if dtype != cur.dtype:
                cur = cur.astype(dtype)
            if hdtype != heights.dtype:
                heights = heights.astype(hdtype)
        # which (w, s) survive, decided on heights alone
        parts = []
        for s in range(n):
            h = heights[:, s]
            keep = h > 0
            if J:
                simple = np.flatnonzero(keep & (h == 1))
                keep[simple[cur[simple, :, s][:, J].sum(axis=1) == 1]] = False
            idx = np.flatnonzero(keep)
            if s:
                idx = idx[(_times_gen(C, heights[idx], s)[:, :s] > 0)
                          .all(axis=1)]
            parts.append(idx)
            total += len(idx)
            if cap is not None and total > cap:
                raise EnumerationCapExceeded(
                    f"ball enumeration to radius {radius} exceeded cap {cap}")
        size = sum(map(len, parts))
        if not size:
            break
        nxt = np.empty((size, n, n), dtype=cur.dtype)
        nheights = (np.empty((size, n), dtype=heights.dtype)
                    if k < radius else None)
        start = 0
        for s, idx in enumerate(parts):
            stop = start + len(idx)
            w = nxt[start:stop]
            # 'clip' writes straight into the slice; 'raise' would buffer
            np.take(cur, idx, axis=0, out=w, mode="clip")
            _times_gen(C, w, s)
            if nheights is not None:
                nheights[start:stop] = _times_gen(C, heights[idx], s)
            start = stop
        cur, heights = nxt, nheights
        levels.append(cur)
    return levels


def _times_gen(C: CoxeterMatrix, w: np.ndarray, s: int) -> np.ndarray:
    """Right multiplication by sigma_s in place, on the last axis of a
    stack of matrices or of row vectors: the column update of
    ``mul_gen``.  Returns w."""
    col = w[..., s].copy()
    w[..., s] = -col
    for j, c in C._gen_coeffs[s]:
        w[..., j] += c * col
    return w


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


# Keyed, like reconstruction._shape_commutes, by the pair's rank-8 label
# block read from the group, so the subsystem is built only on a miss.  A
# build_C system has two such blocks, adjacent or not, times the radii used;
# the bound keeps any other system's cache small.
@lru_cache(maxsize=16)
def _centralizer_core(labels: tuple[bytes, ...], radius: int) -> bool:
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


def bounded_centralizer_check(system: LabeledCoxeterSystem, s: int, t: int,
                              radius: int = DEFAULT_RADIUS) -> bool:
    """In the subsystem on the blocks of s and t: does every element of
    length <= radius that commutes with some even involution of the first
    block already lie in that block's subgroup?

    True means no violation up to the radius (vacuously so at radius 0).
    The sweep alone, with no certificate; on an adjacent pair it finds a
    violation: the other block's involution commutes from outside.
    """
    if s == t:
        raise PreconditionError("centralizer check needs two distinct vertices")
    check_radius(radius)
    return _centralizer_core(_two_block_labels(system, s, t), radius)
