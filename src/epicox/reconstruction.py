"""Rebuilding a graph from its block system.

Vertices of the rebuilt graph are the conjugacy classes of order-120
nonabelian standard subgroups (one per block).  Two classes get an edge when
the designated even involutions of the two blocks commute, which happens
exactly for adjacent source vertices.  For a pair without a commuting
witness, nothing outside the first block's subgroup W_J may commute with
one of its even involutions in the subsystem W on the two blocks.  A
normaliser certificate proves this at every length on the one label block
such a pair has in a build_C system, so a failed certificate is a fault of
the code; ``oracles.bounded_centralizer_check`` is the sweep it is tested
against.

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

That class test reads the involutions off subsets instead of enumerating
W_J.  Every involution of a Coxeter group is conjugate to w_K, the longest
element of some K with W_K finite and w_K central in W_K, and two such
w_K are conjugate exactly when K and K' are conjugate subsets, that is,
in one conjugacy component (Richardson, Conjugacy classes of involutions
in Coxeter groups, Bull. Austral. Math. Soc. 26, 1982).  Such a w_K acts
as -1 on the span of K's simple roots and trivially modulo it, so its
determinant, (-1) to its length, is (-1)^|K|: the even involutions other
than the identity are the conjugates of w_K for nonempty K of even size.
So they form one class containing a = w_I exactly when w_I is central in
W_I and each such K lies in I's component in W_J.

The in-block work runs in W_J's own rank-4 system: whether w_I is central
in W_I, I's conjugacy component and the class test.  A standard parabolic
subgroup is the Coxeter group of its own labels, with the same lengths
(Humphreys, Reflection Groups and Coxeter Groups 5.5), so whether W_K is
finite and w_K central in it reads the same there as in the rank-8
subsystem.  One check stays at rank 8: no member of the component has a
step along a generator outside J.  A step along a generator of J, out of
a subset of J, reads only J's labels, so it is the same step at either
rank.  When no member steps out of J, the rank-8 component is therefore
the rank-4 one; when some member does, the certificate fails at either
rank.  The certificate at rank 4 gives the rank-8 certificate's verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

from .construction import (BLOCK_SIZE, LabeledCoxeterSystem, alt_involution,
                           build_C)
from .coxeter import (CoxeterMatrix, Word, evaluate, gen_mul, is_spherical,
                      longest_element, mul_gen)
from .errors import (FalsificationError, InternalInconsistencyError,
                     PreconditionError)
from .graphs import FiniteGraph, VertexMap
from .parabolics import (ConjugacyClass, classify_s5_classes,
                         conjugacy_component, ks_step)


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
                      t: int) -> tuple[bytes, ...]:
    """The labels among the generators of the blocks of s and t, the block
    of s first, each block in position order: eight 8-byte rows, each cut
    from a generator's label row at the two blocks."""
    m = system.matrix.m
    gs, gt = system.block_generators[s], system.block_generators[t]
    cs, ct = gs[0], gt[0]
    return tuple(m[g][cs:cs + BLOCK_SIZE] + m[g][ct:ct + BLOCK_SIZE]
                 for g in gs + gt)


def _named(labels: tuple[bytes, ...]) -> CoxeterMatrix:
    # canonical names so structurally equal pairs share a cache entry
    return CoxeterMatrix(len(labels), labels,
                         tuple(f"g{i}" for i in range(len(labels))))


# Two block involutions lie in the standard subgroup on their two blocks,
# and elements of a standard subgroup commute in W exactly when they commute
# in it.  So the answer depends only on the pair's rank-8 label block, read
# from the group, and this cache decides it once per distinct block at rank
# 8: k_graph asks it about every pair.  A build_C system has two such
# blocks, adjacent or not; the bound keeps any other system's cache small.
@lru_cache(maxsize=64)
def _shape_commutes(labels: tuple[bytes, ...]) -> bool:
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


def _central_longest(C: CoxeterMatrix, K) -> bool:
    """Whether W_K is finite and its longest element commutes with every
    generator of K, so is central in W_K."""
    if not is_spherical(C, K):
        return False
    w = longest_element(C, K)
    return all(gen_mul(C, s, w) == mul_gen(C, w, s) for s in K)


def _one_even_class(C: CoxeterMatrix, J, members) -> bool:
    """Whether every nonidentity involution of even length in W_J is
    conjugate in W_J to w_I, given the members of I's conjugacy component
    in W_J: every nonempty K in J of even size with w_K central in W_K is a
    member (Richardson, module docstring)."""
    return all(frozenset(K) in members
               for size in range(2, len(J) + 1, 2)
               for K in combinations(sorted(J), size)
               if _central_longest(C, K))


# Keyed and bounded like _shape_commutes: a build_C system has two label
# blocks, and only the non-adjacent one ever reaches the certificate.
@lru_cache(maxsize=64)
def _centralizer_certificate(labels: tuple[bytes, ...]) -> bool:
    sub = _named(labels)
    J = range(BLOCK_SIZE)
    wj = sub.submatrix(J)
    I = (0, 2)  # alt_involution's positions 1 and 3
    # their product is an involution exactly when it is w_I, central in W_I
    if not _central_longest(wj, I):
        return False
    members = conjugacy_component(wj, I).members
    # with no step out of J, these are also I's members in the subsystem
    return all(ks_step(sub, X, s) is None
               for X in members for s in range(BLOCK_SIZE, sub.n)) and \
        _one_even_class(wj, J, members)


def centralizer_certificate(system: LabeledCoxeterSystem, s: int,
                            t: int) -> bool:
    """Whether, in the subsystem on the blocks of s and t, the centraliser
    of every even involution of the first block J lies in W_J, at every
    length.  False means the certificate cannot tell (module docstring)."""
    if s == t:
        raise PreconditionError("certificate needs two distinct vertices")
    return _centralizer_certificate(_two_block_labels(system, s, t))


def k_graph(graph: FiniteGraph) -> KGraph:
    """Class graph of the block system of the input graph.

    Reflexive by construction; an off-diagonal edge is present exactly when
    a commuting witness exists.  Every witnessless pair must also pass the
    normaliser certificate; it holds on the one label block such a pair has
    in a build_C system, so a failure is a fault of the code.  Every pair's
    label block is read in row-major order, and the caches of both decide
    each distinct block once, at the first pair showing it.
    """
    system = build_C(graph)
    classes = tuple(classify_s5_classes(system))
    n = len(classes)
    adj = [[u == v for v in range(n)] for u in range(n)]
    witnesses: dict[tuple[int, int], tuple[Word, Word]] = {}
    for s, t in combinations(range(n), 2):
        labels = _two_block_labels(system, s, t)
        if _shape_commutes(labels):
            adj[s][t] = adj[t][s] = True
            witnesses[(s, t)] = (alt_involution(system, s),
                                 alt_involution(system, t))
        elif not _centralizer_certificate(labels):
            raise InternalInconsistencyError(
                f"vertices {s},{t}: no commuting witness, and the "
                "normaliser certificate does not hold on their blocks")
    g = FiniteGraph(n, tuple(tuple(row) for row in adj), reflexive=True)
    return KGraph(g, classes, witnesses, system)


def verify_reconstruction(graph: FiniteGraph,
                          kg: KGraph | None = None) -> VertexMap:
    """Check vertex -> class-of-its-block is an isomorphism onto the class
    graph and return it.  Adjacency is compared in both directions against
    the reflexive closure of the input."""
    if kg is None:
        kg = k_graph(graph)
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
