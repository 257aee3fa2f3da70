"""Builders for the block systems.

Every graph vertex gets a block of four generators carrying the 4-chain
labels (3 between consecutive positions, 2 otherwise), and the word problem
inside one block is the symmetric group on five letters.  Across two
distinct blocks the position-4 generators always commute; when the two
vertices are adjacent the four pairs drawn from positions {1,3} commute as
well, and every other cross pair gets the infinite label.  Adjacency of the
original graph is thereby encoded in which pairs of blocks admit commuting
even involutions, which is what the reconstruction module recovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .coxeter import (CoxeterMatrix, Word, close_under_multiplication,
                      enumerate_parabolic, identity, invert, length, mul,
                      simple_reflection)
from .errors import FalsificationError, PreconditionError
from .graphs import FiniteGraph, PointedReflexiveGraph, make_pointed

BLOCK_SIZE = 4


def build_L4() -> CoxeterMatrix:
    """The 4-chain: consecutive generators braid (label 3), the rest
    commute.  Its group is the symmetric group on five letters."""
    labels = [(i, i + 1, 3) for i in range(3)]
    labels += [(i, j, 2) for i in range(4) for j in range(i + 2, 4)]
    return CoxeterMatrix.from_labels(4, labels,
                                     ("s_1", "s_2", "s_3", "s_4"))


@dataclass(frozen=True)
class LabeledCoxeterSystem:
    """A block system together with the graph it was built from.

    Generator 4*v + (i-1) is position i of the block of vertex v; the
    stored graph is the irreflexive adjacency among source vertices.
    """
    matrix: CoxeterMatrix
    graph: FiniteGraph

    def __post_init__(self):
        if self.matrix.n != BLOCK_SIZE * self.graph.n:
            raise PreconditionError("matrix rank does not match 4 * vertices")
        if self.graph.reflexive:
            raise PreconditionError("system graph must be irreflexive")

    @property
    def vertex_count(self) -> int:
        return self.graph.n

    @cached_property
    def pointed(self) -> PointedReflexiveGraph:
        """The graph made reflexive with the base appended last: the domain
        or codomain of the graph maps that lift to this system.  Built once
        per system."""
        return make_pointed(self.graph.reflexive_closure())

    @cached_property
    def block_generators(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's block in position order, which is sorted order."""
        return tuple(tuple(self.generator(v, pos)
                           for pos in range(1, BLOCK_SIZE + 1))
                     for v in range(self.graph.n))

    @cached_property
    def pointed_blocks(self) -> tuple[tuple[int | None, ...], ...]:
        """Where a lift into this system sends the positions of a block,
        per vertex of the pointed graph: the vertex's block in position
        order, and the identity four times for the base, appended last."""
        return self.block_generators + ((None,) * BLOCK_SIZE,)

    def generator(self, v: int, pos: int) -> int:
        if not (0 <= v < self.graph.n and 1 <= pos <= BLOCK_SIZE):
            raise PreconditionError(f"no generator at vertex {v} position {pos}")
        return BLOCK_SIZE * v + pos - 1

    def block(self, v: int) -> frozenset[int]:
        return frozenset(range(BLOCK_SIZE * v, BLOCK_SIZE * (v + 1)))

    def block_of(self, g: int) -> tuple[int, int]:
        """(vertex, position) of a generator index."""
        if not (0 <= g < self.matrix.n):
            raise PreconditionError(f"generator index {g} out of range")
        return g // BLOCK_SIZE, g % BLOCK_SIZE + 1


def build_C(graph: FiniteGraph) -> LabeledCoxeterSystem:
    """Block system of a graph.  Loops are ignored; vertex v occupies
    generators 4v..4v+3 named v{v}_1..v{v}_4."""
    core = graph.without_loops()
    n = core.n
    labels = []
    for v in range(n):
        b = BLOCK_SIZE * v
        labels += [(b + i, b + i + 1, 3) for i in range(3)]
        labels += [(b + i, b + j, 2) for i in range(4) for j in range(i + 2, 4)]
    for s in range(n):
        for t in range(s + 1, n):
            bs, bt = BLOCK_SIZE * s, BLOCK_SIZE * t
            labels.append((bs + 3, bt + 3, 2))
            if core.adjacent(s, t):
                for i in (0, 2):
                    for j in (0, 2):
                        labels.append((bs + i, bt + j, 2))
    names = tuple(f"v{v}_{i}" for v in range(n) for i in range(1, 5))
    return LabeledCoxeterSystem(
        CoxeterMatrix.from_labels(BLOCK_SIZE * n, labels, names), core)


def alt_involution(system: LabeledCoxeterSystem, v: int) -> Word:
    """The word for the even involution of a block used as a commutation
    probe: positions 1 and 3."""
    return (system.generator(v, 1), system.generator(v, 3))


@dataclass(frozen=True)
class L4Report:
    order: int
    nonabelian: bool
    even_order: int
    even_is_subgroup: bool
    even_is_simple: bool


def verify_L4_is_S5() -> L4Report:
    """Check the one-block group has order 120, is nonabelian, and that its
    even-length elements form a simple subgroup of order 60.  Simplicity is
    brute force: the normal closure of every nontrivial element must be the
    whole even part."""
    C = build_L4()
    elements = enumerate_parabolic(C, frozenset(range(4)))
    order = len(elements)
    gens = [simple_reflection(C, i) for i in range(4)]
    nonabelian = any(mul(a, b) != mul(b, a) for a in gens for b in gens)
    evens = [w for w in elements if length(C, w) % 2 == 0]
    even_set = set(evens)
    closed = all(mul(a, b) in even_set for a in evens for b in evens)
    inverses = {w: invert(C, w) for w in evens}
    idn = identity(C)
    classes = set()
    for a in evens:
        if a == idn:
            continue
        classes.add(frozenset(mul(mul(g, a), inverses[g]) for g in evens))
    # normal closure of each nontrivial conjugacy class must exhaust the
    # even part, otherwise it generates a proper normal subgroup
    simple = True
    for cls in classes:
        closure = close_under_multiplication(cls, C.n)
        if len(closure) != len(evens):
            simple = False
            break
    report = L4Report(order, nonabelian, len(evens), closed, simple)
    if not (order == 120 and nonabelian and len(evens) == 60
            and closed and simple):
        raise FalsificationError(f"one-block structure check failed: {report}")
    return report
