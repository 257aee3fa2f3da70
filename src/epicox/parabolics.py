"""Conjugacy of standard subgroups via labelled steps between generator
subsets.

A step out of a subset I along an outside generator s looks at the component
K of s inside I + s in the opposed diagram.  When K is spherical, the product
nu of the two longest elements (of K minus s, then of K) conjugates the
subgroup on I onto the subgroup on another subset J of the same size; when K
is not spherical there is no step.  Two spherical subsets carry conjugate
subgroups exactly when they are linked by such steps, so breadth-first
closure over all labels computes the whole conjugacy class of a subset.

Each step checks its conjugator on integer matrices, as s_i nu == nu s_j
for a row operation against a column operation, which needs no inverse.
The block census asks for no step at all where the labels already refuse
every one: a generator with an infinite label into the block makes K
non-spherical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .construction import LabeledCoxeterSystem
from .coxeter import (ELEMENT_CAP, CoxeterMatrix, gen_mul, is_spherical,
                      longest_element, mul, mul_gen)
from .errors import (EnumerationCapExceeded, FalsificationError,
                     InternalInconsistencyError, PreconditionError)


@dataclass(frozen=True)
class ConjugacyClass:
    members: frozenset[frozenset[int]]
    representative: frozenset[int]

    @staticmethod
    def from_members(members) -> ConjugacyClass:
        members = frozenset(frozenset(x) for x in members)
        if not members:
            raise PreconditionError("a class needs at least one member")
        rep = min(members, key=lambda s: tuple(sorted(s)))
        return ConjugacyClass(members, rep)


def ks_component_candidate(C: CoxeterMatrix, subset, s: int) -> frozenset[int]:
    """Component of s in the opposed diagram induced on subset + s, read
    straight off the labels: an edge wherever the label is 3 or infinite,
    none where it is 2."""
    nodes = frozenset(subset) | {s}
    comp = {s}
    frontier = [s]
    while frontier:
        x = frontier.pop()
        for y in nodes:
            if y not in comp and C.m[x][y] != 2:
                comp.add(y)
                frontier.append(y)
    return frozenset(comp)


def _unit_column(nu, i: int) -> int | None:
    """The j whose column of nu is plus or minus e_i, if there is one.

    Column j of an element is its image of the simple root alpha_j, and
    nu s_j nu^-1 is the reflection in that root, so s_i nu == nu s_j can
    hold only for this j."""
    for j, x in enumerate(nu[i]):
        if x in (1, -1) and all(row[j] == 0 for k, row in enumerate(nu)
                                if k != i):
            return j
    return None


def ks_step(C: CoxeterMatrix, subset, s: int) -> frozenset[int] | None:
    """The subset reached by one conjugation step out of the subset along
    s, or None when the relevant component is not spherical.

    The conjugator nu is checked generator by generator: it must fix every
    generator outside the component and send each one inside to some simple
    reflection.  nu^-1 s_i nu == s_j holds exactly when s_i nu == nu s_j,
    and each side is one row or column operation on nu (``gen_mul``,
    ``mul_gen``), so the check forms neither nu^-1 nor a full product.
    The j is read off nu's columns (``_unit_column``), so each generator
    inside takes one such check, not one per j.
    Anything else is an internal error, not a soft failure.
    """
    I = frozenset(subset)
    if s in I:
        raise PreconditionError(f"generator {s} already belongs to the subset")
    if not (0 <= s < C.n):
        raise PreconditionError(f"generator index {s} out of range")
    K = ks_component_candidate(C, I, s)
    if not is_spherical(C, K):
        return None
    nu = mul(longest_element(C, K - {s}), longest_element(C, K))
    target = set(I - K)
    for i in sorted(I - K):
        if gen_mul(C, i, nu) != mul_gen(C, nu, i):
            raise InternalInconsistencyError(
                f"conjugator moved generator {i} outside the component")
    for i in sorted(I & K):
        j = _unit_column(nu, i)
        if j is None or gen_mul(C, i, nu) != mul_gen(C, nu, j):
            raise InternalInconsistencyError(
                f"conjugate of generator {i} is not a simple reflection")
        target.add(j)
    J = frozenset(target)
    if len(J) != len(I):
        raise InternalInconsistencyError(
            f"step changed subset size: {sorted(I)} -> {sorted(J)}")
    return J


def conjugacy_component(C: CoxeterMatrix, subset,
                        cap: int = ELEMENT_CAP) -> ConjugacyClass:
    """Breadth-first closure of a spherical subset under steps along every
    outside generator."""
    I = frozenset(subset)
    if not is_spherical(C, I):
        raise PreconditionError("component exploration needs a spherical subset")
    members = {I}
    queue = [I]
    while queue:
        X = queue.pop(0)
        for s in range(C.n):
            if s in X:
                continue
            Y = ks_step(C, X, s)
            if Y is not None and Y not in members:
                if len(members) + 1 > cap:
                    raise EnumerationCapExceeded(
                        f"conjugacy component exceeded cap {cap}")
                members.add(Y)
                queue.append(Y)
    return ConjugacyClass.from_members(members)


def a4_chains(C: CoxeterMatrix) -> set[frozenset[int]]:
    """Generator sets of the labelled 4-chains: label-3 paths a-b-c-d whose
    pairs (a,c), (a,d) and (b,d) have label 2.  With labels in {2, 3, oo}
    these are exactly the subsets of at most four generators whose standard
    subgroup has order 120 and is nonabelian: type A_4, since every other
    finite type on four simply laced generators has another order
    (Humphreys, *Reflection Groups and Coxeter Groups* 2.11).

    The label-3 neighbours of each generator are found with ``bytes.find``
    on its label row, and only the few paths of 3s are checked label by
    label."""
    three = []
    for row in C.m:
        found, j = [], row.find(3)
        while j >= 0:
            found.append(j)
            j = row.find(3, j + 1)
        three.append(found)
    return {frozenset((a, b, c, d))
            for a in range(C.n) for b in three[a] for c in three[b]
            for d in three[c]
            if C.m[a][c] == C.m[a][d] == C.m[b][d] == 2}


def _alone_by_labels(system: LabeledCoxeterSystem) -> list[bool]:
    """alone[v]: every generator outside the block of v has an infinite
    label to some generator of the block.  Then no step leaves the block
    (``classify_s5_classes``).  Each block ORs its four label rows as ints,
    translated so that byte s is 1 where the label is oo, or the diagonal's
    1 by which the block's own generators cover themselves."""
    rows = system.matrix.m
    table = bytes.maketrans(b"\0\1\2\3", b"\1\1\0\0")
    every = int.from_bytes(b"\1" * system.matrix.n, "little")
    alone = []
    for block in system.block_generators:
        into = 0
        for g in block:
            into |= int.from_bytes(rows[g].translate(table), "little")
        alone.append(into == every)
    return alone


def classify_s5_classes(system: LabeledCoxeterSystem) -> list[ConjugacyClass]:
    """Conjugacy classes of the order-120 nonabelian standard subgroups.

    Reads those subgroups off the labels as the labelled 4-chains
    (``a4_chains``) and groups them into conjugacy components.  For a block
    system these must come out as one singleton class per graph vertex, in
    vertex order; any other outcome is reported as evidence against the
    construction, loudly.

    A block T is alone in its class without a single step when every
    generator s outside it has an infinite label to some t in T: the
    component K of s in T + s then holds s and t, whose 2x2 minor is 0, so
    K is not spherical and the step along s is refused, as ``ks_step``
    would refuse it.  Every block of a build_C system passes this label
    test; ``conjugacy_component`` decides the blocks that fail it.
    """
    C = system.matrix
    hits = a4_chains(C)
    expected = [system.block(v) for v in range(system.vertex_count)]
    if hits != set(expected):
        raise FalsificationError(
            "census mismatch: order-120 nonabelian subsets are "
            f"{sorted(tuple(sorted(h)) for h in hits)}, expected one per block")
    classes = []
    for T, alone in zip(expected, _alone_by_labels(system)):
        comp = ConjugacyClass.from_members({T}) if alone \
            else conjugacy_component(C, T)
        if comp.members != {T}:
            raise FalsificationError(
                f"block {sorted(T)} is conjugate to {sorted(map(sorted, comp.members))}; "
                "blocks were expected to be pairwise non-conjugate")
        classes.append(comp)
    return classes
