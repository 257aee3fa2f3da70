"""Moves between standard subgroups, and the class census over a block
system."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicox import parabolics
from epicox.construction import (BLOCK_SIZE, LabeledCoxeterSystem, build_C,
                                 build_L4)
from epicox.coxeter import (INFINITE, CoxeterMatrix, is_spherical,
                            longest_element, mul, mul_gen)
from epicox.errors import (EnumerationCapExceeded, FalsificationError,
                           InternalInconsistencyError, PreconditionError)
from epicox.graphs import FiniteGraph, all_labeled_graphs
from epicox.parabolics import (ConjugacyClass, _alone_by_labels, a4_chains,
                               classify_s5_classes, conjugacy_component,
                               ks_component_candidate, ks_step)

from oracles import ks_step_by_products, s5_subsets_by_enumeration

L4 = build_L4()
EDGE = FiniteGraph.from_edges(2, [(0, 1)])
TWO_POINTS = FiniteGraph.from_edges(2, [])


def test_component_candidate_braided_neighbor():
    # s_2 braids with s_1, so they land in one opposed component
    assert ks_component_candidate(L4, frozenset({0}), 1) == frozenset({0, 1})


def test_component_candidate_commuting_neighbor():
    # s_3 commutes with s_1 and stays alone
    assert ks_component_candidate(L4, frozenset({0}), 2) == frozenset({2})


def test_step_conjugates_the_chain():
    # ks_step raises unless its conjugator sends s_1 to a simple reflection
    assert ks_step(L4, frozenset({0}), 1) == frozenset({1})


def test_step_with_commuting_generator_is_a_loop():
    assert ks_step(L4, frozenset({0}), 2) == frozenset({0})


def test_step_requires_outside_generator():
    with pytest.raises(PreconditionError):
        ks_step(L4, frozenset({0, 1}), 1)


def test_step_blocked_by_nonspherical_component():
    sys_ = build_C(TWO_POINTS)
    C = sys_.matrix
    # from one whole block, any outside generator drags in an unbounded label
    for s in sorted(sys_.block(1)):
        assert ks_step(C, sys_.block(0), s) is None


def test_component_reaches_all_singletons():
    comp = conjugacy_component(L4, frozenset({0}), 10000)
    assert comp.members == {frozenset({i}) for i in range(4)}


def test_component_requires_spherical():
    sys_ = build_C(TWO_POINTS)
    bad = frozenset({0, 4})  # cross pair with an unbounded label
    assert not is_spherical(sys_.matrix, bad)
    with pytest.raises(PreconditionError):
        conjugacy_component(sys_.matrix, bad, 1000)


def test_special_conjugacy_of_singletons():
    members = conjugacy_component(L4, {0}, 10000).members
    assert frozenset({3}) in members
    assert frozenset({0, 2}) not in members


def test_pairs_split_by_label():
    # braided pair vs commuting pair generate groups of different orders,
    # so they cannot be special conjugate
    braided = conjugacy_component(L4, {0, 1}, 10000).members
    commuting = conjugacy_component(L4, {0, 2}, 10000).members
    assert frozenset({0, 2}) not in braided
    assert braided == {frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})}
    assert commuting == {frozenset({0, 2}), frozenset({0, 3}),
                         frozenset({1, 3})}


def test_class_representative_is_canonical():
    cls = ConjugacyClass.from_members({frozenset({2}), frozenset({0})})
    assert cls.representative == frozenset({0})


@pytest.mark.parametrize("graph", [EDGE, TWO_POINTS])
def test_classify_finds_one_class_per_vertex(graph):
    sys_ = build_C(graph)
    classes = classify_s5_classes(sys_)
    assert len(classes) == 2
    for v, cls in enumerate(classes):
        assert cls.members == {sys_.block(v)}


def test_classify_spots_a_broken_census():
    # a rank-8 system where everything commutes has no order-120 subgroup,
    # so the census over the two supposed blocks must fail
    flat = CoxeterMatrix.from_labels(
        8, [(i, j, 2) for i in range(8) for j in range(i + 1, 8)])
    fake = LabeledCoxeterSystem(flat, TWO_POINTS)
    with pytest.raises(FalsificationError):
        classify_s5_classes(fake)


def test_component_respects_cap():
    # the four singletons of the 4-chain form one class
    with pytest.raises(EnumerationCapExceeded):
        conjugacy_component(L4, {0}, 3)


# --- the census read off the labels, against the subset scan -----------------


def test_census_matches_enumeration_on_small_graphs():
    for graph in all_labeled_graphs(4):
        system = build_C(graph)
        C = system.matrix
        assert a4_chains(C) == s5_subsets_by_enumeration(C), graph.edges()


def _labelled(n, threes, twos):
    """Rank-n matrix with the given label-3 and label-2 pairs; every other
    pair is unbounded."""
    return CoxeterMatrix.from_labels(
        n, [(i, j, 3) for i, j in threes] + [(i, j, 2) for i, j in twos])


A5 = _labelled(5, [(0, 1), (1, 2), (2, 3), (3, 4)],
               [(i, j) for i in range(5) for j in range(i + 2, 5)])
D4_STAR = _labelled(4, [(0, 1), (0, 2), (0, 3)], [(1, 2), (1, 3), (2, 3)])
CYCLE_OF_3S = _labelled(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 2), (1, 3)])
# a triangle of 3s with a tail: 0-1-2-3 is a path of 3s, but (0,2) is a 3
TRIANGLE_OF_3S = _labelled(4, [(0, 1), (1, 2), (0, 2), (2, 3)],
                           [(0, 3), (1, 3)])


@pytest.mark.parametrize("C,expected", [
    (L4, {frozenset(range(4))}),
    (A5, {frozenset(range(4)), frozenset(range(1, 5))}),
    (D4_STAR, set()),
    (CYCLE_OF_3S, set()),
    (TRIANGLE_OF_3S, set()),
], ids=["A4 chain", "A5 chain", "D4 star", "4-cycle of 3s", "triangle of 3s"])
def test_census_on_named_diagrams(C, expected):
    assert a4_chains(C) == expected
    assert s5_subsets_by_enumeration(C) == expected


@st.composite
def label_matrices(draw):
    n = draw(st.integers(0, 6))
    pairs = list(itertools.combinations(range(n), 2))
    labels = draw(st.lists(st.sampled_from([2, 3, INFINITE]),
                           min_size=len(pairs), max_size=len(pairs)))
    return CoxeterMatrix.from_labels(
        n, [(i, j, m) for (i, j), m in zip(pairs, labels)])


@settings(max_examples=300, deadline=None)
@given(label_matrices())
def test_census_matches_enumeration_on_random_labels(C):
    assert a4_chains(C) == s5_subsets_by_enumeration(C)


# --- the census step test read off the labels, against conjugacy_component ---


def _alone_by_definition(C, T):
    return all(any(C.m[s][t] == INFINITE for t in T)
               for s in range(C.n) if s not in T)


def test_label_test_matches_components_on_small_graphs():
    """Every block of every graph with <= 4 vertices passes the label test,
    and conjugacy_component agrees that it is alone in its class."""
    blocks = 0
    for graph in all_labeled_graphs(4):
        system = build_C(graph)
        C = system.matrix
        assert _alone_by_labels(system) == [True] * graph.n
        classes = classify_s5_classes(system)
        for v, cls in enumerate(classes):
            T = system.block(v)
            assert _alone_by_definition(C, T)
            assert conjugacy_component(C, T) == cls
            assert cls.members == {T}
            blocks += 1
    assert blocks == 285


@st.composite
def chained_blocks(draw):
    """A system of 1 to 3 blocks, each a 4-chain in position order, with the
    labels between blocks drawn from {2, 3, oo}, oo first with chance 3/4."""
    k = draw(st.integers(1, 3))
    labels = []
    for u, v in itertools.combinations(range(BLOCK_SIZE * k), 2):
        if u // BLOCK_SIZE == v // BLOCK_SIZE:
            lab = 3 if v == u + 1 else 2
        elif draw(st.integers(0, 3)):
            lab = INFINITE
        else:
            lab = draw(st.sampled_from([2, 3, INFINITE]))
        labels.append((u, v, lab))
    C = CoxeterMatrix.from_labels(BLOCK_SIZE * k, labels)
    return LabeledCoxeterSystem(C, FiniteGraph.from_edges(k, []))


def _classes_by_components(system):
    """The census with every block's class from conjugacy_component."""
    classes = []
    for v in range(system.vertex_count):
        T = system.block(v)
        comp = conjugacy_component(system.matrix, T)
        if comp.members != {T}:
            raise FalsificationError("blocks conjugate")
        classes.append(comp)
    return classes


@settings(max_examples=150, deadline=None)
@given(chained_blocks())
def test_label_test_matches_components_on_random_labels(system):
    """The label test is its definition, a block passing it is alone in its
    class, and the census answers as if every class came from
    conjugacy_component."""
    C = system.matrix
    alone = _alone_by_labels(system)
    for v, ok in enumerate(alone):
        T = system.block(v)
        assert ok == _alone_by_definition(C, T)
        if ok:
            assert conjugacy_component(C, T).members == {T}
    if a4_chains(C) != {system.block(v) for v in range(system.vertex_count)}:
        return
    try:
        want = _classes_by_components(system)
    except FalsificationError:
        with pytest.raises(FalsificationError):
            classify_s5_classes(system)
    else:
        assert classify_s5_classes(system) == want


def test_label_test_falls_back_to_the_component(monkeypatch):
    """Generator 4 (the second block's position 1) gets label 2 to the whole
    first block, so the label test fails there, and conjugacy_component
    decides that block alone: the step along 4 is a loop."""
    base = build_C(TWO_POINTS).matrix
    m = [list(row) for row in base.m]
    for t in range(BLOCK_SIZE):
        m[4][t] = m[t][4] = 2
    C = CoxeterMatrix(8, tuple(map(tuple, m)), base.names)
    system = LabeledCoxeterSystem(C, TWO_POINTS)
    assert _alone_by_labels(system) == [False, True]
    assert ks_step(C, system.block(0), 4) == system.block(0)
    asked = []
    real = parabolics.conjugacy_component

    def recording(C, subset, *args):
        asked.append(frozenset(subset))
        return real(C, subset, *args)

    monkeypatch.setattr(parabolics, "conjugacy_component", recording)
    classes = classify_s5_classes(system)
    assert asked == [system.block(0)]
    assert [cls.members for cls in classes] == \
        [{system.block(0)}, {system.block(1)}]


# --- ks_step's row-against-column check, against the product check -----------


def _all_steps(C):
    for size in range(C.n + 1):
        for I in itertools.combinations(range(C.n), size):
            for s in range(C.n):
                if s not in I:
                    yield frozenset(I), s


@pytest.mark.parametrize("C", [L4, build_C(TWO_POINTS).matrix,
                               build_C(EDGE).matrix],
                         ids=["L4", "non_adjacent", "adjacent"])
def test_step_matches_product_check_everywhere(C):
    """Every subset and outside generator of the 4-chain and of both
    two-block shapes."""
    taken = 0
    for I, s in _all_steps(C):
        got = ks_step(C, I, s)
        assert got == ks_step_by_products(C, I, s), (sorted(I), s)
        taken += got is not None
    assert taken


@st.composite
def steps(draw):
    C = draw(label_matrices().filter(lambda C: C.n >= 1))
    s = draw(st.integers(0, C.n - 1))
    others = [g for g in range(C.n) if g != s]
    I = draw(st.sets(st.sampled_from(others)) if others else st.just(set()))
    return C, frozenset(I), s


@settings(max_examples=300, deadline=None)
@given(steps())
def test_step_matches_product_check_on_random_labels(step):
    C, I, s = step
    assert ks_step(C, I, s) == ks_step_by_products(C, I, s)


@pytest.mark.parametrize("I,s,extra,moved", [
    ({0}, 1, 2, "conjugate of generator 0 is not a simple reflection"),
    ({0, 3}, 1, 2, "conjugator moved generator 3 outside the component"),
])
def test_corrupted_conjugator_is_an_internal_fault(monkeypatch, I, s, extra,
                                                   moved):
    """Negative control: nu with one extra generator on the right no longer
    conjugates as a step must, and ks_step raises in either loop."""
    assert ks_step(L4, I, s) is not None
    monkeypatch.setattr(parabolics, "mul",
                        lambda a, b: mul_gen(L4, mul(a, b), extra))
    with pytest.raises(InternalInconsistencyError, match=moved):
        ks_step(L4, I, s)


def test_conjugator_off_the_group_is_an_internal_fault(monkeypatch):
    """Negative control: nu with e_0 added to its third column is no group
    element, yet its second column is still e_0, so the columns alone
    would send generator 0 to generator 1; the product check refuses it."""
    def corrupted(a, b):
        rows = [list(row) for row in mul(a, b)]
        rows[0][2] += 1
        return tuple(map(tuple, rows))

    assert ks_step(L4, {0}, 1) == {1}
    monkeypatch.setattr(parabolics, "mul", corrupted)
    nu = corrupted(longest_element(L4, {0}), longest_element(L4, {0, 1}))
    assert parabolics._unit_column(nu, 0) == 1
    with pytest.raises(InternalInconsistencyError,
                       match="conjugate of generator 0 is not a simple "
                             "reflection"):
        ks_step(L4, {0}, 1)
