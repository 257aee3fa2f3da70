"""Moves between standard subgroups, and the class census over a block
system."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicox.construction import LabeledCoxeterSystem, build_C, build_L4
from epicox.coxeter import INFINITE, CoxeterMatrix, is_spherical
from epicox.errors import (EnumerationCapExceeded, FalsificationError,
                           PreconditionError)
from epicox.graphs import FiniteGraph, all_labeled_graphs
from epicox.parabolics import (ConjugacyClass, a4_chains, classify_s5_classes,
                               conjugacy_component, ks_component_candidate,
                               ks_step)

from oracles import s5_subsets_by_enumeration

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
        C = build_C(graph).matrix
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
