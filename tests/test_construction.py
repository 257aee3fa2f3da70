import itertools

import pytest

from epicox.construction import (LabeledCoxeterSystem, alt_involution,
                                 build_C, build_L4, verify_L4_is_S5)
from epicox.coxeter import (INFINITE, enumerate_parabolic, evaluate, identity,
                            length, mul)
from epicox.errors import PreconditionError
from epicox.graphs import FiniteGraph

EDGE = FiniteGraph.from_edges(2, [(0, 1)])
TWO_POINTS = FiniteGraph.from_edges(2, [])
PATH3 = FiniteGraph.from_edges(3, [(0, 1), (1, 2)])


def test_l4_labels():
    C = build_L4()
    assert C.n == 4
    chain = {(0, 1), (1, 2), (2, 3)}
    for i, j in itertools.combinations(range(4), 2):
        assert C.label(i, j) == (3 if (i, j) in chain else 2)


def test_l4_names():
    assert build_L4().names == ("s_1", "s_2", "s_3", "s_4")


def test_verify_l4_report():
    rep = verify_L4_is_S5()
    assert rep.order == 120
    assert rep.nonabelian
    assert rep.even_order == 60
    assert rep.even_is_subgroup
    assert rep.even_is_simple


class TestBuildC:
    def test_rank_is_four_per_vertex(self):
        assert build_C(EDGE).matrix.n == 8
        assert build_C(PATH3).matrix.n == 12

    def test_names(self):
        C = build_C(EDGE).matrix
        assert C.names[0] == "v0_1"
        assert C.names[7] == "v1_4"

    def test_blocks_carry_the_chain(self):
        C = build_C(TWO_POINTS).matrix
        for base in (0, 4):
            for i, j in itertools.combinations(range(4), 2):
                expected = 3 if j == i + 1 else 2
                assert C.label(base + i, base + j) == expected

    def test_cross_labels_adjacent(self):
        C = build_C(EDGE).matrix
        finite_pairs = {(i, j) for i in range(4) for j in range(4, 8)
                        if C.label(i, j) != INFINITE}
        # half-turn corners plus the tail pair
        assert finite_pairs == {(0, 4), (0, 6), (2, 4), (2, 6), (3, 7)}
        assert all(C.label(i, j) == 2 for i, j in finite_pairs)

    def test_cross_labels_nonadjacent(self):
        C = build_C(TWO_POINTS).matrix
        finite_pairs = {(i, j) for i in range(4) for j in range(4, 8)
                        if C.label(i, j) != INFINITE}
        assert finite_pairs == {(3, 7)}

    def test_loops_are_ignored(self):
        assert build_C(PATH3.reflexive_closure()).matrix == build_C(PATH3).matrix

    def test_system_rejects_reflexive_graph(self):
        with pytest.raises(PreconditionError):
            LabeledCoxeterSystem(build_C(PATH3).matrix,
                                 PATH3.reflexive_closure())

    def test_generator_block_indexing(self):
        sys_ = build_C(PATH3)
        assert sys_.vertex_count == 3
        assert sys_.generator(1, 1) == 4
        assert sys_.generator(2, 4) == 11
        assert sys_.block(1) == frozenset({4, 5, 6, 7})
        assert sys_.block_of(9) == (2, 2)

    def test_generator_position_bounds(self):
        sys_ = build_C(PATH3)
        with pytest.raises(PreconditionError):
            sys_.generator(0, 0)
        with pytest.raises(PreconditionError):
            sys_.generator(3, 1)


def test_rank_mismatch_rejected():
    C = build_L4()
    with pytest.raises(PreconditionError):
        LabeledCoxeterSystem(C, EDGE)


def test_alt_involution_is_an_even_involution():
    sys_ = build_C(EDGE)
    word = alt_involution(sys_, 0)
    w = evaluate(sys_.matrix, word)
    assert w != identity(sys_.matrix)
    assert mul(w, w) == identity(sys_.matrix)
    assert length(sys_.matrix, w) == 2


def test_block_subgroups_have_order_120():
    sys_ = build_C(EDGE)
    for v in range(2):
        els = enumerate_parabolic(sys_.matrix, sys_.block(v), 10000)
        assert len(els) == 120
