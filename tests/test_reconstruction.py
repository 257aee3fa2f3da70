"""Rebuilding a graph from its block system.

Unit tests run the centralizer sweep at small radius to stay quick; the
acceptance suite pushes the radius to its contracted value.
"""

import itertools
import random

import numpy as np
import pytest

from epicox import coxeter, reconstruction
from epicox.construction import (LabeledCoxeterSystem, alt_involution,
                                 build_C)
from epicox.coxeter import ball_levels, evaluate, mul
from epicox.errors import PreconditionError
from epicox.graphs import FiniteGraph, all_labeled_graphs
from epicox.oracles import words_commute_by_matrices
from epicox.reconstruction import (_centralizer_core, _named, _two_block_labels,
                                   bounded_centralizer_check,
                                   commuting_witness, k_graph, k_pointed,
                                   verify_reconstruction)

from oracles import (assert_same_levels, ball_levels_by_set,
                     centralizer_sweep_by_membership)

EDGE = FiniteGraph.from_edges(2, [(0, 1)])
TWO_POINTS = FiniteGraph.from_edges(2, [])
PATH3 = FiniteGraph.from_edges(3, [(0, 1), (1, 2)])
# seeded G(16, 1/2): a rank-64 system, census and sweep at scale
_rng = random.Random(16)
G16 = FiniteGraph.from_edges(
    16, [p for p in itertools.combinations(range(16), 2) if _rng.random() < 0.5])

RADIUS = 3  # plenty for unit-scale systems


@pytest.fixture
def fresh_sweep_cache():
    _centralizer_core.cache_clear()
    yield
    _centralizer_core.cache_clear()


def test_witness_on_adjacent_pair():
    sys_ = build_C(EDGE)
    wit = commuting_witness(sys_, 0, 1)
    assert wit is not None
    wa, wb = wit
    a, b = evaluate(sys_.matrix, wa), evaluate(sys_.matrix, wb)
    assert mul(a, b) == mul(b, a)


def test_no_witness_on_nonadjacent_pair():
    assert commuting_witness(build_C(TWO_POINTS), 0, 1) is None


def test_witness_matches_full_rank_matrices_and_adjacency():
    """The witness, decided once per two-block shape at rank 8, against
    the block involutions evaluated at full rank, on every ordered pair of
    vertices of every graph with <= 4 vertices."""
    pairs = 0
    for g in all_labeled_graphs(4):
        system = build_C(g)
        for s, t in itertools.permutations(range(g.n), 2):
            wa, wb = alt_involution(system, s), alt_involution(system, t)
            commute = words_commute_by_matrices(system.matrix, wa, wb)
            assert commute == g.adjacent(s, t)
            want = (wa, wb) if commute else None
            assert commuting_witness(system, s, t) == want
            pairs += 1
    assert pairs == 820


def test_witness_reads_the_group_not_the_graph():
    """The witness follows the labels of the matrix, so a system whose
    stored graph disagrees with its matrix gets the matrix's answer."""
    edge, apart = build_C(EDGE).matrix, build_C(TWO_POINTS).matrix
    assert commuting_witness(LabeledCoxeterSystem(edge, TWO_POINTS), 0, 1) \
        == ((0, 2), (4, 6))
    assert commuting_witness(LabeledCoxeterSystem(apart, EDGE), 0, 1) is None


def test_witness_needs_distinct_vertices():
    with pytest.raises(PreconditionError):
        commuting_witness(build_C(EDGE), 1, 1)


def test_bounded_check_clean_on_nonadjacent():
    assert bounded_centralizer_check(build_C(TWO_POINTS), 0, 1, RADIUS)


def test_bounded_check_flags_adjacent_pair():
    # the other block's involution commutes and lies outside: a violation
    assert not bounded_centralizer_check(build_C(EDGE), 0, 1, RADIUS)


def test_bounded_check_reads_the_group_not_the_graph():
    """Like the witness, the sweep is keyed by the labels of the matrix."""
    edge, apart = build_C(EDGE).matrix, build_C(TWO_POINTS).matrix
    assert bounded_centralizer_check(
        LabeledCoxeterSystem(apart, EDGE), 0, 1, RADIUS)
    assert not bounded_centralizer_check(
        LabeledCoxeterSystem(edge, TWO_POINTS), 0, 1, RADIUS)


def test_bounded_check_shares_one_entry_per_shape(fresh_sweep_cache):
    # every pair of PATH3's ends and of TWO_POINTS is the same shape
    assert bounded_centralizer_check(build_C(PATH3), 0, 2, RADIUS)
    assert bounded_centralizer_check(build_C(TWO_POINTS), 0, 1, RADIUS)
    info = _centralizer_core.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_bounded_check_radius_zero_is_vacuous():
    assert bounded_centralizer_check(build_C(EDGE), 0, 1, 0)


def test_bounded_check_rejects_negative_radius():
    with pytest.raises(PreconditionError):
        bounded_centralizer_check(build_C(EDGE), 0, 1, -1)


@pytest.mark.parametrize("graph", [EDGE, TWO_POINTS, PATH3, G16])
def test_k_graph_is_reflexive_closure(graph):
    kg = k_graph(graph, RADIUS)
    assert kg.system == build_C(graph)
    assert kg.graph == graph.reflexive_closure()
    assert set(kg.witnesses) == set(graph.edges())


def test_k_graph_witness_support():
    kg = k_graph(PATH3, RADIUS)
    assert set(kg.witnesses) == {(0, 1), (1, 2)}


def test_k_pointed_appends_base():
    p = k_pointed(EDGE, RADIUS)
    assert p.base == 2
    assert p.graph.n == 3


def test_verify_reconstruction_identity():
    for g in all_labeled_graphs(2):
        iso = verify_reconstruction(g, RADIUS)
        assert tuple(iso.image) == tuple(range(g.n))


def test_verify_reconstruction_reuses_prebuilt():
    kg = k_graph(PATH3, RADIUS)
    iso = verify_reconstruction(PATH3, RADIUS, kg=kg)
    assert tuple(iso.image) == (0, 1, 2)


# --- descent-keyed ball and probe-first sweep against the oracles -----------


def _two_block_subsystems():
    """The distinct two-block subsystems over all graphs with 2 or 3
    vertices, with the blocks taken in both orders."""
    subs = {}
    for g in all_labeled_graphs(3, min_n=2):
        system = build_C(g)
        for s, t in itertools.permutations(range(g.n), 2):
            sub = _named(_two_block_labels(system, s, t))
            subs.setdefault(sub, g.adjacent(s, t))
    return sorted(subs.items(), key=lambda item: item[1])


SUBSYSTEMS = _two_block_subsystems()
NON_ADJACENT = _named(_two_block_labels(build_C(TWO_POINTS), 0, 1))


def test_subsystems_cover_both_kinds_of_pair():
    assert [adjacent for _, adjacent in SUBSYSTEMS] == [False, True]


@pytest.mark.parametrize("sub", [sub for sub, _ in SUBSYSTEMS],
                         ids=["non_adjacent", "adjacent"])
@pytest.mark.parametrize("radius", range(5))
def test_ball_and_sweep_match_oracles(sub, radius):
    assert_same_levels(ball_levels(sub, radius),
                       ball_levels_by_set(sub, radius))
    assert _centralizer_core(sub.m, radius) == \
        centralizer_sweep_by_membership(sub, radius)


def test_radius_six_matches_oracles_on_non_adjacent_pair():
    assert_same_levels(ball_levels(NON_ADJACENT, 6),
                       ball_levels_by_set(NON_ADJACENT, 6))
    assert _centralizer_core(NON_ADJACENT.m, 6) is True
    assert centralizer_sweep_by_membership(NON_ADJACENT, 6) is True


def _recording_commuting(monkeypatch):
    """Patch the sweep's probe to record the dtype of each level it gets,
    after checking that all four arguments share it."""
    seen = []
    commuting = reconstruction._commuting

    def recording(X, A, u, v):
        assert X.dtype == A.dtype == u.dtype == v.dtype
        seen.append(X.dtype)
        return commuting(X, A, u, v)

    monkeypatch.setattr(reconstruction, "_commuting", recording)
    return seen


def _patch_guards(monkeypatch, int16, int32, int64):
    monkeypatch.setattr(coxeter, "_INT16_SAFE", int16)
    monkeypatch.setattr(coxeter, "_INT32_SAFE", int32)
    monkeypatch.setattr(coxeter, "_INT64_SAFE", int64)


INT16, INT32, INT64, OBJECT = map(np.dtype, (np.int16, np.int32, np.int64,
                                             object))


def test_sweep_dtypes_at_radius_six(monkeypatch, fresh_sweep_cache):
    """Unpatched: the radius-6 ball stays int16 and the probe runs int32."""
    seen = _recording_commuting(monkeypatch)
    assert {lv.dtype for lv in ball_levels(NON_ADJACENT, 6)} == {INT16}
    assert _centralizer_core(NON_ADJACENT.m, 6) is True
    assert set(seen) == {INT32}


# 0 makes the ball switch to object arrays at once; 100 keeps the ball in
# int16 at radius 3 but is below the sweep's product bound
@pytest.mark.parametrize("safe", [0, 100])
def test_exact_object_path_agrees_with_oracle(monkeypatch, fresh_sweep_cache,
                                              safe):
    seen = _recording_commuting(monkeypatch)
    monkeypatch.setattr(coxeter, "_INT64_SAFE", safe)
    for sub, _ in SUBSYSTEMS:
        levels = ball_levels(sub, 3)
        assert {lv.dtype for lv in levels[1:]} == (
            {OBJECT if safe == 0 else INT16})
        assert_same_levels(levels, ball_levels_by_set(sub, 3))
        assert _centralizer_core(sub.m, 3) == \
            centralizer_sweep_by_membership(sub, 3)
    assert seen and set(seen) == {OBJECT}


def test_ball_climbs_every_rung_and_agrees_with_oracle(monkeypatch,
                                                       fresh_sweep_cache):
    """Guards 3, 6 and 15 against level maxima 1, 2, 5 and 14 (12 on the
    adjacent shape): each level of the radius-4 ball needs the next rung,
    and every probe bound is past the int64 guard."""
    seen = _recording_commuting(monkeypatch)
    _patch_guards(monkeypatch, 3, 6, 15)
    for sub, _ in SUBSYSTEMS:
        levels = ball_levels(sub, 4)
        assert [lv.dtype for lv in levels] == [INT16, INT16, INT32, INT64,
                                               OBJECT]
        assert_same_levels(levels, ball_levels_by_set(sub, 4))
        assert _centralizer_core(sub.m, 4) == \
            centralizer_sweep_by_membership(sub, 4)
    # the adjacent shape stops at its first violation, in level 1
    assert seen == [OBJECT] * 5


def test_probe_climbs_every_rung_and_agrees_with_oracle(monkeypatch,
                                                        fresh_sweep_cache):
    """The probe bound of a level is its largest entry times the sweep's
    growth factor: 27,040 on the non-adjacent shape and 22,560 on the
    adjacent one, against level maxima 2, 5 and 14 (12).  With these
    guards levels 1, 2 and 3 take int32, int64 and object, while the whole
    ball is int32."""
    seen = _recording_commuting(monkeypatch)
    _patch_guards(monkeypatch, 0, 2 * 27_040, 5 * 27_040)
    for sub, _ in SUBSYSTEMS:
        levels = ball_levels(sub, 3)
        assert {lv.dtype for lv in levels[1:]} == {INT32}
        assert _centralizer_core(sub.m, 3) == \
            centralizer_sweep_by_membership(sub, 3)
    # the adjacent shape stops at its first violation, in level 1
    assert seen == [INT32, INT64, OBJECT, INT32]
