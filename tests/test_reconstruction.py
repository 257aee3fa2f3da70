"""Rebuilding a graph from its block system, and the centralizer sweep
the normaliser certificate is tested against.

Unit tests run the sweep at small radius to stay quick; the acceptance
suite pushes the radius to its contracted value.
"""

import itertools
import random
import sys

import numpy as np
import pytest

from epicox import coxeter, oracles, parabolics, reconstruction
from epicox.cli import main
from epicox.construction import (BLOCK_SIZE, LabeledCoxeterSystem,
                                 alt_involution, build_C)
from epicox.coxeter import (INFINITE, CoxeterMatrix, evaluate, is_spherical,
                            mul, parabolic_levels, simple_reflection)
from epicox.errors import InternalInconsistencyError, PreconditionError
from epicox.graphs import FiniteGraph, all_labeled_graphs
from epicox.oracles import (_centralizer_core, _conjugation_distances,
                            _even_involutions, ball_levels,
                            bounded_centralizer_check,
                            words_commute_by_matrices)
from epicox.parabolics import conjugacy_component
from epicox.reconstruction import (_central_longest, _centralizer_certificate,
                                   _named, _one_even_class, _two_block_labels,
                                   centralizer_certificate, commuting_witness,
                                   k_graph, verify_reconstruction)

from oracles import (assert_same_levels, ball_levels_by_set,
                     centralizer_certificate_at_rank_8,
                     centralizer_sweep_by_membership,
                     one_even_class_by_enumeration)

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
    _centralizer_certificate.cache_clear()
    _centralizer_core.cache_clear()
    yield
    _centralizer_certificate.cache_clear()
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
    kg = k_graph(graph)
    assert kg.system == build_C(graph)
    assert kg.graph == graph.reflexive_closure()
    assert set(kg.witnesses) == set(graph.edges())


def test_k_graph_witness_support():
    kg = k_graph(PATH3)
    assert set(kg.witnesses) == {(0, 1), (1, 2)}


def test_verify_reconstruction_identity():
    for g in all_labeled_graphs(2):
        iso = verify_reconstruction(g)
        assert tuple(iso.image) == tuple(range(g.n))


def test_verify_reconstruction_reuses_prebuilt():
    kg = k_graph(PATH3)
    iso = verify_reconstruction(PATH3, kg=kg)
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
ADJACENT = _named(_two_block_labels(build_C(EDGE), 0, 1))
FIRST_BLOCK = frozenset(range(BLOCK_SIZE))


def test_subsystems_cover_both_kinds_of_pair():
    assert [adjacent for _, adjacent in SUBSYSTEMS] == [False, True]


@pytest.mark.parametrize("sub", [sub for sub, _ in SUBSYSTEMS],
                         ids=["non_adjacent", "adjacent"])
@pytest.mark.parametrize("radius", range(6))
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


def test_radius_six_matches_oracles_on_adjacent_pair():
    assert _centralizer_core(ADJACENT.m, 6) is False
    assert centralizer_sweep_by_membership(ADJACENT, 6) is False


def _random_label_block(rng, cross_inf=0.0):
    """A rank-8 label block whose first four generators are the 4-chain,
    every other label drawn from {2, 3, oo}; a label between the two blocks
    is first set to oo with probability cross_inf."""
    m = [[1] * 8 for _ in range(8)]
    for i, j in itertools.combinations(range(8), 2):
        if j < BLOCK_SIZE:
            lab = 3 if j == i + 1 else 2
        elif i < BLOCK_SIZE and cross_inf and rng.random() < cross_inf:
            lab = INFINITE
        else:
            lab = rng.choice((2, 3, INFINITE))
        m[i][j] = m[j][i] = lab
    return tuple(map(tuple, m))


RANDOM_BLOCKS = [_random_label_block(random.Random(seed)) for seed in range(32)]


def test_sweep_matches_oracle_on_random_label_blocks(fresh_sweep_cache):
    verdicts = []
    for labels in RANDOM_BLOCKS:
        sub = _named(labels)
        radius = 1 + len(verdicts) % 3
        verdict = _centralizer_core(labels, radius)
        assert verdict == centralizer_sweep_by_membership(sub, radius)
        verdicts.append(verdict)
    assert set(verdicts) == {True, False}


# --- the normaliser certificate against the sweep ----------------------------


def test_certificate_holds_on_non_adjacent_shape():
    assert _centralizer_certificate(NON_ADJACENT.m) is True


def test_certificate_fails_on_adjacent_shape():
    # negative control: {s1, s3} steps out of the first block along the
    # second block's positions 1 and 3, the witness generators
    assert _centralizer_certificate(ADJACENT.m) is False


def test_k_graph_never_builds_a_ball(monkeypatch, fresh_sweep_cache):
    """Every graph with <= 4 vertices is rebuilt cold with the oracle's ball
    and sweep unreachable: the certificate decides every witnessless pair,
    from one cache entry."""
    def unreachable(*args, **kwargs):
        raise AssertionError("k_graph reached the sweep")

    monkeypatch.setattr(oracles, "ball_levels", unreachable)
    monkeypatch.setattr(oracles, "_centralizer_core", unreachable)
    for g in all_labeled_graphs(4):
        assert k_graph(g).graph == g.reflexive_closure()
    assert _centralizer_certificate.cache_info().misses == 1


def test_inconclusive_certificate_is_an_internal_fault(monkeypatch, tmp_path,
                                                       capsys):
    """Negative control: with the certificate made inconclusive, k_graph
    raises instead of sweeping, and k-graph exits 1."""
    monkeypatch.setattr(reconstruction, "_centralizer_certificate",
                        lambda labels: False)
    with pytest.raises(InternalInconsistencyError, match="vertices 0,1"):
        k_graph(TWO_POINTS)
    # a witness needs no certificate
    assert k_graph(EDGE).graph == EDGE.reflexive_closure()
    f = tmp_path / "two.txt"
    f.write_text("n 2 irreflexive\n")
    assert main(["k-graph", str(f)]) == 1
    assert "internal inconsistency" in capsys.readouterr().err


def test_certificate_needs_distinct_vertices():
    with pytest.raises(PreconditionError):
        centralizer_certificate(build_C(TWO_POINTS), 1, 1)


def test_certificate_never_contradicts_the_sweep(fresh_sweep_cache):
    """Wherever the certificate holds, the sweep and the membership oracle
    are clean (the oracle at one radius per block, cycling 1 to 4).  The
    blocks' cross labels lean to oo, which often leaves {s1, s3} no step out
    of the first block; RANDOM_BLOCKS never make the certificate hold."""
    held = 0
    for seed in range(64):
        labels = _random_label_block(random.Random(seed), cross_inf=0.8)
        if not _centralizer_certificate(labels):
            continue
        assert all(_centralizer_core(labels, r) for r in range(1, 5)), seed
        assert centralizer_sweep_by_membership(_named(labels),
                                               1 + held % 4), seed
        held += 1
    # neither vacuous nor trivial
    assert 0 < held < 64


# both shapes, then the 64 oo-biased blocks of the test above
ORACLE_BLOCKS = [NON_ADJACENT.m, ADJACENT.m] + [
    _random_label_block(random.Random(seed), cross_inf=0.8)
    for seed in range(64)]


def test_block_rank_certificate_matches_rank_8(fresh_sweep_cache):
    """The certificate, its in-block work done in W_J's own rank-4 system,
    gives the verdict the rank-8 one gives, on both shapes and the 64
    oo-biased blocks."""
    held = [_centralizer_certificate(labels) for labels in ORACLE_BLOCKS]
    assert held == [centralizer_certificate_at_rank_8(labels)
                    for labels in ORACLE_BLOCKS]
    assert held[:2] == [True, False] and 0 < sum(held[2:]) < 64


def _class_test_over_subsets(C, I=(0, 2)) -> bool:
    """The certificate's class test in W_J, J all of C's generators."""
    return _central_longest(C, I) and _one_even_class(
        C, range(C.n), conjugacy_component(C, I).members)


def _spherical_rank_4_blocks():
    pairs = list(itertools.combinations(range(BLOCK_SIZE), 2))
    for labels in itertools.product((2, 3, INFINITE), repeat=len(pairs)):
        C = CoxeterMatrix.from_labels(
            BLOCK_SIZE, [(i, j, m) for (i, j), m in zip(pairs, labels)])
        if is_spherical(C, range(BLOCK_SIZE)):
            yield C


def test_class_test_over_subsets_matches_enumeration():
    """On every spherical rank-4 label matrix over {2, 3, oo}, Richardson's
    test over subsets gives the verdict of S @ S and the conjugation
    distances over all of W_J."""
    verdicts = [_class_test_over_subsets(C) for C in _spherical_rank_4_blocks()]
    assert verdicts == [one_even_class_by_enumeration(C, FIRST_BLOCK)
                        for C in _spherical_rank_4_blocks()]
    assert (len(verdicts), sum(verdicts)) == (38, 8)


def test_class_test_over_subsets_matches_enumeration_on_oracle_blocks():
    """The first block of both shapes and of the 64 oo-biased blocks, read
    at rank 4 and at rank 8."""
    for labels in ORACLE_BLOCKS:
        wj = _named(tuple(row[:BLOCK_SIZE] for row in labels[:BLOCK_SIZE]))
        want = one_even_class_by_enumeration(_named(labels), FIRST_BLOCK)
        assert _class_test_over_subsets(wj) is want is True


def test_class_test_over_subsets_refuses_braided_pair():
    """Negative control: with label 3 between positions 1 and 3, s1 s3 has
    order 3, w_I is not central in W_I, and the test fails, as the
    enumeration does; so does the certificate on a rank-8 block with that
    first block."""
    # the path 1-0-2-3 of 3s: type A_4, with 3 between positions 1 and 3
    C = CoxeterMatrix.from_labels(BLOCK_SIZE, [(0, 1, 3), (0, 2, 3),
                                               (2, 3, 3), (0, 3, 2),
                                               (1, 2, 2), (1, 3, 2)])
    assert is_spherical(C, FIRST_BLOCK)
    assert not _class_test_over_subsets(C)
    assert not one_even_class_by_enumeration(C, FIRST_BLOCK)
    braided = tuple(C.m[i] + row[BLOCK_SIZE:] if i < BLOCK_SIZE else row
                    for i, row in enumerate(NON_ADJACENT.m))
    assert not _centralizer_certificate(braided)


@pytest.mark.parametrize("labels", ORACLE_BLOCKS[:4],
                         ids=["non_adjacent", "adjacent", "seed0", "seed1"])
def test_even_involutions_at_block_rank_are_the_rank_8_corner(labels):
    """W_J fixes the span of its own simple roots, so each rank-8 matrix is
    its rank-4 matrix in the top-left corner, zeros below it, and the
    class distances agree."""
    wj = _named(tuple(row[:BLOCK_SIZE] for row in labels[:BLOCK_SIZE]))
    A4 = _even_involutions(wj, FIRST_BLOCK)
    A8 = _even_involutions(_named(labels), FIRST_BLOCK)
    assert len(A4) == len(A8) == 15
    assert (A8[:, :BLOCK_SIZE, :BLOCK_SIZE] == A4).all()
    assert (A8[:, BLOCK_SIZE:, :BLOCK_SIZE] == 0).all()
    assert (_conjugation_distances(wj, FIRST_BLOCK, A4, 20)
            == _conjugation_distances(_named(labels), FIRST_BLOCK, A8,
                                      20)).all()


def _counting(monkeypatch, module, name):
    """Record the calls to a library function, under every epicox module
    that binds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "epicox" or mod_name.startswith("epicox."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_cold_k_graph_pays_only_for_what_it_reads(monkeypatch,
                                                   fresh_sweep_cache):
    """A cold k_graph over every graph with <= 4 vertices: one
    conjugacy_component in all (the certificate's), no invert, and the
    full-rank system never builds its per-generator operations."""
    reconstruction._shape_commutes.cache_clear()
    components = _counting(monkeypatch, parabolics, "conjugacy_component")
    inverses = _counting(monkeypatch, coxeter, "invert")
    for g in all_labeled_graphs(4):
        kg = k_graph(g)
        assert "_gen_coeffs" not in kg.system.matrix.__dict__, g.edges()
    assert len(components) == 1
    assert inverses == []


def test_k_graph_reads_one_label_block_per_shape():
    """G(16, 1/2) has 120 pairs and two label blocks: k_graph decides each
    block once, two misses of the witness cache and one of the
    certificate's, and its edges and witnesses are commuting_witness's,
    pair by pair."""
    reconstruction._shape_commutes.cache_clear()
    reconstruction._centralizer_certificate.cache_clear()
    kg = k_graph(G16)
    assert reconstruction._shape_commutes.cache_info().misses == 2
    assert reconstruction._centralizer_certificate.cache_info().misses == 1
    assert kg.graph == G16.reflexive_closure()
    for s, t in itertools.combinations(range(16), 2):
        assert kg.witnesses.get((s, t)) == \
            commuting_witness(kg.system, s, t)


def test_two_block_labels_are_the_submatrix():
    """The eight 8-byte rows cut from the label rows are the submatrix on
    the two blocks, for every ordered pair of every graph on <= 4
    vertices."""
    pairs = 0
    for g in all_labeled_graphs(4):
        system = build_C(g)
        for s, t in itertools.permutations(range(g.n), 2):
            labels = _two_block_labels(system, s, t)
            assert labels == system.matrix.submatrix(
                system.block_generators[s] + system.block_generators[t]).m
            assert all(type(row) is bytes for row in labels)
            pairs += 1
    assert pairs == 820


def test_conjugation_distances_are_shortest_conjugators():
    """D[a, b] against its definition: the length of a shortest u in the
    block subgroup with a u == u b, over all 120 elements by length."""
    A = _even_involutions(NON_ADJACENT, FIRST_BLOCK)
    assert len(A) == 15
    want = np.full((15, 15), -1)
    for k, level in enumerate(parabolic_levels(NON_ADJACENT, FIRST_BLOCK)):
        for w in level:
            u = np.array(w, dtype=np.int64)
            hit = (np.matmul(A, u)[:, None] == np.matmul(u, A)).all(
                axis=(2, 3)) & (want < 0)
            want[hit] = k
    assert (want >= 0).all() and want.max() == 6
    assert (_conjugation_distances(NON_ADJACENT, FIRST_BLOCK, A, 20)
            == want).all()
    near = _conjugation_distances(NON_ADJACENT, FIRST_BLOCK, A, 3)
    assert (np.minimum(near, 3) == np.minimum(want, 3)).all()


def test_commuting_reads_each_pair_in_order():
    """The pair (a, b) asks for x a == b x.  With x = s0 s1, of order 3,
    x a x^-1 and x^-1 a x differ for some even involution a, so only one
    order of the pair matches."""
    A = _even_involutions(NON_ADJACENT, FIRST_BLOCK)
    x = np.array(evaluate(NON_ADJACENT, (0, 1)), dtype=np.int64)
    xi = np.array(evaluate(NON_ADJACENT, (1, 0)), dtype=np.int64)
    v = np.array(oracles._PROBE, dtype=np.int64)

    def index(m):
        return int(np.flatnonzero((A == m).all(axis=(1, 2)))[0])

    orders = 0
    for a in range(len(A)):
        b = index(np.matmul(np.matmul(x, A[a]), xi))
        if b == index(np.matmul(np.matmul(xi, A[a]), x)):
            continue
        orders += 1
        pair = np.array([a]), np.array([b])
        assert oracles._commuting(x[None], A, v, *pair)
        assert not oracles._commuting(x[None], A, v, *pair[::-1])
    assert orders


# --- minimal coset representatives of the first block ------------------------


def _without_left_descent(sub, J, levels):
    """Each level's elements x with no left descent in J, read off the
    level below: t is a left descent of x exactly when sigma_t x is there."""
    gens = [np.array(simple_reflection(sub, t), dtype=np.int64)
            for t in sorted(J)]
    out = [levels[0]]
    for below, level in zip(levels, levels[1:]):
        shorter = {w.tobytes() for w in below.astype(np.int64)}
        keep = [i for i, x in enumerate(level.astype(np.int64))
                if all(np.matmul(g, x).tobytes() not in shorter for g in gens)]
        out.append(level[keep])
    return [lv for lv in out if len(lv)]


def _check_representatives(sub, radius):
    full = ball_levels(sub, radius)
    reps = ball_levels(sub, radius, reps_of=FIRST_BLOCK)
    assert_same_levels(reps, _without_left_descent(sub, FIRST_BLOCK, full))
    # W = W_J . JW with lengths adding: the ball's level sizes are the
    # convolution of the block subgroup's with the representatives'
    block = [len(lv) for lv in parabolic_levels(sub, FIRST_BLOCK)]
    sizes = [len(lv) for lv in reps] + [0] * (radius + 1 - len(reps))
    assert [len(lv) for lv in full] == [
        sum(block[j] * sizes[k - j] for j in range(min(k, len(block) - 1) + 1))
        for k in range(len(full))]


@pytest.mark.parametrize("sub", [sub for sub, _ in SUBSYSTEMS],
                         ids=["non_adjacent", "adjacent"])
def test_representatives_are_the_ball_without_left_descents(sub):
    _check_representatives(sub, 5)


def test_representatives_on_random_label_blocks():
    for labels in RANDOM_BLOCKS:
        _check_representatives(_named(labels), 3)


def _recording_commuting(monkeypatch):
    """Patch the sweep's probe to record the dtype of each chunk it gets,
    after checking that the chunk, the involutions and the probe vector
    share it."""
    seen = []
    commuting = oracles._commuting

    def recording(X, A, v, ka, kb):
        assert X.dtype == A.dtype == v.dtype
        seen.append(X.dtype)
        return commuting(X, A, v, ka, kb)

    monkeypatch.setattr(oracles, "_commuting", recording)
    return seen


def _patch_guards(monkeypatch, int16, int32, int64):
    monkeypatch.setattr(oracles, "_INT16_SAFE", int16)
    monkeypatch.setattr(oracles, "_INT32_SAFE", int32)
    monkeypatch.setattr(oracles, "_INT64_SAFE", int64)


INT16, INT32, INT64, OBJECT = map(np.dtype, (np.int16, np.int32, np.int64,
                                             object))


def test_sweep_dtypes_at_radius_six(monkeypatch, fresh_sweep_cache):
    """Unpatched: the radius-6 ball stays int16 and the probe runs int32."""
    seen = _recording_commuting(monkeypatch)
    assert {lv.dtype for lv in ball_levels(NON_ADJACENT, 6)} == {INT16}
    assert {lv.dtype for lv in ball_levels(NON_ADJACENT, 6,
                                           reps_of=FIRST_BLOCK)} == {INT16}
    assert _centralizer_core(NON_ADJACENT.m, 6) is True
    assert set(seen) == {INT32}


# 0 makes the ball switch to object arrays at once; 100 keeps the ball in
# int16 at radius 3 but is below the sweep's product bound
@pytest.mark.parametrize("safe", [0, 100])
def test_exact_object_path_agrees_with_oracle(monkeypatch, fresh_sweep_cache,
                                              safe):
    seen = _recording_commuting(monkeypatch)
    monkeypatch.setattr(oracles, "_INT64_SAFE", safe)
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
    adjacent shape): each level of the radius-4 ball, and of its first
    block's representatives, needs the next rung, and every probe bound is
    past the int64 guard."""
    seen = _recording_commuting(monkeypatch)
    _patch_guards(monkeypatch, 3, 6, 15)
    for sub, _ in SUBSYSTEMS:
        levels = ball_levels(sub, 4)
        rungs = [INT16, INT16, INT32, INT64, OBJECT]
        assert [lv.dtype for lv in levels] == rungs
        assert [lv.dtype for lv in ball_levels(
            sub, 4, reps_of=FIRST_BLOCK)] == rungs
        assert_same_levels(levels, ball_levels_by_set(sub, 4))
        assert _centralizer_core(sub.m, 4) == \
            centralizer_sweep_by_membership(sub, 4)
    # the adjacent shape stops at its first violation, in level 1
    assert seen == [OBJECT] * 5


def test_probe_climbs_every_rung_and_agrees_with_oracle(monkeypatch,
                                                        fresh_sweep_cache):
    """The probe bound of a level is its largest entry times the sweep's
    growth factor: 6,760 on the non-adjacent shape and 5,640 on the
    adjacent one, against level maxima 2, 5 and 14 (12) of the
    representatives.  With these guards levels 1, 2 and 3 take int32,
    int64 and object, while the whole ball is int32."""
    seen = _recording_commuting(monkeypatch)
    _patch_guards(monkeypatch, 0, 2 * 6_760, 5 * 6_760)
    for sub, _ in SUBSYSTEMS:
        levels = ball_levels(sub, 3)
        assert {lv.dtype for lv in levels[1:]} == {INT32}
        assert _centralizer_core(sub.m, 3) == \
            centralizer_sweep_by_membership(sub, 3)
    # the adjacent shape stops at its first violation, in level 1
    assert seen == [INT32, INT64, OBJECT, INT32]
