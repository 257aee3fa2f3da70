import dataclasses
import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicox.construction import BLOCK_SIZE, build_C, build_L4
from epicox.coxeter import (INFINITE, CoxeterMatrix, enumerate_parabolic,
                            evaluate, identity, is_spherical)
from epicox.errors import FalsificationError, PreconditionError
from epicox.graphs import (FiniteGraph, VertexMap, all_labeled_graphs,
                           epimorphisms, find_epimorphism, is_homomorphism,
                           make_pointed)
from epicox.homomorphisms import (GeneratorMap, _classify_block_image,
                                  induced_k_map, is_onto_generators,
                                  lift_graph_epi, map_word, presentation_of,
                                  verify_relators)
from epicox import acceptance, graphs, homomorphisms, oracles
from epicox.cli import main
from epicox.oracles import relators_hold, relators_hold_by_matrices
from epicox.reconstruction import k_graph
from oracles import (full_path_passes, induced_classes_per_call,
                     lift_images_per_call, map_shape,
                     theorem_outcomes_by_full_path, verify_relators_all_pairs)

L4 = build_L4()
EDGE = FiniteGraph.from_edges(2, [(0, 1)])
TWO_POINTS = FiniteGraph.from_edges(2, [])
PATH3 = FiniteGraph.from_edges(3, [(0, 1), (1, 2)])
# block systems over every graph on one or two vertices
SMALL_SYSTEMS = dict(zip(["point", "two points", "edge"],
                         map(build_C, all_labeled_graphs(2, min_n=1))))


# --- presentations -----------------------------------------------------------


def test_l4_presentation_counts():
    p = presentation_of(L4)
    assert len(p.names) == 4
    assert len(p.relators) == 10  # 4 squares + 6 finite pairs


def test_block_system_presentation_counts():
    p = presentation_of(build_C(EDGE).matrix)
    # 8 squares, 6 finite pairs inside each block, 5 across
    assert len(p.relators) == 8 + 12 + 5


def test_presentation_relators_evaluate_to_identity():
    C = build_C(TWO_POINTS).matrix
    for rel in presentation_of(C).relators:
        assert evaluate(C, rel) == identity(C)


# --- generator maps ----------------------------------------------------------


def identity_map(C):
    return GeneratorMap(C, C, tuple(range(C.n)))


def test_identity_map_verifies():
    C = build_C(EDGE).matrix
    phi = identity_map(C)
    assert verify_relators(phi)
    assert is_onto_generators(phi)


def test_map_word_drops_collapsed_letters():
    C = L4
    phi = GeneratorMap(C, C, (0, None, 2, 3))
    assert map_word(phi, (0, 1, 2)) == (0, 2)


def test_braid_violation_detected():
    C = build_C(EDGE).matrix
    # position 2 of block 0 rerouted to position 1: braid with position 3 breaks
    images = list(range(8))
    images[1] = 0
    phi = GeneratorMap(C, C, tuple(images))
    assert not verify_relators(phi)


def test_image_size_mismatch_rejected():
    with pytest.raises(PreconditionError):
        GeneratorMap(L4, L4, (0, 1))


def test_image_index_out_of_range_rejected():
    with pytest.raises(PreconditionError):
        GeneratorMap(L4, L4, (0, 1, 2, 9))


# --- lifting graph maps ------------------------------------------------------


def lifted(source_graph, target_graph, image):
    src, tgt = build_C(source_graph), build_C(target_graph)
    f = VertexMap(source_graph.n + 1, target_graph.n + 1, image)
    return lift_graph_epi(f, src, tgt), src, tgt


def test_lift_identity_epi():
    phi, src, tgt = lifted(EDGE, EDGE, (0, 1, 2))
    assert phi.images == tuple(range(8))
    assert verify_relators(phi)
    assert is_onto_generators(phi)


def test_lift_collapse_to_base():
    # vertex 1 of the path collapses; its block maps to the identity
    phi, src, tgt = lifted(PATH3, EDGE, (0, 2, 1, 2))
    assert phi.images[4:8] == (None, None, None, None)
    assert verify_relators(phi)


def test_lift_demands_base_preservation():
    src, tgt = build_C(EDGE), build_C(EDGE)
    f = VertexMap(3, 3, (0, 2, 1))  # base goes to a class vertex
    with pytest.raises(PreconditionError):
        lift_graph_epi(f, src, tgt)


def test_lift_demands_graph_homomorphism():
    src, tgt = build_C(TWO_POINTS), build_C(EDGE)
    # 0 and 1 are non-adjacent upstairs but their images are adjacent;
    # pointed graphs are reflexive so this is still a homomorphism, and the
    # reverse direction (edge onto non-edge) must fail instead
    f = VertexMap(3, 3, (0, 1, 2))
    phi = lift_graph_epi(f, src, tgt)
    assert verify_relators(phi)
    g = VertexMap(3, 3, (0, 1, 2))
    with pytest.raises(PreconditionError):
        lift_graph_epi(g, build_C(EDGE), build_C(TWO_POINTS))


# --- induced class maps ------------------------------------------------------


def test_induced_map_identity():
    kg = k_graph(EDGE)
    phi = identity_map(kg.system.matrix)
    assert induced_k_map(kg.system, kg, phi) == VertexMap(3, 3, (0, 1, 2))


def test_induced_map_collapse():
    src, tgt = build_C(TWO_POINTS), k_graph(EDGE)
    f = VertexMap(3, 3, (0, 2, 2))
    phi = lift_graph_epi(f, src, tgt.system)
    # block 1 collapses to the base, index 2 after the two classes
    assert induced_k_map(src, tgt, phi) == VertexMap(3, 3, (0, 2, 2))


def test_induced_map_needs_matching_endpoints():
    sys_ = build_C(EDGE)
    with pytest.raises(PreconditionError):
        induced_k_map(sys_, k_graph(TWO_POINTS),
                      identity_map(sys_.matrix))


def test_induced_map_rejects_relator_violation():
    kg = k_graph(EDGE)
    C = kg.system.matrix
    images = list(range(8))
    images[1] = 0
    with pytest.raises(PreconditionError):
        induced_k_map(kg.system, kg, GeneratorMap(C, C, tuple(images)))


def test_induced_map_rejects_altered_lift():
    """A map rebuilt from a checked lift carries no check of its own."""
    src, tgt = build_C(TWO_POINTS), k_graph(EDGE)
    phi = lift_graph_epi(VertexMap(3, 3, (0, 2, 2)), src, tgt.system)
    images = list(phi.images)
    images[1] = images[0]  # (s1 s2)^3 now maps to a commuting pair
    bad = dataclasses.replace(phi, images=tuple(images))
    with pytest.raises(PreconditionError):
        induced_k_map(src, tgt, bad)


def test_relators_checked_once_per_lift(monkeypatch):
    calls = []
    check = homomorphisms.verify_relators
    monkeypatch.setattr(homomorphisms, "verify_relators",
                        lambda phi: calls.append(phi) or check(phi))
    src, tgt = build_C(TWO_POINTS), k_graph(EDGE)
    phi = lift_graph_epi(VertexMap(3, 3, (0, 2, 2)), src, tgt.system)
    induced_k_map(src, tgt, phi)
    assert calls == [phi]


def test_order_dichotomy_enforced():
    # two braided generators make an order-6 image: neither trivial nor full
    with pytest.raises(FalsificationError, match="v0_1"):
        _classify_block_image(k_graph(EDGE), (0, 1, None, None))


def test_induced_map_classifies_images_outside_the_table():
    """A block sent onto a target block in reverse position order, which
    the 4-chain's diagram automorphism allows and no lift gives, gets that
    block's class."""
    point = FiniteGraph.from_edges(1, [])
    src, tgt = build_C(point), k_graph(point)
    phi = GeneratorMap(src.matrix, tgt.system.matrix, (3, 2, 1, 0))
    assert phi.relators_hold
    assert induced_k_map(src, tgt, phi) == VertexMap(2, 2, (0, 1))


# --- labels against matrices -------------------------------------------------


def test_label_rule_matches_matrices_on_l4():
    images = [None, *range(L4.n)]
    outcomes = set()
    for picks in itertools.product(images, repeat=L4.n):
        phi = GeneratorMap(L4, L4, picks)
        got = verify_relators(phi)
        assert got == relators_hold_by_matrices(phi), picks
        assert got == verify_relators_all_pairs(phi), picks
        outcomes.add(got)
    assert outcomes == {True, False}


@st.composite
def sparse_label_maps(draw):
    """A generator map between random label matrices of rank <= 7 whose
    labels are mostly infinite."""
    def matrix(n):
        pairs = list(itertools.combinations(range(n), 2))
        labels = draw(st.lists(
            st.sampled_from([INFINITE] * 4 + [2, 3]),
            min_size=len(pairs), max_size=len(pairs)))
        return CoxeterMatrix.from_labels(
            n, [(i, j, m) for (i, j), m in zip(pairs, labels)])

    source, target = matrix(draw(st.integers(0, 7))), matrix(
        draw(st.integers(1, 7)))
    images = draw(st.lists(st.sampled_from([None, *range(target.n)]),
                           min_size=source.n, max_size=source.n))
    return GeneratorMap(source, target, tuple(images))


@settings(max_examples=300, deadline=None)
@given(sparse_label_maps())
def test_finite_pairs_rule_matches_all_pairs_rule(phi):
    """The loop over the source's finite-label pairs answers as the scan of
    every pair does, on maps between mostly unbounded systems."""
    assert verify_relators(phi) == verify_relators_all_pairs(phi)
    assert phi.source.finite_pairs == tuple(
        (i, j, phi.source.m[i][j]) for i, j in
        itertools.combinations(range(phi.source.n), 2)
        if phi.source.m[i][j] != INFINITE)


def block_maps(source, target):
    """Per source block: the identity, or one target block with positions
    in order, reversed, all one, permuted, or arbitrary."""
    chain = tuple(range(BLOCK_SIZE))
    shapes = [chain, chain[::-1], *((p,) * BLOCK_SIZE for p in chain)]
    positions = st.one_of(st.sampled_from(shapes), st.permutations(chain),
                          st.lists(st.sampled_from([None, *chain]),
                                   min_size=BLOCK_SIZE, max_size=BLOCK_SIZE))
    block = st.tuples(
        st.sampled_from([None, *range(target.n // BLOCK_SIZE)]), positions
    ).map(lambda pick: [None if pick[0] is None or p is None
                        else BLOCK_SIZE * pick[0] + p for p in pick[1]])
    k = source.n // BLOCK_SIZE
    return st.lists(block, min_size=k, max_size=k).map(
        lambda blocks: sum(blocks, []))


@pytest.mark.parametrize("source,target", [
    pytest.param(s.matrix, t.matrix, id=f"{a}->{b}")
    for a, s in SMALL_SYSTEMS.items() for b, t in SMALL_SYSTEMS.items()])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_label_rule_matches_matrices_between_systems(source, target, data):
    random_maps = st.lists(st.sampled_from([None, *range(target.n)]),
                           min_size=source.n, max_size=source.n)
    images = data.draw(st.one_of(random_maps, block_maps(source, target)))
    phi = GeneratorMap(source, target, tuple(images))
    assert verify_relators(phi) == relators_hold_by_matrices(phi)


@pytest.mark.parametrize("system", SMALL_SYSTEMS.values(),
                         ids=SMALL_SYSTEMS.keys())
def test_block_image_classification_matches_enumeration(system):
    C = system.matrix
    target = k_graph(system.graph)

    def subgroup(T):
        return frozenset(enumerate_parabolic(C, T, 10000))

    blocks = [subgroup(system.block(u)) for u in range(system.vertex_count)]
    for size in range(BLOCK_SIZE + 1):
        for J in itertools.combinations(range(C.n), size):
            images = J + (None,) * (BLOCK_SIZE - size)
            mats = subgroup(J) if is_spherical(C, J) else None
            if mats is not None and len(mats) <= 2:
                expected = len(blocks)  # the base, after the classes
            elif mats in blocks:
                expected = blocks.index(mats)
            else:
                with pytest.raises(FalsificationError):
                    _classify_block_image(target, images)
                continue
            assert _classify_block_image(target, images) == expected


# --- the matrix relator answers, keyed by label shape -------------------------


def test_shape_answers_match_fresh_evaluation(monkeypatch):
    """Over all pairs of graphs with <= 3 vertices, the theorem check
    keeps one dict of answers, whose 13 entries by label shape are the
    only place it evaluates mapped words as matrices, and its 12 targets'
    tables hold 317 keys.  Each shape entry equals a fresh evaluation of
    the group's pattern in the Coxeter group of the shape's labels."""
    answers, evaluated, patterns, entries = [], [], {}, []
    entry, key_table = acceptance._TheoremGraph, acceptance._key_table
    group_relators = acceptance.group_relators

    def recording_key_table(answered, *args):
        answers.append(answered)
        return key_table(answered, *args)

    def recording_entry(*args):
        entries.append(entry(*args))
        return entries[-1]

    def counting_evaluate(C, word):
        evaluated.append(word)
        return evaluate(C, word)

    def recording_group_relators(source, interned):
        patterns[id(interned)] = interned
        return group_relators(source, interned)

    monkeypatch.setattr(acceptance, "_key_table", recording_key_table)
    monkeypatch.setattr(acceptance, "_TheoremGraph", recording_entry)
    monkeypatch.setattr(acceptance, "group_relators", recording_group_relators)
    monkeypatch.setattr(oracles, "evaluate", counting_evaluate)
    report = acceptance.theorem_report(3)
    assert report.passed and report.epimorphisms == 375
    assert len({id(a) for a in answers}) == 1 and len(answers) == 12
    assert len(patterns) == 1 and len(entries) == 12
    assert sum(len(e.held) for e in entries) == 317
    shapes = answers[0]
    assert len(shapes) == 13
    assert len(evaluated) == 34
    (interned,) = patterns.values()
    pattern_of = {token: pattern for pattern, token in interned.items()}
    for (token, letters, labels), answer in shapes.items():
        local = CoxeterMatrix(len(labels), labels,
                              tuple(f"g{i}" for i in range(len(labels))))
        idn = identity(local)
        words = (tuple(letters[g] for g in rel if letters[g] is not None)
                 for rel in pattern_of[token])
        assert answer == all(evaluate(local, w) == idn for w in words)


def test_relator_memo_catches_corruption_after_sibling():
    """Negative control: on every lift between graphs with <= 3 vertices,
    the corrupted map of the fault injection fails ``relators_hold``,
    which its correct sibling has just passed, and the one-shot matrix
    oracle agrees."""
    graphs = all_labeled_graphs(3)
    systems = [build_C(g) for g in graphs]
    relators = [presentation_of(sys_.matrix).relators for sys_ in systems]
    corrupted_maps = 0
    for src, rels in zip(systems, relators):
        for tgt in systems:
            for f in epimorphisms(src.pointed, tgt.pointed):
                phi = lift_graph_epi(f, src, tgt)
                assert relators_hold(phi, rels)
                bad = acceptance._corrupt(phi, src, tgt, f)
                if bad is None:
                    continue
                assert not relators_hold(bad, rels)
                assert not relators_hold_by_matrices(bad)
                corrupted_maps += 1
    # only the 12 lifts onto the empty graph, every block collapsed, have
    # no surviving block to corrupt
    assert corrupted_maps == 375 - 12


def test_a_lift_keeps_a_block_exactly_when_the_target_has_one():
    """The fault injection tries only each pair's first epimorphism, which
    places the fault on the pair where trying every one would: at <= 4
    vertices the lift of every epimorphism has a block to corrupt exactly
    when the target's pointed graph has a vertex besides the base, and a
    target with only the base has exactly one epimorphism from each
    source."""
    systems = [build_C(g) for g in all_labeled_graphs(4)]
    for src in systems:
        for tgt in systems:
            epis = list(epimorphisms(src.pointed, tgt.pointed))
            keeps_a_block = tgt.pointed.n > 1
            assert keeps_a_block or len(epis) == 1
            for f in epis:
                phi = lift_graph_epi(f, src, tgt)
                assert (acceptance._corrupt(phi, src, tgt, f) is not None) \
                    == keeps_a_block, (f.image, tgt.graph)


@pytest.mark.parametrize("rel", [(), (0,), (0, 1, 0), (0, 1, 2, 1),
                                 (0, 1, 1, 0), [0, 2, 1, 3]])
def test_relator_memo_answers_any_word_as_fresh_evaluation(rel):
    """A relator of any shape gets the answer of a fresh matrix
    evaluation, under the identity map and under a map that collapses a
    generator and merges two others."""
    C = build_C(EDGE).matrix
    idn = identity(C)
    for images in (tuple(range(C.n)), (None, 0, 0, *range(3, C.n))):
        phi = GeneratorMap(C, C, images)
        want = evaluate(C, map_word(phi, rel)) == idn
        assert relators_hold(phi, (rel,)) == want


# --- the block-pair answers -----------------------------------------------------


def _held_by_map_shape(answers, m, grouped):
    """Whether every group of the source holds under generator map m: each
    group's answer is kept in answers under its token and ``map_shape``, a
    key that maps met earlier may have filled, and checked against a fresh
    ``relators_hold`` of the group."""
    held = True
    for token, a, b, rels in grouped:
        fresh = relators_hold(m, rels)
        assert answers.setdefault((token, *map_shape(m, a, b)), fresh) \
            == fresh, (a, b)
        held = held and fresh
    return held


def test_relator_groups_partition_the_relators_by_block_pair():
    """Every relator lands in exactly one group, whose two blocks hold its
    letters, and the patterns are interned across sources: one for a
    block's own relators and one per kind of block pair, with or without
    an edge."""
    patterns, tokens = {}, set()
    for graph in all_labeled_graphs(3):
        C = build_C(graph).matrix
        groups = acceptance.group_relators(C, patterns)
        assert sorted(rel for *_, rels in groups for rel in rels) \
            == sorted(presentation_of(C).relators)
        for token, a, b, rels in groups:
            assert a <= b < graph.n
            assert all({g // BLOCK_SIZE for g in rel} <= {a, b}
                       for rel in rels)
            tokens.add(token)
    assert len(patterns) == 3 and tokens == set(patterns.values())


def test_group_answers_match_the_matrix_oracle_on_every_lift():
    """Over every lift between graphs with <= 3 vertices and its corrupted
    sibling, with one dict of answers for all of them (patterns interned
    across all sources, as in a run), each group's answer under its
    map-side shape key is a fresh ``relators_hold`` of the group, and
    together they answer as the one-shot matrix oracle does."""
    systems = [build_C(g) for g in all_labeled_graphs(3)]
    patterns, answers = {}, {}
    verdicts = {True: 0, False: 0}
    for src in systems:
        grouped = acceptance.group_relators(src.matrix, patterns)
        for tgt in systems:
            for f in epimorphisms(src.pointed, tgt.pointed):
                phi = lift_graph_epi(f, src, tgt)
                for m in (phi, acceptance._corrupt(phi, src, tgt, f)):
                    if m is None:
                        continue
                    got = _held_by_map_shape(answers, m, grouped)
                    assert got == relators_hold_by_matrices(m)
                    assert got == (m is phi)
                    verdicts[got] += 1
    assert verdicts == {True: 375, False: 375 - 12}


@pytest.mark.parametrize("source,target", [
    pytest.param(s.matrix, t.matrix, id=f"{a}->{b}")
    for a, s in SMALL_SYSTEMS.items() for b, t in SMALL_SYSTEMS.items()])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_group_answers_match_the_matrix_oracle_between_systems(source, target,
                                                               data):
    """Random and block-shaped maps, several sharing one dict of answers so
    that later maps meet the entries earlier ones left, each followed by
    the splices of consecutive maps (the first block of one, the rest of
    the next), which share a block with each: each group's answer under
    its map-side shape key is a fresh ``relators_hold`` of the group, and
    together they answer as the one-shot matrix oracle does."""
    random_maps = st.lists(st.sampled_from([None, *range(target.n)]),
                           min_size=source.n, max_size=source.n)
    maps = data.draw(st.lists(st.one_of(random_maps,
                                        block_maps(source, target)),
                              min_size=1, max_size=6))
    maps += [a[:BLOCK_SIZE] + b[BLOCK_SIZE:] for a, b in zip(maps, maps[1:])]
    grouped = acceptance.group_relators(source, {})
    answers = {}
    for images in maps:
        phi = GeneratorMap(source, target, tuple(images))
        assert _held_by_map_shape(answers, phi, grouped) \
            == relators_hold_by_matrices(phi)


def test_group_answers_key_on_both_blocks():
    """Two maps of an edge into two points that agree on the first block:
    both blocks onto the first target block keeps every cross relator,
    the blocks onto the two target blocks breaks (s_1 s_1')^2, since the
    target's blocks share no edge.  The second map must not read the
    first one's answer."""
    source, target = build_C(EDGE).matrix, build_C(TWO_POINTS).matrix
    grouped = acceptance.group_relators(source, {})
    answers = {}
    folded = GeneratorMap(source, target, (0, 1, 2, 3) * 2)
    spread = GeneratorMap(source, target, tuple(range(8)))
    assert _held_by_map_shape(answers, folded, grouped)
    assert not _held_by_map_shape(answers, spread, grouped)
    assert not relators_hold_by_matrices(spread)


# --- the theorem check's key tables against the full path -------------------


@pytest.mark.parametrize("inject_fault", [False, True])
def test_table_path_outcomes_match_full_path(inject_fault):
    """The theorem check reports the same pair count, epimorphism count
    and failing pairs, with their messages, as the loop that sends every
    epimorphism through the full check, at <= 3 vertices and with the
    fault injected at <= 2 and <= 3."""
    for n in (2, 3):
        report = acceptance.theorem_report(n, inject_fault=inject_fault)
        outcomes = theorem_outcomes_by_full_path(n, inject_fault)
        assert report.pair_count == len(outcomes)
        assert report.epimorphisms == sum(count for _, _, count, _, _
                                          in outcomes)
        assert report.failures == [(i, j, message)
                                   for i, j, _, ok, message in outcomes
                                   if not ok]


def test_failing_group_never_enters_the_table(monkeypatch, capsys):
    """Negative control: with the relator check answering False for the
    edge pattern whenever its two blocks go to two distinct target blocks,
    the first such key, asked while the tables are built, falsifies the
    run: at <= 3 vertices theorem_report raises FalsificationError naming
    the target and the key before any pair is checked, and check-theorem
    exits 3 with the claim falsified."""
    failing = []

    def failing_relators_hold(phi, rels):
        blocks = sorted({g // BLOCK_SIZE for rel in rels for g in rel})
        # two distinct blocks whose pattern has more than (s_4 s_4')^2
        # are adjacent
        if len(blocks) == 2 and len(rels) > 1:
            a, b = blocks
            fa, fb = phi.images[a * BLOCK_SIZE], phi.images[b * BLOCK_SIZE]
            if None not in (fa, fb) and fa // BLOCK_SIZE != fb // BLOCK_SIZE:
                failing.append((a, b, fa // BLOCK_SIZE, fb // BLOCK_SIZE))
                return False
        return relators_hold(phi, rels)

    monkeypatch.setattr(acceptance, "relators_hold", failing_relators_hold)
    with pytest.raises(FalsificationError) as raised:
        acceptance.theorem_report(3)
    # the first graph with an edge is the first source of the edge pattern
    # and the first target with two adjacent vertices
    edge = next(k for k, g in enumerate(all_labeled_graphs(3)) if g.edges())
    assert failing == [(0, 1, 0, 1)]
    assert str(raised.value) == (
        f"target {edge}: the edge relators of blocks 0, 1 of source {edge} "
        "fail with the blocks sent to 0, 1")
    assert main(["check-theorem", "--max-vertices", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"claim falsified: {raised.value}\n"


def test_pair_check_reads_its_keys_from_the_table(monkeypatch, capsys):
    """Negative control for the per-pair lookup, the run-time check of the
    tables' admissibility filter: with the (x, x) keys of edge groups left
    out of every table, each pair whose first epimorphism folds an edge
    onto one vertex fails with its relators, 23 pairs at <= 3 vertices,
    and check-theorem exits 3."""
    key_table = acceptance._key_table

    def no_folded_edges(answers, reps, j, system):
        edge = {token for token, kind in reps if kind == "edge"}
        return {key for key in key_table(answers, reps, j, system)
                if key[0] not in edge or key[1] != key[2]}

    monkeypatch.setattr(acceptance, "_key_table", no_folded_edges)
    report = acceptance.theorem_report(3)
    assert len(report.failures) == 23
    assert all(message.startswith("relators failed for ")
               for *_, message in report.failures)
    assert (11, 1, "relators failed for (0, 0, 0, 1)") in report.failures
    assert main(["check-theorem", "--max-vertices", "3"]) == 3
    assert "pair 11 -> 1: relators failed for (0, 0, 0, 1)\n" \
        in capsys.readouterr().out


def test_key_tables_hold_exactly_the_homomorphism_keys(monkeypatch):
    """At <= 3 vertices each target's table is the set of (token, f(a),
    f(b)) keys of every base-preserving homomorphism f into it, onto or
    not, from every source, found over all vertex maps; the 375 onto ones
    each pass the full check by matrices.  At <= 4 vertices the
    tables hold 3,453 keys."""
    entries = []
    entry = acceptance._TheoremGraph

    def recording_entry(*args):
        entries.append(entry(*args))
        return entries[-1]

    monkeypatch.setattr(acceptance, "_TheoremGraph", recording_entry)
    assert acceptance.theorem_report(3).passed
    epis = 0
    for tgt in entries:
        tp = tgt.kg.system.pointed
        keys = set()
        for src in entries:
            sp = src.kg.system.pointed
            for image in itertools.product(range(tp.n), repeat=sp.n - 1):
                f = VertexMap(sp.n, tp.n, (*image, tp.base))
                if not is_homomorphism(f, sp.graph, tp.graph):
                    continue
                keys |= {(token, f.image[a], f.image[b])
                         for token, a, b, _ in src.groups}
                if len(set(f.image)) == tp.n:
                    assert full_path_passes(f, src.kg, tgt.kg), f.image
                    epis += 1
        assert tgt.held == keys
    assert epis == 375
    entries.clear()
    assert acceptance.theorem_report(4).passed
    assert sum(len(e.held) for e in entries) == 3453


def test_key_table_shapes_are_the_map_shapes(monkeypatch):
    """For every admissible key at <= 4 vertices, the shape the table
    looks up for the pair (x, y) is ``map_shape`` of the group's blocks on
    the lift of the vertex map that sends a to x, b to y and the rest to
    the base, and its answer holds.  The run keeps one dict of 13 shapes
    and evaluates 34 words as matrices, at <= 3 as at <= 4."""
    calls, evaluated = [], []
    key_table = acceptance._key_table

    def recording_key_table(answers, reps, j, system):
        calls.append((answers, reps, system))
        return key_table(answers, reps, j, system)

    def counting_evaluate(C, word):
        evaluated.append(word)
        return evaluate(C, word)

    monkeypatch.setattr(acceptance, "_key_table", recording_key_table)
    monkeypatch.setattr(oracles, "evaluate", counting_evaluate)
    for n in (3, 4):
        calls.clear()
        evaluated.clear()
        assert acceptance.theorem_report(n).passed
        assert len({id(answers) for answers, *_ in calls}) == 1
        assert len(calls[0][0]) == 13 and len(evaluated) == 34

    keys = 0
    for answers, reps, system in calls:
        shapes = acceptance._pair_shapes(system)
        tp = system.pointed
        for (token, kind), (_, source, group) in reps.items():
            _, a, b, _ = group
            assert kind == ("own" if a == b else "edge"
                            if source.graph.adjacent(a, b) else "non-edge")
            for x, y in itertools.product(range(tp.n), repeat=2):
                if kind == "own" and x != y \
                        or kind == "edge" and not tp.graph.adjacent(x, y):
                    continue
                image = [tp.base] * source.pointed.n
                image[a], image[b] = x, y
                phi = lift_graph_epi(VertexMap(len(image), tp.n,
                                               tuple(image)), source, system)
                assert shapes[x, y] == map_shape(phi, a, b), (kind, x, y)
                assert answers[(token, *shapes[x, y])]
                keys += 1
    assert keys == 3453


def test_pair_loop_builds_one_map_per_pair_with_an_epimorphism(monkeypatch):
    """Regression guard: at <= 3 vertices the pair loop builds one
    ``VertexMap`` for each of the 83 pairs that have an epimorphism, not
    one for each of the 375 epimorphisms it counts, with or without the
    fault injected."""
    pointed = [build_C(g).pointed for g in all_labeled_graphs(3)]
    assert sum(find_epimorphism(p, q) is not None
               for p in pointed for q in pointed) == 83
    built = []

    class Counted(VertexMap):
        def __post_init__(self):
            built.append(self.image)
            super().__post_init__()

    monkeypatch.setattr(graphs, "VertexMap", Counted)
    for inject_fault in (False, True):
        built.clear()
        report = acceptance.theorem_report(3, inject_fault=inject_fault)
        assert report.passed != inject_fault and report.epimorphisms == 375
        assert len(built) == 83


# --- the lift tables against the per-call path -------------------------------


def _tables_match_per_call(src, tgt):
    """Every epimorphism of the pair: the tabled lift and induced map equal
    the per-call ones.  Returns the number of epimorphisms."""
    count = 0
    for f in epimorphisms(src.system.pointed, tgt.system.pointed):
        phi = lift_graph_epi(f, src.system, tgt.system)
        want = lift_images_per_call(f, src.system, tgt.system)
        assert phi == want, f.image
        assert (induced_k_map(src.system, tgt, phi)
                == induced_classes_per_call(src.system, tgt, want)), f.image
        count += 1
    return count


def test_lift_tables_match_per_call_path():
    kgs = [k_graph(g) for g in all_labeled_graphs(3)]
    assert sum(_tables_match_per_call(src, tgt)
               for src in kgs for tgt in kgs) == 375


GRAPHS4 = all_labeled_graphs(4)


@functools.cache
def _kgraph4(index):
    return k_graph(GRAPHS4[index])


@settings(max_examples=25, deadline=None)
@given(source=st.sampled_from([i for i, g in enumerate(GRAPHS4) if g.n == 4]),
       target=st.integers(0, len(GRAPHS4) - 1))
def test_lift_tables_match_per_call_path_at_four_vertices(source, target):
    _tables_match_per_call(_kgraph4(source), _kgraph4(target))


# --- sampled epimorphisms past the exhaustive ceiling ------------------------


@st.composite
def coloured_graphs(draw):
    """A graph G on 6 to 16 vertices, a colouring of its vertices onto k
    classes plus the base (colour k), and H: the quotient graph on the k
    classes plus random extra edges.  With k >= 2, G has an edge from a
    vertex of class 0 to one of class 1."""
    n = draw(st.integers(6, 16))
    k = draw(st.integers(1, n))
    order = draw(st.permutations(range(n)))
    colour = draw(st.lists(st.integers(0, k), min_size=n, max_size=n))
    for cls, v in enumerate(order[:k]):
        colour[v] = cls
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    edges = {p for p, kept in zip(pairs, keep) if kept}
    if k >= 2:
        edges.add(tuple(sorted(order[:2])))
    quotient = {tuple(sorted((colour[u], colour[v]))) for u, v in edges
                if colour[u] != colour[v] and k not in (colour[u], colour[v])}
    class_pairs = list(itertools.combinations(range(k), 2))
    if class_pairs:
        quotient |= draw(st.sets(st.sampled_from(class_pairs)))
    return (FiniteGraph.from_edges(n, sorted(edges)), tuple(colour),
            FiniteGraph.from_edges(k, sorted(quotient)))


@settings(max_examples=200, deadline=None)
@given(coloured_graphs())
def test_sampled_epimorphisms_past_the_exhaustive_ceiling(sample):
    """Past the theorem check's ceiling of 5 vertices (block systems of
    rank 24 to 64): the colouring is a base-preserving epimorphism of the
    pointed graphs, and its lift passes the full path (relators as
    matrices, onto generators, the induced map) and the production path
    (every group key of the lift is in the table ``_key_table`` builds for
    H from G's groups).  Negative controls: the corrupted lift fails the
    matrix oracle, and with H's edge between classes 0 and 1 dropped the
    colouring is refused as a non-homomorphism before any lift."""
    G, colour, H = sample
    k = H.n
    src, tgt = build_C(G), k_graph(H)
    f = VertexMap(G.n + 1, k + 1, (*colour, k))
    phi = lift_graph_epi(f, src, tgt.system)
    assert relators_hold_by_matrices(phi)
    assert is_onto_generators(phi)
    assert induced_k_map(src, tgt, phi) == f

    groups = acceptance.group_relators(src.matrix, {})
    reps = {}
    for group in groups:
        token, a, b, _ = group
        kind = ("own" if a == b else "edge" if G.adjacent(a, b)
                else "non-edge")
        reps.setdefault((token, kind), (0, src, group))
    held = acceptance._key_table({}, reps, 1, tgt.system)
    assert all((token, f.image[a], f.image[b]) in held
               for token, a, b, _ in groups)

    bad = acceptance._corrupt(phi, src, tgt.system, f)
    assert bad is not None and not relators_hold_by_matrices(bad)
    if k >= 2:
        broken = FiniteGraph.from_edges(
            k, [e for e in H.edges() if e != (0, 1)])
        with pytest.raises(PreconditionError, match="not a homomorphism"):
            lift_graph_epi(f, src, build_C(broken))


# --- end to end --------------------------------------------------------------


def test_lift_round_trip():
    """A pointed-graph epi lifts to a generator map whose induced class map
    is the epi again."""
    g, h = PATH3, EDGE
    src, tgt = build_C(g), build_C(h)
    p = make_pointed(g.reflexive_closure())
    q = make_pointed(h.reflexive_closure())
    epi = find_epimorphism(p, q)
    assert epi is not None
    phi = lift_graph_epi(epi, src, tgt)
    assert verify_relators(phi)
    assert induced_k_map(src, k_graph(h), phi) == epi
