"""The nine acceptance criteria, runnable as a library.

Each criterion returns (passed, detail).  Only criterion 6, which runs the
centralizer sweep, takes an argument: the sweep radius.
Where a criterion checks a derived quantity, the check runs against an
independent brute-force oracle from ``oracles`` (plain breadth-first
distances, naive enumeration of all vertex maps, relators evaluated as
matrices, the sweep) rather than against the code path under test.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .construction import (BLOCK_SIZE, alt_involution, build_C, build_L4,
                           verify_L4_is_S5)
from .coxeter import (CoxeterMatrix, Word, enumerate_parabolic, evaluate,
                      identity, is_spherical, length, longest_element, mul,
                      preserves_form, reduced_word)
from .errors import FalsificationError, PreconditionError
from .graphs import (FiniteGraph, all_labeled_graphs, count_epimorphisms,
                     f_reduce, find_epimorphism, find_injective_hom)
from .homomorphisms import (GeneratorMap, induced_k_map, is_onto_generators,
                            lift_graph_epi, presentation_of)
from .oracles import (bfs_lengths, bounded_centralizer_check,
                      naive_hom_exists, relators_hold,
                      relators_hold_by_matrices, words_commute_by_matrices)
from .parabolics import (conjugacy_component, ks_component_candidate, ks_step)
from .reconstruction import (KGraph, centralizer_certificate,
                             commuting_witness, k_graph, verify_reconstruction)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    detail: str
    falsified: bool = False

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.number} [{self.name}]: {verdict} "
                f"({self.seconds:.2f}s) {self.detail}")


# --- instances -------------------------------------------------------------


def _reduction_instances():
    """All labeled irreflexive graphs with <= 3 vertices and no isolated
    vertex."""
    return [g for g in all_labeled_graphs(3)
            if not any(g.is_isolated(v) for v in g.vertices())]


# --- criteria --------------------------------------------------------------


def criterion_1():
    report = verify_L4_is_S5()
    ok = (report.order == 120 and report.nonabelian
          and report.even_order == 60 and report.even_is_subgroup
          and report.even_is_simple)
    return ok, (f"order={report.order} nonabelian={report.nonabelian} "
                f"even order={report.even_order} simple={report.even_is_simple}")


def criterion_2():
    C = build_L4()
    dist = bfs_lengths(C, range(4))
    w0 = longest_element(C, range(4))
    bfs_len = dist[w0]
    max_len = max(dist.values())
    top = [m for m, d in dist.items() if d == max_len]
    square_ok = mul(w0, w0) == identity(C)
    engine_len = length(C, w0)
    ok = (bfs_len == 10 and max_len == 10 and len(top) == 1
          and top[0] == w0 and square_ok and engine_len == 10)
    return ok, (f"BFS length={bfs_len} engine length={engine_len} "
                f"unique top={len(top) == 1} square=identity: {square_ok}")


def criterion_3():
    graphs = _reduction_instances()
    pairs = 0
    for g in graphs:
        for h in graphs:
            inj_search = find_injective_hom(g, h) is not None
            inj_naive = naive_hom_exists(g, h, injective=True)
            fg, fh = f_reduce(g), f_reduce(h)
            # onto map from the reduced h down to the reduced g
            epi_found = find_epimorphism(fh, fg, base_preserving=False)
            epi_naive = naive_hom_exists(fh.graph, fg.graph, onto=True)
            epi_search = epi_found is not None
            if not (inj_search == inj_naive == epi_search == epi_naive):
                return False, (f"mismatch on pair {g.edges()} vs {h.edges()}: "
                               f"inj {inj_search}/{inj_naive} "
                               f"epi {epi_search}/{epi_naive}")
            if epi_found is not None and epi_found.image[fh.base] != fg.base:
                return False, "an onto map between reduced graphs moved the base"
            pairs += 1
    return True, f"{len(graphs)} graphs, {pairs} ordered pairs agree"


def criterion_4():
    shapes = {"edge": FiniteGraph.from_edges(2, [(0, 1)]),
              "two points": FiniteGraph.from_edges(2, [])}
    checked = 0
    for name, g in shapes.items():
        system = build_C(g)
        C = system.matrix
        for v in range(2):
            block = system.block(v)
            for s in range(C.n):
                if s in block:
                    continue
                K = ks_component_candidate(C, block, s)
                if is_spherical(C, K):
                    return False, (f"{name}: component for block {v} along "
                                   f"generator {s} is spherical")
                if ks_step(C, block, s) is not None:
                    return False, f"{name}: unexpected step out of block {v}"
                checked += 1
            comp = conjugacy_component(C, block)
            if comp.members != {block}:
                return False, f"{name}: block {v} is not alone in its class"
    return True, f"{checked} outgoing candidates all non-spherical"


def criterion_5():
    pairs = 0
    for g in all_labeled_graphs(4):
        system = build_C(g)
        for s in range(g.n):
            for t in range(g.n):
                if s == t:
                    continue
                wa, wb = alt_involution(system, s), alt_involution(system, t)
                wit = commuting_witness(system, s, t)
                by_matrices = words_commute_by_matrices(system.matrix, wa, wb)
                want = (wa, wb) if g.adjacent(s, t) else None
                if wit != want or by_matrices != g.adjacent(s, t):
                    return False, (f"graph {g.edges()} on {g.n} vertices: "
                                   f"witness for ({s},{t}) is {wit}, "
                                   f"full-rank matrices {by_matrices}, "
                                   f"adjacency {g.adjacent(s, t)}")
                pairs += 1
    return True, f"{pairs} ordered pairs across all graphs on <= 4 vertices"


def criterion_6(radius: int):
    g = FiniteGraph.from_edges(2, [])
    system = build_C(g)
    sub = system.matrix.submatrix(system.block_generators[0]
                                  + system.block_generators[1])
    s5 = enumerate_parabolic(sub, range(4))
    idn = identity(sub)
    invs = [w for w in s5
            if w != idn and mul(w, w) == idn and length(sub, w) % 2 == 0]
    if len(invs) != 15:
        return False, f"expected 15 even involutions, found {len(invs)}"
    # k_graph's certificate beside the sweep oracle, which checks the radius
    swept = bounded_centralizer_check(system, 0, 1, radius)
    certified = centralizer_certificate(system, 0, 1)
    note = " (warning: radius 0, check is vacuous)" if radius == 0 else ""
    return certified and swept, (
        f"radius {radius}, 15 even involutions, certificate "
        f"{'holds' if certified else 'inconclusive'}, sweep "
        f"{'no violation' if swept else 'violation'}{note}")


def criterion_7():
    count = 0
    for g in all_labeled_graphs(3):
        iso = verify_reconstruction(g)
        if tuple(iso.image) != tuple(range(g.n)):
            return False, f"unexpected class order for graph {g.edges()}"
        count += 1
    return True, f"{count} graphs reconstructed and verified both ways"


@dataclass
class TheoremReport:
    """Totals of a theorem check and each failing pair as (source index,
    target index, message), in pair order."""
    graph_count: int
    pair_count: int
    epimorphisms: int
    failures: list[tuple[int, int, str]]

    @property
    def passed(self) -> bool:
        return not self.failures


# check-theorem enumerates every labelled graph up to this many vertices,
# 2^C(n, 2) of them at n: 1,024 at 5, and about 2.1 M at 7 before any pair
# is formed.  Larger requests are refused before the enumeration starts.
THEOREM_MAX_VERTICES = 5


@dataclass
class _TheoremGraph:
    """What the epimorphism loop needs of one graph, built once: its class
    graph (which carries the system and the pointed graph); as a source,
    its relator groups (``group_relators``); as a target, the verified
    table of every (token, x, y) key a homomorphism into it can produce
    (``_key_table``)."""
    kg: KGraph
    groups: tuple[tuple[object, int, int, tuple[Word, ...]], ...]
    held: set[tuple[object, int, int]]


def group_relators(source: CoxeterMatrix, patterns: dict) -> tuple:
    """``presentation_of(source)``'s relators grouped by block pair.

    Each group is (token, a, b, relators): the relators whose letters lie
    in the blocks of vertices a <= b (a == b for a relator inside one
    block, squares included), in the source's letters, and the token of
    their pattern, the same relators written in block-local letters (block
    a's positions as 0-3, block b's as 4-7).  The pattern and the images of
    the two blocks fix every mapped word of the group, for any generator
    map.  patterns interns the patterns for a run: equal patterns, from
    any source, get one token, so one answer serves them all.  A token is
    a bare object, equal only to itself, so patterns interned in two
    different dicts can never share an answer.
    """
    by_pair: dict[tuple[int, int], list[Word]] = {}
    for rel in presentation_of(source).relators:
        a, b = sorted((rel[0] // BLOCK_SIZE, rel[1] // BLOCK_SIZE))
        by_pair.setdefault((a, b), []).append(rel)
    groups = []
    for (a, b), rels in by_pair.items():
        u, v = a * BLOCK_SIZE, b * BLOCK_SIZE
        pattern = tuple(tuple(g - u if g < u + BLOCK_SIZE
                              else g - v + BLOCK_SIZE for g in rel)
                        for rel in rels)
        token = patterns.setdefault(pattern, object())
        groups.append((token, a, b, tuple(rels)))
    return tuple(groups)


def _pair_shapes(system) -> dict[tuple[int, int], tuple[tuple, tuple]]:
    """Per pointed pair (x, y) of the target, the label shape of a block
    pair that a lift sends to x and y: the images of the two blocks, x's
    pointed block then y's, in local letters numbered in order of first
    appearance (None, the identity, stays None), and the target labels
    among those letters.  With a group's token it is the key of the run's
    answers."""
    to, m = system.pointed_blocks, system.matrix.m
    shapes = {}
    for x, y in itertools.product(range(system.pointed.n), repeat=2):
        local: dict[int, int] = {}
        letters = tuple([None if g is None
                         else local.setdefault(g, len(local))
                         for g in to[x] + to[y]])
        shapes[x, y] = letters, tuple([tuple([m[g][h] for h in local])
                                       for g in local])
    return shapes


def _key_table(answers: dict, reps: dict, j: int,
               system) -> set[tuple[object, int, int]]:
    """Every admissible key of target j, each read from the run's answer
    for (token, shape of (x, y)), the shapes from ``_pair_shapes``.  A
    word in letters L is trivial exactly when it is trivial in the Coxeter
    group of the labels among L (Humphreys, Reflection Groups and Coxeter
    Groups 5.5), so equal keys get equal answers, in any target.  Only a
    key the answers lack is decided, by ``relators_hold`` on the lift of
    the vertex map that sends a to x, b to y and the rest to the base, so
    matrices decide every answer, never the label rule.  reps holds one
    (source index, source system, group) per token and kind.  A failing
    key raises FalsificationError: left out, it would let later maps that
    meet it pass unexamined."""
    tp, to = system.pointed, system.pointed_blocks
    shapes = _pair_shapes(system)
    held = set()
    for (token, kind), (i, source, group) in reps.items():
        _, a, b, rels = group
        for (x, y), shape in shapes.items():
            if kind == "edge" and not tp.graph.adjacent(x, y) \
                    or kind == "own" and x != y:
                continue
            key = (token, *shape)
            hit = answers.get(key)
            if hit is None:
                images = sum((to[x] if v == a else to[y] if v == b
                              else to[-1]
                              for v in range(source.vertex_count)), ())
                hit = answers[key] = relators_hold(
                    GeneratorMap(source.matrix, system.matrix, images), rels)
            if not hit:
                raise FalsificationError(
                    f"target {j}: the {kind} relators of blocks {a}, {b} "
                    f"of source {i} fail with the blocks sent to {x}, {y}")
            held.add((token, x, y))
    return held


def theorem_report(max_vertices: int,
                   inject_fault: bool = False) -> TheoremReport:
    """For every ordered pair of reflexive graphs with at most max_vertices
    vertices and every base-preserving epimorphism f between their pointed
    versions: lift f, check relators and generator surjectivity, and check
    the induced class map reproduces f through the reconstruction
    isomorphisms.

    Relators are checked as matrices and kept in one dict, answers, held
    for this run only, which answers a block-pair group once per label
    shape, in any target; each source's relators are grouped by block pair
    once, with their patterns interned for the run.  Before any pair, each
    target's table gets every key (token, x, y) that a base-preserving
    homomorphism can produce, each verified (``_key_table``): (x, x) for a
    block's own relators, x adjacent to y for an edge's, any (x, y) for a
    non-edge's.  A key is read off answers by the label shape of (x, y),
    computed once per target and pair.

    ``count_epimorphisms`` counts each pair's epimorphisms and builds only
    the first, which takes the full check: lift, relators read off the
    table, generators, induced map.  The later ones are counted, never
    built, soundly: ``epimorphisms`` yields base-preserving homomorphisms,
    so their keys are admissible and held; they are onto the vertices, so
    their lifts hit every generator; and the induced map reads only the
    class of each target block, which the first epimorphism, onto and
    fully checked, has shown to be that block's vertex.  Two run-time
    guards back that argument: ``lift_graph_epi`` re-checks that the first
    map is a homomorphism (83 calls at <= 3 vertices), the fact the later
    keys' admissibility rests on, and the lookup of its keys in the table
    re-checks ``_key_table``'s admissibility filter.

    inject_fault corrupts the first lift, in pair order, that keeps a block,
    to prove the relator check can fail; the corrupted map is not
    lift-shaped, so ``relators_hold_by_matrices`` judges it, every relator
    as matrices, without the table, and the corrupted pair is reported as
    a failure.  Trying only each pair's first epimorphism places
    the fault on the same pair as trying every one: a lift keeps a block
    exactly when some non-base source vertex goes to a non-base target
    vertex, which every onto, base-preserving map into a target with a
    non-base vertex does, and a target with only the base has exactly one
    epimorphism from each source.  A run in which no lift keeps a block to
    corrupt raises PreconditionError rather than pass a control that tested
    nothing.
    """
    if max_vertices > THEOREM_MAX_VERTICES:
        raise PreconditionError(
            f"max vertices {max_vertices} is above the ceiling of "
            f"{THEOREM_MAX_VERTICES} for the exhaustive theorem check")
    graphs = all_labeled_graphs(max_vertices)
    kgs, patterns, reps = [], {}, {}
    for i, g in enumerate(graphs):
        kg = k_graph(g)
        verify_reconstruction(g, kg=kg)
        grouped = group_relators(kg.system.matrix, patterns)
        kgs.append((kg, grouped))
        for group in grouped:
            token, a, b, _ = group
            kind = ("own" if a == b else "edge" if g.adjacent(a, b)
                    else "non-edge")
            reps.setdefault((token, kind), (i, kg.system, group))
    answers = {}
    entries = [_TheoremGraph(kg, grouped,
                             _key_table(answers, reps, j, kg.system))
               for j, (kg, grouped) in enumerate(kgs)]
    epis, failures = 0, []
    fault_pending = inject_fault
    for i, src in enumerate(entries):
        sys1 = src.kg.system
        for j, tgt in enumerate(entries):
            sys2 = tgt.kg.system
            f, count = count_epimorphisms(sys1.pointed, sys2.pointed)
            epis += count
            if f is None:
                continue
            phi = lift_graph_epi(f, sys1, sys2)
            corrupted = _corrupt(phi, sys1, sys2, f) if fault_pending else None
            if corrupted is not None:
                fault_pending = False
                message = ("fault injection not detected"
                           if relators_hold_by_matrices(corrupted)
                           else "injected relator fault detected "
                                "(expected failure)")
            elif not all((token, f.image[a], f.image[b]) in tgt.held
                         for token, a, b, _ in src.groups):
                message = f"relators failed for {f.image}"
            elif not is_onto_generators(phi):
                message = f"lift of onto map missed generators: {f.image}"
            elif (got := induced_k_map(sys1, tgt.kg, phi)).image != f.image:
                message = f"induced map {got.image}, expected {f.image}"
            else:
                continue
            failures.append((i, j, message))
    if fault_pending:
        raise PreconditionError(
            f"no lifted map between graphs with at most {max_vertices} "
            "vertices keeps a block to corrupt, so the injected fault "
            "could not be placed")
    return TheoremReport(len(graphs), len(graphs) ** 2, epis, failures)


def _corrupt(phi, sys1, sys2, f):
    """Reroute one block's position-2 image to position 1, which breaks the
    braid relator with position 3 whenever the block survives."""
    for v in range(sys1.vertex_count):
        g2 = sys1.generator(v, 2)
        if phi.images[g2] is not None:
            fv = f.image[v]
            images = list(phi.images)
            images[g2] = sys2.generator(fv, 1)
            return GeneratorMap(phi.source, phi.target, tuple(images))
    return None


def criterion_8():
    report = theorem_report(3)
    if report.failures:
        i, j, message = report.failures[0]
        return False, f"pair {i}->{j}: {message}"
    return True, (f"{report.graph_count} graphs, "
                  f"{report.pair_count} ordered pairs, "
                  f"{report.epimorphisms} epimorphisms all verified")


def criterion_9():
    """Form preservation and reduced-word roundtrip for every element of
    every finite standard subgroup the other criteria touch: the 4-chain,
    and every spherical subset of size <= 4 in every block system on at
    most 3 vertices."""
    systems = [build_L4()]
    systems += [build_C(g).matrix for g in all_labeled_graphs(3)]
    elements = 0
    for C in systems:
        union = set()
        top = min(C.n, 4)
        for size in range(1, top + 1):
            for T in itertools.combinations(range(C.n), size):
                if not is_spherical(C, T):
                    continue
                union.update(enumerate_parabolic(C, T))
        for w in union:
            if not preserves_form(C, w):
                return False, f"form violation in rank {C.n} system"
            if evaluate(C, reduced_word(C, w)) != w:
                return False, f"roundtrip failure in rank {C.n} system"
        elements += len(union)
    return True, f"{elements} distinct elements across {len(systems)} systems"


CRITERIA = [
    (1, "one-block group structure", criterion_1),
    (2, "longest element of the 4-chain", criterion_2),
    (3, "reduction equivalence", criterion_3),
    (4, "blocks are conjugacy-isolated", criterion_4),
    (5, "commuting involutions mirror adjacency", criterion_5),
    (6, "bounded centralizer sweep", criterion_6),
    (7, "reconstruction isomorphism", criterion_7),
    (8, "lifted maps induce the original map", criterion_8),
    (9, "engine invariants on touched subgroups", criterion_9),
]


def run_criterion(number: int, radius: int) -> CriterionResult:
    entry = next(e for e in CRITERIA if e[0] == number)
    start = time.monotonic()
    falsified = False
    try:
        passed, detail = entry[2](radius) if number == 6 else entry[2]()
    except FalsificationError as exc:
        passed, detail, falsified = False, f"falsification: {exc}", True
    elapsed = time.monotonic() - start
    return CriterionResult(number, entry[1], passed, elapsed, detail,
                           falsified)

