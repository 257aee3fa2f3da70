import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicox.errors import PreconditionError
from epicox.graphs import (FiniteGraph, PointedReflexiveGraph, VertexMap,
                           all_labeled_graphs, count_epimorphisms,
                           epimorphisms, f_reduce, find_epimorphism,
                           find_injective_hom, is_homomorphism, make_pointed)
from epicox.oracles import naive_hom_exists

from oracles import are_isomorphic, base_preserving_epis_by_product

TRIANGLE = FiniteGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = FiniteGraph.from_edges(3, [(0, 1), (1, 2)])
EDGE = FiniteGraph.from_edges(2, [(0, 1)])


def graphs_strategy(max_n=4):
    def build(n, bits):
        pairs = list(itertools.combinations(range(n), 2))
        edges = [p for p, b in zip(pairs, bits) if b]
        return FiniteGraph.from_edges(n, edges)
    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(build, st.just(n),
                            st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                                     max_size=n * (n - 1) // 2)))


def test_from_edges_symmetric():
    g = FiniteGraph.from_edges(3, [(0, 2)])
    assert g.adjacent(0, 2) and g.adjacent(2, 0)
    assert not g.adjacent(0, 1)


def test_asymmetric_adjacency_rejected():
    adj = ((False, True, False),
           (False, False, False),
           (False, False, False))
    with pytest.raises(PreconditionError):
        FiniteGraph(3, adj, False)


def test_irreflexive_loop_rejected():
    with pytest.raises(PreconditionError):
        FiniteGraph.from_edges(2, [(0, 0)])


def test_edges_lists_each_pair_once():
    assert TRIANGLE.edges() == [(0, 1), (0, 2), (1, 2)]


def test_reflexive_closure_and_without_loops_invert():
    r = PATH3.reflexive_closure()
    assert r.reflexive and all(r.adjacent(v, v) for v in r.vertices())
    assert r.without_loops() == PATH3


def test_isolated():
    g = FiniteGraph.from_edges(3, [(0, 1)])
    assert g.is_isolated(2)
    assert not g.is_isolated(0)


def test_make_pointed_base_dominates():
    p = make_pointed(TRIANGLE.reflexive_closure())
    assert p.base == 3
    assert p.graph.n == 4
    assert all(p.graph.adjacent(p.base, v) for v in range(4))


def test_pointed_requires_reflexive():
    with pytest.raises(PreconditionError):
        PointedReflexiveGraph(TRIANGLE, 0)


class TestFReduce:
    def test_complements_the_graph(self):
        p = f_reduce(PATH3)
        # 0-2 was the only non-edge, so it is the only non-base edge now
        assert p.graph.adjacent(0, 2)
        assert not p.graph.adjacent(0, 1)
        assert not p.graph.adjacent(1, 2)

    def test_adds_loops_and_base(self):
        p = f_reduce(PATH3)
        assert p.graph.reflexive
        assert p.base == 3
        assert all(p.graph.adjacent(3, v) for v in range(4))

    def test_rejects_isolated_vertex(self):
        with pytest.raises(PreconditionError):
            f_reduce(FiniteGraph.from_edges(2, []))

    def test_rejects_reflexive_input(self):
        with pytest.raises(PreconditionError):
            f_reduce(PATH3.reflexive_closure())


def test_is_homomorphism_respects_edges():
    f = VertexMap(2, 3, (0, 1))
    assert is_homomorphism(f, EDGE, TRIANGLE)
    g = VertexMap(2, 3, (0, 0))
    assert not is_homomorphism(g, EDGE, TRIANGLE)


@pytest.mark.parametrize("source,target,expected", [
    (EDGE, TRIANGLE, True),
    (TRIANGLE, EDGE, False),
    (PATH3, TRIANGLE, True),
    (TRIANGLE, PATH3, False),
])
def test_injective_hom_spot_checks(source, target, expected):
    assert (find_injective_hom(source, target) is not None) is expected


def test_injective_hom_matches_oracle_exhaustively():
    graphs = all_labeled_graphs(3)
    for g, h in itertools.product(graphs, repeat=2):
        got = find_injective_hom(g, h)
        assert (got is not None) == naive_hom_exists(g, h, injective=True)
        if got is not None:
            assert is_homomorphism(got, g, h)
            assert len(set(got.image)) == g.n


def test_epimorphism_matches_oracle_on_pointed_pairs():
    graphs = [make_pointed(g.reflexive_closure())
              for g in all_labeled_graphs(2, min_n=1)]
    for p, q in itertools.product(graphs, repeat=2):
        got = find_epimorphism(p, q)
        naive = False
        for image in itertools.product(range(q.n), repeat=p.n):
            if image[p.base] != q.base or set(image) != set(range(q.n)):
                continue
            f = VertexMap(p.n, q.n, image)
            if is_homomorphism(f, p.graph, q.graph):
                naive = True
                break
        assert (got is not None) == naive
        if got is not None:
            assert got.image[p.base] == q.base
            assert is_homomorphism(got, p.graph, q.graph)
            assert set(got.image) == set(range(q.n))


def test_epimorphisms_match_naive_product():
    """Same maps in the same order as the product over all image tuples, on
    every ordered pair of pointed graphs over <= 3 vertices, and the first
    of them is what find_epimorphism returns."""
    pointed = [make_pointed(g.reflexive_closure())
               for g in all_labeled_graphs(3)]
    total = 0
    for p, q in itertools.product(pointed, repeat=2):
        got = list(epimorphisms(p, q))
        assert got == base_preserving_epis_by_product(p, q), (p, q)
        assert find_epimorphism(p, q) == (got[0] if got else None)
        total += len(got)
    assert total == 375  # the check-theorem count at 3 vertices


def test_epimorphisms_pinned_base_not_last():
    # the pin need not be the last vertex: the base of a pointed graph can
    # sit anywhere, and the order stays lexicographic
    star = FiniteGraph.from_edges(3, [(1, 0), (1, 2)], reflexive=True)
    p = PointedReflexiveGraph(star, 1)
    q = make_pointed(EDGE.reflexive_closure())
    got = list(epimorphisms(p, q))
    assert got == base_preserving_epis_by_product(p, q)
    assert [f.image for f in got] == sorted(f.image for f in got)
    assert got


def test_epimorphisms_on_empty_source():
    empty = FiniteGraph.from_edges(0, [], reflexive=True)
    assert [f.image for f in epimorphisms(empty, empty)] == [()]
    assert list(epimorphisms(empty, EDGE.reflexive_closure())) == []


def test_count_epimorphisms_matches_the_enumeration_at_four_vertices():
    """On all 5,776 ordered pairs of pointed graphs over <= 4 vertices, the
    counter's first map and count are the first map and the length of
    ``epimorphisms``, 33,535 maps in all."""
    pointed = [make_pointed(g.reflexive_closure())
               for g in all_labeled_graphs(4)]
    pairs = total = 0
    for p, q in itertools.product(pointed, repeat=2):
        epis = list(epimorphisms(p, q))
        assert count_epimorphisms(p, q) == (epis[0] if epis else None,
                                            len(epis)), (p, q)
        pairs += 1
        total += len(epis)
    assert (pairs, total) == (5776, 33535)


def test_count_epimorphisms_matches_naive_product():
    """On every ordered pair of pointed graphs over <= 3 vertices, and
    with the base not last, the counter agrees with the product over all
    image tuples; 375 maps in all, the check-theorem count at 3."""
    pointed = [make_pointed(g.reflexive_closure())
               for g in all_labeled_graphs(3)]
    star = PointedReflexiveGraph(
        FiniteGraph.from_edges(3, [(1, 0), (1, 2)], reflexive=True), 1)
    total = 0
    for p, q in [*itertools.product(pointed, repeat=2),
                 *((star, q) for q in pointed)]:
        want = base_preserving_epis_by_product(p, q)
        assert count_epimorphisms(p, q) == (want[0] if want else None,
                                            len(want)), (p, q)
        total += len(want) if p is not star else 0
    assert total == 375


def test_count_epimorphisms_unpointed_and_empty():
    """Unpointed searches count as ``epimorphisms``, and the empty graph
    has one map onto itself and none onto anything else."""
    empty = FiniteGraph.from_edges(0, [], reflexive=True)
    assert count_epimorphisms(empty, empty) == (VertexMap(0, 0, ()), 1)
    assert count_epimorphisms(empty, EDGE.reflexive_closure()) == (None, 0)
    path, edge = PATH3.reflexive_closure(), EDGE.reflexive_closure()
    p, q = make_pointed(path), make_pointed(edge)
    for args in ((path, edge), (edge, path), (path, path), (p.graph, edge)):
        epis = list(epimorphisms(*args))
        assert count_epimorphisms(*args) == (epis[0] if epis else None,
                                             len(epis)), args
    with pytest.raises(PreconditionError):
        count_epimorphisms(p, edge)


@st.composite
def pointed_graphs(draw, max_n=8):
    """A pointed graph on 1 to max_n vertices, its base anywhere."""
    n = draw(st.integers(1, max_n))
    base = draw(st.integers(0, n - 1))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs),
                          max_size=len(pairs)))
    edges = [(u, v) for (u, v), take in zip(pairs, picks)
             if take or base in (u, v)]
    return PointedReflexiveGraph(
        FiniteGraph.from_edges(n, edges, reflexive=True), base)


@given(pointed_graphs(), pointed_graphs())
@settings(max_examples=60, deadline=None)
def test_count_epimorphisms_matches_the_enumeration(p, q):
    """On random pointed graphs of up to 8 vertices the counter's first
    map and count are those of ``epimorphisms``, whose every map is a
    base-preserving homomorphism onto the target."""
    epis = list(epimorphisms(p, q))
    assert count_epimorphisms(p, q) == (epis[0] if epis else None, len(epis))
    for f in epis:
        assert f.image[p.base] == q.base
        assert len(set(f.image)) == q.n
        assert is_homomorphism(f, p.graph, q.graph)


def test_find_epimorphism_unrestricted_mode():
    p = make_pointed(EDGE.reflexive_closure())
    got = find_epimorphism(p, p, base_preserving=False)
    assert got is not None


def test_are_isomorphic_relabeling():
    g = FiniteGraph.from_edges(3, [(0, 1)])
    h = FiniteGraph.from_edges(3, [(1, 2)])
    iso = are_isomorphic(g, h)
    assert iso is not None
    assert are_isomorphic(TRIANGLE, PATH3) is None


def test_are_isomorphic_flag_mismatch():
    assert are_isomorphic(PATH3, PATH3.reflexive_closure()) is None


def test_all_labeled_graphs_counts():
    # 2^C(n,2) per n: 1 + 1 + 2 + 8 = 12, then + 64
    assert len(all_labeled_graphs(3)) == 12
    assert len(all_labeled_graphs(4)) == 76
    assert len(all_labeled_graphs(3, min_n=1)) == 11


@given(graphs_strategy())
@settings(max_examples=60, deadline=None)
def test_f_reduce_properties(g):
    if any(g.is_isolated(v) for v in g.vertices()):
        with pytest.raises(PreconditionError):
            f_reduce(g)
        return
    p = f_reduce(g)
    assert p.graph.n == g.n + 1
    for u, v in itertools.combinations(range(g.n), 2):
        assert p.graph.adjacent(u, v) == (not g.adjacent(u, v))


@given(graphs_strategy(3), graphs_strategy(3))
@settings(max_examples=40, deadline=None)
def test_injective_search_agrees_with_oracle(g, h):
    assert (find_injective_hom(g, h) is not None) == \
        naive_hom_exists(g, h, injective=True)
