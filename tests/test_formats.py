"""Text and JSON round trips for every serialized object."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicox.construction import build_C, build_L4
from epicox.coxeter import CoxeterMatrix, coxeter_to_json_dict
from epicox.errors import PreconditionError
from epicox.graphs import (MAX_VERTICES, FiniteGraph, PointedReflexiveGraph,
                           graph_from_json_dict, graph_from_text,
                           graph_to_json_dict, graph_to_text, make_pointed)
from epicox.homomorphisms import (Presentation, presentation_of,
                                  presentation_to_json_dict,
                                  presentation_to_text)

PATH3 = FiniteGraph.from_edges(3, [(0, 1), (1, 2)])


def graphs_strategy():
    def build(n, bits, reflexive):
        pairs = list(itertools.combinations(range(n), 2))
        edges = [p for p, b in zip(pairs, bits) if b]
        return FiniteGraph.from_edges(n, edges, reflexive)
    return st.integers(1, 5).flatmap(
        lambda n: st.builds(build, st.just(n),
                            st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                                     max_size=n * (n - 1) // 2),
                            st.booleans()))


# --- graphs ------------------------------------------------------------------


@given(graphs_strategy())
@settings(max_examples=60, deadline=None)
def test_graph_text_roundtrip(g):
    assert graph_from_text(graph_to_text(g)) == g


@given(graphs_strategy())
@settings(max_examples=60, deadline=None)
def test_graph_json_roundtrip(g):
    assert graph_from_json_dict(
        json.loads(json.dumps(graph_to_json_dict(g)))) == g


def test_pointed_text_roundtrip():
    p = make_pointed(PATH3.reflexive_closure())
    back = graph_from_text(graph_to_text(p))
    assert isinstance(back, PointedReflexiveGraph)
    assert back == p


def test_pointed_json_roundtrip():
    p = make_pointed(PATH3.reflexive_closure())
    assert graph_from_json_dict(graph_to_json_dict(p)) == p


def test_text_comments_and_blanks_skipped():
    text = "# a path\n\nn 3 irreflexive\ne 0 1\n# middle\ne 1 2\n"
    assert graph_from_text(text) == PATH3


@pytest.mark.parametrize("bad", [
    "",
    "m 3\n",
    "n x\n",
    "n 2 sideways\n",
    "n 2 irreflexive\ne 0 0\n",
    "n 2 irreflexive\nedge 0 1\n",
    "n 2 irreflexive\ne 0 5\n",
    "n 3 base x\n",
    "n 2\ne a b\n",
])
def test_malformed_text_rejected(bad):
    with pytest.raises(PreconditionError):
        graph_from_text(bad)


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, []])
def test_json_reflexive_must_be_boolean(flag):
    with pytest.raises(PreconditionError):
        graph_from_json_dict({"n": 2, "reflexive": flag})


@pytest.mark.parametrize("bad", [1.5, True, "x", 3.0])
@pytest.mark.parametrize("field", ["n", "u", "v"])
def test_graph_json_integers_are_strict(field, bad):
    # 1.5, true and 3.0 would truncate to a vertex count or endpoint the
    # rest of the dict accepts, so only the integer rule refuses them
    if field == "n":
        d = {"n": bad}
    else:
        d = {"n": 4, "edges": [[0, 2]]}
        d["edges"][0]["uv".index(field)] = bad
    with pytest.raises(PreconditionError):
        graph_from_json_dict(d)


@pytest.mark.parametrize("parse", [
    lambda n: graph_from_text(f"n {n} irreflexive\n"),
    lambda n: graph_from_json_dict({"n": n}),
], ids=["text", "json"])
def test_vertex_ceiling_refused_before_allocation(monkeypatch, parse):
    def allocate(*args, **kwargs):
        raise AssertionError("adjacency allocated for an oversize graph")

    monkeypatch.setattr(FiniteGraph, "from_edges", allocate)
    with pytest.raises(PreconditionError, match="ceiling"):
        parse(MAX_VERTICES + 1)


def test_loop_lines_tolerated_when_reflexive():
    g = graph_from_text("n 2 reflexive\ne 0 0\ne 0 1\n")
    assert g.reflexive and g.adjacent(0, 1)


# --- label matrices ----------------------------------------------------------


@pytest.mark.parametrize("C", [build_L4(), build_C(PATH3).matrix])
def test_coxeter_json_roundtrip(C):
    # the JSON `build-coxeter --json` writes determines the label matrix
    d = json.loads(json.dumps(coxeter_to_json_dict(C)))
    assert CoxeterMatrix.from_labels(d["n"], d["labels"], d["names"]) == C


def test_coxeter_json_omits_infinite_labels():
    d = coxeter_to_json_dict(build_C(PATH3).matrix)
    assert all(m in (2, 3) for _, _, m in d["labels"])


# --- presentations -----------------------------------------------------------


def test_presentation_json_roundtrip():
    p = presentation_of(build_L4())
    d = json.loads(json.dumps(presentation_to_json_dict(p)))
    index = {name: i for i, name in enumerate(d["generators"])}
    assert Presentation(tuple(d["generators"]), tuple(
        tuple(index[x] for x in rel) for rel in d["relators"])) == p


def test_presentation_text_mentions_each_generator():
    p = presentation_of(build_L4())
    text = presentation_to_text(p)
    for name in p.names:
        assert name in text
