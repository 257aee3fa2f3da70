"""Finite graphs, homomorphism search, and the complement-plus-base reduction.

Graphs are immutable: a vertex count plus a symmetric boolean adjacency
matrix.  Irreflexive graphs forbid self-loops, reflexive graphs carry all of
them.  A pointed graph is a reflexive graph together with a base vertex
adjacent to every vertex.

The reduction ``f_reduce`` sends an irreflexive graph without isolated
vertices to the complement with all loops added plus one fresh dominating
base vertex.  Injective homomorphisms between the originals then correspond
to surjective homomorphisms between the reduced graphs in the reverse
direction, which is what the acceptance suite checks exhaustively on small
instances.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

from .errors import PreconditionError, as_int

# The parsers refuse more vertices before allocating the n-by-n adjacency.
# The labels (4n rows of 4n bytes) and the output grow about as n^2.  On
# G(512, 1/2), Python 3.11, peak RSS (ru_maxrss) is 91 MB for
# build-coxeter, ks-classes and k-graph, 130 MB for emit-presentation and
# 177 MB for k-graph --json, of which importing the command line takes
# 28 MB.  At 1024 vertices four times the rest, about 0.6 GB for k-graph
# --json, is an estimate, not a measurement.
MAX_VERTICES = 512


@dataclass(frozen=True)
class FiniteGraph:
    n: int
    adj: tuple[tuple[bool, ...], ...]
    reflexive: bool = False

    def __post_init__(self):
        if self.n < 0:
            raise PreconditionError("vertex count must be nonnegative")
        if len(self.adj) != self.n or any(len(row) != self.n for row in self.adj):
            raise PreconditionError("adjacency matrix shape does not match n")
        for u in range(self.n):
            for v in range(u, self.n):
                if self.adj[u][v] != self.adj[v][u]:
                    raise PreconditionError(f"adjacency not symmetric at ({u},{v})")
        for v in range(self.n):
            if self.reflexive and not self.adj[v][v]:
                raise PreconditionError(f"reflexive graph missing loop at {v}")
            if not self.reflexive and self.adj[v][v]:
                raise PreconditionError(f"irreflexive graph has loop at {v}")

    @staticmethod
    def from_edges(n: int, edges, reflexive: bool = False) -> FiniteGraph:
        adj = [[False] * n for _ in range(n)]
        if reflexive:
            for v in range(n):
                adj[v][v] = True
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"edge ({u},{v}) out of range")
            if u == v and not reflexive:
                raise PreconditionError(f"loop at {u} in an irreflexive graph")
            adj[u][v] = True
            adj[v][u] = True
        return FiniteGraph(n, tuple(tuple(row) for row in adj), reflexive)

    def adjacent(self, u: int, v: int) -> bool:
        return self.adj[u][v]

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> list[tuple[int, int]]:
        """Edges between distinct vertices, as sorted pairs.  Loops of a
        reflexive graph are implied by the flag and not listed."""
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                if self.adj[u][v]]

    def is_isolated(self, v: int) -> bool:
        return not any(self.adj[v][u] for u in range(self.n) if u != v)

    def reflexive_closure(self) -> FiniteGraph:
        if self.reflexive:
            return self
        adj = tuple(tuple(x or (u == v) for v, x in enumerate(row))
                    for u, row in enumerate(self.adj))
        return FiniteGraph(self.n, adj, reflexive=True)

    def without_loops(self) -> FiniteGraph:
        if not self.reflexive:
            return self
        adj = tuple(tuple(x and (u != v) for v, x in enumerate(row))
                    for u, row in enumerate(self.adj))
        return FiniteGraph(self.n, adj, reflexive=False)

    @cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        """Each vertex's neighbours as a bitmask over the vertices: what
        the homomorphism search reads of a target.  Built once per
        graph."""
        return tuple(sum(1 << x for x, a in enumerate(row) if a)
                     for row in self.adj)


@dataclass(frozen=True)
class PointedReflexiveGraph:
    graph: FiniteGraph
    base: int

    def __post_init__(self):
        if not self.graph.reflexive:
            raise PreconditionError("pointed graphs must be reflexive")
        if not (0 <= self.base < self.graph.n):
            raise PreconditionError("base vertex out of range")
        for v in self.graph.vertices():
            if not self.graph.adjacent(self.base, v):
                raise PreconditionError(f"base not adjacent to vertex {v}")

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def search_plan(self) -> SearchPlan:
        """The base-preserving search's plan for this graph as a source:
        the base first, then the other vertices in order.  Built once per
        pointed graph."""
        return _search_plan(self.graph, self.base)


@dataclass(frozen=True)
class VertexMap:
    source_size: int
    target_size: int
    image: tuple[int, ...]

    def __post_init__(self):
        if len(self.image) != self.source_size:
            raise PreconditionError("image length does not match source size")
        for x in self.image:
            if not (0 <= x < self.target_size):
                raise PreconditionError(f"image value {x} out of range")


def make_pointed(g: FiniteGraph) -> PointedReflexiveGraph:
    """Adjoin a fresh base vertex (index n) adjacent to everything."""
    if not g.reflexive:
        raise PreconditionError("make_pointed expects a reflexive graph")
    n = g.n
    adj = [list(row) + [True] for row in g.adj]
    adj.append([True] * (n + 1))
    return PointedReflexiveGraph(
        FiniteGraph(n + 1, tuple(tuple(r) for r in adj), reflexive=True), n)


def f_reduce(g: FiniteGraph) -> PointedReflexiveGraph:
    """Complement the graph, add all loops, and adjoin a dominating base.

    Requires an irreflexive input without isolated vertices; isolation would
    make the base fail to be the unique dominating vertex, which the reverse
    translation of homomorphisms relies on.
    """
    if g.reflexive:
        raise PreconditionError("f_reduce expects an irreflexive graph")
    for v in g.vertices():
        if g.is_isolated(v):
            raise PreconditionError(f"vertex {v} is isolated")
    n = g.n
    complement = tuple(tuple(u == v or not g.adj[u][v] for v in range(n))
                       for u in range(n))
    return make_pointed(FiniteGraph(n, complement, reflexive=True))


def is_homomorphism(f: VertexMap, source: FiniteGraph, target: FiniteGraph) -> bool:
    if f.source_size != source.n or f.target_size != target.n:
        raise PreconditionError("map sizes do not match the graphs")
    for u in range(source.n):
        for v in range(u, source.n):
            if source.adj[u][v] and not target.adj[f.image[u]][f.image[v]]:
                return False
    return True


# A source graph's search order and, per place in it, the vertices placed
# before it that are its neighbours: those constrain the place's image.
SearchPlan = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


def _search_plan(source: FiniteGraph, first: int | None) -> SearchPlan:
    order = [v for v in range(source.n) if v != first]
    if first is not None:
        order.insert(0, first)
    return tuple(order), tuple(tuple(u for u in order[:k] if source.adj[u][v])
                               for k, v in enumerate(order))


def _completions(plan: SearchPlan, target: FiniteGraph, image: list[int], *,
                 injective: bool = False, onto: bool = False,
                 pin: int | None = None) -> Iterator[int]:
    """Backtrack over edge-preserving partial maps in lexicographic order,
    by bitmasks over the target; pin forces the plan's first vertex to
    that image.  For each partial map that fills every place but the
    last, written into image (one slot per source vertex), yield the
    nonzero bitmask of the last place's images that complete it.  The
    onto bound prunes every place by the images still missing; at the
    last place it leaves the one missing image or, when none is missing,
    every candidate.  The source needs at least one vertex.
    """
    order, constraints = plan
    neighbours = target.neighbour_masks
    m, last = target.n, len(order) - 1
    full = (1 << m) - 1

    def extend(k: int, used: int) -> Iterator[int]:
        cand = 1 << pin if pin is not None and k == 0 else full
        for u in constraints[k]:
            cand &= neighbours[image[u]]
        if injective:
            cand &= ~used
        if k == last:
            if onto:
                missing = full & ~used
                if missing & (missing - 1):
                    return
                if missing:
                    cand &= missing
            if cand:
                yield cand
            return
        v = order[k]
        while cand:
            low = cand & -cand
            cand ^= low
            # every image still missing must be hit after this place
            if onto and m - (used | low).bit_count() > last - k:
                continue
            image[v] = low.bit_length() - 1
            yield from extend(k + 1, used | low)

    yield from extend(0, 0)


def _maps(plan: SearchPlan, target: FiniteGraph, *, injective: bool = False,
          onto: bool = False, pin: int | None = None) -> Iterator[VertexMap]:
    """Every edge-preserving map in lexicographic order: each completion
    of ``_completions``, lowest image first.  A pinned first vertex has
    one image, so the order stays lexicographic."""
    order = plan[0]
    n, m = len(order), target.n
    if n == 0:
        if not (onto and m):
            yield VertexMap(0, m, ())
        return
    image = [0] * n
    v = order[-1]
    for cand in _completions(plan, target, image, injective=injective,
                             onto=onto, pin=pin):
        while cand:
            low = cand & -cand
            cand ^= low
            image[v] = low.bit_length() - 1
            yield VertexMap(n, m, tuple(image))


def find_injective_hom(source: FiniteGraph, target: FiniteGraph) -> VertexMap | None:
    """First injective edge-preserving map in lexicographic order, or None.
    Both graphs must be irreflexive."""
    if source.reflexive or target.reflexive:
        raise PreconditionError("injective search expects irreflexive graphs")
    if source.n > target.n:
        return None
    return next(_maps(_search_plan(source, None), target, injective=True),
                None)


def _unwrap(g) -> tuple[FiniteGraph, int | None]:
    if isinstance(g, PointedReflexiveGraph):
        return g.graph, g.base
    return g, None


def _epi_search(source, target, base_preserving: bool | None):
    """The source's plan, the target graph and the base pin of an
    epimorphism search, after its argument checks."""
    sg, sb = _unwrap(source)
    tg, tb = _unwrap(target)
    if (sb is None) != (tb is None):
        raise PreconditionError("mixed pointed and unpointed inputs")
    if not (sg.reflexive and tg.reflexive):
        raise PreconditionError("epimorphism search expects reflexive graphs")
    if base_preserving is None:
        base_preserving = sb is not None
    if base_preserving and sb is None:
        raise PreconditionError("base-preserving search needs pointed inputs")
    if base_preserving:
        return source.search_plan, tg, tb
    return _search_plan(sg, None), tg, None


def epimorphisms(source, target,
                 base_preserving: bool | None = None) -> Iterator[VertexMap]:
    """Every surjective homomorphism from source onto target, in
    lexicographic order of the image tuple.

    Both arguments are reflexive graphs or both are pointed graphs.  For
    pointed inputs the search restricts to base-preserving maps by default;
    pass ``base_preserving=False`` to search all onto homomorphisms (useful
    when the target base is forced anyway, as for reduced graphs).
    """
    plan, tg, pin = _epi_search(source, target, base_preserving)
    return _maps(plan, tg, onto=True, pin=pin)


def count_epimorphisms(source, target) -> tuple[VertexMap | None, int]:
    """The first map of ``epimorphisms(source, target)`` (None when there
    is none) and how many maps it yields, without building the others:
    each partial map that reaches the last place adds the bit count of its
    completions."""
    plan, tg, pin = _epi_search(source, target, None)
    order = plan[0]
    n, m = len(order), tg.n
    if n == 0:
        return (None, 0) if m else (VertexMap(0, 0, ()), 1)
    image = [0] * n
    first, count = None, 0
    for cand in _completions(plan, tg, image, onto=True, pin=pin):
        if first is None:
            image[order[-1]] = (cand & -cand).bit_length() - 1
            first = VertexMap(n, m, tuple(image))
        count += cand.bit_count()
    return first, count


def find_epimorphism(source, target, base_preserving: bool | None = None) -> VertexMap | None:
    """First map of ``epimorphisms``, or None."""
    return next(epimorphisms(source, target, base_preserving), None)


# --- file formats ---------------------------------------------------------
#
# Text: first data line "n <count> [reflexive|irreflexive] [base <i>]",
# then one "e <u> <v>" line per edge, 0-indexed.  Blank lines and lines
# starting with "#" are skipped.  Loops are implied by the reflexive flag
# and never listed.  JSON mirrors the same fields.


def graph_to_text(g) -> str:
    fg, base = _unwrap(g)
    head = f"n {fg.n} " + ("reflexive" if fg.reflexive else "irreflexive")
    if base is not None:
        head += f" base {base}"
    lines = [head] + [f"e {u} {v}" for u, v in fg.edges()]
    return "\n".join(lines) + "\n"


def _vertex_count(value) -> int:
    n = as_int(value, "vertex count")
    if n > MAX_VERTICES:
        raise PreconditionError(
            f"vertex count {n} is above the ceiling of {MAX_VERTICES}")
    return n


def graph_from_text(text: str):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise PreconditionError("empty graph description")
    head = lines[0].split()
    if len(head) < 2 or head[0] != "n":
        raise PreconditionError("first line must be 'n <count> ...'")
    n = _vertex_count(head[1])
    reflexive = False
    base = None
    rest = head[2:]
    while rest:
        tok = rest.pop(0)
        if tok == "reflexive":
            reflexive = True
        elif tok == "irreflexive":
            reflexive = False
        elif tok == "base":
            if not rest:
                raise PreconditionError("'base' needs a vertex index")
            base = as_int(rest.pop(0), "base vertex")
            reflexive = True
        else:
            raise PreconditionError(f"unknown header token {tok!r}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] != "e":
            raise PreconditionError(f"bad edge line {ln!r}")
        u, v = (as_int(x, "edge endpoint") for x in parts[1:])
        if u == v:
            if not reflexive:
                raise PreconditionError(f"loop at {u} in an irreflexive graph")
            continue
        edges.append((u, v))
    fg = FiniteGraph.from_edges(n, edges, reflexive)
    if base is not None:
        return PointedReflexiveGraph(fg, base)
    return fg


def graph_to_json_dict(g) -> dict:
    fg, base = _unwrap(g)
    d = {"n": fg.n, "edges": [[u, v] for u, v in fg.edges()],
         "reflexive": fg.reflexive}
    if base is not None:
        d["base"] = base
    return d


def graph_from_json_dict(d: dict):
    try:
        n = _vertex_count(d["n"])
        edges = [(as_int(u, "edge endpoint"), as_int(v, "edge endpoint"))
                 for u, v in d.get("edges", [])]
        reflexive = d.get("reflexive", False)
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed graph JSON: {exc}") from exc
    if not isinstance(reflexive, bool):
        raise PreconditionError(
            f"'reflexive' must be true or false, not {reflexive!r}")
    base = d.get("base")
    if base is not None:
        base = as_int(base, "base vertex")
        reflexive = True
    edges = [e for e in edges if e[0] != e[1]] if reflexive else edges
    fg = FiniteGraph.from_edges(n, edges, reflexive)
    if base is not None:
        return PointedReflexiveGraph(fg, base)
    return fg


def all_labeled_graphs(max_n: int, min_n: int = 0) -> list[FiniteGraph]:
    """Every labeled irreflexive graph with min_n..max_n vertices, in a
    deterministic order.  Grows as 2^C(n,2); meant for small n."""
    out = []
    for n in range(min_n, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for picks in itertools.product([False, True], repeat=len(pairs)):
            edges = [p for p, take in zip(pairs, picks) if take]
            out.append(FiniteGraph.from_edges(n, edges))
    return out
