"""Independent brute-force oracles.

Everything here is deliberately naive: exhaustive vertex maps, plain
breadth-first search, relators evaluated as matrices.  The acceptance
criteria and the tests compare the package's answers against these rather
than against the code path under test.
"""

from __future__ import annotations

import itertools

from .coxeter import CoxeterMatrix, Word, evaluate, identity, mul_gen
from .errors import PreconditionError
from .homomorphisms import GeneratorMap, map_word, presentation_of


def naive_hom_exists(source, target, injective=False, onto=False) -> bool:
    """Exhaustive check over all vertex maps.  Loops count as edges."""
    for image in itertools.product(range(target.n), repeat=source.n):
        if injective and len(set(image)) != source.n:
            continue
        if onto and set(image) != set(range(target.n)):
            continue
        if all(not source.adj[u][v] or target.adj[image[u]][image[v]]
               for u in range(source.n) for v in range(u, source.n)):
            return True
    return False


def bfs_lengths(C, subset):
    """Word length of every element of the standard subgroup on subset,
    keyed by matrix.  Terminates only for a finite subgroup."""
    idn = identity(C)
    dist = {idn: 0}
    frontier = [idn]
    d = 0
    while frontier:
        nxt = []
        d += 1
        for w in frontier:
            for i in sorted(subset):
                cand = mul_gen(C, w, i)
                if cand not in dist:
                    dist[cand] = d
                    nxt.append(cand)
        frontier = nxt
    return dist


class RelatorMemo:
    """The matrix relator oracle for maps into one target system, memoised
    per pair of generator images.

    A relator of ``presentation_of``'s shape alternates two generators:
    (s_i s_j)^m, or s_i^2 with i = j.  Its mapped word is therefore fixed
    by (phi(s_i), phi(s_j), length), where an image may be the identity,
    and ``pairs`` holds one answer per such key.  Only on a key miss is the
    relator mapped to its word; ``answers`` holds one entry per distinct
    word, each evaluated once as integer matrices from the target's
    identity, so no answer comes from the label rule.  A relator of any
    other shape is refused, checked once per relator tuple.  A memo lives
    only as long as the run that fills it.
    """

    def __init__(self, target: CoxeterMatrix):
        self.target = target
        self.identity = identity(target)
        self.answers: dict[Word, bool] = {}
        self.pairs: dict[tuple[int | None, int | None, int], bool] = {}
        # relator tuples already checked for shape, by id
        self._checked: dict[int, tuple[Word, ...]] = {}

    def _check_shapes(self, relators) -> None:
        if self._checked.get(id(relators)) is relators:
            return
        for rel in relators:
            if not rel or tuple(rel) != tuple(rel[:2]) * (len(rel) // 2):
                raise PreconditionError(
                    f"relator {rel} is not (s_i s_j)^m or s_i^2")
        # only a tuple cannot change under its id between calls
        if isinstance(relators, tuple):
            self._checked[id(relators)] = relators

    def relators_hold(self, phi: GeneratorMap, relators) -> bool:
        """Does every relator, pushed through the map, evaluate to the
        identity?  relators are the source's, as ``presentation_of``
        gives them."""
        if phi.target != self.target:
            raise PreconditionError("map into a different target system")
        self._check_shapes(relators)
        img, pairs = phi.images, self.pairs
        for rel in relators:
            key = (img[rel[0]], img[rel[1]], len(rel))
            hit = pairs.get(key)
            if hit is None:
                word = map_word(phi, rel)
                hit = self.answers.get(word)
                if hit is None:
                    hit = self.answers[word] = (evaluate(self.target, word)
                                                == self.identity)
                pairs[key] = hit
            if not hit:
                return False
        return True


def relators_hold_by_matrices(phi: GeneratorMap) -> bool:
    """Does every source relator, pushed through the map, evaluate to the
    identity matrix of the target?  One-shot: a fresh memo per call."""
    return RelatorMemo(phi.target).relators_hold(
        phi, presentation_of(phi.source).relators)


def words_commute_by_matrices(C: CoxeterMatrix, wa: Word, wb: Word) -> bool:
    """Do the two words commute, evaluated at the full rank of C?"""
    return evaluate(C, wa + wb) == evaluate(C, wb + wa)
