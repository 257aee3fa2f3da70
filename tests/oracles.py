"""Brute-force oracles only the tests use: Fraction determinants, a
permutation model of the 4-chain, the subset scan that the labelled 4-chain
census replaced, the set-deduplicating ball and membership-first
centralizer sweep that the descent-keyed ball and the probe-first sweep
replaced, the product over all vertex maps that the backtracking
epimorphism enumeration replaced, a graph isomorphism search over vertex
permutations (no command needs one, so the library keeps none), the
per-call lift and induced pointed class map that the per-system lift
tables replaced, the conjugation step checked by inverse and full products
that the row-against-column check replaced, the normaliser certificate
with its class test at rank 8 that the block-rank class test replaced, the
class test over all of W_J that the one over subsets replaced, the label
rule over all pairs of generators that the loop over finite-label pairs
replaced, and the theorem check with every epimorphism through the full
path that the key tables and the first-epimorphism rule replaced, and the
label shape of a generator map's two block images, the key the theorem
check reads off a target pair instead.  The oracles shared with the
acceptance criteria live in ``epicox.oracles``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from epicox.acceptance import _corrupt
from epicox.construction import BLOCK_SIZE
from epicox.coxeter import (INFINITE, enumerate_parabolic, evaluate,
                            gram_matrix, identity, invert, is_spherical,
                            length, longest_element, mul, simple_reflection)
from epicox.errors import (EnumerationCapExceeded, FalsificationError,
                           InternalInconsistencyError, PreconditionError)
from epicox.graphs import VertexMap, all_labeled_graphs, epimorphisms
from epicox.homomorphisms import (GeneratorMap, induced_k_map,
                                  is_onto_generators, lift_graph_epi)
from epicox.oracles import (_conjugation_distances, _even_involutions,
                            relators_hold_by_matrices)
from epicox.parabolics import (conjugacy_component, ks_component_candidate,
                               ks_step)
from epicox.reconstruction import _named, k_graph


def fraction_minors(C, subset):
    """Leading principal minors of the doubled pairing restricted to the
    subset, each by direct permutation expansion.  O(k * k!) and proud."""
    order = sorted(subset)
    B = gram_matrix(C)
    return tuple(
        _det([[Fraction(B[i][j]) for j in order[:size]]
              for i in order[:size]])
        for size in range(1, len(order) + 1))


def _det(a):
    n = len(a)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= a[i][perm[i]]
        total += sign * prod
    return total


# --- the block census, by brute force ----------------------------------------


def s5_subsets_by_enumeration(C) -> set[frozenset[int]]:
    """Subsets of at most four generators whose standard subgroup has order
    120 and is nonabelian: every subset is tested for sphericity, and every
    spherical one is enumerated as a matrix group and its generators are
    multiplied pairwise."""
    hits = set()
    for size in range(1, 5):
        for T in itertools.combinations(range(C.n), size):
            if not is_spherical(C, T):
                continue
            if len(enumerate_parabolic(C, T)) != 120:
                continue
            gens = [simple_reflection(C, i) for i in T]
            if any(mul(a, b) != mul(b, a)
                   for a, b in itertools.combinations(gens, 2)):
                hits.add(frozenset(T))
    return hits


# --- a permutation model for the 4-chain -----------------------------------
#
# Generators i = 0..3 act on {0..4} as the adjacent transpositions (i, i+1).
# Word length in the group equals the inversion count of the permutation.


def perm_of_word(word) -> tuple[int, ...]:
    perm = list(range(5))
    for i in word:
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)


def inversions(perm) -> int:
    return sum(1 for a, b in itertools.combinations(range(len(perm)), 2)
               if perm[a] > perm[b])


def compose(p, q):
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


# --- the ball and the centralizer sweep, by brute force ----------------------
#
# Breadth-first products with every generator, deduplicated against a set of
# tuple keys holding the whole ball; the sweep drops the members of the first
# block's subgroup before testing commutation.  Exact at the radii the tests
# use: entries stay far below the int64 range.

_ORACLE_INT64_SAFE = 2**61


def _flat_key(arr) -> tuple:
    return tuple(arr.reshape(-1).tolist())


def ball_levels_by_set(C, radius, cap=None):
    """Elements of length <= radius grouped by length, each level in order
    of discovery: previous level order, then generator index."""
    if radius < 0:
        raise PreconditionError("radius must be nonnegative")
    n = C.n
    idn = np.eye(n, dtype=np.int64)[None, :, :]
    levels = [idn]
    if radius == 0 or n == 0:
        return levels
    gens = [np.array(simple_reflection(C, i), dtype=np.int64)
            for i in range(n)]
    seen = {_flat_key(idn[0])}
    total = 1
    cur = idn
    as_object = False
    for _ in range(radius):
        if not as_object and int(np.abs(cur).max()) > _ORACLE_INT64_SAFE // 3:
            as_object = True
            cur = cur.astype(object)
            gens = [g.astype(object) for g in gens]
        cands = np.concatenate([cur.dot(g) for g in gens], axis=0)
        fresh = []
        for idx in range(cands.shape[0]):
            key = _flat_key(cands[idx])
            if key not in seen:
                seen.add(key)
                fresh.append(idx)
        if not fresh:
            break
        total += len(fresh)
        if cap is not None and total > cap:
            raise EnumerationCapExceeded(f"ball enumeration exceeded cap {cap}")
        cur = cands[fresh]
        levels.append(cur)
    return levels


def assert_same_levels(got, want):
    """Same element set per level, compared by raw int64 bytes and by count
    (exact object levels are cast back, which raises if out of range)."""
    assert [len(lv) for lv in got] == [len(lv) for lv in want]
    for lg, lw in zip(got, want):
        keys = [w.tobytes() for w in lg.astype(np.int64)]
        assert len(set(keys)) == len(keys)
        assert set(keys) == {w.tobytes() for w in lw.astype(np.int64)}


def centralizer_sweep_by_membership(sub, radius) -> bool:
    """True when no element of length 1..radius outside the subgroup of the
    first block commutes with an even involution of that subgroup."""
    first_block = frozenset(range(BLOCK_SIZE))
    s5 = enumerate_parabolic(sub, first_block)
    s5_mats = set(s5)
    idn = identity(sub)
    invs = [w for w in s5
            if w != idn and mul(w, w) == idn and length(sub, w) % 2 == 0]
    if radius == 0 or not invs:
        return True
    inv_np = [np.array(w, dtype=np.int64) for w in invs]
    for level in ball_levels_by_set(sub, radius)[1:]:
        outside = []
        for a in level:
            mat = tuple(tuple(int(x) for x in row) for row in a)
            if mat not in s5_mats:
                outside.append(a)
        if not outside:
            continue
        X = np.stack(outside)
        if X.dtype == object:
            for a in inv_np:
                ao = a.astype(object)
                for idx in range(X.shape[0]):
                    if (X[idx].dot(ao) == ao.dot(X[idx])).all():
                        return False
        else:
            for a in inv_np:
                eq = np.matmul(X, a) == np.matmul(a, X)
                if eq.all(axis=(1, 2)).any():
                    return False
    return True


# --- base-preserving epimorphisms, by naive enumeration ------------------------


def base_preserving_epis_by_product(src_p, tgt_p) -> list[VertexMap]:
    """Every base-preserving onto homomorphism between two pointed graphs:
    each tuple of images for the non-base vertices, in product order, with
    the base spliced in, kept when onto and edge-preserving."""
    sg, tg, b = src_p.graph, tgt_p.graph, src_p.base
    out = []
    for picks in itertools.product(range(tg.n), repeat=sg.n - 1):
        image = picks[:b] + (tgt_p.base,) + picks[b:]
        if len(set(image)) == tg.n and all(
                not sg.adj[u][v] or tg.adj[image[u]][image[v]]
                for u in range(sg.n) for v in range(u, sg.n)):
            out.append(VertexMap(sg.n, tg.n, image))
    return out


# --- graph isomorphism, by permutations -------------------------------------


def are_isomorphic(g, h) -> VertexMap | None:
    """The first vertex permutation, in lexicographic order, that carries
    g's adjacency onto h's exactly (loops included), or None."""
    if g.n != h.n or g.reflexive != h.reflexive:
        return None
    for perm in itertools.permutations(range(g.n)):
        if all(g.adj[u][v] == h.adj[perm[u]][perm[v]]
               for u in range(g.n) for v in range(u, g.n)):
            return VertexMap(g.n, h.n, perm)
    return None


# --- lifts and induced class maps, per call ------------------------------------
#
# Every generator's (vertex, position) is read through block_of, every image
# through generator, every block through sorted(block(v)), and every image
# set J is looked up by scanning the target's classes in order.


def lift_images_per_call(f, source_system, target_system) -> GeneratorMap:
    """The lift of a base-preserving epimorphism f: position i of the
    block of v goes to position i of the block of f(v), or to the identity
    when f(v) is the base.  f is taken as valid, not checked."""
    base = target_system.pointed.base
    images = []
    for g in range(source_system.matrix.n):
        v, pos = source_system.block_of(g)
        fv = f.image[v]
        images.append(None if fv == base
                      else target_system.generator(fv, pos))
    return GeneratorMap(source_system.matrix, target_system.matrix,
                        tuple(images))


def induced_classes_per_call(source_system, target, phi) -> VertexMap:
    """Where each source block goes: the base for at most one image
    generator, else the first target class holding the image set; the base
    goes to the base, appended last after the classes."""
    base = len(target.classes)
    image = []
    for v in range(source_system.vertex_count):
        J = frozenset(phi.images[g] for g in sorted(source_system.block(v))
                      if phi.images[g] is not None)
        if len(J) <= 1:
            image.append(base)
            continue
        hits = [u for u, cls in enumerate(target.classes) if J in cls.members]
        if not hits:
            raise FalsificationError(f"image set {sorted(J)} is in no class")
        image.append(hits[0])
    return VertexMap(len(image) + 1, base + 1, tuple(image) + (base,))


# --- the conjugation step, checked by inverse and full products ----------------


def ks_step_by_products(C, subset, s):
    """One step out of the subset along s, its conjugator nu checked as
    nu^-1 s_i nu, with nu^-1 from a reduced word and both products full."""
    I = frozenset(subset)
    if s in I:
        raise PreconditionError(f"generator {s} already belongs to the subset")
    K = ks_component_candidate(C, I, s)
    if not is_spherical(C, K):
        return None
    nu = mul(longest_element(C, K - {s}), longest_element(C, K))
    nu_inv = invert(C, nu)
    target = set(I - K)
    for i in sorted(I - K):
        si = simple_reflection(C, i)
        if mul(mul(nu_inv, si), nu) != si:
            raise InternalInconsistencyError(
                f"conjugator moved generator {i} outside the component")
    for i in sorted(I & K):
        conj = mul(mul(nu_inv, simple_reflection(C, i)), nu)
        for j in range(C.n):
            if conj == simple_reflection(C, j):
                target.add(j)
                break
        else:
            raise InternalInconsistencyError(
                f"conjugate of generator {i} is not a simple reflection")
    J = frozenset(target)
    if len(J) != len(I):
        raise InternalInconsistencyError(
            f"step changed subset size: {sorted(I)} -> {sorted(J)}")
    return J


# --- the normaliser certificate, its class test by enumeration -----------------


def one_even_class_by_enumeration(sub, block, I=(0, 2)) -> bool:
    """The certificate's class test over all of W_J, J the block: the
    product of the pair I is a nonidentity involution of even length, and
    every other such involution is conjugate to it in W_J, by S @ S == I
    over the whole subgroup and Floyd-Warshall over its conjugations."""
    A = _even_involutions(sub, block)
    hit = np.flatnonzero(
        (A == np.array(evaluate(sub, I), dtype=np.int64)).all(axis=(1, 2)))
    # a path between involutions is shorter than their count
    return bool(len(hit)) and not \
        (_conjugation_distances(sub, block, A, len(A))[hit[0]]
         >= len(A)).any()


def centralizer_certificate_at_rank_8(labels) -> bool:
    """The certificate with the first block's even involutions and their
    W_J-class read in the whole rank-8 subsystem, not in W_J's own."""
    sub = _named(labels)
    block = frozenset(range(BLOCK_SIZE))
    I = (0, 2)
    if not one_even_class_by_enumeration(sub, block, I):
        return False
    members = conjugacy_component(sub, I).members
    return all(X <= block for X in members) and \
        all(ks_step(sub, X, s) is None
            for X in members for s in range(BLOCK_SIZE, sub.n))


# --- the label rule, over all pairs of generators ------------------------------


def verify_relators_all_pairs(phi) -> bool:
    """The label rule read over every pair i < j of source generators,
    infinite labels skipped one by one: (s_i s_j)^m holds exactly when the
    images are equal, or one is the identity and m is even, or they are
    distinct generators with target label m."""
    src, tgt, img = phi.source, phi.target, phi.images
    for i, a in enumerate(img):
        row = src.m[i]
        for j in range(i + 1, src.n):
            m, b = row[j], img[j]
            if m == INFINITE or a == b:
                continue
            if a is None or b is None:
                if m % 2:
                    return False
            elif tgt.m[a][b] != m:
                return False
    return True


# --- the theorem check, every epimorphism through the full path ----------------


def full_path_passes(f, src, tgt) -> bool:
    """Whether a base-preserving vertex map f between the pointed graphs of
    two class graphs passes the full check: it lifts, the lift's relators
    hold as matrices, it hits every generator, and it induces f."""
    try:
        phi = lift_graph_epi(f, src.system, tgt.system)
    except PreconditionError:  # not a homomorphism of pointed graphs
        return False
    return (relators_hold_by_matrices(phi) and is_onto_generators(phi)
            and induced_k_map(src.system, tgt, phi) == f)


def theorem_outcomes_by_full_path(max_vertices, inject_fault=False):
    """(source, target, epimorphisms, ok, message) per ordered pair, with
    every epimorphism through the full check and no table: the loop the
    key tables replaced, as it was."""
    kgs = [k_graph(g) for g in all_labeled_graphs(max_vertices)]
    outcomes = []
    fault_pending = inject_fault
    for i, src in enumerate(kgs):
        sys1 = src.system
        for j, tgt in enumerate(kgs):
            sys2 = tgt.system
            epis = list(epimorphisms(sys1.pointed, sys2.pointed))
            ok, message = True, "ok"
            for f in epis:
                phi = lift_graph_epi(f, sys1, sys2)
                if fault_pending:
                    corrupted = _corrupt(phi, sys1, sys2, f)
                    if corrupted is not None:
                        fault_pending, ok = False, False
                        message = (
                            "fault injection not detected"
                            if relators_hold_by_matrices(corrupted)
                            else "injected relator fault detected "
                                 "(expected failure)")
                        break
                if not relators_hold_by_matrices(phi):
                    ok, message = False, f"relators failed for {f.image}"
                    break
                if not is_onto_generators(phi):
                    ok, message = False, \
                        f"lift of onto map missed generators: {f.image}"
                    break
                got = induced_k_map(sys1, tgt, phi)
                if got.image != f.image:
                    ok, message = False, (f"induced map {got.image}, "
                                          f"expected {f.image}")
                    break
            outcomes.append((i, j, len(epis), ok, message))
    return outcomes


def map_shape(phi, a, b):
    """The label shape of a generator map's images of the blocks of source
    vertices a and b, a's four then b's: the images in local letters,
    numbered in order of first appearance (None, the identity, stays None),
    and the target labels among those letters.  Read off the built map;
    the theorem check reads the same shape off the target pair (x, y)
    alone (``acceptance._pair_shapes``)."""
    img = phi.images
    local = {}
    letters = tuple(None if g is None else local.setdefault(g, len(local))
                    for g in img[a * BLOCK_SIZE:(a + 1) * BLOCK_SIZE]
                    + img[b * BLOCK_SIZE:(b + 1) * BLOCK_SIZE])
    return letters, tuple(tuple(phi.target.m[g][h] for h in local)
                          for g in local)
