"""Engine tests: exact matrices, descents, reduced words, sphericity.

The 4-chain gets the heaviest treatment because the permutation model of
its group is an independent oracle: generator i acts as the adjacent
transposition (i, i+1) on five points and word length equals the inversion
count.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicox import coxeter
from epicox.construction import build_C, build_L4
from epicox.coxeter import (INFINITE, CoxeterMatrix,
                            close_under_multiplication, enumerate_parabolic,
                            evaluate, identity, invert, is_descent,
                            is_spherical, leading_minors, length,
                            longest_element, mul, mul_gen, parabolic_levels,
                            preserves_form, reduced_word, simple_reflection)
from epicox.errors import EnumerationCapExceeded, PreconditionError
from epicox.graphs import FiniteGraph, all_labeled_graphs
from epicox.oracles import ball_levels, bfs_lengths, exact_dtype

from oracles import (assert_same_levels, ball_levels_by_set,
                     fraction_minors, inversions, perm_of_word)

L4 = build_L4()
DIHEDRAL_INF = CoxeterMatrix.from_labels(2, [(0, 1, INFINITE)])
DIHEDRAL_3 = CoxeterMatrix.from_labels(2, [(0, 1, 3)])
RIGHT_ANGLE = CoxeterMatrix.from_labels(2, [(0, 1, 2)])


def words(C, max_len=8):
    return st.lists(st.integers(0, C.n - 1), max_size=max_len).map(tuple)


# --- construction-time validation ------------------------------------------


def test_bad_label_rejected():
    with pytest.raises(PreconditionError):
        CoxeterMatrix.from_labels(2, [(0, 1, 5)])


def test_diagonal_must_be_one():
    with pytest.raises(PreconditionError):
        CoxeterMatrix(2, ((2, 3), (3, 1)), ("a", "b"))


def test_int_rows_equal_the_bytes_rows():
    """Rows given as int tuples are stored as bytes, and the matrix equals
    and hashes like the one from_labels builds."""
    given = CoxeterMatrix(3, ((1, 3, 0), (3, 1, 2), (0, 2, 1)),
                          ("g0", "g1", "g2"))
    built = CoxeterMatrix.from_labels(3, [(0, 1, 3), (1, 2, 2)])
    assert given == built and hash(given) == hash(built)
    assert given.m == built.m == (b"\1\3\0", b"\3\1\2", b"\0\2\1")
    assert (given.m[0][1], given.m[0][2]) == (3, INFINITE)


@pytest.mark.parametrize("rows,message", [
    (((1, -1), (-1, 1)), "label -1 at (0,1) outside {2,3,oo}"),
    (((1, 256), (256, 1)), "label 256 at (0,1) outside {2,3,oo}"),
    (((1, 2.5), (2.5, 1)), "label 2.5 at (0,1) outside {2,3,oo}"),
    (((1, 1), (1, 1)), "label 1 at (0,1) outside {2,3,oo}"),
    (((1, 2), (3, 1)), "labels not symmetric at (0,1)"),
    (((2, 3), (3, 1)), "diagonal label at 0 must be 1"),
    (((1, 2, 3), (2, 1, -1), (3, -1, 1)),
     "label -1 at (1,2) outside {2,3,oo}"),
    (((1, 2.0), (2.0, 1)), "labels must be integers"),
], ids=["-1", "256", "2.5", "off-diagonal 1", "asymmetric", "diagonal",
        "first bad label", "float 2.0"])
def test_bad_labels_are_named(rows, message):
    """Each bad label is a PreconditionError naming the first one, never a
    ValueError or TypeError from the bytes conversion.  A float equal to a
    label is refused too."""
    with pytest.raises(PreconditionError) as err:
        CoxeterMatrix(len(rows), rows, tuple("abc"[:len(rows)]))
    assert str(err.value) == message


@pytest.mark.parametrize("label", [-1, 256, 2.5])
def test_from_labels_refuses_a_label_outside_a_byte(label):
    with pytest.raises(PreconditionError) as err:
        CoxeterMatrix.from_labels(3, [(0, 1, 2), (2, 1, label)])
    assert str(err.value) == f"label {label} at (1,2) outside {{2,3,oo}}"


@st.composite
def near_valid_rows(draw):
    """A valid label matrix as int rows, with one entry maybe overwritten."""
    n = draw(st.integers(1, 5))
    rows = [[1 if i == j else INFINITE for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        rows[i][j] = rows[j][i] = draw(st.sampled_from([2, 3, INFINITE]))
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = \
            draw(st.sampled_from([-1, 0, 1, 2, 3, 4, 255, 256]))
    return tuple(map(tuple, rows))


def _valid_by_definition(rows):
    n = len(rows)
    return all(rows[i][i] == 1 for i in range(n)) and all(
        rows[i][j] == rows[j][i] and rows[i][j] in (2, 3, INFINITE)
        for i, j in itertools.combinations(range(n), 2))


@settings(max_examples=300, deadline=None)
@given(near_valid_rows())
def test_bytes_checks_accept_exactly_the_valid_matrices(rows):
    names = tuple(f"g{i}" for i in range(len(rows)))
    if _valid_by_definition(rows):
        assert CoxeterMatrix(len(rows), rows, names).m == \
            tuple(map(bytes, rows))
    else:
        with pytest.raises(PreconditionError):
            CoxeterMatrix(len(rows), rows, names)


def test_duplicate_names_rejected():
    with pytest.raises(PreconditionError):
        CoxeterMatrix.from_labels(2, [(0, 1, 2)], names=("a", "a"))


def test_submatrix_keeps_given_order():
    sub = L4.submatrix((2, 0))
    assert sub.names == (L4.names[2], L4.names[0])
    assert sub.label(0, 1) == L4.label(2, 0) == 2


# --- generators and multiplication ------------------------------------------


def test_simple_reflection_is_involution():
    for i in range(4):
        s = simple_reflection(L4, i)
        assert mul(s, s) == identity(L4)
        assert s != identity(L4)


def test_mul_gen_matches_mul():
    w = evaluate(L4, (0, 1, 2))
    for i in range(4):
        assert mul_gen(L4, w, i) == mul(w, simple_reflection(L4, i))


# block systems of rank 8 (an edge) and 12 (a path on three vertices)
BLOCK_SYSTEMS = [build_C(FiniteGraph.from_edges(2, [(0, 1)])).matrix,
                 build_C(FiniteGraph.from_edges(3, [(0, 1), (1, 2)])).matrix]


@pytest.mark.parametrize("C", BLOCK_SYSTEMS, ids=["rank 8", "rank 12"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mul_gen_matches_full_products_on_block_systems(C, data):
    """mul_gen is a full product with a simple reflection, keeping every
    row with 0 in column i as it is, and evaluate is the full product of
    the word's simple reflections."""
    word = data.draw(words(C, max_len=12))
    i = data.draw(st.integers(0, C.n - 1))
    w = evaluate(C, word)
    got = mul_gen(C, w, i)
    assert got == mul(w, simple_reflection(C, i))
    assert all(new is row for new, row in zip(got, w) if row[i] == 0)
    full = identity(C)
    for g in word:
        full = mul(full, simple_reflection(C, g))
    assert w == full


def test_braid_relation_holds():
    a, b = simple_reflection(L4, 0), simple_reflection(L4, 1)
    lhs = mul(a, mul(b, a))
    rhs = mul(b, mul(a, b))
    assert lhs == rhs


def test_commuting_relation_holds():
    a, c = simple_reflection(L4, 0), simple_reflection(L4, 2)
    assert mul(a, c) == mul(c, a)


def test_infinite_pair_never_closes():
    # (st)^k walks off to infinity; check the first few powers are distinct
    a, b = simple_reflection(DIHEDRAL_INF, 0), simple_reflection(DIHEDRAL_INF, 1)
    seen = set()
    w = identity(DIHEDRAL_INF)
    for _ in range(10):
        w = mul(w, mul(a, b))
        assert w not in seen
        seen.add(w)


# --- descents, reduced words, length ----------------------------------------


def test_identity_has_no_descent():
    assert not any(is_descent(L4, identity(L4), i) for i in range(4))


def test_generator_is_its_own_descent():
    s = simple_reflection(L4, 1)
    assert is_descent(L4, s, 1)
    assert not is_descent(L4, s, 0)


def test_length_against_bfs_everywhere():
    dist = bfs_lengths(L4, range(4))
    assert len(dist) == 120
    for w, d in dist.items():
        assert length(L4, w) == d


def test_length_equals_inversion_count():
    dist = bfs_lengths(L4, range(4))
    perms = set()
    for w in dist:
        perm = perm_of_word(reduced_word(L4, w))
        perms.add(perm)
        assert inversions(perm) == length(L4, w)
    assert len(perms) == 120  # the model is faithful


def test_descent_means_shorter():
    dist = bfs_lengths(L4, range(4))
    for w, d in dist.items():
        for i in range(4):
            shorter = dist[mul_gen(L4, w, i)] < d
            assert is_descent(L4, w, i) == shorter


def test_invert_roundtrip():
    w = evaluate(L4, (0, 1, 2, 3, 0, 1))
    assert mul(w, invert(L4, w)) == identity(L4)
    assert length(L4, w) == length(L4, invert(L4, w))


# --- sphericity --------------------------------------------------------------


def test_l4_minors():
    assert leading_minors(L4, range(4)) == (2, 3, 4, 5)


@pytest.mark.parametrize("C,subset,expected", [
    (L4, range(4), True),
    (L4, (0, 2), True),
    (DIHEDRAL_3, (0, 1), True),
    (RIGHT_ANGLE, (0, 1), True),
    (DIHEDRAL_INF, (0, 1), False),
    (DIHEDRAL_INF, (0,), True),
    (L4, (), True),
    # the affine triangle: no infinite label, a zero minor
    (CoxeterMatrix.from_labels(3, [(0, 1, 3), (1, 2, 3), (0, 2, 3)]),
     (0, 1, 2), False),
])
def test_sphericity(C, subset, expected):
    assert is_spherical(C, subset) is expected


def test_minors_match_fraction_oracle():
    cases = [(L4, s) for s in [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 2)]]
    cases += [(DIHEDRAL_INF, (0, 1)), (DIHEDRAL_3, (0, 1)),
              (RIGHT_ANGLE, (0, 1))]
    for C, subset in cases:
        got = leading_minors(C, subset)
        want = fraction_minors(C, subset)
        # Bareiss stops early at a nonpositive pivot; prefix must agree
        for g, w in zip(got, want):
            assert g == w


def test_restricted_minors_match_full_pairing_on_block_system():
    # the minors read the labels of the subset only; the oracle restricts
    # the full pairing
    C = build_C(FiniteGraph.from_edges(3, [(0, 1), (1, 2)])).matrix
    for k in range(1, 4):
        for subset in itertools.combinations(range(C.n), k):
            got = leading_minors(C, subset)
            assert got == fraction_minors(C, subset)[:len(got)]


def test_sphericity_matches_minors_on_small_block_systems():
    """The infinite-label shortcut against the minors: positive leading
    minors, by elimination and by the Fraction oracle, on every subset of
    at most four generators of every block system over <= 3 vertices."""
    by_labels = {}
    for g in all_labeled_graphs(3):
        C = build_C(g).matrix
        for k in range(5):
            for subset in itertools.combinations(range(C.n), k):
                minors = leading_minors(C, subset)
                positive = len(minors) == k and all(d > 0 for d in minors)
                labels = tuple(C.m[i][j] for i in subset for j in subset)
                if labels not in by_labels:
                    by_labels[labels] = all(
                        d > 0 for d in fraction_minors(C, subset))
                assert is_spherical(C, subset) is positive is by_labels[labels]
    assert len(by_labels) > 10


def test_infinite_dihedral_minors():
    assert leading_minors(DIHEDRAL_INF, (0, 1))[0] == 2
    assert 0 in leading_minors(DIHEDRAL_INF, (0, 1))


# --- enumeration -------------------------------------------------------------


@pytest.mark.parametrize("C,subset,order", [
    (DIHEDRAL_3, (0, 1), 6),
    (RIGHT_ANGLE, (0, 1), 4),
    (L4, (0,), 2),
    (L4, (0, 1), 6),
    (L4, (0, 2), 4),
    (L4, range(4), 120),
    (L4, (), 1),
])
def test_parabolic_orders(C, subset, order):
    assert len(enumerate_parabolic(C, subset, 10000)) == order


def test_enumerate_nonspherical_hits_cap():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_parabolic(DIHEDRAL_INF, (0, 1), 100)


def test_enumerate_rejects_bad_index():
    with pytest.raises(PreconditionError):
        enumerate_parabolic(L4, (0, 7), 100)


def test_enumerate_cap_fires():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_parabolic(L4, range(4), 50)


def test_closure_from_generators_is_whole_group():
    gens = [simple_reflection(L4, i) for i in range(4)]
    closed = close_under_multiplication(gens, L4.n, 10000)
    assert len(closed) == 120


def test_longest_element_l4():
    w0 = longest_element(L4, range(4))
    assert length(L4, w0) == 10
    assert mul(w0, w0) == identity(L4)
    assert all(is_descent(L4, w0, i) for i in range(4))


def test_longest_element_needs_spherical():
    with pytest.raises(PreconditionError):
        longest_element(DIHEDRAL_INF, (0, 1))


def test_ball_levels_infinite_dihedral():
    levels = ball_levels(DIHEDRAL_INF, 5)
    assert [len(lv) for lv in levels] == [1, 2, 2, 2, 2, 2]


def test_ball_union_covers_finite_group():
    assert sum(map(len, ball_levels(L4, 10))) == 120
    assert sum(map(len, ball_levels(L4, 4))) == sum(
        1 for d in bfs_lengths(L4, range(4)).values() if d <= 4)


def test_ball_cap_fires():
    with pytest.raises(EnumerationCapExceeded):
        ball_levels(DIHEDRAL_INF, 50, cap=20)


@pytest.mark.parametrize("k", [0, 1, 4])
def test_ball_cap_refuses_a_level_before_allocating_it(monkeypatch, k):
    cap = sum(len(level) for level in ball_levels(DIHEDRAL_INF, k))
    empty, levels = np.empty, []

    def counting(shape, *args, **kwargs):
        if len(shape) == 3:
            levels.append(shape)
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", counting)
    with pytest.raises(EnumerationCapExceeded,
                       match=f"radius {k + 3} exceeded cap {cap}"):
        ball_levels(DIHEDRAL_INF, k + 3, cap)
    assert levels == [(2, 2, 2)] * k


def test_ball_allocates_each_level_once(monkeypatch):
    """Each level's matrices are allocated once, and so are the root
    heights of every level but the last, which nothing reads."""
    empty, levels, heights = np.empty, [], []

    def counting(shape, *args, **kwargs):
        if len(shape) == 3:
            levels.append(shape[0])
        elif len(shape) == 2:
            heights.append(shape[0])
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", counting)
    sizes = [len(level) for level in ball_levels(L4, 3)]
    assert levels == sizes[1:] == [4, 9, 15]
    assert heights == sizes[1:-1] == [4, 9]


@pytest.mark.parametrize("C,J,radius,sizes", [
    (L4, (0, 1, 2, 3), 10, [1]),
    (L4, (0, 1, 2), 10, [1, 1, 1, 1, 1]),
    (L4, (), 10, [1, 4, 9, 15, 20, 22, 20, 15, 9, 4, 1]),
    (DIHEDRAL_INF, (0,), 6, [1, 1, 1, 1, 1, 1, 1]),
])
def test_representatives_level_sizes(C, J, radius, sizes):
    """Minimal coset representatives of W_J, one per coset: the 4-chain
    has 120 / |W_J| of them (the empty J gives the whole group)."""
    assert [len(lv) for lv in ball_levels(C, radius, reps_of=J)] == sizes


def test_representatives_reject_bad_index():
    with pytest.raises(PreconditionError):
        ball_levels(L4, 2, reps_of=(4,))


def test_parabolic_levels_group_by_length():
    levels = parabolic_levels(L4, range(4))
    assert [len(lv) for lv in levels] == [1, 4, 9, 15, 20, 22, 20, 15, 9, 4, 1]
    assert all(length(L4, w) == k for k, lv in enumerate(levels) for w in lv)
    assert enumerate_parabolic(L4, range(4)) == tuple(
        w for lv in levels for w in lv)


@pytest.mark.parametrize("C", [L4, DIHEDRAL_INF], ids=["L4", "dihedral_inf"])
@pytest.mark.parametrize("radius", [0, 1, 2, 3, 4, 12])
def test_ball_levels_match_set_oracle(C, radius):
    # radius 12 exceeds the longest element of L4, whose ball then stops
    assert_same_levels(ball_levels(C, radius), ball_levels_by_set(C, radius))


def test_exact_dtype_rungs():
    rungs = [(0, np.int16), (2**13, np.int16), (2**13 + 1, np.int32),
             (2**29, np.int32), (2**29 + 1, np.int64), (2**61, np.int64),
             (2**61 + 1, object)]
    assert [exact_dtype(bound) for bound, _ in rungs] == \
        [np.dtype(dtype) for _, dtype in rungs]


def test_ball_crosses_to_int32_unpatched():
    """With every label infinite, the largest entry of level 9 is 4,895, and
    three times that passes the int16 guard: level 10 is the first in int32.
    """
    C = CoxeterMatrix.from_labels(3, [])
    levels = ball_levels(C, 12)
    assert [lv.dtype for lv in levels] == \
        [np.dtype(np.int16)] * 10 + [np.dtype(np.int32)] * 3
    assert_same_levels(levels, ball_levels_by_set(C, 12))


def test_ball_levels_order_is_lowest_descent_first():
    # level 1 lists the generators in index order; in level 2 every element
    # ws generated from s comes before those generated from a higher s
    levels = ball_levels(L4, 2)
    assert [reduced_word(L4, tuple(map(tuple, w.tolist())))
            for w in levels[1]] == [(0,), (1,), (2,), (3,)]
    lowest = [min(i for i in range(4) if is_descent(
        L4, tuple(map(tuple, w.tolist())), i))
        for w in levels[2]]
    assert lowest == sorted(lowest)


# --- properties --------------------------------------------------------------


@given(words(L4))
@settings(max_examples=80, deadline=None)
def test_roundtrip_and_form(word):
    w = evaluate(L4, word)
    assert preserves_form(L4, w)
    back = reduced_word(L4, w)
    assert evaluate(L4, back) == w
    assert len(back) == length(L4, w) <= len(word)


@given(words(DIHEDRAL_INF, max_len=12))
@settings(max_examples=60, deadline=None)
def test_roundtrip_infinite(word):
    w = evaluate(DIHEDRAL_INF, word)
    assert preserves_form(DIHEDRAL_INF, w)
    assert evaluate(DIHEDRAL_INF, reduced_word(DIHEDRAL_INF, w)) == w


@given(words(L4, max_len=6))
@settings(max_examples=60, deadline=None)
def test_word_times_reverse_cancels(word):
    w = evaluate(L4, word + tuple(reversed(word)))
    assert w == identity(L4)


@given(words(L4, max_len=5), words(L4, max_len=5))
@settings(max_examples=60, deadline=None)
def test_evaluate_is_multiplicative(u, v):
    assert evaluate(L4, u + v) == mul(evaluate(L4, u), evaluate(L4, v))


def test_identity_is_shared_per_rank_and_cache_bounded():
    """evaluate starts from one identity per rank; the cache holding them
    is bounded, and no reader changes the shared matrix, which is built of
    tuples only."""
    maxsize = coxeter._identity.cache_info().maxsize
    assert maxsize is not None
    for rank in range(maxsize + 4):
        coxeter._identity(rank)
    assert coxeter._identity.cache_info().currsize <= maxsize
    C = build_L4()
    idn = identity(C)
    assert evaluate(C, ()) is idn and coxeter._identity(C.n) is idn
    # every engine reader that starts from the identity
    w0 = longest_element(C, range(4))
    assert evaluate(C, reduced_word(C, w0)) == w0
    assert len(enumerate_parabolic(C, range(4))) == 120
    assert mul(idn, simple_reflection(C, 0)) == simple_reflection(C, 0)
    assert identity(C) is idn
    assert type(idn) is tuple and all(type(row) is tuple for row in idn)
    assert idn == tuple(tuple(int(i == j) for j in range(4))
                        for i in range(4))
