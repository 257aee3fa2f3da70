"""Exact word-problem engine for reflection systems with labels in {2, 3, oo}.

Generators act on simple-root coordinates through the standard geometric
representation, scaled so every matrix entry is an integer: the doubled
pairing takes value 2 on the diagonal and 0, -1, -2 for labels 2, 3 and
infinity.  The representation is faithful, so equality of group elements is
literal matrix equality and the word problem is decided exactly, with no
floating point anywhere.

Conventions.  Words multiply left to right: evaluate((i, j)) is the matrix
of sigma_i * sigma_j.  A generator index i is a (right) descent of w exactly
when column i of w is nonpositive; a valid element has every column either
nonnegative or nonpositive, and a mixed-sign column means the matrix does
not represent a group element at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import combinations

from .errors import (EnumerationCapExceeded, InternalInconsistencyError,
                     PreconditionError)

INFINITE = 0  # label marker for an unbounded product order
# element budget of the enumerations that can meet an infinite set
ELEMENT_CAP = 10000

# reduced-word extraction strictly shortens a valid element each step, so
# only a corrupt matrix can loop; this bound is how we notice
_WORD_GUARD = 1_000_000

Word = tuple[int, ...]
# A group element is its matrix: a tuple of row tuples, hashable, and equal
# to another exactly when the two elements are equal.
Matrix = tuple[tuple[int, ...], ...]

# off-diagonal label -> root coefficient in sigma_i(alpha_j) = alpha_j + c*alpha_i
_COEFF = {2: 0, 3: 1, INFINITE: 2}
# off-diagonal label -> doubled pairing value
_PAIRING = {2: 0, 3: -1, INFINITE: -2}


@dataclass(frozen=True)
class CoxeterMatrix:
    n: int
    # one bytes row per generator, m[i][j] the label: the int 2, 3 or
    # INFINITE, and 1 on the diagonal; rows given as int sequences convert
    m: tuple[bytes, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        if self.n < 0:
            raise PreconditionError("rank must be nonnegative")
        m = self.m
        if len(m) != self.n or any(len(row) != self.n for row in m):
            raise PreconditionError("label matrix shape does not match n")
        if len(self.names) != self.n:
            raise PreconditionError("need one name per generator")
        if len(set(self.names)) != self.n:
            raise PreconditionError("generator names must be distinct")
        try:
            rows = tuple(map(bytes, m))
        except (TypeError, ValueError):  # a label that is not a byte
            rows = None
        # the diagonal by index, one 1 and only {0, 2, 3} besides it, and
        # each row equal to its column of the joined rows
        flat = b"".join(rows or ())
        if rows is None or not all(
                row[i] == 1 and row.translate(None, b"\0\2\3") == b"\1"
                and flat[i::self.n] == row for i, row in enumerate(rows)):
            # name the first bad label, walking the rows as given
            for i in range(self.n):
                if m[i][i] != 1:
                    raise PreconditionError(f"diagonal label at {i} must be 1")
                for j in range(i + 1, self.n):
                    if m[i][j] != m[j][i]:
                        raise PreconditionError(
                            f"labels not symmetric at ({i},{j})")
                    if m[i][j] not in (2, 3, INFINITE):
                        raise PreconditionError(
                            f"label {m[i][j]} at ({i},{j}) outside {{2,3,oo}}")
            raise PreconditionError("labels must be integers")
        object.__setattr__(self, "m", rows)

    # Per generator, its neighbours and their root coefficients: the column
    # operations of mul_gen and the row operations of gen_mul.  Built on the
    # first product, not with the matrix: a system read only for its labels
    # never multiplies, and at 512 vertices the infinite labels make these
    # lists nearly dense (299 MB).  Not a field, so not part of identity.
    @cached_property
    def _gen_coeffs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(
            tuple((j, _COEFF[self.m[i][j]]) for j in range(self.n)
                  if j != i and _COEFF[self.m[i][j]] != 0)
            for i in range(self.n))

    # The (i, j, label) triples with i < j and a finite label, in row
    # order: the pairs that carry a braid relator, and the only ones the
    # label rule reads.  Built on first use like _gen_coeffs, so a system
    # read only for its census never builds it at full rank.
    @cached_property
    def finite_pairs(self) -> tuple[tuple[int, int, int], ...]:
        return tuple((i, j, self.m[i][j]) for i in range(self.n)
                     for j in range(i + 1, self.n)
                     if self.m[i][j] != INFINITE)

    @staticmethod
    def from_labels(n: int, labels, names=None) -> CoxeterMatrix:
        """Build from (i, j, m) triples; unlisted off-diagonal pairs get the
        infinite label."""
        m = [bytearray(n) for _ in range(n)]  # all INFINITE
        for i in range(n):
            m[i][i] = 1
        for i, j, lab in labels:
            if i == j:
                raise PreconditionError("cannot relabel the diagonal")
            try:
                m[i][j] = m[j][i] = lab
            except (TypeError, ValueError):  # a label that is not a byte
                i, j = sorted((i, j))
                raise PreconditionError(
                    f"label {lab} at ({i},{j}) outside {{2,3,oo}}") from None
        if names is None:
            names = tuple(f"g{i}" for i in range(n))
        return CoxeterMatrix(n, tuple(m), tuple(names))

    def label(self, i: int, j: int) -> int:
        return self.m[i][j]

    def submatrix(self, order) -> CoxeterMatrix:
        """Restriction to the given generators, in the given order."""
        order = tuple(order)
        m = tuple(bytes(self.m[i][j] for j in order) for i in order)
        return CoxeterMatrix(len(order), m, tuple(self.names[i] for i in order))


# A Matrix is an immutable tuple, so one identity per rank is shared by
# every caller; the bound keeps a run over many ranks from holding them all.
@lru_cache(maxsize=16)
def _identity(rank: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))


def identity(C: CoxeterMatrix) -> Matrix:
    return _identity(C.n)


def simple_reflection(C: CoxeterMatrix, i: int) -> Matrix:
    """The identity matrix with row i replaced: -1 on the diagonal and the
    root coefficient of each neighbour elsewhere."""
    if not (0 <= i < C.n):
        raise PreconditionError(f"generator index {i} out of range")
    return mul_gen(C, identity(C), i)


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a) != len(b):
        raise PreconditionError("rank mismatch in multiplication")
    return _matmul(a, b)


def mul_gen(C: CoxeterMatrix, w: Matrix, i: int) -> Matrix:
    """Right multiplication by sigma_i as column operations: column i flips
    sign and feeds into its neighbours.  Much cheaper than a full product.
    A row with 0 in column i is unchanged and is kept as it is, so a word
    evaluated from the identity rebuilds only its own letters' rows."""
    coeffs = C._gen_coeffs[i]
    rows = []
    for row in w:
        v = row[i]
        if v:
            new = list(row)
            new[i] = -v
            for j, c in coeffs:
                new[j] += c * v
            row = tuple(new)
        rows.append(row)
    return tuple(rows)


def gen_mul(C: CoxeterMatrix, i: int, w: Matrix) -> Matrix:
    """Left multiplication by sigma_i as a row operation: row i becomes
    minus itself plus each neighbour's row times its root coefficient, and
    every other row stays.  The mirror of mul_gen."""
    new = [-x for x in w[i]]
    for j, c in C._gen_coeffs[i]:
        for k, x in enumerate(w[j]):
            if x:
                new[k] += c * x
    return w[:i] + (tuple(new),) + w[i + 1:]


def evaluate(C: CoxeterMatrix, word) -> Matrix:
    """The matrix of a word, multiplied left to right onto the identity of
    C's rank.  That identity is built once per rank and shared, which is
    safe because a Matrix is an immutable tuple."""
    w = identity(C)
    for i in word:
        if not (0 <= i < C.n):
            raise PreconditionError(f"letter {i} out of range")
        w = mul_gen(C, w, i)
    return w


def is_descent(C: CoxeterMatrix, w: Matrix, i: int) -> bool:
    """True when w sends the i-th simple root to a negative root."""
    col = [row[i] for row in w]
    if all(x <= 0 for x in col) and any(x < 0 for x in col):
        return True
    if all(x >= 0 for x in col) and any(x > 0 for x in col):
        return False
    raise PreconditionError(
        f"column {i} is not a sign-coherent root image; "
        "the matrix does not represent a group element")


def reduced_word(C: CoxeterMatrix, w: Matrix) -> Word:
    """Greedy descent stripping, lowest index first.  The result is a
    minimal-length word evaluating back to w."""
    letters = []
    cur = w
    idn = identity(C)
    steps = 0
    while cur != idn:
        for i in range(C.n):
            if is_descent(C, cur, i):
                cur = mul_gen(C, cur, i)
                letters.append(i)
                break
        else:
            raise PreconditionError("nonidentity matrix with no descent")
        steps += 1
        if steps > _WORD_GUARD:
            raise InternalInconsistencyError(
                "length failed to keep decreasing; invalid element?")
    letters.reverse()
    return tuple(letters)


def length(C: CoxeterMatrix, w: Matrix) -> int:
    return len(reduced_word(C, w))


def invert(C: CoxeterMatrix, w: Matrix) -> Matrix:
    return evaluate(C, tuple(reversed(reduced_word(C, w))))


def gram_matrix(C: CoxeterMatrix) -> Matrix:
    """Doubled pairing of the simple roots: 2 on the diagonal, 0/-1/-2 for
    labels 2/3/infinity."""
    return tuple(
        tuple(2 if i == j else _PAIRING[C.m[i][j]] for j in range(C.n))
        for i in range(C.n))


def preserves_form(C: CoxeterMatrix, w: Matrix) -> bool:
    B = gram_matrix(C)
    wt = tuple(zip(*w))
    return _matmul(_matmul(wt, B), w) == B


def leading_minors(C: CoxeterMatrix, subset) -> tuple[int, ...]:
    """Leading principal minors of the pairing restricted to the subset
    (sorted order), by fraction-free elimination.  Stops early at a zero
    pivot, which is enough for the positivity test below."""
    idx = sorted(subset)
    M = [[2 if i == j else _PAIRING[C.m[i][j]] for j in idx] for i in idx]
    k = len(idx)
    minors = []
    prev = 1
    for t in range(k):
        piv = M[t][t]
        minors.append(piv)
        if piv == 0:
            break
        for a in range(t + 1, k):
            for b in range(t + 1, k):
                M[a][b] = (M[a][b] * piv - M[a][t] * M[t][b]) // prev
        prev = piv
    return tuple(minors)


def is_spherical(C: CoxeterMatrix, subset) -> bool:
    """Whether the standard subgroup on the subset is finite, by positive
    definiteness of the restricted pairing (all leading minors positive).
    A subset holding an infinite label is refused without elimination: that
    pair's 2x2 principal minor is 2 * 2 - (-2)^2 = 0."""
    subset = frozenset(subset)
    for i in subset:
        if not (0 <= i < C.n):
            raise PreconditionError(f"generator index {i} out of range")
    if any(C.m[i][j] == INFINITE for i, j in combinations(subset, 2)):
        return False
    minors = leading_minors(C, subset)
    return len(minors) == len(subset) and all(d > 0 for d in minors)


def longest_element(C: CoxeterMatrix, subset) -> Matrix:
    """Greedy ascent inside a spherical subset: keep multiplying by the
    lowest non-descent until every generator of the subset is a descent."""
    subset = sorted(frozenset(subset))
    if not is_spherical(C, subset):
        raise PreconditionError("longest element requires a spherical subset")
    w = identity(C)
    steps = 0
    while True:
        for i in subset:
            if not is_descent(C, w, i):
                w = mul_gen(C, w, i)
                break
        else:
            return w
        steps += 1
        if steps > _WORD_GUARD:
            raise InternalInconsistencyError("ascent failed to terminate")


def _capped_levels(start: Matrix, step, gens, cap: int,
                   overflow: str) -> list[tuple[Matrix, ...]]:
    """Breadth-first frontiers from start under w -> step(w, g) for each g
    in gens, each in order of discovery.  Raises EnumerationCapExceeded with
    the given message once more than cap elements are seen."""
    seen = {start}
    levels = [(start,)]
    while True:
        nxt = []
        for w in levels[-1]:
            for g in gens:
                cand = step(w, g)
                if cand not in seen:
                    if len(seen) + 1 > cap:
                        raise EnumerationCapExceeded(overflow)
                    seen.add(cand)
                    nxt.append(cand)
        if not nxt:
            return levels
        levels.append(tuple(nxt))


def parabolic_levels(C: CoxeterMatrix, subset, cap: int = ELEMENT_CAP
                     ) -> tuple[tuple[Matrix, ...], ...]:
    """All elements of the standard subgroup on the subset, grouped by
    length: the frontiers of a breadth-first search from the identity.
    Raises EnumerationCapExceeded past the cap."""
    gens = sorted(frozenset(subset))
    for i in gens:
        if not (0 <= i < C.n):
            raise PreconditionError(f"generator index {i} out of range")
    return tuple(_capped_levels(
        identity(C), partial(mul_gen, C), gens, cap,
        f"parabolic enumeration exceeded cap {cap}; "
        "nonspherical subset or budget too small"))


def enumerate_parabolic(C: CoxeterMatrix, subset,
                        cap: int = ELEMENT_CAP) -> tuple[Matrix, ...]:
    """All elements of the standard subgroup on the subset, in breadth-first
    order from the identity.  Raises EnumerationCapExceeded past the cap."""
    return tuple(w for level in parabolic_levels(C, subset, cap)
                 for w in level)


def close_under_multiplication(elements, rank: int,
                               cap: int = ELEMENT_CAP) -> tuple[Matrix, ...]:
    """Subgroup generated by the given elements (finite expected).  In a
    finite group the multiplicative closure of any set containing it is
    already a subgroup, so no inverses are needed."""
    gens = list(elements)
    if any(len(g) != rank for g in gens):
        raise PreconditionError("rank mismatch in closure")
    levels = _capped_levels(_identity(rank), mul, gens, cap,
                            f"closure exceeded cap {cap}")
    return tuple(w for level in levels for w in level)


# --- serialization --------------------------------------------------------
#
# JSON: {"n": rank, "labels": [[i, j, m], ...] for i < j with finite m,
# "names": [...]}.  Absent off-diagonal pairs mean the infinite label.


def coxeter_to_json_dict(C: CoxeterMatrix) -> dict:
    labels = [[i, j, C.m[i][j]] for i in range(C.n)
              for j in range(i + 1, C.n) if C.m[i][j] != INFINITE]
    return {"n": C.n, "labels": labels, "names": list(C.names)}
