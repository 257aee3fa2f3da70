"""Brute-force oracles only the tests use: Fraction determinants and a
permutation model of the 4-chain.  The oracles shared with the acceptance
criteria live in ``epicox.oracles``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from epicox.coxeter import gram_matrix


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
