"""Exterior algebra over Q^n with explicit coordinates.

Degree-l forms are coordinatized by the lexicographically ordered
l-element subsets of {0, ..., n-1}.  Signs follow the usual conventions:
e_i wedge e_S picks up (-1)^(number of elements of S below i), and the
star of a basis form e_S is the sign of the permutation (S, complement)
times the complementary basis form, so star(star(v)) = (-1)^(l(n-l)) v.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from ..exact.matrix import QMatrix


@dataclass(frozen=True)
class FormIndexing:
    n: int
    ell: int

    def __post_init__(self):
        if not 0 <= self.ell <= self.n:
            raise ValueError(f"form degree {self.ell} out of range for n={self.n}")

    @property
    def dim(self) -> int:
        return comb(self.n, self.ell)

    def subsets(self) -> list[tuple[int, ...]]:
        return list(itertools.combinations(range(self.n), self.ell))


def wedge_insert_sign(i: int, subset: tuple[int, ...]) -> int:
    """Sign of e_i wedge e_subset; 0 when i already occurs."""
    if i in subset:
        return 0
    below = sum(1 for s in subset if s < i)
    return -1 if below % 2 else 1


def wedge_matrix(n: int, ell: int, i: int) -> QMatrix:
    """Matrix of v -> e_i wedge v from degree ell to degree ell + 1."""
    src = FormIndexing(n, ell)
    dst = FormIndexing(n, ell + 1)
    rows = [[Fraction(0)] * src.dim for _ in range(dst.dim)]
    dst_subsets = dst.subsets()
    for j, s in enumerate(src.subsets()):
        sign = wedge_insert_sign(i, s)
        if sign == 0:
            continue
        target = tuple(sorted(s + (i,)))
        rows[dst_subsets.index(target)][j] = Fraction(sign)
    return QMatrix.from_rows(rows)


def perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def star_sign(subset: tuple[int, ...], n: int) -> int:
    complement = tuple(i for i in range(n) if i not in subset)
    return perm_sign(subset + complement)


def star_matrix(n: int, ell: int) -> QMatrix:
    """Matrix of the Hodge star from degree ell to degree n - ell."""
    src = FormIndexing(n, ell)
    dst = FormIndexing(n, n - ell)
    rows = [[Fraction(0)] * src.dim for _ in range(dst.dim)]
    dst_subsets = dst.subsets()
    for j, s in enumerate(src.subsets()):
        complement = tuple(i for i in range(n) if i not in s)
        rows[dst_subsets.index(complement)][j] = Fraction(star_sign(s, n))
    return QMatrix.from_rows(rows)


def wedge(n: int, xi: Sequence, v: Sequence, ell: int) -> tuple:
    """Coordinates of xi wedge v for a covector xi and an ell-form v."""
    src = FormIndexing(n, ell)
    if len(v) != src.dim or len(xi) != n:
        raise ValueError("dimension mismatch in wedge")
    total = [Fraction(0)] * FormIndexing(n, ell + 1).dim
    for i, c in enumerate(xi):
        c = Fraction(c)
        if c == 0:
            continue
        for k, x in enumerate(wedge_matrix(n, ell, i).mul_vector(v)):
            total[k] += c * x
    return tuple(total)


def hodge_star(n: int, v: Sequence, ell: int) -> tuple:
    return star_matrix(n, ell).mul_vector(v)


def exterior_derivative_terms(n: int, ell: int) -> dict[tuple[int, ...], QMatrix]:
    """Coefficient matrices of the symbol v -> xi wedge v."""
    out = {}
    for i in range(n):
        alpha = tuple(1 if j == i else 0 for j in range(n))
        out[alpha] = wedge_matrix(n, ell, i)
    return out


def codifferential_terms(n: int, ell: int) -> dict[tuple[int, ...], QMatrix]:
    """Coefficient matrices of the symbol v -> star(xi wedge star(v)),
    mapping degree ell to degree ell - 1."""
    if ell < 1:
        raise ValueError("codifferential needs degree at least 1")
    s1 = star_matrix(n, ell)                # ell -> n-ell
    s2 = star_matrix(n, n - ell + 1)        # n-ell+1 -> ell-1
    out = {}
    for i in range(n):
        alpha = tuple(1 if j == i else 0 for j in range(n))
        out[alpha] = s2 @ wedge_matrix(n, n - ell, i) @ s1
    return out
