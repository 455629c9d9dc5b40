"""Matrices with multivariate polynomial entries, for the Gram determinant.

``SymbolOperator.gram`` returns A(x)^T A(x) as a ``PolyMatrix``; the
ellipticity decider takes its ``det`` and, for a witness, columns of its
adjugate (``adjugate_column``, cofactors by the same expansion).  Products
of a symbol with polynomial vectors are ``SymbolOperator.apply``, not
matrix products here.

The determinant is expanded by minors along the rows, memoized on the set
of columns still unused, in integer arithmetic:

- each row is multiplied by the least common denominator of its entries
  (``clear_denominators``), which multiplies the determinant by that
  positive integer;
- each exponent tuple is packed into one int, its digits in a base larger
  than the determinant's total degree, so the product of two monomials is
  one integer addition and no digit carries;
- the minors are dicts from packed monomials to ints;
- at the end each monomial is unpacked once and every coefficient divided
  by the product of the row denominators.

The memo holds up to 2^m minors of an m x m matrix, so each expansion
counts its coefficient products and stops with ``DetBudgetError`` past
``MAX_DET_PRODUCTS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .poly import Polynomial, clear_denominators, grlex_key

# Coefficient products one determinant may take.  hodge_pair(6,3) needs
# 1,062,600, split_laplacian(5,2) 282,480; a dense 16 x 16 Gram matrix of a
# two-term symbol needs about 10 million.
MAX_DET_PRODUCTS = 2**22


class DetBudgetError(ValueError):
    """The determinant needs more than ``MAX_DET_PRODUCTS`` products."""


@dataclass(frozen=True)
class PolyMatrix:
    rows: int
    cols: int
    n: int  # ambient variable count shared by every entry
    entries: tuple  # tuple of row tuples of Polynomial

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry count does not match shape")
        for r in self.entries:
            for p in r:
                if p.n != self.n:
                    raise ValueError("entries disagree on variable count")

    @staticmethod
    def from_rows(n: int, rows: Sequence[Sequence[Polynomial]]) -> "PolyMatrix":
        data = tuple(tuple(r) for r in rows)
        return PolyMatrix(len(data), len(data[0]) if data else 0, n, data)

    def det(self) -> Polynomial:
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        return self._minors(range(self.rows), [(1 << self.cols) - 1])[0]

    def adjugate_column(self, i: int) -> tuple:
        """adj(M) e_i: entry j is the cofactor (-1)^(i+j) det M_ij, M_ij being
        M without row i and column j.  All of them come from one memoized
        expansion of the rows other than i, under the same budget as
        ``det``, and M adj(M) e_i == det(M) e_i."""
        if self.rows != self.cols:
            raise ValueError("adjugate of non-square matrix")
        full = (1 << self.cols) - 1
        minors = self._minors([r for r in range(self.rows) if r != i],
                              [full & ~(1 << j) for j in range(self.cols)])
        return tuple(d if (i + j) % 2 == 0 else d.scale(-1) for j, d in enumerate(minors))

    def _minors(self, rows: Sequence[int], column_sets: Sequence[int]) -> list[Polynomial]:
        """The determinants of the given rows on each set of as many columns
        (a bitmask over the columns), by expansion along the rows; the
        minors of the later rows are shared between the sets."""
        m, n = len(rows), self.n
        entries = [self.entries[r] for r in rows]
        cleared = [[clear_denominators(p) for p in row] for row in entries]
        if any(not any(q for q, _ in row) for row in cleared):
            return [Polynomial.zero(n)] * len(column_sets)
        base = 1 + sum(max(p.degree() for p in row) for row in entries)
        weights = [base**i for i in range(n)]
        dens = [math.lcm(*(d for _, d in row)) for row in cleared]
        packed = [
            [{sum(map(mul, a, weights)): c * (den // d) for a, c in q.items()} for q, d in row]
            for row, den in zip(cleared, dens)
        ]
        cache: dict[int, dict[int, int]] = {0: {0: 1}}
        products = 0

        def minor_det(unused: int) -> dict[int, int]:
            """Determinant of the last rows on the columns set in ``unused``."""
            nonlocal products
            if unused in cache:
                return cache[unused]
            row = packed[m - unused.bit_count()]
            acc: dict[int, int] = {}
            sign = 1
            for j in range(self.cols):
                if not unused >> j & 1:
                    continue
                if row[j]:
                    sub = minor_det(unused & ~(1 << j))
                    products += len(row[j]) * len(sub)
                    if products > MAX_DET_PRODUCTS:
                        raise DetBudgetError(
                            f"the determinant of a {m} x {m} matrix needs more than "
                            f"{MAX_DET_PRODUCTS:,} coefficient products")
                    for ka, ca in row[j].items():
                        ca *= sign
                        for kb, cb in sub.items():
                            k = ka + kb
                            acc[k] = acc.get(k, 0) + ca * cb
                sign = -sign
            cache[unused] = acc = {k: c for k, c in acc.items() if c}
            return acc

        total = math.prod(dens)
        out = []
        for unused in column_sets:
            terms = [(tuple([k // w % base for w in weights]), Fraction(c, total))
                     for k, c in minor_det(unused).items()]
            terms.sort(key=lambda t: grlex_key(t[0]))
            out.append(Polynomial(n, tuple(terms)))
        return out
