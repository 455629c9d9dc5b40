"""Symbols of constant-coefficient homogeneous differential operators.

A symbol is a matrix-valued homogeneous polynomial: a finite family of
rational coefficient matrices indexed by exponent tuples of one common
total degree (the operator order).  The zero symbol is representable, but
only through the explicit ``zero`` constructor; accidental all-zero input
is rejected because classifying it is vacuous.  ``make`` takes the terms as
coefficient matrices and is the one place that validates a symbol;
``from_entries`` takes a symbol's nonzero coefficients as
{(alpha, row, col): value}, builds each term's matrix around shared zero
rows and hands the terms to ``make``.

Coefficients are kept as integer numerators over one common denominator D
(``_int_terms``).  A symbol value enters elimination as integer rows:
``scaled_rows`` sums those numerators at the integer multiple of xi, a
positive multiple of ``evaluate``, which divides them; and
``multiplication_rows`` places them in D times the matrix of u -> A u.
Every rank, image, kernel and witness question reads the integer rows and
builds no ``Fraction`` on the way to ``_echelon``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .matrix import QMatrix
from .poly import (
    MultiIndex,
    Polynomial,
    clear_denominators,
    grlex_key,
    monomial_count,
    multi_indices,
)
from .polymatrix import PolyMatrix


@dataclass(frozen=True)
class SymbolOperator:
    n: int        # number of space variables
    dim_v: int    # domain dimension
    dim_e: int    # codomain dimension
    order: int    # common total degree of all terms
    terms: tuple  # sorted tuple of (MultiIndex, QMatrix), graded-lex order

    @staticmethod
    def make(
        n: int,
        dim_v: int,
        dim_e: int,
        order: int,
        terms: Mapping[MultiIndex, QMatrix],
        allow_zero: bool = False,
    ) -> "SymbolOperator":
        if n < 1 or dim_v < 1 or dim_e < 1 or order < 0:
            raise ValueError("dimensions must be positive and order non-negative")
        cleaned = {}
        for alpha, mat in terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != n or any(a < 0 for a in alpha):
                raise ValueError(f"bad multi-index {alpha}")
            if sum(alpha) != order:
                raise ValueError(f"multi-index {alpha} does not have degree {order}")
            if (mat.rows, mat.cols) != (dim_e, dim_v):
                raise ValueError("coefficient matrix shape mismatch")
            if not mat.is_zero():
                cleaned[alpha] = mat
        if not cleaned and not allow_zero:
            raise ValueError("all coefficient matrices are zero")
        items = tuple(sorted(cleaned.items(), key=lambda kv: grlex_key(kv[0])))
        return SymbolOperator(n, dim_v, dim_e, order, items)

    @staticmethod
    def from_entries(n: int, dim_v: int, dim_e: int, order: int, entries: Mapping[tuple, object],
                     allow_zero: bool = False) -> "SymbolOperator":
        """The symbol whose coefficient of x^alpha has ``value`` at (row, col)
        for each ((alpha, row, col), value) of ``entries`` and is zero
        elsewhere; every row with no entry is one shared zero row."""
        zero_row = (Fraction(0),) * dim_v
        rows: dict = defaultdict(lambda: [zero_row] * dim_e)
        for (alpha, i, j), x in entries.items():
            if not (0 <= i < dim_e and 0 <= j < dim_v):
                raise ValueError(f"entry ({i}, {j}) outside a {dim_e} x {dim_v} matrix")
            term = rows[tuple(alpha)]
            if term[i] is zero_row:
                term[i] = list(zero_row)
            term[i][j] = Fraction(x)
        terms = {alpha: QMatrix(dim_e, dim_v, tuple(map(tuple, r))) for alpha, r in rows.items()}
        return SymbolOperator.make(n, dim_v, dim_e, order, terms, allow_zero)

    @staticmethod
    def zero(n: int, dim_v: int, dim_e: int, order: int) -> "SymbolOperator":
        return SymbolOperator.make(n, dim_v, dim_e, order, {}, allow_zero=True)

    def is_zero(self) -> bool:
        return not self.terms

    @cached_property
    def _int_terms(self) -> tuple[int, list]:
        """(D, [(alpha, rows)]): D the lcm of every coefficient denominator
        and each row the (column, numerator over D) pairs of its nonzero
        entries."""
        sparse = [(alpha, [[(j, x) for j, x in enumerate(r) if x] for r in mat.entries])
                  for alpha, mat in self.terms]
        den = math.lcm(*(x.denominator for _a, rows in sparse for r in rows for _j, x in r))
        return den, [
            (alpha, [[(j, x.numerator * (den // x.denominator)) for j, x in r] for r in rows])
            for alpha, rows in sparse
        ]

    def scaled_rows(self, xi: Sequence) -> list[list[int]]:
        """The integer rows of c A(xi) for a rational frequency vector, with
        c = D q^order > 0.

        With q the lcm of the denominators of xi, v = q xi is an integer
        vector, and every term has degree ``order``, so c A(xi) is the
        integer sum of the numerators over D times the monomials of v.  Rank,
        column space and kernel do not change under a positive scale, so the
        questions at xi send these rows straight into elimination
        (``int_pivots``, ``int_column_space``, ``int_kernel``)."""
        pt = [Fraction(x) for x in xi]
        if len(pt) != self.n:
            raise ValueError("frequency dimension mismatch")
        q = math.lcm(*(x.denominator for x in pt))
        v = [x.numerator * (q // x.denominator) for x in pt]
        acc = [[0] * self.dim_v for _ in range(self.dim_e)]
        for alpha, rows in self._int_terms[1]:
            c = 1
            for x, e in zip(v, alpha):
                if e:
                    c *= x**e
            if c == 0:
                continue
            for acc_row, row in zip(acc, rows):
                for j, x in row:
                    acc_row[j] += c * x
        return acc

    def evaluate(self, xi: Sequence) -> QMatrix:
        """Exact value of the symbol at a rational frequency vector: the rows
        of ``scaled_rows`` divided by D q^order."""
        rows = self.scaled_rows(xi)
        den = self._int_terms[0] * math.lcm(*(Fraction(x).denominator for x in xi))**self.order
        zero = Fraction(0)
        return QMatrix(self.dim_e, self.dim_v, tuple(
            tuple(Fraction(x, den) if x else zero for x in r) for r in rows
        ))

    def columns(self) -> list[list[Polynomial]]:
        """The columns of A(x): for each coordinate j of V, the polynomial
        vector A(x) e_j, read from column j of the coefficient matrices."""
        return [[Polynomial.make(self.n, {alpha: mat[i, j] for alpha, mat in self.terms})
                 for i in range(self.dim_e)] for j in range(self.dim_v)]

    def gram(self) -> PolyMatrix:
        """A(x)^T A(x) as an exact polynomial matrix (degree 2 * order): A^T
        applied to each column of A."""
        at = self.transpose()
        return PolyMatrix.from_rows(self.n, [at.apply(col) for col in self.columns()])

    def transpose(self) -> "SymbolOperator":
        """The symbol x -> A(x)^T."""
        return SymbolOperator.make(
            self.n, self.dim_e, self.dim_v, self.order,
            {alpha: mat.transpose() for alpha, mat in self.terms},
            allow_zero=True,
        )

    def multiplication_shape(self, d: int) -> tuple[int, int]:
        """(rows, columns) of ``multiplication_rows(d)``, without building it."""
        return (self.dim_e * monomial_count(self.n, d + self.order),
                self.dim_v * monomial_count(self.n, d))

    def multiplication_rows(self, d: int) -> list[list[int]]:
        """The integer rows of D times the matrix of u -> A u from V[x]_d to
        E[x]_(d + order), with the numerators over D of ``_int_terms``.

        Column b * dim_v + j stands for x^beta e_j and row g * dim_e + i for
        x^gamma e_i, with beta and gamma the b-th and g-th entries of
        ``multi_indices(n, d)`` and ``multi_indices(n, d + order)``."""
        sources = multi_indices(self.n, d)
        targets = {gamma: g for g, gamma in enumerate(multi_indices(self.n, d + self.order))}
        out = [[0] * (len(sources) * self.dim_v) for _ in range(len(targets) * self.dim_e)]
        for b, beta in enumerate(sources):
            for alpha, rows in self._int_terms[1]:
                g = targets[tuple(x + y for x, y in zip(alpha, beta))]
                for i, row in enumerate(rows):
                    out_row = out[g * self.dim_e + i]
                    for j, x in row:
                        out_row[b * self.dim_v + j] = x
        return out

    def apply(self, u: Sequence[Polynomial]) -> list[Polynomial]:
        """The polynomial vector A(x) u(x), for one polynomial per
        coordinate of V: the one product of a symbol and a polynomial
        vector in the exact layer.

        It multiplies the sparse integer rows of ``_int_terms`` (numerators
        over D) by u with its denominators cleared to one common du, so each
        coefficient of the result is one integer sum, divided once by D du."""
        if len(u) != self.dim_v:
            raise ValueError("vector length mismatch")
        cleared = [clear_denominators(q) for q in u]
        du = math.lcm(*(d for _q, d in cleared))
        den, terms = self._int_terms
        acc: list[dict] = [{} for _ in range(self.dim_e)]
        for alpha, rows in terms:
            shifted = [[(tuple(a + b for a, b in zip(alpha, beta)), c * (du // d))
                        for beta, c in q.items()] for q, d in cleared]
            for out, row in zip(acc, rows):
                for j, x in row:
                    for key, c in shifted[j]:
                        out[key] = out.get(key, 0) + x * c
        den *= du
        return [Polynomial.make(self.n, {k: Fraction(c, den) for k, c in out.items() if c})
                for out in acc]
