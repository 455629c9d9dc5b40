"""Symbols of constant-coefficient homogeneous differential operators.

A symbol is a matrix-valued homogeneous polynomial: a finite family of
rational coefficient matrices indexed by exponent tuples of one common
total degree (the operator order).  It is kept sparse, as integers: ``den``
is the lcm D of every coefficient denominator, and ``terms`` holds, for
each exponent alpha with a nonzero coefficient in graded-lex order, the
dim E rows of that coefficient times D, each row the (column, numerator)
pairs of its nonzero entries.  ``from_entries`` is the one constructor: it
takes a symbol's nonzero coefficients as {(alpha, row, col): value} and is
the one place that validates a symbol.  The zero symbol is representable,
but only on request (``allow_zero``, or ``zero``); accidental all-zero
input is rejected because classifying it is vacuous.

A symbol value enters elimination as integer rows: ``scaled_rows`` sums
the numerators at the integer multiple of xi, a positive multiple of
A(xi); and ``multiplication_rows`` places them in D times the matrix of
u -> A u.  Every rank, image, kernel and witness question reads the
integer rows and builds no ``Fraction`` on the way to ``_echelon``.

``compose`` is the symbol of a composition A(D) B(D), the exact product
A(x) B(x) of the sparse rows: an identity such as L(x) A(x) == 0 is the
zero symbol, and the spectral lab measures B(D) A(D) v through one
composite symbol instead of two multipliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

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
    den: int      # lcm of the coefficient denominators (1 for the zero symbol)
    terms: tuple  # (alpha, rows) in graded-lex order; row i: ((col, numerator), ...)

    @staticmethod
    def from_entries(n: int, dim_v: int, dim_e: int, order: int,
                     entries: Mapping[tuple, object],
                     allow_zero: bool = False) -> "SymbolOperator":
        """The symbol whose coefficient of x^alpha has ``value`` at (row, col)
        for each ((alpha, row, col), value) of ``entries`` and is zero
        elsewhere; zero values are checked and dropped."""
        if n < 1 or dim_v < 1 or dim_e < 1 or order < 0:
            raise ValueError("dimensions must be positive and order non-negative")
        coeffs: dict[MultiIndex, dict] = {}
        for (alpha, i, j), x in entries.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != n or any(a < 0 for a in alpha):
                raise ValueError(f"bad multi-index {alpha}")
            if sum(alpha) != order:
                raise ValueError(f"multi-index {alpha} does not have degree {order}")
            if not (0 <= i < dim_e and 0 <= j < dim_v):
                raise ValueError(f"entry ({i}, {j}) outside a {dim_e} x {dim_v} matrix")
            x = Fraction(x)
            if x:
                coeffs.setdefault(alpha, {})[i, j] = x
        if not coeffs and not allow_zero:
            raise ValueError("all coefficient matrices are zero")
        den = math.lcm(*(x.denominator for c in coeffs.values() for x in c.values()))
        terms = []
        for alpha in sorted(coeffs, key=grlex_key):
            rows: list[list] = [[] for _ in range(dim_e)]
            for (i, j), x in sorted(coeffs[alpha].items()):
                rows[i].append((j, x.numerator * (den // x.denominator)))
            terms.append((alpha, tuple(map(tuple, rows))))
        return SymbolOperator(n, dim_v, dim_e, order, den, tuple(terms))

    @staticmethod
    def zero(n: int, dim_v: int, dim_e: int, order: int) -> "SymbolOperator":
        return SymbolOperator.from_entries(n, dim_v, dim_e, order, {}, allow_zero=True)

    def is_zero(self) -> bool:
        return not self.terms

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
        for alpha, rows in self.terms:
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

    def columns(self) -> list[list[Polynomial]]:
        """The columns of A(x): for each coordinate j of V, the polynomial
        vector A(x) e_j, read from column j of the entries."""
        cols = [[{} for _ in range(self.dim_e)] for _ in range(self.dim_v)]
        for alpha, rows in self.terms:
            for i, row in enumerate(rows):
                for j, x in row:
                    cols[j][i][alpha] = Fraction(x, self.den)
        return [[Polynomial.make(self.n, c) for c in col] for col in cols]

    def gram(self) -> PolyMatrix:
        """A(x)^T A(x) as an exact polynomial matrix (degree 2 * order): A^T
        applied to each column of A."""
        at = self.transpose()
        return PolyMatrix.from_rows(self.n, [at.apply(col) for col in self.columns()])

    def transpose(self) -> "SymbolOperator":
        """The symbol x -> A(x)^T, with the same D."""
        terms = []
        for alpha, rows in self.terms:
            cols: list[list] = [[] for _ in range(self.dim_v)]
            for i, row in enumerate(rows):
                for j, x in row:
                    cols[j].append((i, x))
            terms.append((alpha, tuple(map(tuple, cols))))
        return SymbolOperator(self.n, self.dim_e, self.dim_v, self.order, self.den, tuple(terms))

    def compose(self, inner: "SymbolOperator") -> "SymbolOperator":
        """The symbol x -> A(x) B(x) of A(D) B(D), for A this symbol and B
        ``inner``: of order k_A + k_B, from V_B to E_A.

        Each product of a term of A and a term of B adds its numerators'
        products into the coefficient of x^(alpha + beta), all over
        D_A D_B; a product that cancels everywhere is the zero symbol."""
        if inner.n != self.n or inner.dim_e != self.dim_v:
            raise ValueError(
                f"cannot compose a symbol on {self.n} variables from {self.dim_v} "
                f"coordinates after one on {inner.n} variables into {inner.dim_e}")
        acc: dict = {}
        for alpha, rows in self.terms:
            for beta, inner_rows in inner.terms:
                gamma = tuple(a + b for a, b in zip(alpha, beta))
                for i, row in enumerate(rows):
                    for k, x in row:
                        for j, y in inner_rows[k]:
                            key = (gamma, i, j)
                            acc[key] = acc.get(key, 0) + x * y
        den = self.den * inner.den
        return SymbolOperator.from_entries(
            self.n, inner.dim_v, self.dim_e, self.order + inner.order,
            {key: Fraction(c, den) for key, c in acc.items() if c}, allow_zero=True)

    def multiplication_shape(self, d: int) -> tuple[int, int]:
        """(rows, columns) of ``multiplication_rows(d)``, without building it."""
        return (self.dim_e * monomial_count(self.n, d + self.order),
                self.dim_v * monomial_count(self.n, d))

    def multiplication_rows(self, d: int) -> list[list[int]]:
        """The integer rows of D times the matrix of u -> A u from V[x]_d to
        E[x]_(d + order), with the numerators over D of ``terms``.

        Column b * dim_v + j stands for x^beta e_j and row g * dim_e + i for
        x^gamma e_i, with beta and gamma the b-th and g-th entries of
        ``multi_indices(n, d)`` and ``multi_indices(n, d + order)``."""
        sources = multi_indices(self.n, d)
        targets = {gamma: g for g, gamma in enumerate(multi_indices(self.n, d + self.order))}
        out = [[0] * (len(sources) * self.dim_v) for _ in range(len(targets) * self.dim_e)]
        for b, beta in enumerate(sources):
            for alpha, rows in self.terms:
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

        It multiplies the sparse integer rows of ``terms`` (numerators over
        D) by u with its denominators cleared to one common du, so each
        coefficient of the result is one integer sum, divided once by D du."""
        if len(u) != self.dim_v:
            raise ValueError("vector length mismatch")
        cleared = [clear_denominators(q) for q in u]
        du = math.lcm(*(d for _q, d in cleared))
        acc: list[dict] = [{} for _ in range(self.dim_e)]
        for alpha, rows in self.terms:
            shifted = [[(tuple(a + b for a, b in zip(alpha, beta)), c * (du // d))
                        for beta, c in q.items()] for q, d in cleared]
            for out, row in zip(acc, rows):
                for j, x in row:
                    for key, c in shifted[j]:
                        out[key] = out.get(key, 0) + x * c
        den = self.den * du
        return [Polynomial.make(self.n, {k: Fraction(c, den) for k, c in out.items() if c})
                for out in acc]
