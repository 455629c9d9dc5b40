"""Symbols of constant-coefficient homogeneous differential operators.

A symbol is a matrix-valued homogeneous polynomial: a finite family of
rational coefficient matrices indexed by exponent tuples of one common
total degree (the operator order).  The zero symbol is representable, but
only through the explicit ``zero`` constructor; accidental all-zero input
is rejected because classifying it is vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .matrix import QMatrix
from .poly import MultiIndex, Polynomial, grlex_key
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
    def zero(n: int, dim_v: int, dim_e: int, order: int) -> "SymbolOperator":
        return SymbolOperator.make(n, dim_v, dim_e, order, {}, allow_zero=True)

    def is_zero(self) -> bool:
        return not self.terms

    def terms_dict(self) -> dict[MultiIndex, QMatrix]:
        return dict(self.terms)

    def evaluate(self, xi: Sequence) -> QMatrix:
        """Exact value of the symbol at a rational frequency vector."""
        pt = [Fraction(x) for x in xi]
        if len(pt) != self.n:
            raise ValueError("frequency dimension mismatch")
        acc = QMatrix.zeros(self.dim_e, self.dim_v)
        for alpha, mat in self.terms:
            c = Fraction(1)
            for x, e in zip(pt, alpha):
                if e:
                    c *= x**e
            if c != 0:
                acc = acc + mat.scale(c)
        return acc

    def to_polymatrix(self) -> PolyMatrix:
        rows = []
        for i in range(self.dim_e):
            row = []
            for j in range(self.dim_v):
                coeffs = {alpha: mat[i, j] for alpha, mat in self.terms if mat[i, j] != 0}
                row.append(Polynomial.make(self.n, coeffs))
            rows.append(row)
        return PolyMatrix.from_rows(self.n, rows)

    @staticmethod
    def from_polymatrix(
        pm: PolyMatrix, order: int, allow_zero: bool = False
    ) -> "SymbolOperator":
        if not pm.is_homogeneous(order if not pm.is_zero() else None):
            raise ValueError("polynomial matrix is not homogeneous of the stated order")
        coeffs = pm.coefficient_matrices()
        return SymbolOperator.make(
            pm.n, pm.cols, pm.rows, order, coeffs, allow_zero=allow_zero
        )

    def gram(self) -> PolyMatrix:
        """A(x)^T A(x) as an exact polynomial matrix (degree 2 * order)."""
        acc: dict[MultiIndex, QMatrix] = {}
        for a, ma in self.terms:
            mat_a = ma.transpose()
            for b, mb in self.terms:
                key = tuple(x + y for x, y in zip(a, b))
                prod = mat_a @ mb
                acc[key] = acc[key] + prod if key in acc else prod
        rows = []
        for i in range(self.dim_v):
            row = []
            for j in range(self.dim_v):
                row.append(
                    Polynomial.make(
                        self.n,
                        {k: m[i, j] for k, m in acc.items() if m[i, j] != 0},
                    )
                )
            rows.append(row)
        return PolyMatrix.from_rows(self.n, rows)

    def compose_left(self, m: QMatrix) -> "SymbolOperator":
        """The symbol x -> m @ A(x)."""
        if m.cols != self.dim_e:
            raise ValueError("left factor shape mismatch")
        return SymbolOperator.make(
            self.n, self.dim_v, m.rows, self.order,
            {alpha: m @ mat for alpha, mat in self.terms},
            allow_zero=True,
        )

    def scale(self, c) -> "SymbolOperator":
        c = Fraction(c)
        return SymbolOperator.make(
            self.n, self.dim_v, self.dim_e, self.order,
            {alpha: mat.scale(c) for alpha, mat in self.terms},
            allow_zero=True,
        )
