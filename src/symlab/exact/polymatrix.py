"""Matrices with multivariate polynomial entries.

Determinants use expansion by minors with memoization over column subsets;
the adjugate comes from cofactors.  All matrices in this project are small
(codomain dimensions stay in the tens), so clarity wins over asymptotics.
The central guarantee adj(G) @ G == det(G) * Id holds as an exact
polynomial identity and is exercised by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .matrix import QMatrix
from .poly import MultiIndex, Polynomial, grlex_key


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

    @staticmethod
    def zeros(n: int, rows: int, cols: int) -> "PolyMatrix":
        z = Polynomial.zero(n)
        return PolyMatrix(rows, cols, n, tuple((z,) * cols for _ in range(rows)))

    @staticmethod
    def identity_times(n: int, size: int, p: Polynomial) -> "PolyMatrix":
        z = Polynomial.zero(n)
        return PolyMatrix(
            size, size, n,
            tuple(tuple(p if i == j else z for j in range(size)) for i in range(size)),
        )

    @staticmethod
    def from_qmatrix(n: int, m: QMatrix) -> "PolyMatrix":
        return PolyMatrix.from_rows(
            n, [[Polynomial.constant(n, x) for x in row] for row in m.entries]
        )

    def __getitem__(self, ij) -> Polynomial:
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            self.cols, self.rows, self.n,
            tuple(tuple(r[j] for r in self.entries) for j in range(self.cols)),
        )

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols, self.n) != (other.rows, other.cols, other.n):
            raise ValueError("shape mismatch in addition")
        return PolyMatrix(
            self.rows, self.cols, self.n,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + other.scale_poly(Polynomial.constant(self.n, -1))

    def scale_poly(self, p: Polynomial) -> "PolyMatrix":
        return PolyMatrix(
            self.rows, self.cols, self.n,
            tuple(tuple(p * x for x in r) for r in self.entries),
        )

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows or self.n != other.n:
            raise ValueError("shape mismatch in product")
        ot = other.transpose()
        out = []
        for row in self.entries:
            out_row = []
            for col in ot.entries:
                acc = Polynomial.zero(self.n)
                for a, b in zip(row, col):
                    if not a.is_zero() and not b.is_zero():
                        acc = acc + a * b
                out_row.append(acc)
            out.append(tuple(out_row))
        return PolyMatrix(self.rows, other.cols, self.n, tuple(out))

    def mul_rational_vector(self, v: Sequence) -> list[Polynomial]:
        """Product with a constant rational column vector."""
        vals = [Fraction(x) for x in v]
        if len(vals) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for row in self.entries:
            acc = Polynomial.zero(self.n)
            for p, c in zip(row, vals):
                if c != 0 and not p.is_zero():
                    acc = acc + p.scale(c)
            out.append(acc)
        return out

    def is_zero(self) -> bool:
        return all(p.is_zero() for r in self.entries for p in r)

    def is_homogeneous(self, d: int | None = None) -> bool:
        """True when every nonzero entry is homogeneous (of degree d if given)."""
        found: set[int] = set()
        for r in self.entries:
            for p in r:
                if p.is_zero():
                    continue
                if not p.is_homogeneous():
                    return False
                found.add(p.degree())
        if not found:
            return True
        if len(found) > 1:
            return False
        return d is None or found == {d}

    def evaluate(self, point: Sequence) -> QMatrix:
        return QMatrix.from_rows(
            [[p.evaluate(point) for p in row] for row in self.entries]
        )

    def det(self) -> Polynomial:
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        m = self.rows
        if m == 0:
            return Polynomial.constant(self.n, 1)
        # Expansion along rows, memoized on the set of still-unused columns.
        cache: dict[frozenset, Polynomial] = {}

        def minor_det(cols: frozenset) -> Polynomial:
            if cols in cache:
                return cache[cols]
            row = m - len(cols)
            if not cols:
                return Polynomial.constant(self.n, 1)
            acc = Polynomial.zero(self.n)
            for pos, j in enumerate(sorted(cols)):
                entry = self.entries[row][j]
                if entry.is_zero():
                    continue
                sub = minor_det(cols - {j})
                term = entry * sub
                acc = acc + (term if pos % 2 == 0 else term.scale(-1))
            cache[cols] = acc
            return acc

        return minor_det(frozenset(range(m)))

    def _minor(self, i: int, j: int) -> "PolyMatrix":
        rows = [
            tuple(p for jj, p in enumerate(r) if jj != j)
            for ii, r in enumerate(self.entries)
            if ii != i
        ]
        return PolyMatrix(self.rows - 1, self.cols - 1, self.n, tuple(rows))

    def adjugate(self) -> "PolyMatrix":
        """Adjugate: adj(M)[j][i] = (-1)^(i+j) det(minor(i, j))."""
        if self.rows != self.cols:
            raise ValueError("adjugate of non-square matrix")
        m = self.rows
        if m == 0:
            return self
        if m == 1:
            return PolyMatrix.identity_times(self.n, 1, Polynomial.constant(self.n, 1))
        out = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                c = self._minor(i, j).det()
                out[j][i] = c if (i + j) % 2 == 0 else c.scale(-1)
        return PolyMatrix.from_rows(self.n, out)

    def coefficient_matrices(self) -> dict[MultiIndex, QMatrix]:
        """Split P(x) = sum_alpha x^alpha C_alpha into exact rational
        coefficient matrices, keyed by exponent tuple."""
        alphas: set[MultiIndex] = set()
        for r in self.entries:
            for p in r:
                alphas.update(a for a, _ in p.terms)
        out: dict[MultiIndex, QMatrix] = {}
        for alpha in sorted(alphas, key=grlex_key):
            rows = []
            for r in self.entries:
                rows.append([dict(p.terms).get(alpha, Fraction(0)) for p in r])
            out[alpha] = QMatrix.from_rows(rows)
        return out
