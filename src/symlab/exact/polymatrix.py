"""Matrices with multivariate polynomial entries.

Determinants use expansion by minors with memoization over column subsets.
All matrices in this project are small (codomain dimensions stay in the
tens), so clarity wins over asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .matrix import QMatrix
from .poly import Polynomial


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
    def identity_times(n: int, size: int, p: Polynomial) -> "PolyMatrix":
        z = Polynomial.zero(n)
        return PolyMatrix(
            size, size, n,
            tuple(tuple(p if i == j else z for j in range(size)) for i in range(size)),
        )

    def __getitem__(self, ij) -> Polynomial:
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            self.cols, self.rows, self.n,
            tuple(tuple(r[j] for r in self.entries) for j in range(self.cols)),
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

    def is_zero(self) -> bool:
        return all(p.is_zero() for r in self.entries for p in r)

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
