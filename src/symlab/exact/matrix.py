"""Exact rational linear algebra.

Matrices are immutable, dense, row-major tuples of ``fractions.Fraction``
entries.  Everything here is computed exactly; there is no floating point
in this module.  Subspaces are kept in reduced column echelon form so that
two objects describe the same subspace if and only if they compare equal
structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rat = Fraction


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class QMatrix:
    """Dense matrix over the rationals."""

    rows: int
    cols: int
    entries: tuple  # tuple of row tuples, each entry a Fraction

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix shape")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "QMatrix":
        data = tuple(tuple(_rat(x) for x in r) for r in rows)
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        return QMatrix(nrows, ncols, data)

    @staticmethod
    def zeros(rows: int, cols: int) -> "QMatrix":
        return QMatrix(rows, cols, tuple((Fraction(0),) * cols for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(
            n, n, tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))
        )

    @staticmethod
    def column(values: Sequence) -> "QMatrix":
        return QMatrix.from_rows([[v] for v in values])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "QMatrix":
        return QMatrix(
            self.cols, self.rows, tuple(tuple(r[j] for r in self.entries) for j in range(self.cols))
        )

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return QMatrix(
            self.rows,
            self.cols,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "QMatrix":
        c = _rat(c)
        return QMatrix(
            self.rows, self.cols, tuple(tuple(c * x for x in r) for r in self.entries)
        )

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        # Row i of the product adds a * (row k of other) for each nonzero
        # a = self[i, k], skipping zero entries on both sides.
        out = []
        for row in self.entries:
            acc = [Fraction(0)] * other.cols
            for a, orow in zip(row, other.entries):
                if a:
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] += a * b
            out.append(tuple(acc))
        return QMatrix(self.rows, other.cols, tuple(out))

    def mul_vector(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * _rat(b) for a, b in zip(row, v)) for row in self.entries)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    def hstack(self, other: "QMatrix") -> "QMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return QMatrix(
            self.rows,
            self.cols + other.cols,
            tuple(ra + rb for ra, rb in zip(self.entries, other.entries)),
        )

    def vstack(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return QMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def rref(self) -> tuple["QMatrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot column indices."""
        m = [list(r) for r in self.entries]
        pivots: list[int] = []
        prow = 0
        for col in range(self.cols):
            if prow == self.rows:
                break
            sel = next((i for i in range(prow, self.rows) if m[i][col] != 0), None)
            if sel is None:
                continue
            m[prow], m[sel] = m[sel], m[prow]
            top = m[prow]
            inv = Fraction(1) / top[col]
            # Entries left of col are zero in the pivot row; only its
            # nonzero entries change the other rows.
            support = [j for j in range(col, self.cols) if top[j] != 0]
            for j in support:
                top[j] *= inv
            for i in range(self.rows):
                row = m[i]
                f = row[col]
                if i != prow and f != 0:
                    for j in support:
                        row[j] -= f * top[j]
            pivots.append(col)
            prow += 1
        return QMatrix.from_rows(m), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> "QMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        aug = self.hstack(QMatrix.identity(self.rows))
        red, pivots = aug.rref()
        if len(pivots) < self.rows or any(p >= self.rows for p in pivots):
            raise ValueError("matrix is singular")
        return QMatrix.from_rows([r[self.rows :] for r in red.entries])


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^ambient with a canonical basis.

    The basis matrix is in reduced column echelon form: each column's first
    nonzero entry is 1, those leading entries occur in strictly increasing
    row positions, and every leading row is zero in the other columns.  The
    representation is unique, so structural equality is subspace equality.
    """

    ambient: int
    basis: QMatrix  # ambient x dim, columns are generators

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_trivial(self) -> bool:
        return self.dim == 0

    def columns(self) -> list[tuple]:
        return [self.basis.col(j) for j in range(self.dim)]

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient:
            raise ValueError("ambient mismatch")
        return solve_exact(self.basis, QMatrix.column(v)) is not None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis.entries))


def subspace_from_columns(ambient: int, columns: Iterable[Sequence]) -> Subspace:
    """Canonical subspace spanned by the given vectors."""
    cols = [tuple(_rat(x) for x in c) for c in columns]
    for c in cols:
        if len(c) != ambient:
            raise ValueError("generator length does not match ambient dimension")
    if not cols:
        return Subspace(ambient, QMatrix.zeros(ambient, 0))
    # Reduce the transposed generator matrix; the nonzero RREF rows transposed
    # back give the reduced column echelon basis.
    red, pivots = QMatrix.from_rows(cols).rref()
    kept = [red.row(i) for i in range(len(pivots))]
    basis = QMatrix.from_rows(kept).transpose() if kept else QMatrix.zeros(ambient, 0)
    return Subspace(ambient, basis)


def column_space(m: QMatrix) -> Subspace:
    return subspace_from_columns(m.rows, [m.col(j) for j in range(m.cols)])


def kernel_basis(m: QMatrix) -> Subspace:
    """Canonical basis of the exact null space of ``m``."""
    red, pivots = m.rref()
    free = [j for j in range(m.cols) if j not in pivots]
    gens = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i, f]
        gens.append(v)
    return subspace_from_columns(m.cols, gens)


def solve_exact(m: QMatrix, b: QMatrix):
    """One exact solution of ``m @ x = b`` or None when inconsistent.

    ``b`` must be a column matrix; the result is a column matrix.
    """
    if b.cols != 1 or b.rows != m.rows:
        raise ValueError("right-hand side shape mismatch")
    red, pivots = m.hstack(b).rref()
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for i, p in enumerate(pivots):
        x[p] = red[i, m.cols]
    return QMatrix.column(x)


def subspace_intersection(s1: Subspace, s2: Subspace) -> Subspace:
    """Canonical basis of s1 ∩ s2."""
    if s1.ambient != s2.ambient:
        raise ValueError("ambient dimension mismatch")
    if s1.is_trivial() or s2.is_trivial():
        return subspace_from_columns(s1.ambient, [])
    stacked = s1.basis.hstack(s2.basis.scale(Fraction(-1)))
    ker = kernel_basis(stacked)
    gens = []
    for j in range(ker.dim):
        coeffs = ker.basis.col(j)[: s1.dim]
        gens.append(s1.basis.mul_vector(coeffs))
    return subspace_from_columns(s1.ambient, gens)


def full_space(ambient: int) -> Subspace:
    return column_space(QMatrix.identity(ambient))
