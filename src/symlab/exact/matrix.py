"""Exact rational linear algebra.

``QMatrix`` is an immutable, dense, row-major tuple of
``fractions.Fraction`` entries, for the small matrices that stand whole:
constraint maps, cocancellation blocks and their inverses, and subspace
bases as read.  Symbols are not kept as ``QMatrix``: ``SymbolOperator``
stores its sparse integer entries.  Everything here is computed exactly;
there is no floating point in this module.  A ``Subspace`` is kept as the
RREF rows of its generators, each scaled to primitive integers with a
positive pivot, so that two objects describe the same subspace if and only
if they compare equal structurally; its rational basis in reduced column
echelon form is derived from those rows when read.

Elimination runs on Python ints, in one routine (``_echelon``): each row is
scaled to integers by the lcm of its denominators, and a row is reduced
against a pivot row fraction-free, row <- (a/g) row - (b/g) pivot_row with
a, b the two entries in the pivot column and g = gcd(a, b), after which the
row is divided by the gcd of its entries.  Scaling a row changes neither
the pivots nor the reduced form, so dividing each reduced pivot row by its
pivot once gives the unique RREF.  Back-elimination changes only finished
rows, so ``pivots`` and ``rank`` run the forward pass alone and build no
``Fraction``; kernels are read from the reduced integer rows, and a
subspace is its reduced integer rows.  The whole space needs no
elimination: its unit rows are already that form (``full_space``).

Matrices that are integer already enter ``_echelon`` as they are, through
three entry points on integer rows: ``int_pivots`` (the forward pass),
``int_column_space`` (``_span`` of the columns) and ``int_kernel``.  Symbol
values take this way: ``SymbolOperator.scaled_rows`` gives the integer rows
of a positive multiple of A(xi), which has the pivots, column space and
kernel of A(xi), so no ``Fraction`` is built between a symbol and
``_echelon``.  ``QMatrix.pivots`` and ``kernel_basis`` call the same entry
points on their rows scaled one by one, which moves neither pivots nor
kernel.  Every elimination a decider runs, intersections and the systems of
membership witnesses included, starts from integer rows; the witness search
reads its one particular solution from ``_echelon`` itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

Rat = Fraction
_ZERO = Fraction(0)


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _int_row(row: Sequence[Fraction]) -> list[int]:
    """The row times the lcm of its denominators."""
    pairs = [x.as_integer_ratio() for x in row]
    den = math.lcm(*{d for _n, d in pairs})
    return [n * (den // d) for n, d in pairs]


def _reduce(row: list[int], col: int, top: list[int]) -> Optional[list[int]]:
    """Clear ``row[col]`` with the pivot row ``top``, fraction-free, and
    divide out the gcd of the result; None when the result is zero."""
    a, b = top[col], row[col]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    out = [a * x - b * y for x, y in zip(row, top)]
    g = math.gcd(*out)
    if g == 0:
        return None
    return out if g == 1 else [x // g for x in out]


def _echelon(rows: Iterable[list[int]], ncols: int, reduced: bool = True):
    """Fraction-free Gauss(-Jordan) elimination of integer rows.

    Returns the nonzero echelon rows, each with entries of gcd 1, and their
    pivot columns.  With ``reduced`` every pivot column is also zero
    outside its own pivot row, so row i divided by its entry at pivots[i]
    is row i of the RREF."""
    todo = []
    for r in rows:
        g = math.gcd(*r)
        if g:
            todo.append(r if g == 1 else [x // g for x in r])
    done: list[list[int]] = []
    pivots: list[int] = []
    for col in range(ncols):
        if not todo:
            break
        sel = next((i for i, r in enumerate(todo) if r[col]), None)
        if sel is None:
            continue
        top = todo.pop(sel)
        # Rows still to do are zero left of col; a row that cancels to zero
        # is dropped.
        rest = []
        for r in todo:
            if r[col]:
                r = _reduce(r, col, top)
                if r is None:
                    continue
            rest.append(r)
        todo = rest
        if reduced:
            # A done row keeps its own pivot: top is zero in that column.
            done = [_reduce(r, col, top) if r[col] else r for r in done]
        done.append(top)
        pivots.append(col)
    return done, pivots


def _pivot_quotients(rows: list[list[int]], pivots: Sequence[int], start: int = 0) -> list[tuple]:
    """Each reduced row from column ``start`` on, divided by its pivot."""
    return [
        tuple(Fraction(x, r[p]) if x else _ZERO for x in r[start:])
        for r, p in zip(rows, pivots)
    ]


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

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "QMatrix":
        return QMatrix(
            self.cols, self.rows, tuple(tuple(r[j] for r in self.entries) for j in range(self.cols))
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

    def _int_rows(self) -> list[list[int]]:
        """Each row times the lcm of its denominators."""
        return [_int_row(r) for r in self.entries]

    def pivots(self) -> tuple[int, ...]:
        """Pivot columns of the RREF, from the forward pass alone."""
        return int_pivots(self._int_rows(), self.cols)

    def rank(self) -> int:
        return len(self.pivots())

    def inverse(self) -> "QMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        rows, pivots = _echelon((_int_row(r + tuple(int(i == j) for j in range(n)))
                                 for i, r in enumerate(self.entries)), 2 * n)
        if len(pivots) < n or any(p >= n for p in pivots):
            raise ValueError("matrix is singular")
        return QMatrix(n, n, tuple(_pivot_quotients(rows, pivots, n)))


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^ambient in a unique form.

    ``rows`` are the nonzero RREF rows of any generator matrix, each scaled
    to integers of gcd 1 with a positive pivot.  The form is unique, so
    structural equality is subspace equality.  ``basis`` is the same
    subspace as a rational matrix in reduced column echelon form: each
    column's first nonzero entry is 1, those leading entries occur in
    strictly increasing row positions, and every leading row is zero in the
    other columns.
    """

    ambient: int
    rows: tuple  # dim tuples of ints

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> QMatrix:
        """ambient x dim, columns are generators: the rows divided by their
        pivots, transposed."""
        pivots = [next(j for j, x in enumerate(r) if x) for r in self.rows]
        cols = _pivot_quotients(self.rows, pivots)
        entries = tuple(zip(*cols)) if cols else ((),) * self.ambient
        return QMatrix(self.ambient, self.dim, entries)

    def columns(self) -> list[tuple]:
        return [self.basis.col(j) for j in range(self.dim)]

    def contains(self, v: Sequence) -> bool:
        """v lies in the subspace iff adding it keeps the rank."""
        if len(v) != self.ambient:
            raise ValueError("ambient mismatch")
        v = _int_row([_rat(x) for x in v])
        return len(int_pivots([*self.rows, v], self.ambient)) == self.dim


def int_pivots(rows: Iterable[list[int]], ncols: int) -> tuple[int, ...]:
    """Pivot columns of the integer rows, from the forward pass alone; their
    count is the rank."""
    return tuple(_echelon(rows, ncols, reduced=False)[1])


def _span(ambient: int, rows: Iterable[list[int]]) -> Subspace:
    """Canonical subspace spanned by integer vectors."""
    red, pivots = _echelon(rows, ambient)
    return Subspace(ambient, tuple(
        tuple(r) if r[p] > 0 else tuple(-x for x in r) for r, p in zip(red, pivots)))


def subspace_from_columns(ambient: int, columns: Iterable[Sequence]) -> Subspace:
    """Canonical subspace spanned by the given vectors."""
    cols = [tuple(_rat(x) for x in c) for c in columns]
    for c in cols:
        if len(c) != ambient:
            raise ValueError("generator length does not match ambient dimension")
    return _span(ambient, map(_int_row, cols))


def int_column_space(rows: Sequence[Sequence[int]]) -> Subspace:
    """Canonical column space of the matrix with these integer rows."""
    return _span(len(rows), map(list, zip(*rows)))


def _kernel_row(rows: list[list[int]], pivots: Sequence[int], f: int, ncols: int) -> list[int]:
    """The integer kernel generator of the free column f of reduced echelon
    rows: f-th entry the lcm L of the pivots that involve f and entry
    -r[f] L / r[p] at the pivot column p of each row r."""
    den = math.lcm(*(r[p] for r, p in zip(rows, pivots) if r[f]))
    v = [0] * ncols
    v[f] = den
    for r, p in zip(rows, pivots):
        if r[f]:
            v[p] = -r[f] * (den // r[p])
    return v


def _kernel_rows(rows: list[list[int]], pivots: Sequence[int], ncols: int) -> list[list[int]]:
    """Integer kernel generators of reduced echelon rows, one per free column."""
    pivot_set = set(pivots)
    return [_kernel_row(rows, pivots, f, ncols) for f in range(ncols) if f not in pivot_set]


def int_kernel(rows: Iterable[list[int]], ncols: int) -> Subspace:
    """Canonical basis of the null space of the integer rows."""
    red, pivots = _echelon(rows, ncols)
    return _span(ncols, _kernel_rows(red, pivots, ncols))


def int_kernel_vector(rows: Iterable[list[int]], ncols: int) -> Optional[list[int]]:
    """One nonzero integer kernel vector of the rows, the generator of the
    first free column, or None when the kernel is {0}; no basis of the whole
    kernel is formed."""
    red, pivots = _echelon(rows, ncols)
    pivot_set = set(pivots)
    f = next((f for f in range(ncols) if f not in pivot_set), None)
    return None if f is None else _kernel_row(red, pivots, f, ncols)


def kernel_basis(m: QMatrix) -> Subspace:
    """Canonical basis of the exact null space of ``m``."""
    return int_kernel(m._int_rows(), m.cols)


def subspace_intersection(s1: Subspace, s2: Subspace) -> Subspace:
    """Canonical basis of s1 ∩ s2."""
    if s1.ambient != s2.ambient:
        raise ValueError("ambient dimension mismatch")
    if s1.dim == 0 or s2.dim == 0:
        return _span(s1.ambient, [])
    # With the rows of the two subspaces as the columns of C1, C2, a kernel
    # vector (c, c') of [C1 | -C2] gives C1 c in both.
    c1, c2 = list(zip(*s1.rows)), list(zip(*s2.rows))
    stacked = [list(r1) + [-x for x in r2] for r1, r2 in zip(c1, c2)]
    rows, pivots = _echelon(stacked, s1.dim + s2.dim)
    gens = [
        [sum(k * x for k, x in zip(v, r1)) for r1 in c1]
        for v in _kernel_rows(rows, pivots, s1.dim + s2.dim)
    ]
    return _span(s1.ambient, gens)


def full_space(ambient: int) -> Subspace:
    """Q^ambient, from its unit rows: they are already its canonical form."""
    zeros = (0,) * ambient
    return Subspace(ambient, tuple(zeros[:i] + (1,) + zeros[i + 1:] for i in range(ambient)))
