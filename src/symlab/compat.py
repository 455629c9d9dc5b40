"""Annihilating symbols: L with L(x) A(x) == 0, of least degree.

The rows l of degree d with l(x) A(x) == 0 are the kernel of one linear
map, because the coefficients of l(x) A(x) are linear in those of l; that
kernel is taken from the integer rows of D times its matrix
(``SymbolOperator.multiplication_rows`` of A^T), and its basis vectors
become the rows of L through their nonzero entries
(``SymbolOperator.from_entries``).
``build_annihilator`` takes that whole kernel as the rows of L, for d = 0,
1, ..., and stops at the first d at which rank L(xi) = dim E - rank A(xi)
at one seeded direction xi.  As A(xi)[V] lies in the kernel of L(xi) at every xi, this
equality says that L(xi) cuts out exactly the image there.

The search ends by d = k r, k the order of A and r its rank at xi: when r
is the generic rank, the cofactor rows of the (r+1)-minors of A through one
nonzero r-minor have degree k r, annihilate A and reach that rank.  A of
rank dim E has the zero annihilator.

L(x) A(x) == 0 holds by construction.  ``verify_annihilator`` re-checks it
exactly: the composite symbol L A (``SymbolOperator.compose``) must be the
zero symbol.  Given that, A(xi)[V] lies in ker L(xi), so the two are
equal at a sampled direction iff rank L(xi) + rank A(xi) = dim E, the count
that stops the build; where the identity fails, every kernel check reads
False.

Every rank at xi is taken from the integer rows of a positive multiple of
the symbol's value (``SymbolOperator.scaled_rows``), which go straight into
the forward pass of the elimination; no ``Fraction`` matrix is built.

The system of degree d has dim V * #monomials(d + k) rows and
dim E * #monomials(d) columns.  Its size is checked before it is built: a
system of more than ``MAX_SYSTEM_ENTRIES`` entries, the budget it shares
with the witness systems of ``deciders.witness``, ends the build with
``AnnihilatorBudgetError``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .deciders.cancellation import probe_directions, sample_directions
from .deciders.witness import MAX_SYSTEM_ENTRIES
from .exact.matrix import int_kernel, int_pivots
from .exact.poly import monomial_count, multi_indices
from .exact.symbol import SymbolOperator

RANK_SAMPLES = 3  # seeded directions; the one of largest rank A(xi) is used
PROBE_SAMPLES = 8  # directions where verify_annihilator compares ranks


class AnnihilatorBudgetError(ValueError):
    """The next annihilator system is larger than ``MAX_SYSTEM_ENTRIES``."""


@dataclass
class AnnihilatorResult:
    operator: SymbolOperator  # rows of L: the symbol E -> Q^rows


def _rank_at(s: SymbolOperator, xi: tuple) -> int:
    """rank s(xi), from the integer rows of a positive multiple."""
    return len(int_pivots(s.scaled_rows(xi), s.dim_v))


def _check_size(a: SymbolOperator, d: int) -> None:
    """Refuse the system of degree d when it has too many entries."""
    # multiplication_shape(d) of A^T, without transposing A.
    rows = a.dim_v * monomial_count(a.n, d + a.order)
    cols = a.dim_e * monomial_count(a.n, d)
    if rows * cols > MAX_SYSTEM_ENTRIES:
        raise AnnihilatorBudgetError(
            f"the degree-{d} annihilator system is {rows:,} x {cols:,}, over the budget "
            f"of {MAX_SYSTEM_ENTRIES:,} entries"
        )


def _rows_of_degree(a: SymbolOperator, d: int) -> Optional[SymbolOperator]:
    """Every row l of degree d with l A == 0, as one symbol, or None."""
    _check_size(a, d)
    sources = multi_indices(a.n, d)
    dim = a.dim_e  # entry b * dim + i of a kernel vector: x^beta_b in slot i
    kernel = int_kernel(a.transpose().multiplication_rows(d), len(sources) * dim)
    if not kernel.dim:
        return None
    # The kernel's basis vectors are its integer RREF rows divided by their
    # pivots, the first nonzero entries.
    entries = {}
    for r, row in enumerate(kernel.rows):
        start = next(k for k, x in enumerate(row) if x)
        for k, x in enumerate(row[start:], start):
            if x:
                entries[(sources[k // dim], r, k % dim)] = Fraction(x, row[start])
    return SymbolOperator.from_entries(a.n, dim, kernel.dim, d, entries)


def build_annihilator(a: SymbolOperator, seed: int = 0) -> AnnihilatorResult:
    if a.dim_v < a.dim_e:
        # rank A(xi) < dim E, so the search starts at degree 0: check its
        # size before ranking A(xi), which alone takes seconds on an
        # operator as large as saint_venant(9).
        _check_size(a, 0)
    ranked = [(_rank_at(a, x), x)
              for x in sample_directions(a.n, RANK_SAMPLES, random.Random(seed))]
    rank_a, xi = max(ranked, key=lambda rx: rx[0])
    l = None
    if rank_a < a.dim_e:
        for d in range(a.order * rank_a + 1):
            l = _rows_of_degree(a, d)
            if l is not None and _rank_at(l, xi) == a.dim_e - rank_a:
                break
    if l is None:
        l = SymbolOperator.zero(a.n, a.dim_e, a.dim_e, 0)
    return AnnihilatorResult(l)


@dataclass
class AnnihilatorReport:
    identity_ok: bool
    kernel_checks: list          # (xi, bool)
    rank_checks: list            # (xi, bool): image dimension equals dim_v

    @property
    def kernels_match(self) -> bool:
        return all(ok for _xi, ok in self.kernel_checks)

    @property
    def ranks_full(self) -> bool:
        return all(ok for _xi, ok in self.rank_checks)


def verify_annihilator(a: SymbolOperator, l: SymbolOperator, seed: int = 1) -> AnnihilatorReport:
    """Exact annihilation check plus the rank counts at probe directions."""
    if l.dim_v != a.dim_e or l.n != a.n:
        raise ValueError("annihilator dimensions do not match the operator")
    identity_ok = l.compose(a).is_zero()
    kernel_checks = []
    rank_checks = []
    for xi in probe_directions(a.n, PROBE_SAMPLES, random.Random(seed)):
        rank_a = _rank_at(a, xi)
        kernel_checks.append((xi, identity_ok and rank_a + _rank_at(l, xi) == a.dim_e))
        rank_checks.append((xi, rank_a == a.dim_v))
    return AnnihilatorReport(identity_ok, kernel_checks, rank_checks)
