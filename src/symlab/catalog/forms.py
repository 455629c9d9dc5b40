"""The exterior algebra over Q^n: the symbols of d and its adjoint.

Degree-l forms are coordinatized by the lexicographically ordered
l-element subsets of {0, ..., n-1}.  Both symbols are first order and are
stated entry by entry through two sign rules, each the parity of a
position p counted from 0:

- the exterior derivative d on l-forms has the symbol v -> xi wedge v,
  whose entry at (xi_i, S + {i}, S) for i not in S is the sign (-1)^p of
  e_i wedge e_S, with p the position of i in S + {i};
- the codifferential delta on l-forms has the symbol
  (-1)^(n(l+1)) iota_xi, with iota_xi e_S the sum over i in S of
  (-1)^p xi_i e_(S - {i}), p the position of i in S; its entry at
  (xi_i, S - {i}, S) is (-1)^p (-1)^(n(l+1)).

The interior product iota_xi satisfies Cartan's identity
d iota_xi + iota_xi d = |xi|^2 I, and d d = delta delta = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from ..exact.symbol import SymbolOperator


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
    """Sign of e_i wedge e_subset for i not in subset."""
    return (-1) ** sum(s < i for s in subset)


def _first_order(n: int, src: FormIndexing, dst: FormIndexing, entries) -> SymbolOperator:
    """The symbol from src-forms to dst-forms with entry ``sign`` at
    (xi_i, target, s) for each (i, target, s, sign) of ``entries``."""
    rows = {t: r for r, t in enumerate(dst.subsets())}
    cols = {s: c for c, s in enumerate(src.subsets())}
    return SymbolOperator.from_entries(n, src.dim, dst.dim, 1, {
        (tuple(int(j == i) for j in range(n)), rows[t], cols[s]): sign
        for i, t, s, sign in entries})


def exterior_derivative(n: int, ell: int) -> SymbolOperator:
    """The symbol v -> xi wedge v of d, from ell-forms to (ell + 1)-forms."""
    src = FormIndexing(n, ell)
    return _first_order(n, src, FormIndexing(n, ell + 1), (
        (i, tuple(sorted(s + (i,))), s, wedge_insert_sign(i, s))
        for s in src.subsets() for i in range(n) if i not in s))


def codifferential(n: int, ell: int) -> SymbolOperator:
    """The symbol (-1)^(n(ell + 1)) iota_xi of delta, from ell-forms to
    (ell - 1)-forms."""
    src = FormIndexing(n, ell)
    sign = (-1) ** (n * (ell + 1))
    return _first_order(n, src, FormIndexing(n, ell - 1), (
        (i, s[:p] + s[p + 1:], s, sign * (-1) ** p)
        for s in src.subsets() for p, i in enumerate(s)))
