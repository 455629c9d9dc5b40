"""Sparse multivariate polynomials over the rationals.

A polynomial in n variables is a map from exponent tuples (one non-negative
int per variable) to nonzero Fraction coefficients.  Terms iterate in
graded lexicographic order, so serialization and equality behave
deterministically.  ``clear_denominators`` turns one into an integer
polynomial (a dict from exponent tuples to nonzero ints) times a positive
integer, for the integer arithmetic of ``SymbolOperator.apply``,
``PolyMatrix.det`` and ``exact.bernstein``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

MultiIndex = tuple[int, ...]
IntPoly = dict  # exponent tuple -> nonzero int


def grlex_key(alpha: MultiIndex):
    return (sum(alpha), alpha)


def _clean(terms: Mapping[MultiIndex, Fraction]) -> dict:
    return {a: c for a, c in terms.items() if c != 0}


@dataclass(frozen=True)
class Polynomial:
    n: int
    terms: tuple  # sorted tuple of (MultiIndex, Fraction), graded-lex order

    @staticmethod
    def make(n: int, terms: Mapping[MultiIndex, Fraction]) -> "Polynomial":
        cleaned = _clean(terms)
        for a in cleaned:
            if len(a) != n or any(e < 0 for e in a):
                raise ValueError(f"bad exponent {a} for {n} variables")
        items = tuple(sorted(cleaned.items(), key=lambda kv: grlex_key(kv[0])))
        return Polynomial(n, items)

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial.make(n, {})

    @staticmethod
    def constant(n: int, c) -> "Polynomial":
        return Polynomial.make(n, {(0,) * n: Fraction(c)})

    @staticmethod
    def variable(n: int, i: int) -> "Polynomial":
        e = [0] * n
        e[i] = 1
        return Polynomial.make(n, {tuple(e): Fraction(1)})

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(a) for a, _ in self.terms), default=-1)

    def is_homogeneous(self, d: int | None = None) -> bool:
        degs = {sum(a) for a, _ in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return d is None or degs == {d}

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        acc = dict(self.terms)
        for a, c in other.terms:
            acc[a] = acc.get(a, Fraction(0)) + c
        return Polynomial.make(self.n, acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero(self.n)
        return Polynomial(self.n, tuple((a, c * v) for a, v in self.terms))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        acc: dict[MultiIndex, Fraction] = {}
        for a, ca in self.terms:
            for b, cb in other.terms:
                key = tuple(x + y for x, y in zip(a, b))
                acc[key] = acc.get(key, Fraction(0)) + ca * cb
        return Polynomial.make(self.n, acc)

    def pow(self, k: int) -> "Polynomial":
        result = Polynomial.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def evaluate(self, point: Sequence) -> Fraction:
        pt = [Fraction(x) for x in point]
        if len(pt) != self.n:
            raise ValueError("point dimension mismatch")
        total = Fraction(0)
        for a, c in self.terms:
            v = c
            for x, e in zip(pt, a):
                if e:
                    v *= x**e
            total += v
        return total


def clear_denominators(p: Polynomial) -> tuple[IntPoly, int]:
    """(q, D) with D > 0 the least common denominator and q = D * p."""
    den = math.lcm(*(c.denominator for _, c in p.terms)) if p.terms else 1
    return {a: c.numerator * (den // c.denominator) for a, c in p.terms}, den


def multi_indices(n: int, degree: int) -> list[MultiIndex]:
    """All exponent tuples of the given total degree, graded-lex sorted."""
    out: list[MultiIndex] = []

    def rec(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    if n == 0:
        return [()] if degree == 0 else []
    rec([], degree, n)
    out.sort(key=grlex_key)
    return out


def monomial_count(n: int, degree: int) -> int:
    """Number of monomials of total degree ``degree`` in ``n`` variables."""
    return math.comb(degree + n - 1, n - 1)
