"""Membership witnesses: the one certificate that a vector lies in every
image of a symbol.

A membership witness for e under a symbol S (of order k) is a pair (u, q):
u in V[x] homogeneous of degree s and q homogeneous of even degree s + k
with

    S(x) u(x) == q(x) e        exactly, as polynomials,

and a cover from ``exact.bernstein.certify_positive`` proving q > 0 on the
cube boundary, hence at every x != 0.  Then e = S(xi) u(xi) / q(xi) lies in
the image S(xi)[V] at every xi != 0.  Cancellation takes S = A and proves
that basis vectors of the common image lie in it; ellipticity takes
S = A^T and proves that A^T(xi) maps onto V, so that A(xi) is injective.

``find_witnesses`` tries q = |x|^(s+k) for s = 0, 1, ... up to
``MAX_WITNESS_DEGREE`` with s + k even: the unknowns u solve one linear
system on integer rows (``SymbolOperator.multiplication_rows``) whose
right-hand sides q e, one column per open vector, enter one ``_echelon``
call.  A system over ``MAX_SYSTEM_ENTRIES`` entries is never built.
The cofactor witness q = det(A^T A) needs no system, as its u comes from
columns of adj(A^T A) (``PolyMatrix.adjugate_column``): ``cofactor_witnesses``
(S = A) takes u = adj(A^T A) A^T e, the r = dim V case of Decell's formula
for the projection onto A(x)[V] (SIAM Review, 1965), and ellipticity
(S = A^T) takes u = A adj(A^T A) e.  Both have the degree
``witness_degree_bound``, 2k min(dim V, dim E) - k.  ``verify_memberships``
computes that bound from the symbol and rejects a witness above it, which
bounds the work of a check, and replays each distinct cover once.
``certify_gram_det`` forms det(A^T A) and its cover for both.  Every
positivity search has one budget, ``WITNESS_MAX_DEPTH`` bisections per axis
and ``WITNESS_BOX_BUDGET`` boxes: no search on the 1,200 symbols of seeds
0-2 of tests/test_random_symbols.py took over 766 boxes, and 8 bisections
and 200 boxes would leave one ELLIPTIC symbol there UNDECIDED (it needs 9).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ..exact.bernstein import CertifiedBox, certify_positive, verify_positive
from ..exact.matrix import _echelon
from ..exact.poly import Polynomial, multi_indices
from ..exact.polymatrix import DetBudgetError
from ..exact.symbol import SymbolOperator

# Entries (rows times columns) of the largest linear system built, by the
# witness search and by compat's annihilator.  The regression instances need
# at most 14,580 and saint_venant(5)'s annihilator 1,640,625 (525 x 3,125;
# about 20 s and 400 MB); saint_venant(6) at degree 1 would need 7.6 million.
MAX_SYSTEM_ENTRIES = 2**21
MAX_WITNESS_DEGREE = 3  # largest degree s of u that the search tries
WITNESS_MAX_DEPTH = 24  # bisections per axis of every positivity search
WITNESS_BOX_BUDGET = 100_000  # boxes examined by every positivity search


@dataclass
class Membership:
    """S(x) u(x) == p(x) e, with ``cover`` proving p > 0 away from 0."""

    e: tuple
    u: tuple  # of Polynomial, one per coordinate of V, homogeneous of degree s
    p: Polynomial  # homogeneous of even degree s + k
    cover: list[CertifiedBox]

    @property
    def degree(self) -> int:
        """s, the degree of u."""
        return max(q.degree() for q in self.u)


def witness_degree_bound(a: SymbolOperator) -> int:
    """2k min(dim V, dim E) - k: the largest degree s of a witness for the
    symbol a, that of u = A adj(A^T A) e when a = A^T."""
    return a.order * (2 * min(a.dim_v, a.dim_e) - 1)


def _norm_power(n: int, degree: int) -> Polynomial:
    """|x|^degree for an even degree."""
    square = Polynomial.make(
        n, {tuple(2 * (i == j) for j in range(n)): Fraction(1) for i in range(n)})
    return square.pow(degree // 2)


def _solve_norm_power(a: SymbolOperator, q: Polynomial, vectors: Sequence[Sequence],
                      s: int) -> list[Optional[tuple]]:
    """For each e of ``vectors``, u of degree s with a(x) u(x) == q(x) e for
    q = |x|^(s+k), or None when there is none; one elimination solves them
    all."""
    targets = multi_indices(a.n, s + a.order)
    ncols = a.multiplication_shape(s)[1]
    # Every row is the rational equation times L D > 0, with D the symbol's
    # denominator and L that of the vectors: u -> a u is multiplication_rows
    # times L, and each column of right-hand sides holds D q_gamma (L e_c),
    # an integer since q has integer coefficients.
    coeffs = q.as_dict()
    lcm = math.lcm(*(Fraction(c).denominator for e in vectors for c in e))
    den = a.den
    q_int = [den * int(coeffs.get(g, 0)) for g in targets]
    e_int = [[int(c * lcm) for c in e] for e in vectors]
    rows = a.multiplication_rows(s)  # row g * dim_e + c: coefficient x^gamma_g, slot c
    system = [
        (r if lcm == 1 else [lcm * x for x in r]) + [qg * e[c] for e in e_int]
        for r, (qg, c) in zip(rows, itertools.product(q_int, range(a.dim_e)))
    ]
    red, pivots = _echelon(system, ncols + len(vectors))
    # Rows whose pivot lies among the right-hand sides say 0 = nonzero for
    # every vector they touch; the others give u with its free unknowns 0.
    inconsistent = [r for r, col in zip(red, pivots) if col >= ncols]
    solved = [(r, col) for r, col in zip(red, pivots) if col < ncols]
    sources = multi_indices(a.n, s)
    out: list[Optional[tuple]] = []
    for j in range(len(vectors)):
        if any(r[ncols + j] for r in inconsistent):
            out.append(None)
            continue
        terms: list[dict] = [{} for _ in range(a.dim_v)]
        for r, col in solved:
            if r[ncols + j]:
                b, i = divmod(col, a.dim_v)  # column b * dim_v + i stands for x^beta_b e_i
                terms[i][sources[b]] = Fraction(r[ncols + j], r[col])
        out.append(tuple(Polynomial.make(a.n, t) for t in terms))
    return out


def find_witnesses(a: SymbolOperator, vectors: Sequence[Sequence]) -> list[Optional[Membership]]:
    """A witness with q = |x|^(s+k) for each e of ``vectors``, with u of
    degree s at most ``MAX_WITNESS_DEGREE`` and ``witness_degree_bound``, or
    None for those without one.

    For each s, one solve tries every vector still open, and the lowest s
    wins.  A system over ``MAX_SYSTEM_ENTRIES`` ends the search."""
    found: list[Optional[Membership]] = [None] * len(vectors)
    top = min(MAX_WITNESS_DEGREE, witness_degree_bound(a))
    for s in range(a.order % 2, top + 1, 2):  # s + k even
        open_ = [i for i, m in enumerate(found) if m is None]
        rows, cols = a.multiplication_shape(s)
        if not open_ or rows * (cols + len(open_)) > MAX_SYSTEM_ENTRIES:
            break
        q = _norm_power(a.n, s + a.order)
        solutions = _solve_norm_power(a, q, [vectors[i] for i in open_], s)
        cover = None
        for i, u in zip(open_, solutions):
            if u is not None:
                if cover is None:
                    cover = certify_positive(q, WITNESS_MAX_DEPTH, WITNESS_BOX_BUDGET).cover
                found[i] = Membership(tuple(vectors[i]), u, q, cover)
    return found


def certify_gram_det(a: SymbolOperator) -> tuple:
    """A^T A, q = det(A^T A) and ``certify_positive`` of q under the one
    budget pair; raises ``DetBudgetError`` past the determinant's budget."""
    gram = a.gram()
    q = gram.det()
    return gram, q, certify_positive(q, WITNESS_MAX_DEPTH, WITNESS_BOX_BUDGET)


def cofactor_witnesses(a: SymbolOperator, vectors: Sequence[Sequence]) -> list[Optional[Membership]]:
    """For each e of ``vectors``, the witness q = det(A^T A) and u =
    adj(A^T A) A^T e, of degree ``witness_degree_bound(a)``, or None where
    A u != q e.

    When A(x) is injective at every x != 0, A adj(A^T A) A^T is q times the
    projection onto A(x)[V], so the identity holds exactly for the vectors
    of the common image.  The determinant, the adjugate and one cover of q
    serve every vector.  Every entry is None when ``certify_gram_det``
    finds no cover or a cofactor expansion is over its budget
    (``DetBudgetError``)."""
    if not vectors:
        return []
    try:
        gram, q, positive = certify_gram_det(a)
        if positive.zero is not None or positive.undecided_box is not None:
            return [None] * len(vectors)
        adjugate = [gram.adjugate_column(i) for i in range(a.dim_v)]  # column i of adj(A^T A)
    except DetBudgetError:
        return [None] * len(vectors)
    at = a.transpose()
    found: list[Optional[Membership]] = []
    for e in vectors:
        ate = at.apply([Polynomial.constant(a.n, c) for c in e])
        u = tuple(sum((col[j] * x for col, x in zip(adjugate, ate)), Polynomial.zero(a.n))
                  for j in range(a.dim_v))
        holds = a.apply(u) == [q.scale(c) for c in e]
        found.append(Membership(tuple(e), u, q, positive.cover) if holds else None)
    return found


def verify_memberships(a: SymbolOperator, memberships: Sequence[Membership]) -> bool:
    """Each a(x) u(x) == p(x) e exactly, with u homogeneous of degree s at
    most ``witness_degree_bound(a)`` (which bounds the work), and
    ``verify_positive`` accepts the cover of each p, once per distinct pair
    of p and cover.  For e != 0 the identity makes p homogeneous of degree
    s + k, and ``verify_positive`` requires that degree to be even."""
    bound = witness_degree_bound(a)
    for m in memberships:
        s = m.p.degree() - a.order
        if not 0 <= s <= bound or not all(q.is_homogeneous(s) for q in m.u):
            return False
        if a.apply(m.u) != [m.p.scale(c) for c in m.e]:
            return False
    return all(verify_positive(p, list(cover))
               for p, cover in {(m.p, tuple(m.cover)) for m in memberships})
