"""Injectivity certification for symbols.

A(xi) is injective exactly when A^T(xi) maps onto V.  So ELLIPTIC is proved
by membership witnesses of A^T (``deciders.witness``): for each basis
vector e_i of V, u_i in E[x] and q_i > 0 with A^T(x) u_i(x) == q_i(x) e_i
exactly, which puts every e_i in the image of A^T(xi) at every xi != 0.
``check_ellipticity`` runs three steps:

1. Lattice: the exact rank of A(xi), from the integer rows
   ``SymbolOperator.scaled_rows``, at the axis directions.  A kernel vector
   there is the NOT_ELLIPTIC witness, and no determinant is formed.
2. Witnesses with q = |x|^(s+k) for s <= ``MAX_WITNESS_DEGREE`` (3), all
   e_i of one degree by one elimination.  When every e_i has one, the
   verdict is ELLIPTIC.  Otherwise the rank is taken at the other
   directions with coordinates in {-1, 0, 1}, one of each pair +-xi, as in
   step 1.
3. det(A^T A): ``witness.certify_gram_det`` forms it and searches its
   zeros on the cube boundary, where step 2 left none at the {-1, 0, 1}
   lattice.  An exact zero xi makes the verdict NOT_ELLIPTIC with a kernel
   vector of A(xi).  A cover proves det(A^T A) > 0, and the open e_i get
   the cofactor witness q = det(A^T A), u_i = A adj(A^T A) e_i, since
   A^T A adj(A^T A) = det(A^T A) I; no linear system is solved.

A verdict that stops at a limit is UNDECIDED, and its ``reason`` names the
limit: the box budget or the depth limit of the zero search (the one pair
that ``deciders.witness`` sets and explains), or the budget of the
determinant and its cofactors (``DetBudgetError``).  The ``cover``
of an ELLIPTIC verdict is the boxes of its witnesses' covers of q_i
together, which the counters and older readers of reports take as the
verdict's cover; ``boxes_examined`` and ``depth_reached`` count those
searches.

The verifier re-checks each witness with ``verify_memberships`` on A^T
(the identity, the degree bound computed from the operator and the cover
of q_i), requires the e_i to span V and the verdict's ``cover`` to be the
witnesses' covers together; it forms no det(A^T A).  Kernel
witnesses are re-multiplied on the integer rows of a positive multiple of
A(xi).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from ..exact.bernstein import CertifiedBox, FaceBox
from ..exact.matrix import int_kernel_vector, int_pivots, subspace_from_columns
from ..exact.polymatrix import DetBudgetError
from ..exact.symbol import SymbolOperator
from .witness import Membership, certify_gram_det, find_witnesses, verify_memberships

ELLIPTIC = "ELLIPTIC"
NOT_ELLIPTIC = "NOT_ELLIPTIC"
UNDECIDED = "UNDECIDED"


@dataclass
class EllipticityVerdict:
    status: str
    memberships: list[Membership] = field(default_factory=list)  # of A^T, one per e_i
    cover: list[CertifiedBox] = field(default_factory=list)  # the witnesses' covers together
    witness_xi: Optional[tuple] = None
    witness_v: Optional[tuple] = None
    undecided_box: Optional[FaceBox] = None
    boxes_examined: int = 0
    axis_depths: tuple = ()  # deepest bisection along each coordinate
    det_terms: int = 0
    det_degree: int = 0
    reason: Optional[str] = None  # why an UNDECIDED verdict claims nothing

    @property
    def certified(self) -> bool:
        return self.status in (ELLIPTIC, NOT_ELLIPTIC)

    @property
    def depth_reached(self) -> int:
        """The deepest bisection along any coordinate, 0 without a search."""
        return max(self.axis_depths, default=0)


def _covers(memberships: Sequence[Membership]) -> list[CertifiedBox]:
    """The boxes of the witnesses' covers of q_i, in order."""
    return [cb for m in memberships for cb in m.cover]


def _kernel_vector(a: SymbolOperator, xi: Sequence[Fraction]) -> tuple:
    """A nonzero kernel vector of A(xi), from the integer rows of a positive
    multiple, divided by its leading entry; the caller knows A(xi) has
    one."""
    row = int_kernel_vector(a.scaled_rows(xi), a.dim_v)
    lead = next(x for x in row if x)
    return tuple(Fraction(x, lead) for x in row)


def _off_axis_lattice(n: int):
    """The directions with coordinates in {-1, 0, 1}, at least two nonzero
    and one +1, in product order, one of each pair +-xi (A(-xi) = +-A(xi)
    has the same kernel)."""
    seen = set()
    for combo in itertools.product((-1, 0, 1), repeat=n):
        if 1 in combo and n - combo.count(0) > 1 and tuple(-c for c in combo) not in seen:
            seen.add(combo)
            yield tuple(Fraction(c) for c in combo)


def _singular_direction(a: SymbolOperator, directions) -> Optional[tuple]:
    """The first of the directions where A has a kernel."""
    return next((xi for xi in directions
                 if len(int_pivots(a.scaled_rows(xi), a.dim_v)) < a.dim_v), None)


def check_ellipticity(a: SymbolOperator) -> EllipticityVerdict:
    def not_elliptic(xi, **counters) -> EllipticityVerdict:
        return EllipticityVerdict(NOT_ELLIPTIC, witness_xi=xi,
                                  witness_v=_kernel_vector(a, xi), **counters)

    axes = [tuple(Fraction(int(i == j)) for j in range(a.n)) for i in range(a.n)]
    xi = _singular_direction(a, axes)
    if xi is not None:
        return not_elliptic(xi)
    at = a.transpose()
    basis = [tuple(Fraction(int(i == j)) for j in range(a.dim_v)) for i in range(a.dim_v)]
    found = find_witnesses(at, basis)
    boxes = sum(len(m.cover) for m in found if m)
    if None not in found:
        # Each cover of |x|^(s+k) is the n faces at the root.
        return EllipticityVerdict(ELLIPTIC, found, _covers(found), boxes_examined=boxes,
                                  axis_depths=(0,) * a.n)
    xi = _singular_direction(a, _off_axis_lattice(a.n))
    if xi is not None:
        return not_elliptic(xi)
    try:
        gram, det_gram, positive = certify_gram_det(a)
    except DetBudgetError as exc:
        return EllipticityVerdict(UNDECIDED, reason=f"det(A^T A): {exc}")
    counters = dict(det_terms=len(det_gram.terms), det_degree=det_gram.degree(),
                    boxes_examined=boxes + positive.boxes_examined,
                    axis_depths=positive.axis_depths)
    if positive.zero is not None:
        # det(A^T A)(xi) = 0 with xi != 0: A(xi) has a kernel.
        return not_elliptic(positive.zero, **counters)
    if positive.undecided_box is not None:
        return EllipticityVerdict(
            UNDECIDED, undecided_box=positive.undecided_box, **counters,
            reason=f"the search for zeros of det(A^T A) reached {positive.limit} after "
                   f"{positive.boxes_examined:,} boxes, with neither a cover nor a zero")
    # u_i = A adj(A^T A) e_i has the degree witness_degree_bound(A^T).
    for i in [i for i, m in enumerate(found) if m is None]:
        try:
            w = gram.adjugate_column(i)
        except DetBudgetError as exc:
            return EllipticityVerdict(UNDECIDED, **counters,
                                      reason=f"det(A^T A) > 0 is certified, but adj(A^T A): {exc}")
        found[i] = Membership(basis[i], tuple(a.apply(w)), det_gram, positive.cover)
    return EllipticityVerdict(ELLIPTIC, found, _covers(found), **counters)


def verify_ellipticity(a: SymbolOperator, verdict: EllipticityVerdict) -> bool:
    """Re-check an ellipticity certificate from scratch.

    Uses only exact arithmetic and trusts nothing in the verdict.  ELLIPTIC
    needs membership witnesses of A^T that ``verify_memberships`` accepts
    (A^T u == q e, u within the degree bound of the operator, the cover of
    q > 0), whose vectors e span V and whose covers together are the
    verdict's ``cover``; no det(A^T A) is formed.  Kernel
    witnesses are re-multiplied.  An UNDECIDED verdict claims nothing and is
    accepted.
    """
    if verdict.status == UNDECIDED:
        return True
    if verdict.status == NOT_ELLIPTIC:
        xi, v = verdict.witness_xi, verdict.witness_v
        if xi is None or v is None:
            return False
        if all(x == 0 for x in xi) or all(x == 0 for x in v):
            return False
        rows = a.scaled_rows(xi)  # a positive multiple of A(xi)
        if len(v) != a.dim_v:
            raise ValueError("vector length mismatch")
        # v times the lcm of its denominators: integer products only.
        den = math.lcm(*(Fraction(x).denominator for x in v))
        v = [int(Fraction(x) * den) for x in v]
        return all(sum(x * y for x, y in zip(r, v)) == 0 for r in rows)
    if verdict.status != ELLIPTIC:
        return False
    at = a.transpose()
    spanned = subspace_from_columns(a.dim_v, [m.e for m in verdict.memberships])
    return (spanned.dim == a.dim_v and verdict.cover == _covers(verdict.memberships)
            and verify_memberships(at, verdict.memberships))
