"""Injectivity certification for symbols.

A symbol A is injective away from the origin exactly when det(A^T A) is
positive on the unit sphere; by homogeneity this is equivalent to
positivity on the boundary of the cube [-1, 1]^n.  The determinant is
homogeneous of even degree, so it takes the same values on the faces
x_i = -1 as on their mirror images x_i = +1, and the n faces x_i = +1
suffice.  ``exact.bernstein.certify_positive`` decides that positivity:

- a cover of the n faces by dyadic boxes, each with a positive exact lower
  bound of det(A^T A), makes the verdict ELLIPTIC;
- an exact rational zero xi of det(A^T A) makes it NOT_ELLIPTIC, with a
  nonzero kernel vector of A(xi) as the re-checkable witness;
- when the budget runs out without either outcome the verdict is UNDECIDED
  and reports the box where it ran out;
- when det(A^T A) itself is over its budget (``DetBudgetError``) the
  verdict is UNDECIDED with that reason, and no cover is searched.

The verifier recomputes det(A^T A) from the operator and replays the cover
with ``exact.bernstein.verify_positive``; kernel witnesses are
re-multiplied; an ELLIPTIC report whose determinant is over the budget is
rejected.  Kernel vectors are found, and re-multiplied, on the integer
rows of a positive multiple of A(xi) (``SymbolOperator.scaled_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from ..exact.bernstein import CertifiedBox, FaceBox, certify_positive, verify_positive
from ..exact.matrix import int_kernel
from ..exact.polymatrix import DetBudgetError
from ..exact.symbol import SymbolOperator

ELLIPTIC = "ELLIPTIC"
NOT_ELLIPTIC = "NOT_ELLIPTIC"
UNDECIDED = "UNDECIDED"

DEFAULT_MAX_DEPTH = 24  # bisections per axis
DEFAULT_BOX_BUDGET = 100_000


@dataclass
class EllipticityVerdict:
    status: str
    cover: list[CertifiedBox] = field(default_factory=list)
    witness_xi: Optional[tuple] = None
    witness_v: Optional[tuple] = None
    undecided_box: Optional[FaceBox] = None
    depth_reached: int = 0
    boxes_examined: int = 0
    axis_depths: tuple = ()  # deepest bisection along each coordinate
    det_terms: int = 0
    det_degree: int = 0
    reason: Optional[str] = None  # why an UNDECIDED verdict claims nothing

    @property
    def certified(self) -> bool:
        return self.status in (ELLIPTIC, NOT_ELLIPTIC)


def _kernel_witness(a: SymbolOperator, xi: Sequence[Fraction]) -> tuple:
    """A nonzero kernel vector of A(xi), the first canonical one of the
    integer rows of a positive multiple; the caller knows A(xi) has one."""
    return tuple(int_kernel(a.scaled_rows(xi), a.dim_v).basis.col(0))


def check_ellipticity(
    a: SymbolOperator,
    max_depth: int = DEFAULT_MAX_DEPTH,
    box_budget: int = DEFAULT_BOX_BUDGET,
) -> EllipticityVerdict:
    first_axis = tuple(Fraction(1 if i == 0 else 0) for i in range(a.n))
    if a.dim_v > a.dim_e:
        # More columns than rows: every direction has a nontrivial kernel.
        return EllipticityVerdict(NOT_ELLIPTIC, witness_xi=first_axis,
                                  witness_v=_kernel_witness(a, first_axis))
    try:
        det_gram = a.gram().det()
    except DetBudgetError as exc:
        return EllipticityVerdict(UNDECIDED, reason=f"det(A^T A): {exc}")
    sizes = {"det_terms": len(det_gram.terms), "det_degree": det_gram.degree()}
    if det_gram.is_zero():
        return EllipticityVerdict(NOT_ELLIPTIC, witness_xi=first_axis,
                                  witness_v=_kernel_witness(a, first_axis), **sizes)
    found = certify_positive(det_gram, max_depth, box_budget)
    counters = dict(sizes, boxes_examined=found.boxes_examined, axis_depths=found.axis_depths,
                    depth_reached=max(found.axis_depths, default=0))
    if found.zero is not None:
        # det(A^T A)(xi) = 0 with xi != 0: A(xi) has a kernel.
        return EllipticityVerdict(NOT_ELLIPTIC, witness_xi=found.zero,
                                  witness_v=_kernel_witness(a, found.zero), **counters)
    if found.undecided_box is not None:
        return EllipticityVerdict(UNDECIDED, undecided_box=found.undecided_box, **counters)
    return EllipticityVerdict(ELLIPTIC, cover=found.cover, **counters)


def verify_ellipticity(a: SymbolOperator, verdict: EllipticityVerdict) -> bool:
    """Re-check an ellipticity certificate from scratch.

    Uses only exact arithmetic and trusts nothing in the verdict: an
    ELLIPTIC cover must pass ``verify_positive`` on det(A^T A) recomputed
    from the operator, which also checks that the determinant is even, so
    that the n faces x_i = +1 stand for the whole cube boundary.  Kernel
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
        return all(sum(x * y for x, y in zip(r, v)) == 0 for r in rows)
    if verdict.status != ELLIPTIC:
        return False
    try:
        det_gram = a.gram().det()
    except DetBudgetError:
        return False
    return verify_positive(det_gram, verdict.cover)
