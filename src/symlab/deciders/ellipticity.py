"""Injectivity certification for symbols.

A symbol A is injective away from the origin exactly when det(A^T A) is
positive on the unit sphere; by homogeneity this is equivalent to
positivity on the boundary of the unit cube.  The checker covers the 2n
cube faces with axis-aligned boxes, certifying each box through an exact
rational interval lower bound of the determinant, and bisecting boxes it
cannot certify.  Negative verdicts always carry an exactly re-checkable
witness: a nonzero rational direction together with a nonzero kernel
vector.  When the budget runs out without either outcome the verdict is
UNDECIDED and reports the smallest failing box.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from ..exact.bernstein import bernstein_range
from ..exact.matrix import QMatrix, kernel_basis
from ..exact.poly import Interval, Polynomial
from ..exact.symbol import SymbolOperator

ELLIPTIC = "ELLIPTIC"
NOT_ELLIPTIC = "NOT_ELLIPTIC"
UNDECIDED = "UNDECIDED"

DEFAULT_MAX_DEPTH = 24
DEFAULT_BOX_BUDGET = 100_000


@dataclass(frozen=True)
class FaceBox:
    """Axis-aligned box on one cube face.

    ``axis`` is the pinned coordinate, ``sign`` its value (+1 or -1) and
    ``bounds`` the intervals of the remaining n-1 coordinates in increasing
    coordinate order.
    """

    axis: int
    sign: int
    bounds: tuple  # tuple of (Fraction, Fraction)

    def volume(self) -> Fraction:
        v = Fraction(1)
        for lo, hi in self.bounds:
            v *= hi - lo
        return v

    def widest_axis(self) -> int:
        widths = [hi - lo for lo, hi in self.bounds]
        return max(range(len(widths)), key=lambda i: widths[i]) if widths else 0

    def center_point(self) -> tuple:
        free = [(lo + hi) / 2 for lo, hi in self.bounds]
        return self.embed(free)

    def embed(self, free_coords: Sequence[Fraction]) -> tuple:
        pt = list(free_coords)
        pt.insert(self.axis, Fraction(self.sign))
        return tuple(pt)


@dataclass(frozen=True)
class CertifiedBox:
    box: FaceBox
    lower_bound: Fraction


@dataclass
class EllipticityVerdict:
    status: str
    cover: list[CertifiedBox] = field(default_factory=list)
    witness_xi: Optional[tuple] = None
    witness_v: Optional[tuple] = None
    undecided_box: Optional[FaceBox] = None
    depth_reached: int = 0
    boxes_examined: int = 0

    @property
    def certified(self) -> bool:
        return self.status in (ELLIPTIC, NOT_ELLIPTIC)


def _face_polynomial(p: Polynomial, axis: int, sign: int) -> Polynomial:
    return p.substitute(axis, Fraction(sign))


def certified_lower_bound(p_face: Polynomial, full_box: list[Interval]):
    """Positive exact lower bound of the face polynomial on the box, or
    None.  Tries the cheap monomial-sum enclosure first and falls back to
    the tighter Bernstein-coefficient enclosure."""
    lo, _hi = p_face.interval_evaluate(full_box)
    if lo > 0:
        return lo
    blo, _bhi = bernstein_range(p_face, full_box)
    if blo > 0:
        return blo
    return None


def _face_box_to_full(bounds: Sequence[Interval], axis: int, sign: int, n: int) -> list[Interval]:
    """Intervals for all n variables with the pinned axis degenerate."""
    full = list(bounds)
    full.insert(axis, (Fraction(sign), Fraction(sign)))
    return full


def _kernel_witness(a: SymbolOperator, xi: Sequence[Fraction]):
    ker = kernel_basis(a.evaluate(xi))
    if ker.dim == 0:
        return None
    return tuple(ker.basis.col(0))


def _simple_rationals_in(lo: Fraction, hi: Fraction, max_den: int = 64) -> list[Fraction]:
    """A few low-height rationals inside [lo, hi], midpoint first."""
    out = [(lo + hi) / 2, lo, hi]
    den = 1
    while den <= max_den:
        import math

        start = math.ceil(lo * den)
        stop = math.floor(hi * den)
        for num in range(start, min(stop, start + 2) + 1):
            q = Fraction(num, den)
            if lo <= q <= hi and q not in out:
                out.append(q)
        den *= 2
    return out


def _zero_hunt(
    a: SymbolOperator, p_face: Polynomial, box: FaceBox
) -> Optional[tuple]:
    """Try exact low-height rational points in the box looking for an exact
    zero of the face determinant.  Only an exact kernel can flip the verdict."""
    candidate_axes = [_simple_rationals_in(lo, hi) for lo, hi in box.bounds]
    # Cap the grid so hunting stays cheap.
    for combo in itertools.islice(itertools.product(*candidate_axes), 256):
        pt = box.embed(list(combo))
        if p_face.evaluate(pt) == 0:
            w = _kernel_witness(a, pt)
            if w is not None:
                return pt, w
    return None


def check_ellipticity(
    a: SymbolOperator,
    max_depth: int = DEFAULT_MAX_DEPTH,
    box_budget: int = DEFAULT_BOX_BUDGET,
) -> EllipticityVerdict:
    n = a.n
    if a.is_zero():
        xi = tuple(Fraction(1 if i == 0 else 0) for i in range(n))
        v = tuple(Fraction(1 if j == 0 else 0) for j in range(a.dim_v))
        return EllipticityVerdict(NOT_ELLIPTIC, witness_xi=xi, witness_v=v)
    if a.dim_v > a.dim_e:
        # More columns than rows: every direction has a nontrivial kernel.
        xi = tuple(Fraction(1 if i == 0 else 0) for i in range(n))
        v = _kernel_witness(a, xi)
        return EllipticityVerdict(NOT_ELLIPTIC, witness_xi=xi, witness_v=v)

    det_gram = a.gram().det()
    if det_gram.is_zero():
        xi = tuple(Fraction(1 if i == 0 else 0) for i in range(n))
        v = _kernel_witness(a, xi)
        return EllipticityVerdict(NOT_ELLIPTIC, witness_xi=xi, witness_v=v)

    # Cheap exact pre-scan: face lattice points with coordinates in {-1,0,1}.
    seen: set[tuple] = set()
    for axis in range(n):
        for sign in (1, -1):
            for combo in itertools.product((-1, 0, 1), repeat=n - 1):
                pt = list(Fraction(c) for c in combo)
                pt.insert(axis, Fraction(sign))
                pt = tuple(pt)
                if pt in seen:
                    continue
                seen.add(pt)
                if det_gram.evaluate(pt) == 0:
                    v = _kernel_witness(a, pt)
                    if v is not None:
                        return EllipticityVerdict(NOT_ELLIPTIC, witness_xi=pt, witness_v=v)

    cover: list[CertifiedBox] = []
    examined = 0
    max_seen_depth = 0
    for axis in range(n):
        for sign in (1, -1):
            p_face = _face_polynomial(det_gram, axis, sign)
            root = FaceBox(
                axis, sign, tuple((Fraction(-1), Fraction(1)) for _ in range(n - 1))
            )
            queue: list[tuple[FaceBox, int]] = [(root, 0)]
            while queue:
                box, depth = queue.pop()
                examined += 1
                max_seen_depth = max(max_seen_depth, depth)
                full = _face_box_to_full(box.bounds, axis, sign, n)
                bound = certified_lower_bound(p_face, full)
                if bound is not None:
                    cover.append(CertifiedBox(box, bound))
                    continue
                center = box.center_point()
                if p_face.evaluate(center) == 0:
                    v = _kernel_witness(a, center)
                    if v is not None:
                        return EllipticityVerdict(
                            NOT_ELLIPTIC,
                            witness_xi=center,
                            witness_v=v,
                            boxes_examined=examined,
                        )
                if depth >= max_depth or examined > box_budget:
                    hunted = _zero_hunt(a, p_face, box)
                    if hunted is not None:
                        xi, v = hunted
                        return EllipticityVerdict(
                            NOT_ELLIPTIC,
                            witness_xi=xi,
                            witness_v=v,
                            boxes_examined=examined,
                        )
                    return EllipticityVerdict(
                        UNDECIDED,
                        undecided_box=box,
                        depth_reached=depth,
                        boxes_examined=examined,
                    )
                if not box.bounds:
                    # n == 1: the face is a single point and its value was not
                    # positive, hence it is an exact zero.
                    v = _kernel_witness(a, box.embed([]))
                    return EllipticityVerdict(
                        NOT_ELLIPTIC,
                        witness_xi=box.embed([]),
                        witness_v=v,
                        boxes_examined=examined,
                    )
                i = box.widest_axis()
                blo, bhi = box.bounds[i]
                mid = (blo + bhi) / 2
                left = list(box.bounds)
                right = list(box.bounds)
                left[i] = (blo, mid)
                right[i] = (mid, bhi)
                queue.append((FaceBox(axis, sign, tuple(left)), depth + 1))
                queue.append((FaceBox(axis, sign, tuple(right)), depth + 1))

    return EllipticityVerdict(
        ELLIPTIC, cover=cover, depth_reached=max_seen_depth, boxes_examined=examined
    )


def verify_ellipticity(a: SymbolOperator, verdict: EllipticityVerdict) -> bool:
    """Re-check an ellipticity certificate from scratch.

    Uses only exact arithmetic and does not trust any stored bound: interval
    lower bounds are recomputed, the cover is checked to tile all 2n cube
    faces exactly (containment, pairwise disjoint interiors, total volume),
    and kernel witnesses are re-multiplied.  An UNDECIDED verdict claims
    nothing and is accepted.
    """
    if verdict.status == UNDECIDED:
        return True
    if verdict.status == NOT_ELLIPTIC:
        xi, v = verdict.witness_xi, verdict.witness_v
        if xi is None or v is None:
            return False
        if all(x == 0 for x in xi) or all(x == 0 for x in v):
            return False
        return all(x == 0 for x in a.evaluate(xi).mul_vector(v))
    if verdict.status != ELLIPTIC:
        return False
    n = a.n
    det_gram = a.gram().det()
    by_face: dict[tuple[int, int], list[FaceBox]] = {}
    for cb in verdict.cover:
        box = cb.box
        full = _face_box_to_full(box.bounds, box.axis, box.sign, n)
        face_poly = _face_polynomial(det_gram, box.axis, box.sign)
        if certified_lower_bound(face_poly, full) is None:
            return False
        for blo, bhi in box.bounds:
            if blo < -1 or bhi > 1 or blo >= bhi:
                return False
        by_face.setdefault((box.axis, box.sign), []).append(box)
    target = Fraction(2) ** (n - 1)
    for axis in range(n):
        for sign in (1, -1):
            boxes = by_face.get((axis, sign), [])
            if sum((b.volume() for b in boxes), Fraction(0)) != target:
                return False
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    if _interiors_overlap(boxes[i], boxes[j]):
                        return False
    return True


def _interiors_overlap(b1: FaceBox, b2: FaceBox) -> bool:
    for (l1, h1), (l2, h2) in zip(b1.bounds, b2.bounds):
        if min(h1, h2) <= max(l1, l2):
            return False
    return True
