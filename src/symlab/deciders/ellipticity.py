"""Injectivity certification for symbols.

A symbol A is injective away from the origin exactly when det(A^T A) is
positive on the unit sphere; by homogeneity this is equivalent to
positivity on the boundary of the cube [-1, 1]^n, the 2n faces x_i = +-1.

The checker clears the denominators of det(A^T A) once and works on the
resulting integer polynomial (see ``exact.bernstein``):

1. Lattice pre-scan: the determinant at every face point with coordinates
   in {-1, 0, 1}.  An exact zero with a nonzero kernel vector is a
   NOT_ELLIPTIC witness.
2. Per face, the monomial lower bound on the whole face.  It certifies most
   symbols with one box per face.
3. Otherwise the face's Bernstein tensor is built once and the face is
   bisected.  A box whose coefficients are all positive is certified; any
   other is split at its midpoint by exact integer de Casteljau, along the
   axis where its coefficients vary most.  ``max_depth`` bounds the
   bisections along each axis.

Every box of an ELLIPTIC cover is a leaf of the bisection tree of its face
(a product of dyadic intervals) and carries a positive exact lower bound of
the determinant on it.  The verifier rebuilds that tree from the boxes,
rejects gaps, overlaps and boxes that are not leaves, and replays the
subdivision from the root tensor.  NOT_ELLIPTIC verdicts carry an exactly
re-checkable witness: a nonzero rational direction with a nonzero kernel
vector.  When the budget runs out without either outcome the verdict is
UNDECIDED and reports the smallest failing box.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from ..exact.bernstein import (
    bernstein_tensor,
    clear_denominators,
    corners,
    monomial_lower_bound,
    pin_variable,
    split,
    variation,
)
from ..exact.matrix import kernel_basis
from ..exact.poly import Polynomial
from ..exact.symbol import SymbolOperator

ELLIPTIC = "ELLIPTIC"
NOT_ELLIPTIC = "NOT_ELLIPTIC"
UNDECIDED = "UNDECIDED"

DEFAULT_MAX_DEPTH = 24  # bisections per axis
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
    axis_depths: tuple = ()  # deepest bisection along each coordinate
    det_terms: int = 0
    det_degree: int = 0

    @property
    def certified(self) -> bool:
        return self.status in (ELLIPTIC, NOT_ELLIPTIC)


# Dyadic boxes: along each free axis a (level, index) pair stands for the
# interval [-1 + 2 index / 2^level, -1 + 2 (index + 1) / 2^level].


def _face_box(axis: int, sign: int, levels: Sequence[int], indices: Sequence[int]) -> FaceBox:
    bounds = []
    for level, index in zip(levels, indices):
        lo = Fraction(2 * index, 1 << level) - 1
        bounds.append((lo, lo + Fraction(2, 1 << level)))
    return FaceBox(axis, sign, tuple(bounds))


def _dyadic_cell(lo: Fraction, hi: Fraction) -> Optional[tuple[int, int]]:
    """(level, index) of the interval if it is a dyadic cell of [-1, 1]."""
    dl, dh = lo.denominator, hi.denominator
    if dl & (dl - 1) or dh & (dh - 1):
        return None
    den = max(dl, dh)
    a, b = lo.numerator * (den // dl), hi.numerator * (den // dh)
    width = b - a  # of the interval, in units of 1/den; 2 den of them in all
    if width <= 0 or width & (width - 1) or 2 * den % width:
        return None
    cells = 2 * den // width
    index, rest = divmod(a + den, width)
    if rest or not 0 <= index < cells:
        return None
    return cells.bit_length() - 1, index


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
        start = math.ceil(lo * den)
        stop = math.floor(hi * den)
        for num in range(start, min(stop, start + 2) + 1):
            q = Fraction(num, den)
            if lo <= q <= hi and q not in out:
                out.append(q)
        den *= 2
    return out


def _zero_hunt(
    a: SymbolOperator, det_gram: Polynomial, box: FaceBox
) -> Optional[tuple]:
    """Try exact low-height rational points in the box looking for an exact
    zero of the determinant.  Only an exact kernel can flip the verdict."""
    candidate_axes = [_simple_rationals_in(lo, hi) for lo, hi in box.bounds]
    # Cap the grid so hunting stays cheap.
    for combo in itertools.islice(itertools.product(*candidate_axes), 256):
        pt = box.embed(list(combo))
        if det_gram.evaluate(pt) == 0:
            w = _kernel_witness(a, pt)
            if w is not None:
                return pt, w
    return None


def _lattice_zero(a: SymbolOperator, q: dict) -> Optional[tuple]:
    """(xi, v) for the first face point with coordinates in {-1, 0, 1} where
    the integer determinant q vanishes and A(xi) has a kernel vector v."""
    n = a.n
    # Per term: variables present, variables with an odd exponent.
    terms = [
        (sum(1 << i for i, e in enumerate(alpha) if e),
         sum(1 << i for i, e in enumerate(alpha) if e % 2), c)
        for alpha, c in q.items()
    ]
    seen: set[tuple] = set()
    for axis in range(n):
        for sign in (1, -1):
            for combo in itertools.product((-1, 0, 1), repeat=n - 1):
                pt = combo[:axis] + (sign,) + combo[axis:]
                if pt in seen:
                    continue
                seen.add(pt)
                zero = sum(1 << i for i, x in enumerate(pt) if x == 0)
                neg = sum(1 << i for i, x in enumerate(pt) if x < 0)
                value = sum(
                    -c if (odd & neg).bit_count() % 2 else c
                    for present, odd, c in terms
                    if not present & zero
                )
                if value == 0:
                    xi = tuple(Fraction(x) for x in pt)
                    v = _kernel_witness(a, xi)
                    if v is not None:
                        return xi, v
    return None


class _Search:
    """Bisection of the cube faces, with the counters of the whole search."""

    def __init__(self, a: SymbolOperator, det_gram: Polynomial, den: int,
                 max_depth: int, box_budget: int):
        self.a = a
        self.det_gram = det_gram
        self.den = den
        self.max_depth = max_depth
        self.box_budget = box_budget
        self.cover: list[CertifiedBox] = []
        self.examined = 0
        self.axis_depths = [0] * a.n

    def _record_depths(self, axis: int, levels: Sequence[int]) -> None:
        free = [i for i in range(self.a.n) if i != axis]
        for i, level in zip(free, levels):
            self.axis_depths[i] = max(self.axis_depths[i], level)

    def _certify(self, axis, sign, levels, indices, bound: Fraction) -> None:
        self.cover.append(CertifiedBox(_face_box(axis, sign, levels, indices), bound))
        self._record_depths(axis, levels)

    def result(self, status: str, **kw) -> EllipticityVerdict:
        return EllipticityVerdict(
            status, boxes_examined=self.examined, axis_depths=tuple(self.axis_depths),
            depth_reached=max(self.axis_depths, default=0),
            det_terms=len(self.det_gram.terms), det_degree=self.det_gram.degree(), **kw)

    def face(self, axis: int, sign: int, q: dict) -> Optional[EllipticityVerdict]:
        """Cover one face; a verdict if the face decides against ELLIPTIC."""
        m = self.a.n - 1
        root = (0,) * m
        low = monomial_lower_bound(q)
        if low > 0:
            self.examined += 1
            self._certify(axis, sign, root, root, Fraction(low, self.den))
            return None
        coeffs, shape, scale = bernstein_tensor(q, m)
        degrees = [s - 1 for s in shape]
        corner_entries = corners(shape)
        stack = [(coeffs, root, root)]
        while stack:
            coeffs, levels, indices = stack.pop()
            self.examined += 1
            low = min(coeffs)
            if low > 0:
                shift = sum(d * l for d, l in zip(degrees, levels))
                self._certify(axis, sign, levels, indices,
                              Fraction(low, (self.den * scale) << shift))
                continue
            for idx, bits in corner_entries:
                if coeffs[idx] == 0:
                    box = _face_box(axis, sign, levels, indices)
                    xi = box.embed([hi if bit else lo for (lo, hi), bit in zip(box.bounds, bits)])
                    v = _kernel_witness(self.a, xi)
                    if v is not None:
                        return self.result(NOT_ELLIPTIC, witness_xi=xi, witness_v=v)
            open_axes = [i for i in range(m) if degrees[i] and levels[i] < self.max_depth]
            if not open_axes or self.examined > self.box_budget:
                box = _face_box(axis, sign, levels, indices)
                hunted = _zero_hunt(self.a, self.det_gram, box)
                if hunted is not None:
                    return self.result(NOT_ELLIPTIC, witness_xi=hunted[0], witness_v=hunted[1])
                self._record_depths(axis, levels)
                return self.result(UNDECIDED, undecided_box=box)
            i = max(open_axes, key=lambda j: variation(coeffs, shape, j))
            lower, upper = split(coeffs, shape, i)
            child = levels[:i] + (levels[i] + 1,) + levels[i + 1:]
            stack.append((upper, child, indices[:i] + (2 * indices[i] + 1,) + indices[i + 1:]))
            stack.append((lower, child, indices[:i] + (2 * indices[i],) + indices[i + 1:]))
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
    q, den = clear_denominators(det_gram)
    search = _Search(a, det_gram, den, max_depth, box_budget)
    if det_gram.is_zero():
        xi = tuple(Fraction(1 if i == 0 else 0) for i in range(n))
        return search.result(NOT_ELLIPTIC, witness_xi=xi, witness_v=_kernel_witness(a, xi))
    hit = _lattice_zero(a, q)
    if hit is not None:
        return search.result(NOT_ELLIPTIC, witness_xi=hit[0], witness_v=hit[1])

    for axis in range(n):
        for sign in (1, -1):
            stopped = search.face(axis, sign, pin_variable(q, axis, sign))
            if stopped is not None:
                return stopped
    return search.result(ELLIPTIC, cover=search.cover)


def _replay_face(q: dict, m: int, den: int, boxes: list) -> bool:
    """True iff ``boxes`` — (levels, indices, lower bound) triples — are the
    leaves of a bisection tree of the face [-1, 1]^m and the Bernstein
    coefficients of q on each leaf are positive and at least its bound."""
    root = (0,) * m
    if len(boxes) == 1 and boxes[0][0] == root:
        low = monomial_lower_bound(q)
        if low > 0:
            return boxes[0][2] <= Fraction(low, den)
    coeffs, shape, scale = bernstein_tensor(q, m)
    degrees = [s - 1 for s in shape]
    stack = [(coeffs, root, boxes)]
    while stack:
        coeffs, levels, inside = stack.pop()
        if any(b[0] == levels for b in inside):
            # A leaf: the one box of its region.
            if len(inside) != 1:
                return False
            low = min(coeffs)
            shift = sum(d * l for d, l in zip(degrees, levels))
            if low <= 0 or inside[0][2] > Fraction(low, (den * scale) << shift):
                return False
            continue
        # An inner node: split along an axis on which every box is finer.
        axis = next((i for i in range(m) if all(b[0][i] > levels[i] for b in inside)), None)
        if axis is None:
            return False
        halves: tuple[list, list] = ([], [])
        for b in inside:
            halves[(b[1][axis] >> (b[0][axis] - levels[axis] - 1)) & 1].append(b)
        if not halves[0] or not halves[1]:
            return False
        child = levels[:axis] + (levels[axis] + 1,) + levels[axis + 1:]
        lower, upper = split(coeffs, shape, axis)
        stack.append((lower, child, halves[0]))
        stack.append((upper, child, halves[1]))
    return True


def verify_ellipticity(a: SymbolOperator, verdict: EllipticityVerdict) -> bool:
    """Re-check an ellipticity certificate from scratch.

    Uses only exact arithmetic and trusts nothing in the verdict: for an
    ELLIPTIC cover, every box must be a dyadic box on one of the 2n faces,
    the boxes of each face must be the leaves of one bisection tree of it
    (no gap, no overlap), and replaying that subdivision of det(A^T A) must
    certify every leaf with at least its stated lower bound.  Kernel
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
        return all(x == 0 for x in a.evaluate(xi).mul_vector(v))
    if verdict.status != ELLIPTIC:
        return False
    n = a.n
    by_face: dict[tuple[int, int], list] = {}
    for cb in verdict.cover:
        box = cb.box
        if box.axis not in range(n) or box.sign not in (1, -1) or len(box.bounds) != n - 1:
            return False
        if not cb.lower_bound > 0:
            return False
        cells = [_dyadic_cell(lo, hi) for lo, hi in box.bounds]
        if None in cells:
            return False
        levels = tuple(level for level, _ in cells)
        indices = tuple(index for _, index in cells)
        by_face.setdefault((box.axis, box.sign), []).append((levels, indices, cb.lower_bound))
    if len(by_face) != 2 * n:
        return False
    q, den = clear_denominators(a.gram().det())
    return all(
        _replay_face(pin_variable(q, axis, sign), n - 1, den, boxes)
        for (axis, sign), boxes in sorted(by_face.items())
    )
