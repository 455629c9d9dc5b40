"""Positivity of even polynomials on the boundary of the cube [-1, 1]^n.

``certify_positive(p, max_depth, box_budget)`` decides whether a rational
polynomial p with p(-x) = p(x) (every term of even degree) is positive on
the boundary of the cube; ``verify_positive(p, cover)`` re-checks a cover it
returned.  As p is even, the face x_i = -1 mirrors the face x_i = +1, so
both work on the n faces x_i = +1 alone and refuse a polynomial with a term
of odd degree.  The search:

1. Per face, the monomial lower bound on the whole face.  It certifies most
   faces with one box.
2. On each face the bound did not certify, the face's Bernstein tensor is
   built once and the face is bisected.  A box whose coefficients are all
   positive is certified, a zero corner coefficient is an exact zero, and
   any other box is split at its midpoint by exact integer de Casteljau
   along the axis where its coefficients vary most.  ``max_depth`` bounds
   the bisections along each axis.  When a budget runs out, low-height
   rational points of the last box are tried as exact zeros before it is
   reported undecided.

Every box of a cover is a leaf of the bisection tree of its face (a product
of dyadic intervals) and carries a positive exact lower bound of p on it.
The verifier rebuilds that tree from the boxes, rejects gaps, overlaps and
boxes that are not leaves, and replays the subdivision from the root tensor.

Both clear the denominators of p once, which multiplies it by a positive
integer and keeps its sign: an integer polynomial is a dict from exponent
tuples to nonzero Python ints.  Its two enclosures on [-1, 1]^m:

- ``monomial_lower_bound`` bounds every monomial separately (odd powers
  range over [-1, 1], even ones over [0, 1]), in one pass over the terms.
- ``bernstein_tensor`` rewrites the polynomial in the tensor Bernstein
  basis of [-1, 1]^m, with per-variable degrees (d_0, ..., d_{m-1}).  The
  values on the cube lie between the smallest and largest coefficient, the
  corner coefficients are the values at the corners, and ``split``
  (midpoint de Casteljau along one axis) yields the coefficients on the two
  halves.  Under repeated bisection the enclosure converges to the range
  (Garloff, *Convergent bounds for the range of multivariate polynomials*,
  1986).

Tensors are flat row-major tuples of ints with shape (d_0 + 1, ...,
d_{m-1} + 1).  They hold the Bernstein coefficients times a positive
integer: ``bernstein_tensor`` returns that integer, and ``split``
multiplies it by 2^d, d the degree along the split axis.  Signs and ratios
of coefficients are therefore exact, and the true coefficients are the
tensor divided by its scale.  Per shape and axis, the index bookkeeping is
computed once and cached as ``itemgetter``s, so a split runs as a few
C-level passes over the tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, product, repeat
from operator import add, itemgetter, lshift, mul, sub
from typing import Callable, Optional, Sequence

from .poly import IntPoly, Polynomial, clear_denominators

ZERO_HUNT_MAX_DEN = 64  # largest denominator of a zero tried in an undecided box


def pin_variable(q: IntPoly, i: int) -> IntPoly:
    """The polynomial in the remaining variables on the face x_i = +1;
    variable i is removed from every exponent tuple."""
    out: dict = {}
    for a, c in q.items():
        key = a[:i] + a[i + 1 :]
        out[key] = out.get(key, 0) + c
    return {a: c for a, c in out.items() if c}


def monomial_lower_bound(q: IntPoly) -> int:
    """Lower bound of q on [-1, 1]^m from its monomials one by one: a term
    with an odd exponent can reach -|c|, a nonconstant term with only even
    exponents contributes min(c, 0), the constant term itself."""
    lo = 0
    for a, c in q.items():
        if any(e % 2 for e in a):
            lo -= abs(c)
        elif c < 0 or not any(a):
            lo += c
    return lo


def _to_bernstein_matrix(d: int) -> tuple[list[list[int]], int]:
    """(N, L): row k of N holds L times the degree-d Bernstein coefficients
    of x^k on [-1, 1], with L the least common multiple of C(d, j).

    With u = (1 + x)/2 and v = (1 - x)/2, x^k = (u - v)^k (u + v)^(d-k) and
    the Bernstein basis is C(d, j) u^j v^(d-j)."""
    big = math.lcm(*(math.comb(d, j) for j in range(d + 1)))
    rows = []
    for k in range(d + 1):
        row = []
        for j in range(d + 1):
            m = sum(
                math.comb(k, i) * (-1) ** (k - i) * math.comb(d - k, j - i)
                for i in range(max(0, j - d + k), min(k, j) + 1)
            )
            row.append(m * (big // math.comb(d, j)))
        rows.append(row)
    return rows, big


def _strides(shape: Sequence[int]) -> list[int]:
    strides = [1] * len(shape)
    for i in reversed(range(len(shape) - 1)):
        strides[i] = strides[i + 1] * shape[i + 1]
    return strides


def _getter(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """Picks the entries at ``indices`` as a tuple (also for one index)."""
    if len(indices) == 1:
        i = indices[0]
        return lambda c: (c[i],)
    return itemgetter(*indices)


@lru_cache(maxsize=256)
def _layout(shape: tuple, axis: int):
    """(slabs, scatter, lower, upper) for a tensor of this shape:
    ``slabs[j]`` picks the entries with index j along ``axis``; ``scatter``
    turns the concatenated slabs back into a flat tensor; ``lower`` and
    ``upper`` pick the pairs of entries that are neighbours along it."""
    stride = _strides(shape)[axis]
    size = math.prod(shape)
    along = [(f // stride) % shape[axis] for f in range(size)]
    slab_indices = [[f for f in range(size) if along[f] == j] for j in range(shape[axis])]
    order = [f for idx in slab_indices for f in idx]
    position = [0] * size
    for p, f in enumerate(order):
        position[f] = p
    pairs = [f for f in range(size) if along[f] < shape[axis] - 1]
    return (
        [_getter(idx) for idx in slab_indices],
        _getter(position),
        _getter(pairs),
        _getter([f + stride for f in pairs]),
    )


def bernstein_tensor(q: IntPoly, m: int) -> tuple[tuple, tuple, int]:
    """(coeffs, shape, scale): the Bernstein coefficients of q on [-1, 1]^m
    times ``scale``, a positive int.  The degree along each axis is the
    largest exponent of that variable in q.  The conversion costs
    O(size * sum of degrees) integer operations."""
    degrees = [max((a[i] for a in q), default=0) for i in range(m)]
    shape = tuple(d + 1 for d in degrees)
    strides = _strides(shape)
    coeffs = [0] * math.prod(shape)
    for a, c in q.items():
        coeffs[sum(e * s for e, s in zip(a, strides))] = c
    scale = 1
    for axis, d in enumerate(degrees):
        if d == 0:
            continue
        matrix, big = _to_bernstein_matrix(d)
        scale *= big
        gathers, scatter, _, _ = _layout(shape, axis)
        slabs = [g(coeffs) for g in gathers]
        out = []
        for j in range(d + 1):
            acc = [0] * len(slabs[0])
            for k in range(d + 1):
                w = matrix[k][j]
                if w:
                    acc = list(map(add, acc, map(mul, slabs[k], repeat(w))))
            out.append(acc)
        coeffs = scatter(tuple(chain.from_iterable(out)))
    return tuple(coeffs), shape, scale


def corners(shape: tuple) -> list[tuple[int, tuple]]:
    """(flat index, corner) of each corner entry of a tensor of this shape;
    the corner has one bit per axis, 1 for the upper end.  These entries
    are the values of the polynomial at the box corners."""
    strides = _strides(shape)
    return [
        (sum(b * (n - 1) * s for b, n, s in zip(bits, shape, strides)), bits)
        for bits in product((0, 1), repeat=len(shape))
    ]


def split(coeffs: Sequence[int], shape: tuple, axis: int) -> tuple[tuple, tuple]:
    """Bernstein tensors of the lower and upper halves of the box along
    ``axis``, by exact midpoint de Casteljau.  Both come back multiplied by
    2^d, d = shape[axis] - 1, relative to the input's scale."""
    d = shape[axis] - 1
    if d == 0:
        return coeffs, coeffs
    gathers, scatter, _, _ = _layout(shape, axis)
    cur = [g(coeffs) for g in gathers]
    lower = [()] * (d + 1)
    upper = [()] * (d + 1)
    for r in range(d + 1):
        k = d - r
        # cur[i] is 2^r times entry i of the r-th de Casteljau row
        lower[r] = tuple(map(lshift, cur[0], repeat(k)))
        upper[k] = tuple(map(lshift, cur[k], repeat(k)))
        cur = [tuple(map(add, cur[i], cur[i + 1])) for i in range(k)]
    return scatter(tuple(chain.from_iterable(lower))), scatter(tuple(chain.from_iterable(upper)))


def variation(coeffs: Sequence[int], shape: tuple, axis: int) -> int:
    """Total variation of the coefficients along ``axis``: the sum of the
    differences of neighbours, a measure of how much the polynomial moves
    along that axis on the box."""
    if shape[axis] == 1:
        return 0
    _, _, lower, upper = _layout(shape, axis)
    return sum(map(abs, map(sub, upper(coeffs), lower(coeffs))))


# ---------------------------------------------------------------------------
# Positivity on the faces x_i = +1


@dataclass(frozen=True)
class FaceBox:
    """Axis-aligned box on the face x_axis = +1 of the cube; ``bounds`` are
    the intervals of the remaining n-1 coordinates in increasing coordinate
    order."""

    axis: int
    bounds: tuple  # tuple of (Fraction, Fraction)

    def embed(self, free_coords: Sequence[Fraction]) -> tuple:
        pt = list(free_coords)
        pt.insert(self.axis, Fraction(1))
        return tuple(pt)


@dataclass(frozen=True)
class CertifiedBox:
    box: FaceBox
    lower_bound: Fraction


@dataclass
class Positivity:
    """What ``certify_positive`` found.  With neither ``zero`` nor
    ``undecided_box`` set, ``cover`` proves p > 0 on the n faces x_i = +1,
    and by evenness on the whole boundary of the cube."""

    cover: list = field(default_factory=list)  # of CertifiedBox
    zero: Optional[tuple] = None  # an exact zero of p on a face x_i = +1
    undecided_box: Optional[FaceBox] = None  # where a budget ran out
    limit: Optional[str] = None  # which budget ran out there
    boxes_examined: int = 0
    axis_depths: tuple = ()  # deepest bisection along each coordinate


def _even_integer(p: Polynomial) -> Optional[tuple[IntPoly, int]]:
    """``clear_denominators(p)``, or None if p has a term of odd degree."""
    if any(sum(a) % 2 for a, _ in p.terms):
        return None
    return clear_denominators(p)


# Dyadic boxes: along each free axis a (level, index) pair stands for the
# interval [-1 + 2 index / 2^level, -1 + 2 (index + 1) / 2^level].


def _face_box(axis: int, levels: Sequence[int], indices: Sequence[int]) -> FaceBox:
    bounds = []
    for level, index in zip(levels, indices):
        lo = Fraction(2 * index, 1 << level) - 1
        bounds.append((lo, lo + Fraction(2, 1 << level)))
    return FaceBox(axis, tuple(bounds))


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


def _simple_rationals_in(lo: Fraction, hi: Fraction) -> list[Fraction]:
    """A few low-height rationals inside [lo, hi], midpoint first."""
    out = [(lo + hi) / 2, lo, hi]
    den = 1
    while den <= ZERO_HUNT_MAX_DEN:
        start = math.ceil(lo * den)
        stop = math.floor(hi * den)
        for num in range(start, min(stop, start + 2) + 1):
            r = Fraction(num, den)
            if lo <= r <= hi and r not in out:
                out.append(r)
        den *= 2
    return out


def _zero_hunt(p: Polynomial, box: FaceBox) -> Optional[tuple]:
    """An exact zero of p among low-height rational points of the box."""
    candidate_axes = [_simple_rationals_in(lo, hi) for lo, hi in box.bounds]
    # Cap the grid so hunting stays cheap.
    for combo in islice(product(*candidate_axes), 256):
        pt = box.embed(combo)
        if p.evaluate(pt) == 0:
            return pt
    return None


def certify_positive(p: Polynomial, max_depth: int, box_budget: int) -> Positivity:
    """Certify p > 0 on the boundary of [-1, 1]^n, or find an exact zero of
    p there, or report the box where ``max_depth`` (bisections per axis) or
    ``box_budget`` (boxes examined) ran out, and which of them.  Raises
    ValueError if p has a term of odd degree."""
    cleared = _even_integer(p)
    if cleared is None:
        raise ValueError("p has a term of odd degree: p(-x) = p(x) does not hold")
    q, den = cleared
    n, m = p.n, p.n - 1
    cover: list[CertifiedBox] = []
    depths = [0] * n
    examined = 0

    def record(axis: int, levels: Sequence[int]) -> None:
        free = [i for i in range(n) if i != axis]
        for i, level in zip(free, levels):
            depths[i] = max(depths[i], level)

    def stop(**found) -> Positivity:
        return Positivity(boxes_examined=examined, axis_depths=tuple(depths), **found)

    root = (0,) * m
    for axis in range(n):
        face = pin_variable(q, axis)
        low = monomial_lower_bound(face)
        if low > 0:
            examined += 1
            cover.append(CertifiedBox(_face_box(axis, root, root), Fraction(low, den)))
            continue
        coeffs, shape, scale = bernstein_tensor(face, m)
        degrees = [s - 1 for s in shape]
        corner_entries = corners(shape)
        stack = [(coeffs, root, root)]
        while stack:
            coeffs, levels, indices = stack.pop()
            examined += 1
            low = min(coeffs)
            if low > 0:
                shift = sum(d * l for d, l in zip(degrees, levels))
                cover.append(CertifiedBox(_face_box(axis, levels, indices),
                                          Fraction(low, (den * scale) << shift)))
                record(axis, levels)
                continue
            for idx, bits in corner_entries:
                if coeffs[idx] == 0:
                    box = _face_box(axis, levels, indices)
                    return stop(zero=box.embed(
                        [hi if bit else lo for (lo, hi), bit in zip(box.bounds, bits)]))
            open_axes = [i for i in range(m) if degrees[i] and levels[i] < max_depth]
            if not open_axes or examined > box_budget:
                box = _face_box(axis, levels, indices)
                zero = _zero_hunt(p, box)
                if zero is not None:
                    return stop(zero=zero)
                record(axis, levels)
                limit = (f"the box budget of {box_budget:,}" if examined > box_budget
                         else f"the depth limit of {max_depth} bisections per axis")
                return stop(undecided_box=box, limit=limit)
            i = max(open_axes, key=lambda j: variation(coeffs, shape, j))
            lower, upper = split(coeffs, shape, i)
            child = levels[:i] + (levels[i] + 1,) + levels[i + 1:]
            stack.append((upper, child, indices[:i] + (2 * indices[i] + 1,) + indices[i + 1:]))
            stack.append((lower, child, indices[:i] + (2 * indices[i],) + indices[i + 1:]))
    return stop(cover=cover)


def _replay_face(q: IntPoly, m: int, den: int, boxes: list) -> bool:
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


def verify_positive(p: Polynomial, cover: Sequence[CertifiedBox]) -> bool:
    """Re-check a cover of ``certify_positive`` from scratch: p must have
    only terms of even degree, every box must be a dyadic box on one of the
    n faces x_i = +1 with a positive lower bound, the boxes of each face
    must be the leaves of one bisection tree of it (no gap, no overlap), and
    replaying that subdivision of p must certify every leaf with at least
    its stated lower bound."""
    cleared = _even_integer(p)
    if cleared is None:
        return False
    n = p.n
    by_face: dict[int, list] = {}
    for cb in cover:
        box = cb.box
        if box.axis not in range(n) or len(box.bounds) != n - 1:
            return False
        if not cb.lower_bound > 0:
            return False
        cells = [_dyadic_cell(lo, hi) for lo, hi in box.bounds]
        if None in cells:
            return False
        levels = tuple(level for level, _ in cells)
        indices = tuple(index for _, index in cells)
        by_face.setdefault(box.axis, []).append((levels, indices, cb.lower_bound))
    if len(by_face) != n:
        return False
    q, den = cleared
    return all(
        _replay_face(pin_variable(q, axis), n - 1, den, boxes)
        for axis, boxes in sorted(by_face.items())
    )
