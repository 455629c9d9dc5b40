"""Integer polynomials on the cube [-1, 1]^m and their Bernstein tensors.

The positivity certifier of the ellipticity decider works on integer
polynomials: clearing the denominators of a rational polynomial once
multiplies it by a positive integer, which keeps its sign everywhere.  A
polynomial is a dict from exponent tuples to nonzero Python ints.

Two enclosures of its values on the cube are offered:

- ``monomial_lower_bound`` bounds every monomial separately on [-1, 1]^m
  (odd powers range over [-1, 1], even ones over [0, 1]).  It costs one
  pass over the terms and certifies most symbols on a whole face.
- ``bernstein_tensor`` rewrites the polynomial in the tensor Bernstein
  basis of [-1, 1]^m, with per-variable degrees (d_0, ..., d_{m-1}).  The
  values on the cube lie between the smallest and largest coefficient, the
  corner coefficients are the values at the corners, and ``split``
  (midpoint de Casteljau along one axis) yields the coefficients on the two
  halves.  Under repeated bisection the enclosure converges to the range.

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
from functools import lru_cache
from itertools import chain, product, repeat
from operator import add, itemgetter, lshift, mul, sub
from typing import Callable, Sequence

from .poly import Polynomial

IntPoly = dict  # exponent tuple -> nonzero int


def clear_denominators(p: Polynomial) -> tuple[IntPoly, int]:
    """(q, D) with D > 0 the least common denominator and q = D * p."""
    den = math.lcm(*(c.denominator for _, c in p.terms)) if p.terms else 1
    return {a: int(c * den) for a, c in p.terms}, den


def pin_variable(q: IntPoly, i: int, sign: int) -> IntPoly:
    """The polynomial in the remaining variables after fixing x_i = sign
    (+1 or -1); variable i is removed from every exponent tuple."""
    out: dict = {}
    for a, c in q.items():
        key = a[:i] + a[i + 1 :]
        out[key] = out.get(key, 0) + (-c if sign < 0 and a[i] % 2 else c)
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
