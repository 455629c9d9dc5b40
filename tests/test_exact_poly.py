"""Sparse polynomials, integer monomial bounds, integer Bernstein tensors."""

from fractions import Fraction as F

import pytest

from symlab.exact import Polynomial, monomial_count, multi_indices
from symlab.exact.bernstein import (
    bernstein_tensor,
    clear_denominators,
    monomial_lower_bound,
    pin_variable,
    split,
)


def x(i, n=2):
    return Polynomial.variable(n, i)


def test_arithmetic_and_cleanup():
    p = x(0) + x(1)
    q = x(0) - x(1)
    prod = p * q
    assert prod.as_dict() == {(2, 0): F(1), (0, 2): F(-1)}
    assert (p - p).is_zero()
    assert p.scale(0).is_zero()


def test_graded_lex_iteration_order():
    p = Polynomial.make(
        2, {(2, 0): F(1), (0, 1): F(2), (1, 1): F(3), (0, 0): F(5)}
    )
    assert [a for a, _ in p.terms] == [(0, 0), (0, 1), (1, 1), (2, 0)]


def test_evaluate_exact():
    p = (x(0) * x(0)).scale(3) + x(1).scale(F(1, 2))
    assert p.evaluate([F(2, 3), F(4)]) == 3 * F(4, 9) + F(2)


def test_homogeneity_detection():
    assert (x(0) * x(1)).is_homogeneous(2)
    assert not (x(0) + Polynomial.constant(2, 1)).is_homogeneous()
    assert Polynomial.zero(2).is_homogeneous(7)


def test_pow_matches_repeated_product():
    p = x(0) + x(1).scale(2)
    assert p.pow(3) == p * p * p
    assert p.pow(0) == Polynomial.constant(2, 1)


def on_box(p, path=()):
    """(q, den, coeffs, shape, scale) for p on the dyadic box reached from
    [-1, 1]^n by ``path``, a list of (axis, 0 = lower / 1 = upper half)."""
    q, den = clear_denominators(p)
    coeffs, shape, scale = bernstein_tensor(q, p.n)
    for axis, half in path:
        coeffs = split(coeffs, shape, axis)[half]
        scale <<= shape[axis] - 1
    return q, den, coeffs, shape, scale


def test_interval_containment_on_samples():
    # Monomial bound on the cube and Bernstein range on a sub-box both
    # enclose the values at sample points.
    p = (x(0) * x(0)).scale(2) - x(0) * x(1) + x(1).scale(F(1, 3))
    q, den, coeffs, _, scale = on_box(p, [(1, 1)])  # x1 in [0, 1]
    lo = F(monomial_lower_bound(q), den)
    blo, bhi = F(min(coeffs), den * scale), F(max(coeffs), den * scale)
    for a in (F(-1), F(0), F(1, 2), F(1)):
        for b in (F(-1), F(0), F(1, 3), F(1)):
            v = p.evaluate([a, b])
            assert lo <= v
            if b >= 0:
                assert blo <= v <= bhi


def test_bernstein_tighter_than_interval():
    # (1 + x0)(1 + x1) + 1 >= 1 on the square; the monomial bound sees
    # 2 - 1 - 1 - 1 = -1, the Bernstein coefficients are its corner values.
    p = (x(0) + x(1) + x(0) * x(1)) + Polynomial.constant(2, 2)
    q, den, coeffs, _, scale = on_box(p)
    ilo = F(monomial_lower_bound(q), den)
    blo = F(min(coeffs), den * scale)
    assert ilo == -1 and blo == 1
    # x0^2 + x1^2 on [1/2, 1]^2: true minimum 1/2, certified positive.
    p = (x(0) + x(1)).pow(2) - (x(0) * x(1)).scale(2)
    q, den, coeffs, _, scale = on_box(p, [(0, 1), (0, 1), (1, 1), (1, 1)])
    blo, bhi = F(min(coeffs), den * scale), F(max(coeffs), den * scale)
    assert blo > 0
    assert blo >= F(monomial_lower_bound(q), den)
    for a in (F(1, 2), F(3, 4), F(1)):
        for b in (F(1, 2), F(2, 3), F(1)):
            v = p.evaluate([a, b])
            assert blo <= v <= bhi


def test_bernstein_exact_at_corners():
    p = (x(0) * x(1)).scale(3) + x(0) - x(1).scale(F(1, 2))
    # Box [-1, 0] x [0, 1/2].
    _, den, coeffs, shape, scale = on_box(p, [(0, 0), (1, 1), (1, 0)])
    corners = {}
    for i, a in ((0, F(-1)), (shape[0] - 1, F(0))):
        for j, b in ((0, F(0)), (shape[1] - 1, F(1, 2))):
            corners[a, b] = F(coeffs[i * shape[1] + j], den * scale)
    for (a, b), value in corners.items():
        assert value == p.evaluate([a, b])
    assert F(min(coeffs), den * scale) <= min(corners.values())
    assert F(max(coeffs), den * scale) >= max(corners.values())


def test_pin_variable_drops_the_axis():
    p = x(0, 3) * x(1, 3) * x(1, 3) - x(2, 3).pow(3) + Polynomial.constant(3, 5)
    q, den = clear_denominators(p)
    assert den == 1
    assert pin_variable(q, 1) == {(1, 0): 1, (0, 3): -1, (0, 0): 5}
    assert pin_variable(q, 2) == {(1, 2): 1, (0, 0): 4}


def test_multi_indices_and_counts():
    assert multi_indices(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(multi_indices(3, 4)) == monomial_count(3, 4) == 15
    assert multi_indices(1, 3) == [(3,)]


def test_bad_exponent_rejected():
    with pytest.raises(ValueError):
        Polynomial.make(2, {(1,): F(1)})
