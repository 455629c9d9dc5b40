"""The positivity certifier for even polynomials on the faces x_i = +1, on
its own: no operator, no Gram determinant."""

import math
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlab.exact import Polynomial
from symlab.exact.bernstein import (
    CertifiedBox,
    FaceBox,
    _lattice_zero,
    certify_positive,
    verify_positive,
)

DEPTH, BUDGET = 24, 100_000


def x(i, n=3):
    return Polynomial.variable(n, i)


def quartic():
    """x0^4 + x1^4 + x2^4 - 3/2 x0^2 x1^2 = (x0^2 - x1^2)^2 + 1/2 x0^2 x1^2
    + x2^4: positive away from the origin, and not certified by the monomial
    bound on the face x0 = +1."""
    return x(0).pow(4) + x(1).pow(4) + x(2).pow(4) - (x(0) * x(1)).pow(2).scale(F(3, 2))


def test_positive_even_polynomial_certified_and_replayed():
    p = quartic()
    found = certify_positive(p, DEPTH, BUDGET)
    assert found.zero is None and found.undecided_box is None
    assert {cb.box.axis for cb in found.cover} == {0, 1, 2}
    assert len(found.cover) > 3 and found.boxes_examined >= len(found.cover)
    assert verify_positive(p, found.cover)


@pytest.mark.parametrize("p, max_boxes", [
    # zero (1, 1, 0), found by the lattice pre-scan
    ((x(0) - x(1)).pow(2) + x(2).pow(2), 0),
    # zero (1/2, 1, 0), found as a box corner long before the depth budget
    ((x(0).scale(2) - x(1)).pow(2) + x(2).pow(2), 50),
])
def test_exact_zero_on_a_plus_face(p, max_boxes):
    found = certify_positive(p, DEPTH, BUDGET)
    assert found.zero is not None and not found.cover
    assert 1 in found.zero and p.evaluate(found.zero) == 0
    assert found.boxes_examined <= max_boxes


def test_odd_degree_term_refused():
    # 2 x0^3 + x0^2 + 3 x1^2 is positive on both faces x_i = +1, with these
    # root bounds, but -1 at (-1, 0): a mirrored cover would be wrong.
    cover = [CertifiedBox(FaceBox(axis, ((F(-1), F(1)),)), low)
             for axis, low in enumerate([F(3), F(1)])]
    even = x(0, 2).pow(4).scale(2) + x(0, 2).pow(2) + x(1, 2).pow(2).scale(3)
    odd = x(0, 2).pow(3).scale(2) + x(0, 2).pow(2) + x(1, 2).pow(2).scale(3)
    assert verify_positive(even, cover)
    assert not verify_positive(odd, cover)
    with pytest.raises(ValueError):
        certify_positive(odd, DEPTH, BUDGET)


def test_cover_must_hold_exactly_the_n_faces():
    p = quartic()
    cover = certify_positive(p, DEPTH, BUDGET).cover
    assert not verify_positive(p, [cb for cb in cover if cb.box.axis != 2])
    beyond = CertifiedBox(FaceBox(3, cover[-1].box.bounds), cover[-1].lower_bound)
    assert not verify_positive(p, cover + [beyond])


def brute_lattice_zero(q, n):
    """First point of {-1, 0, 1}^n with a coordinate +1 where q vanishes,
    summing every term at every point."""
    for pt in product((-1, 0, 1), repeat=n):
        if 1 in pt and sum(c * math.prod(x**e for x, e in zip(pt, alpha))
                           for alpha, c in q.items()) == 0:
            return tuple(F(x) for x in pt)
    return None


@st.composite
def even_int_polys(draw):
    """Few terms of even total degree with small coefficients, so that the
    classes often cancel and lattice zeros are common."""
    n = draw(st.integers(1, 4))
    alphas = st.tuples(*[st.integers(0, 3)] * n).filter(lambda a: sum(a) % 2 == 0)
    terms = draw(st.dictionaries(alphas, st.integers(-3, 3).filter(bool), max_size=8))
    return terms, n


@settings(max_examples=120, deadline=None)
@given(qn=even_int_polys())
def test_lattice_zero_matches_per_term_brute_force(qn):
    q, n = qn
    assert _lattice_zero(q, n) == brute_lattice_zero(q, n)
