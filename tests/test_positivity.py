"""The positivity certifier for even polynomials on the faces x_i = +1, on
its own: no operator, no Gram determinant."""

from fractions import Fraction as F

import pytest

from symlab.exact import Polynomial
from symlab.exact.bernstein import CertifiedBox, FaceBox, certify_positive, verify_positive

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
    # zero (1, 1, 0), found as a box corner after a few bisections
    ((x(0) - x(1)).pow(2) + x(2).pow(2), 6),
    # zero (1/2, 1, 0), found as a box corner long before the depth budget
    ((x(0).scale(2) - x(1)).pow(2) + x(2).pow(2), 50),
])
def test_exact_zero_on_a_plus_face(p, max_boxes):
    found = certify_positive(p, DEPTH, BUDGET)
    assert found.zero is not None and not found.cover
    assert 1 in found.zero and p.evaluate(found.zero) == 0
    assert found.boxes_examined <= max_boxes


def test_zero_hunt_finds_a_zero_when_the_budget_runs_out():
    # (3 x0 + 4 x1)^2 + x2^2 vanishes at (1, -3/4, 0).  With no box to
    # spare, the root box of the face x0 = +1 is the last one, and its
    # low-height rational points hold the zero; with boxes to spare, the
    # bisection reaches it as a corner.
    p = (x(0).scale(3) + x(1).scale(4)).pow(2) + x(2).pow(2)
    zero = (F(1), F(-3, 4), F(0))
    hunted = certify_positive(p, DEPTH, 0)
    assert hunted.zero == zero and hunted.boxes_examined == 1
    assert hunted.undecided_box is None and not hunted.cover
    bisected = certify_positive(p, DEPTH, BUDGET)
    assert bisected.zero == zero and bisected.boxes_examined == 5


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
