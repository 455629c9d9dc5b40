"""Classification deciders and their certificates."""

import itertools
import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from symlab.catalog import (
    catalog_get,
    curl_div,
    defigueiredo,
    divergence,
    exterior_d,
    gradient,
    higher_order_div,
    hodge_pair,
    hyperbolic_example,
    laplacian,
    quaternion,
    regression_instances,
    saint_venant,
    strange_r4,
    sym_gradient,
)
from symlab.deciders import (
    CANCELING,
    COCANCELING,
    ELLIPTIC,
    NOT_CANCELING,
    NOT_COCANCELING,
    NOT_ELLIPTIC,
    UNDECIDED,
    check_bb_spanning,
    check_canceling,
    check_cocanceling,
    check_ellipticity,
    check_partial_canceling,
    image_intersection,
    verify_canceling,
    verify_cocanceling,
    verify_ellipticity,
    verify_partial_canceling,
    verify_spanning,
)
from symlab.deciders import witness
from symlab.deciders.cancellation import sample_directions
from symlab.deciders.witness import (
    MAX_WITNESS_DEGREE,
    WITNESS_BOX_BUDGET,
    WITNESS_MAX_DEPTH,
    Membership,
    cofactor_witnesses,
    find_witnesses,
    verify_memberships,
    witness_degree_bound,
)
from symlab.exact import polymatrix
from symlab.exact.bernstein import certify_positive, verify_positive
from symlab.deciders.ellipticity import CertifiedBox, FaceBox
from symlab.exact import (
    Polynomial,
    SymbolOperator,
    inverse,
    multi_indices,
    subspace_from_columns,
)
from symlab.io import operator_from_json
from test_exact_matrix import identity, ref_product
from test_exact_symbol import coefficients, ref_evaluate, ref_times


# ---------------------------------------------------------------------------
# Ellipticity


def test_gradient_elliptic_with_full_cover():
    v = check_ellipticity(gradient(2).operator)
    assert v.status == ELLIPTIC and v.certified
    assert verify_ellipticity(gradient(2).operator, v)
    # The n faces x_i = +1 all covered; the faces x_i = -1 are their mirrors.
    assert {cb.box.axis for cb in v.cover} == {0, 1}


def test_hyperbolic_witness():
    # Not elliptic: no A^T witness exists, and the lattice after the witness
    # search finds xi = (-1, 1).
    op = hyperbolic_example().operator
    v = check_ellipticity(op)
    assert v.status == NOT_ELLIPTIC and v.memberships == []
    assert v.witness_xi == (-1, 1)
    assert all(x == 0 for x in ref_times(ref_evaluate(op, v.witness_xi), v.witness_v))
    assert verify_ellipticity(op, v)


def test_strange_r4_not_elliptic():
    op = strange_r4().operator
    v = check_ellipticity(op)
    assert v.status == NOT_ELLIPTIC
    assert verify_ellipticity(op, v)


def test_hodge_pair_elliptic():
    v = check_ellipticity(hodge_pair(3, 1).operator)
    assert v.status == ELLIPTIC and verify_ellipticity(hodge_pair(3, 1).operator, v)


def test_wide_operator_immediately_not_elliptic():
    # More domain than codomain dimensions: divergence viewed as an operator.
    op = divergence(3).operator
    v = check_ellipticity(op)
    assert v.status == NOT_ELLIPTIC and verify_ellipticity(op, v)


ZERO_CONE = SymbolOperator.from_entries(2, 1, 1, 2, {((2, 0), 0, 0): 1, ((0, 2), 0, 0): -2})


def test_irrational_zero_yields_undecided():
    # x1^2 - 2 x2^2 vanishes only on irrational directions: no exact witness
    # exists, so the search ends at a limit with a small box.  The search
    # reports which limit, under the parameters it is given.
    det = ZERO_CONE.gram().det()
    found = certify_positive(det, 8, 2000)
    assert found.undecided_box is not None and found.zero is None and not found.cover
    assert found.limit == "the depth limit of 8 bisections per axis"
    assert max(found.axis_depths) == 8
    found = certify_positive(det, 24, 10)
    assert found.undecided_box is not None and found.limit == "the box budget of 10"
    assert found.boxes_examined == 12


def test_undecided_names_the_limit_that_stopped_it(monkeypatch):
    # Under the one budget pair the zero cone stops at the depth limit after
    # 37 boxes; with a box budget of 10 it stops at the box budget.
    assert (WITNESS_MAX_DEPTH, WITNESS_BOX_BUDGET) == (24, 100_000)
    v = check_ellipticity(ZERO_CONE)
    assert v.status == UNDECIDED and v.boxes_examined == 37 and v.depth_reached == 24
    assert v.undecided_box is not None and not v.certified
    assert v.reason == ("the search for zeros of det(A^T A) reached the depth limit of 24 "
                        "bisections per axis after 37 boxes, with neither a cover nor a zero")
    monkeypatch.setattr(witness, "WITNESS_BOX_BUDGET", 10)
    v = check_ellipticity(ZERO_CONE)
    assert v.status == UNDECIDED and v.reason.startswith(
        "the search for zeros of det(A^T A) reached the box budget of 10 after 12 boxes")
    assert verify_ellipticity(ZERO_CONE, v)


def test_det_budget_names_itself(monkeypatch):
    # quadratic_collection(3,2) needs q = det(A^T A); with a product budget
    # below its determinant's the verdict is UNDECIDED and says so.
    op = catalog_get("quadratic_collection", n=3, m=2).operator
    monkeypatch.setattr(polymatrix, "MAX_DET_PRODUCTS", 10)
    v = check_ellipticity(op)
    assert v.status == UNDECIDED and v.undecided_box is None
    assert v.reason == ("det(A^T A): the determinant of a 2 x 2 matrix needs more than "
                        "10 coefficient products")
    assert verify_ellipticity(op, v)


def test_zero_symbol_not_elliptic_at_the_first_axis_without_gram(monkeypatch):
    # 500 x 500 with no terms: the lattice step sees rank 0 at e_0 and never
    # forms A^T A.
    op = SymbolOperator.zero(2, 500, 500, 1)
    monkeypatch.setattr(SymbolOperator, "gram", lambda self: pytest.fail("gram() called"))
    start = time.perf_counter()
    v = check_ellipticity(op)
    assert time.perf_counter() - start < 0.5  # gram() alone took 1.7 s
    assert v.status == NOT_ELLIPTIC and v.witness_xi == (1, 0)
    assert v.witness_v == (1,) + (0,) * 499
    # The witness is re-multiplied in integers: 250,000 products, not
    # Fraction ones.
    start = time.perf_counter()
    assert verify_ellipticity(op, v)
    assert time.perf_counter() - start < 0.5


def test_elliptic_witnesses_span_v_with_norm_powers():
    # Every e_i of V gets A^T u_i = |x|^2 e_i at s = 1: no determinant.
    op = gradient(2).operator
    v = check_ellipticity(op)
    assert [m.e for m in v.memberships] == [(F(1),)]
    assert [m.p for m in v.memberships] == [norm_squared(2)]
    assert v.det_terms == 0 and v.cover == v.memberships[0].cover
    op = hodge_pair(5, 2).operator
    v = check_ellipticity(op)
    assert v.status == ELLIPTIC and [m.degree for m in v.memberships] == [1] * 10
    assert (v.det_terms, v.det_degree) == (0, 0)
    assert len(v.cover) == v.boxes_examined == 50 and v.axis_depths == (0,) * 5
    assert verify_ellipticity(op, v)


def test_det_witness_at_the_degree_bound():
    # No |x|^(s+k) witness exists for s <= 3: both e_i get q = det(A^T A)
    # at s = 2k dim V - k = 6, u_i = A adj(A^T A) e_i.
    op = catalog_get("quadratic_collection", n=3, m=2).operator
    v = check_ellipticity(op)
    gram = op.gram()
    det = gram.det()
    assert v.status == ELLIPTIC and (v.det_terms, v.det_degree) == (15, 8)
    assert [m.degree for m in v.memberships] == [6, 6] == [witness_degree_bound(op)] * 2
    assert all(m.p == det for m in v.memberships)
    assert [m.u for m in v.memberships] == [tuple(op.apply(gram.adjugate_column(i)))
                                            for i in range(2)]
    assert verify_ellipticity(op, v)


def elliptic_witnesses(name="hodge_pair", **params):
    op = catalog_get(name, **(params or {"n": 3, "ell": 1})).operator
    v = check_ellipticity(op)
    assert v.status == ELLIPTIC and verify_ellipticity(op, v)
    return op, v


def forged(v, i, **changes):
    """v with membership i replaced, and the cover kept consistent."""
    memberships = list(v.memberships)
    memberships[i] = replace(memberships[i], **changes)
    return replace(v, memberships=memberships,
                   cover=[cb for m in memberships for cb in m.cover])


def test_forged_elliptic_wrong_e_rejected():
    op, v = elliptic_witnesses()
    assert not verify_ellipticity(op, forged(v, 0, e=(F(1), F(1), F(0))))
    assert not verify_ellipticity(op, forged(v, 0, e=(F(2), F(0), F(0))))


def test_forged_elliptic_vectors_not_spanning_v_rejected():
    # Each witness is genuine, but e_0 twice spans a line, not V.
    op, v = elliptic_witnesses()
    first = v.memberships[0]
    for kept in ([first, first, v.memberships[2]], v.memberships[:2], []):
        assert not verify_ellipticity(op, replace(v, memberships=kept,
                                                  cover=[cb for m in kept for cb in m.cover]))
    assert verify_ellipticity(op, replace(v, memberships=v.memberships[::-1],
                                          cover=[cb for m in v.memberships[::-1]
                                                 for cb in m.cover]))


def test_forged_elliptic_q_rejected():
    # A^T (-u) = (-q) e holds, but -q is not positive; a punctured cover of
    # q and a cover that disagrees with the verdict's are rejected too.
    op, v = elliptic_witnesses()
    m = v.memberships[0]
    negated = forged(v, 0, u=tuple(q.scale(-1) for q in m.u), p=m.p.scale(-1))
    assert op.transpose().apply(negated.memberships[0].u) == [
        negated.memberships[0].p.scale(c) for c in m.e]
    assert not verify_ellipticity(op, negated)
    assert not verify_ellipticity(op, forged(v, 0, cover=m.cover[1:]))
    raised = CertifiedBox(m.cover[0].box, m.cover[0].lower_bound + 1)
    assert not verify_ellipticity(op, forged(v, 0, cover=[raised] + m.cover[1:]))
    assert not verify_ellipticity(op, replace(v, cover=v.cover[:-1]))


def test_forged_elliptic_u_rejected():
    op, v = elliptic_witnesses()
    m = v.memberships[1]
    assert not verify_ellipticity(op, forged(v, 1, u=(m.u[0].scale(2),) + m.u[1:]))
    x0 = Polynomial.variable(3, 0)
    assert not verify_ellipticity(op, forged(v, 1, u=(m.u[0] + x0,) + m.u[1:]))


def test_forged_elliptic_degree_above_bound_rejected():
    # gradient(1): A^T u = q e holds with u = x^(2j + 1) and q = x^(2j + 2)
    # for every j, but the bound 2k dim V - k is 1.
    op, v = elliptic_witnesses("gradient", n=1)
    x = Polynomial.variable(1, 0)
    for power in (3, 5):
        u, q = (x.pow(power),), x.pow(power + 1)
        cover = certify_positive(q, WITNESS_MAX_DEPTH, WITNESS_BOX_BUDGET).cover
        assert op.transpose().apply(u) == [q] and verify_positive(q, cover)
        assert not verify_ellipticity(op, forged(v, 0, u=u, p=q, cover=cover))


# The forgeries of a positivity cover, on det(A^T A) itself.


def det_cover(inst):
    det = inst.operator.gram().det()
    found = certify_positive(det, 24, 100_000)
    assert found.zero is None and found.undecided_box is None
    assert verify_positive(det, found.cover)
    return det, found


def test_tampered_cover_rejected():
    det, found = det_cover(gradient(2))
    assert not verify_positive(det, found.cover[:-1])  # puncture the cover


def subdivided_cover():
    """defigueiredo(2, 2): face x_1 = +1 certifies at the root, x_0 = +1 is
    bisected."""
    det, found = det_cover(defigueiredo(2, 2))
    assert len(found.cover) > 4
    return det, list(found.cover)


def with_box(cb, axis=None, bounds=None, lower_bound=None):
    box = cb.box
    return CertifiedBox(
        FaceBox(box.axis if axis is None else axis,
                box.bounds if bounds is None else tuple(bounds)),
        cb.lower_bound if lower_bound is None else lower_bound,
    )


def sibling_pair(cover):
    """Indices of two boxes that are the halves of one dyadic interval."""
    for i, a in enumerate(cover):
        for j, b in enumerate(cover):
            (alo, ahi), = a.box.bounds
            (blo, bhi), = b.box.bounds
            if a.box.axis == b.box.axis and ahi == blo \
                    and ahi - alo == bhi - blo and (alo + 1) / (2 * (bhi - alo)) % 1 == 0:
                return i, j
    raise AssertionError("no sibling boxes in the cover")


def test_forged_cover_duplicate_box_rejected():
    det, cover = subdivided_cover()
    assert not verify_positive(det, cover + [cover[-1]])


def test_forged_cover_gap_rejected():
    det, cover = subdivided_cover()
    i, _ = sibling_pair(cover)
    assert not verify_positive(det, cover[:i] + cover[i + 1:])


def test_forged_cover_non_dyadic_split_rejected():
    # The two halves of a dyadic interval, re-cut at a third: still an exact
    # tiling of the face, but no bisection tree has these leaves.
    det, cover = subdivided_cover()
    i, j = sibling_pair(cover)
    (lo, _), = cover[i].box.bounds
    (_, hi), = cover[j].box.bounds
    cut = lo + (hi - lo) / 3
    cover[i] = with_box(cover[i], bounds=[(lo, cut)])
    cover[j] = with_box(cover[j], bounds=[(cut, hi)])
    assert not verify_positive(det, cover)


def test_forged_cover_crossing_halves_rejected():
    # On a square face: the two halves along x1 plus a lower half along x2.
    # Every box is dyadic, but they overlap, and no split axis separates them.
    det, found = det_cover(gradient(3))
    cover = list(found.cover)
    one, half = (F(-1), F(1)), [(F(-1), F(0)), (F(0), F(1))]
    cover[0:1] = [with_box(cover[0], bounds=[half[0], one]),
                  with_box(cover[0], bounds=[half[1], one]),
                  with_box(cover[0], bounds=[one, half[0]])]
    assert not verify_positive(det, cover)


def test_forged_cover_box_outside_cube_rejected():
    det, found = det_cover(gradient(2))
    cover = list(found.cover)
    assert cover[0].box.bounds == ((F(-1), F(1)),)
    # [-1, 1] is cut into [-1, 0] plus [0, 2], which reaches past the face.
    assert not verify_positive(det, [with_box(cover[0], bounds=[(F(-1), F(0))]),
                                     with_box(cover[0], bounds=[(F(0), F(2))])] + cover[1:])
    assert not verify_positive(det, cover + [with_box(cover[0], bounds=[(F(1), F(3))])])


def test_forged_cover_box_on_wrong_face_rejected():
    det, cover = subdivided_cover()
    cb = cover[-1]
    assert not verify_positive(det, cover[:-1] + [with_box(cb, axis=1 - cb.box.axis)])
    for axis in (2, -1):  # faces that do not exist
        assert not verify_positive(det, cover[:-1] + [with_box(cb, axis=axis)])


def test_forged_cover_lower_bound_rejected():
    det, cover = subdivided_cover()
    assert not verify_positive(
        det, cover[:-1] + [with_box(cover[-1], lower_bound=cover[-1].lower_bound * 2)])
    assert not verify_positive(det, [with_box(cover[0], lower_bound=F(0))] + cover[1:])


def test_subdivided_det_cover_counters():
    # defigueiredo(2,2): det(A^T A) has 5 terms of degree 4, and its cover
    # bisects the face x_0 = +1.
    det, found = det_cover(defigueiredo(2, 2))
    assert found.boxes_examined >= len(found.cover) > 4
    assert len(found.axis_depths) == 2 and max(found.axis_depths) > 0
    assert (len(det.terms), det.degree()) == (5, 4)


def test_hodge_pair_5_2_certified_at_root():
    # det(A^T A) has 1,001 terms of degree 20; the monomial bound certifies
    # each of the 5 faces x_i = +1 with one box, so no Bernstein tensor is
    # built.
    det, found = det_cover(hodge_pair(5, 2))
    assert len(found.cover) == found.boxes_examined == 5
    assert found.axis_depths == (0,) * 5
    assert (len(det.terms), det.degree()) == (1001, 20)


def test_defigueiredo_3_3_elliptic_and_verified():
    op = defigueiredo(3, 3).operator
    v = check_ellipticity(op)
    assert v.status == ELLIPTIC and verify_ellipticity(op, v)
    assert v.depth_reached <= 24


def test_defigueiredo_4_2_elliptic_at_default_depth():
    # Was UNDECIDED when the depth budget counted bisections in total.
    op = defigueiredo(4, 2).operator
    v = check_ellipticity(op)
    assert v.status == ELLIPTIC
    assert max(v.axis_depths) <= 24
    assert verify_ellipticity(op, v)


# ---------------------------------------------------------------------------
# Cocancellation


def selected_block(op, block):
    """The entries of the stacked coefficient matrices that a block selects."""
    coeffs = coefficients(op)
    alphas = [alpha for alpha, _rows in op.terms]
    return [[coeffs.get((alphas[i // op.dim_e], i % op.dim_e, j), F(0)) for j in block.cols]
            for i in block.rows]


def test_divergence_cocanceling_with_full_block():
    # The stacked coefficients of div permute the coordinates: every row and
    # column is in the block.
    op = divergence(3).operator
    v = check_cocanceling(op)
    assert v.status == COCANCELING and v.joint_kernel.dim == 0
    assert verify_cocanceling(op, v)
    assert sorted(v.block.rows) == sorted(v.block.cols) == [0, 1, 2]
    assert list(v.block.inverse) == inverse(selected_block(op, v.block))


def test_higher_order_block_has_full_rank():
    op = higher_order_div(2, 2).operator
    v = check_cocanceling(op)
    assert len(v.block.rows) == op.dim_v
    assert ref_product(v.block.inverse, selected_block(op, v.block)) == identity(op.dim_v)


def test_curl_div_joint_kernel_is_identity_line():
    inst = curl_div(3)
    v = check_cocanceling(inst.operator)
    assert v.status == NOT_COCANCELING
    expected = subspace_from_columns(9, inst.truth["joint_kernel_basis"])
    assert v.joint_kernel == expected
    assert len(v.block.rows) == 8
    assert verify_cocanceling(inst.operator, v)


def test_saint_venant_r1_zero_operator_not_cocanceling():
    op = saint_venant(1).operator
    assert op.is_zero()
    v = check_cocanceling(op)
    assert v.status == NOT_COCANCELING
    assert v.joint_kernel.dim == op.dim_v
    assert v.block.rows == v.block.cols == () and v.block.inverse == ()
    assert verify_cocanceling(op, v)


def test_cocanceling_verifier_refuses_changed_inverse_entries():
    # N B = D I_r fails once any one entry of N changes, zero or not; D = 2
    # for sym_gradient(3), whose entries are 1/2.
    for op in (sym_gradient(3).operator, higher_order_div(2, 2).operator,
               curl_div(2).operator):
        v = check_cocanceling(op)
        assert verify_cocanceling(op, v)
        n = [list(row) for row in v.block.inverse]
        assert any(x == 0 for row in n for x in row)
        for k, m in itertools.product(range(len(n)), repeat=2):
            forged = [row[:] for row in n]
            forged[k][m] += F(1, 3)
            block = replace(v.block, inverse=tuple(map(tuple, forged)))
            assert not verify_cocanceling(op, replace(v, block=block)), (k, m)
    assert sym_gradient(3).operator.den == 2


def test_exterior_d_cocanceling():
    assert check_cocanceling(exterior_d(4, 2).operator).status == COCANCELING


def test_block_size_plus_kernel_is_dim_v():
    # The block's size is rank S, so it is dim V exactly when cocanceling.
    for inst in (divergence(2), higher_order_div(3, 2), curl_div(2), saint_venant(2)):
        op = inst.operator
        v = check_cocanceling(op)
        assert len(v.block.rows) + v.joint_kernel.dim == op.dim_v
        assert (len(v.block.rows) == op.dim_v) == (v.status == COCANCELING)
        assert verify_cocanceling(op, v)


# ---------------------------------------------------------------------------
# Cancellation


def test_gradient_r1_not_canceling_witness_one():
    v = check_canceling(gradient(1).operator, seed=5)
    assert v.status == NOT_CANCELING and v.intersection.columns() == [(F(1),)]
    assert [m.e for m in v.memberships] == [(F(1),)]
    op = gradient(1).operator
    assert verify_canceling(op, v)
    assert [m.degree for m in v.memberships] == [1]


def test_gradient_r2_canceling():
    v = check_canceling(gradient(2).operator, seed=5)
    assert v.status == CANCELING and v.intersection.dim == 0
    assert verify_canceling(gradient(2).operator, v)


def test_laplacian_never_canceling():
    v = check_canceling(laplacian(3).operator, seed=1)
    assert v.status == NOT_CANCELING
    assert v.intersection.dim == 1
    op = laplacian(3).operator
    assert verify_canceling(op, v)
    v.memberships = []
    assert not verify_canceling(op, v)


def test_hodge_degree_one_intersection_is_zeroth_component():
    inst = hodge_pair(3, 1)
    v = image_intersection(inst.operator, seed=3)
    assert v.status == NOT_CANCELING and v.certified
    assert v.intersection == subspace_from_columns(4, [(0, 0, 0, 1)])


def test_hyperbolic_canceling_certified_at_every_seed():
    # Its images drop rank only on the diagonals, which the lattice
    # directions sampled for non-elliptic symbols always include.
    op = hyperbolic_example().operator
    for seed in range(12):
        v = check_canceling(op, seed=seed)
        assert v.status == CANCELING and v.certified, seed
        assert verify_canceling(op, v), seed


def test_quaternion_canceling():
    assert check_canceling(quaternion().operator, seed=2).status == CANCELING


def norm_squared(n):
    return Polynomial.make(n, {tuple(2 * (i == j) for j in range(n)): F(1) for i in range(n)})


def test_divergence_witness_is_norm_squared():
    # At s = 1, p = |x|^2 with u = x.
    m = find_witnesses(divergence(2).operator, [(F(1),)])[0]
    assert m is not None and m.p == norm_squared(2) and m.degree == 1
    assert verify_memberships(divergence(2).operator, [m])


def test_not_canceling_certified_without_ellipticity():
    # A(x) = diag(|x|^2, x_0^2) is not elliptic (x_0 = 0 kills e_1), and its
    # images meet in span(e_0).  Random samples see all of E; e_1 has no
    # witness, the lattice direction (0, 1) shrinks the intersection, and e_0
    # is then witnessed by u = (1, 0), p = |x|^2.
    op = SymbolOperator.from_entries(2, 2, 2, 2, {
        ((2, 0), 0, 0): 1, ((2, 0), 1, 1): 1, ((0, 2), 0, 0): 1})
    assert check_ellipticity(op).status == NOT_ELLIPTIC
    v = check_canceling(op, seed=0)
    assert v.status == NOT_CANCELING and v.iterations == 2
    assert v.intersection == subspace_from_columns(2, [(1, 0)])
    assert [m.p for m in v.memberships] == [norm_squared(2)]
    assert verify_canceling(op, v)


def witnessed(op, seed=1):
    v = check_canceling(op, seed=seed)
    assert v.status == NOT_CANCELING and verify_canceling(op, v)
    return v


def test_forged_membership_identity_rejected():
    op = laplacian(3).operator
    v = witnessed(op)
    m = v.memberships[0]
    v.memberships = [replace(m, u=(m.u[0].scale(2),))]
    assert not verify_canceling(op, v)


def test_negative_p_rejected():
    # A(-u) = (-|x|^2) e holds, but -|x|^2 is not positive.
    op = laplacian(3).operator
    v = witnessed(op)
    m = v.memberships[0]
    v.memberships = [replace(m, u=(m.u[0].scale(-1),), p=m.p.scale(-1))]
    assert not verify_canceling(op, v)


def test_odd_degree_p_rejected():
    # A(x_0) = (|x|^2 x_0) e holds, but |x|^2 x_0 changes sign.
    op = laplacian(3).operator
    v = witnessed(op)
    m = v.memberships[0]
    x0 = Polynomial.variable(3, 0)
    v.memberships = [replace(m, u=(x0,), p=m.p * x0)]
    assert op.apply(v.memberships[0].u) == [v.memberships[0].p]
    assert not verify_canceling(op, v)


def test_witness_degree_rules():
    # Both identities hold with p > 0, but u of degree 4 exceeds the cap and
    # u = 1 + x_0^2 is not homogeneous (p = |x|^2 (1 + x_0^2) would then only
    # be checked on the cube boundary).
    op = laplacian(3).operator
    v = witnessed(op)
    m = v.memberships[0]
    x0 = Polynomial.variable(3, 0)
    for u in (m.p * m.p, m.u[0] + x0 * x0):
        p = op.apply((u,))[0]
        found = certify_positive(p, WITNESS_MAX_DEPTH, WITNESS_BOX_BUDGET)
        assert found.cover and found.zero is None
        forged = Membership(m.e, (u,), p, found.cover)
        v.memberships = [forged]
        assert not verify_memberships(op, [forged]) and not verify_canceling(op, v)


def test_forged_witness_cover_rejected():
    op = laplacian(3).operator
    v = witnessed(op)
    m = v.memberships[0]
    raised = CertifiedBox(m.cover[0].box, m.cover[0].lower_bound + 1)
    v.memberships = [replace(m, cover=[raised] + m.cover[1:])]
    assert not verify_canceling(op, v)
    v.memberships = [replace(m, cover=m.cover[1:])]
    assert not verify_canceling(op, v)


def test_witness_outside_intersection_rejected():
    op = hodge_pair(3, 1).operator
    v = witnessed(op)
    m = v.memberships[0]
    v.memberships = [replace(m, e=(F(1), F(0), F(0), F(0)))]
    assert not verify_canceling(op, v)


def test_basis_vector_without_witness_rejected():
    # diag(|x|^2, |x|^2): every vector of E lies in every image.
    op = SymbolOperator.from_entries(2, 2, 2, 2, {
        (alpha, i, i): 1 for alpha in ((2, 0), (0, 2)) for i in range(2)})
    v = witnessed(op)
    assert v.intersection.dim == 2 and len(v.memberships) == 2
    first, second = v.memberships
    for kept in ([first], [second], [first, first], []):
        v.memberships = kept
        assert not verify_canceling(op, v)
    v.memberships = [second, first]
    assert verify_canceling(op, v)


def test_monotone_trajectory_and_iteration_bound():
    for inst in (gradient(2), laplacian(2), hodge_pair(3, 1), sym_gradient(2)):
        v = check_canceling(inst.operator, seed=9)
        traj = v.dim_trajectory
        assert all(b <= a for a, b in zip(traj, traj[1:]))
        assert v.iterations <= inst.operator.dim_e + (inst.operator.dim_e + 4)


def test_tampered_witness_rejected():
    # e = 0 with u = 0 is a valid membership, but its vector spans {0}, not W.
    op = laplacian(2).operator
    v = check_canceling(op, seed=1)
    m = v.memberships[0]
    zero = replace(m, e=(F(0),), u=(Polynomial.zero(2),))
    assert verify_memberships(op, [zero])
    v.memberships = [zero]
    assert not verify_canceling(op, v)


def test_canceling_relabelled_not_canceling_rejected():
    # W = {0} and no memberships: the witnessed vectors span W, but a
    # NOT_CANCELING verdict needs W != {0}.
    op = gradient(2).operator
    v = check_canceling(op, seed=1)
    assert v.status == CANCELING and verify_canceling(op, v)
    v.status = NOT_CANCELING
    assert v.memberships == [] and not verify_canceling(op, v)


def test_check_canceling_is_image_intersection():
    assert check_canceling is image_intersection


def canceling_verdicts(seeds=range(3)):
    for inst in regression_instances():
        for seed in seeds:
            v = check_canceling(inst.operator, seed=seed)
            if v.status == CANCELING:
                yield inst, v


def test_canceling_trajectory_ends_at_first_zero():
    # The search stops at the first sample where W = {0} and stores only
    # the samples up to it.
    count = 0
    for inst, v in canceling_verdicts():
        traj = v.dim_trajectory
        assert traj and traj[-1] == 0 and 0 not in traj[:-1], inst.name
        assert len(v.samples) == len(traj), inst.name
        count += 1
    assert count >= 30


def test_verify_accepts_samples_after_zero_intersection():
    # Reports written before the search stopped at W = {0} carry more
    # samples; they are checked to be nonzero directions but change nothing.
    rng = random.Random(0)
    for inst, v in canceling_verdicts(seeds=(1,)):
        op = inst.operator
        extra = sample_directions(op.n, op.dim_e + 4, rng)
        longer = replace(v, samples=v.samples + extra,
                         dim_trajectory=v.dim_trajectory + [0] * len(extra))
        assert verify_canceling(op, longer), inst.name
        zero = tuple(F(0) for _ in range(op.n))
        assert not verify_canceling(op, replace(v, samples=v.samples + [zero])), inst.name
        assert not verify_canceling(op, replace(v, samples=v.samples + [(F(1),) * (op.n + 1)]))


def test_verify_rejects_samples_cut_before_zero_intersection():
    for inst, v in canceling_verdicts(seeds=(1,)):
        cut = replace(v, samples=v.samples[:-1], dim_trajectory=v.dim_trajectory[:-1])
        assert not verify_canceling(inst.operator, cut), inst.name


# ---------------------------------------------------------------------------
# Spanning equivalence and partial cancellation


def test_spanning_matches_cancellation():
    for inst in (gradient(2), gradient(1), laplacian(2), sym_gradient(2),
                  hodge_pair(3, 1), quaternion()):
        cv = check_canceling(inst.operator, seed=4)
        bb = check_bb_spanning(cv)
        assert bb.certified == cv.certified
        assert (bb.status == "SPANS") == (cv.status == CANCELING)
        assert bb.span_dim == inst.operator.dim_e - cv.intersection.dim
        assert verify_spanning(bb, cv)
        assert not verify_spanning(bb, None)


def test_partial_holds_for_hodge_degree_one():
    inst = hodge_pair(3, 1)
    cv = check_canceling(inst.operator, seed=2)
    v = check_partial_canceling(cv, inst.constraint_map)
    assert v.status == "HOLDS" and v.certified
    assert v.constrained_intersection.dim == 0
    assert verify_partial_canceling(v, cv, inst.constraint_map)


def test_partial_reduces_to_cancellation_at_zero_map():
    inst = hodge_pair(3, 1)
    op = inst.operator
    z = ((F(0),) * op.dim_e,)
    cv = check_canceling(op, seed=2)
    v = check_partial_canceling(cv, z)
    assert v.status == "FAILS"  # ker 0 = E and the intersection is a line
    assert v.constrained_intersection == cv.intersection
    assert v.constrained_intersection.columns() == [(0, 0, 0, 1)]
    assert verify_partial_canceling(v, cv, z)
    assert not verify_partial_canceling(v, None, z)


def test_partial_verdict_must_match_its_derivation():
    inst = hodge_pair(3, 1)
    t = inst.constraint_map
    cv = check_canceling(inst.operator, seed=2)
    v = check_partial_canceling(cv, t)
    assert verify_partial_canceling(v, cv, t)
    for forged in (replace(v, status="FAILS"),
                   replace(v, constrained_intersection=cv.intersection)):
        assert not verify_partial_canceling(forged, cv, t)
    # Derived from a sampled W, FAILS is only FAILS_SAMPLED.
    z = ((F(0),) * inst.operator.dim_e,)
    sampled = replace(cv, status="NOT_CANCELING_SAMPLED", memberships=[])
    assert check_partial_canceling(sampled, z).status == "FAILS_SAMPLED"
    assert not verify_partial_canceling(check_partial_canceling(cv, z), sampled, z)


def test_partial_always_holds_at_identity():
    inst = laplacian(2)
    v = check_partial_canceling(check_canceling(inst.operator, seed=2), ((F(1),),))
    assert v.status == "HOLDS"


def test_partial_shape_mismatch():
    with pytest.raises(ValueError):
        check_partial_canceling(check_canceling(gradient(2).operator), identity(3))


def test_joint_kernel_of_nonzero_term_free_symbol():
    z = SymbolOperator.zero(2, 2, 1, 1)
    assert check_cocanceling(z).joint_kernel.dim == 2


# ---------------------------------------------------------------------------
# The witness systems on integer rows against a Fraction reference


def ref_rref(rows, ncols):
    """Gauss-Jordan on Fraction rows: the nonzero RREF rows and pivots."""
    a = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        sel = next((i for i in range(top, len(a)) if a[i][col]), None)
        if sel is None:
            continue
        a[top], a[sel] = a[sel], a[top]
        a[top] = [x / a[top][col] for x in a[top]]
        for i in range(len(a)):
            if i != top and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[top])]
        pivots.append(col)
    return a[:len(pivots)], pivots


def ref_membership(a, e):
    """The witness recipe on rational matrices: u -> A u is
    multiplication_rows / D, and p = |x|^(s+k) is tried by a rational
    solve at each s."""
    den = math.lcm(*(x.denominator for x in coefficients(a).values()))
    for s in range(a.order % 2, min(MAX_WITNESS_DEGREE, witness_degree_bound(a)) + 1, 2):
        targets, sources = multi_indices(a.n, s + a.order), multi_indices(a.n, s)
        ncols = len(sources) * a.dim_v
        m = [[F(x, den) for x in r] for r in a.multiplication_rows(s)]
        p = norm_squared(a.n).pow((s + a.order) // 2)
        b = [p.as_dict().get(g, F(0)) * c for g in targets for c in e]
        red, pivots = ref_rref([r + [x] for r, x in zip(m, b)], ncols + 1)
        if ncols in pivots:
            continue
        x = [F(0)] * ncols
        for r, col in zip(red, pivots):
            x[col] = r[ncols]
        u = tuple(Polynomial.make(a.n, dict(zip(sources, x[j::a.dim_v])))
                  for j in range(a.dim_v))
        return Membership(tuple(e), u, p, certify_positive(p, WITNESS_MAX_DEPTH,
                                                           WITNESS_BOX_BUDGET).cover)
    return None


def test_witnesses_match_the_fraction_reference_on_not_canceling_regression_operators():
    # Besides W's basis, the unit vectors of small E, most of them outside
    # W, send the search through every degree up to 3 without a witness.
    seen = 0
    for result in regression_instances():
        op = result.operator
        v = check_canceling(op, seed=1)
        if v.status != NOT_CANCELING:
            continue
        vectors = v.intersection.columns()
        if op.dim_e <= 4:
            vectors += [tuple(F(int(i == j)) for j in range(op.dim_e)) for i in range(op.dim_e)]
        for e in vectors:
            assert find_witnesses(op, [e])[0] == ref_membership(op, e), (result.name, e)
        seen += 1
    assert seen >= 5


def anisotropic_hodge_pair():
    """tests/data/anisotropic_hodge_pair.json: hodge_pair(3,1) with its xi_0
    terms halved, so D = 2 and |x|^(s+1) gives no witness of W."""
    doc = json.loads((Path(__file__).parent / "data" / "anisotropic_hodge_pair.json").read_text())
    return operator_from_json(doc)[0]


def test_anisotropic_file_is_hodge_pair_with_halved_xi0_terms():
    base = hodge_pair(3, 1).operator
    entries = {(alpha, i, j): x / (2 if alpha[0] else 1)
               for (alpha, i, j), x in coefficients(base).items()}
    assert anisotropic_hodge_pair() == SymbolOperator.from_entries(
        base.n, base.dim_v, base.dim_e, base.order, entries)


def test_anisotropic_not_canceling_by_cofactor_witness_at_every_seed():
    op = anisotropic_hodge_pair()
    for seed in range(4):
        v = check_canceling(op, seed=seed)
        assert v.status == NOT_CANCELING and v.certified, seed
        assert [m.p for m in v.memberships] == [op.gram().det()], seed
        assert verify_canceling(op, v), seed


def test_witness_with_symbol_denominator_and_fractional_e():
    # hodge_pair(3,1) with its xi_0 term halved has D = 2; e is half of the
    # basis vector of W, so it has an entry 1/2.  |x|^(s+1) gives no witness
    # there up to s = 3, and the cofactor witness p = det(A^T A) does, with
    # s = 5.
    op = anisotropic_hodge_pair()
    v = check_canceling(op, seed=1)
    assert v.intersection.dim == 1
    assert verify_canceling(op, v)
    e = tuple(x / 2 for x in v.intersection.columns()[0])
    assert any(x.denominator == 2 for x in e)
    assert find_witnesses(op, [e]) == [None]
    m = cofactor_witnesses(op, [e])[0]
    assert m.p == op.gram().det() and m.degree == 5 == witness_degree_bound(op)
    assert verify_memberships(op, [m])


def test_cofactor_witness_only_for_vectors_of_w_and_injective_symbols():
    # The identity A u == det(A^T A) e fails for a vector outside W, and
    # det(A^T A) of hyperbolic, which is not elliptic, has a zero.
    op = anisotropic_hodge_pair()
    w = check_canceling(op, seed=1).intersection.columns()[0]
    outside = tuple(F(int(i == 0)) for i in range(op.dim_e))
    found = cofactor_witnesses(op, [outside, w])
    assert found[0] is None and found[1].e == w and verify_memberships(op, [found[1]])
    h = hyperbolic_example().operator
    assert cofactor_witnesses(h, [(F(1), F(0)), (F(0), F(1))]) == [None, None]
    assert cofactor_witnesses(h, []) == []


def test_witness_solve_with_symbol_denominator():
    # |x|^2 / 2 has D = 2, and the solve reaches p = |x|^2 with u = 2 e.
    op = SymbolOperator.from_entries(3, 1, 1, 2, {(alpha, 0, 0): F(1, 2)
                                                  for alpha in ((2, 0, 0), (0, 2, 0), (0, 0, 2))})
    e = (F(1, 3),)
    m = find_witnesses(op, [e])[0]
    assert m == ref_membership(op, e)
    assert m.p == norm_squared(3) and m.u == (Polynomial.constant(3, F(2, 3)),)
    assert verify_memberships(op, [m])
