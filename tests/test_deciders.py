"""Classification deciders and their certificates."""

from fractions import Fraction as F

import pytest

from symlab.catalog import (
    curl_div,
    divergence,
    exterior_d,
    gradient,
    higher_order_div,
    hodge_pair,
    hyperbolic_example,
    laplacian,
    quaternion,
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
    joint_kernel,
    left_inverses,
    membership_residual,
    verify_canceling,
    verify_cocanceling,
    verify_ellipticity,
    verify_partial_canceling,
    verify_spanning,
)
from symlab.exact import QMatrix, SymbolOperator, subspace_from_columns


def verified_ellipticity(op):
    v = check_ellipticity(op)
    assert verify_ellipticity(op, v)
    return v


# ---------------------------------------------------------------------------
# Ellipticity


def test_gradient_elliptic_with_full_cover():
    v = check_ellipticity(gradient(2).operator)
    assert v.status == ELLIPTIC and v.certified
    assert verify_ellipticity(gradient(2).operator, v)
    # 2n faces all covered.
    faces = {(cb.box.axis, cb.box.sign) for cb in v.cover}
    assert faces == {(a, s) for a in range(2) for s in (1, -1)}


def test_hyperbolic_witness():
    op = hyperbolic_example().operator
    v = check_ellipticity(op)
    assert v.status == NOT_ELLIPTIC
    assert abs(v.witness_xi[0]) == abs(v.witness_xi[1])
    assert all(x == 0 for x in op.evaluate(v.witness_xi).mul_vector(v.witness_v))
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


def test_irrational_zero_yields_undecided():
    # x1^2 - 2 x2^2 vanishes only on irrational directions: no exact witness
    # exists, so the checker must fall back to UNDECIDED with a small box.
    op = SymbolOperator.make(
        2, 1, 1, 2,
        {(2, 0): QMatrix.from_rows([[1]]), (0, 2): QMatrix.from_rows([[-2]])},
    )
    v = check_ellipticity(op, max_depth=8, box_budget=2000)
    assert v.status == UNDECIDED
    assert v.undecided_box is not None and not v.certified


def test_tampered_cover_rejected():
    op = gradient(2).operator
    v = check_ellipticity(op)
    v.cover = v.cover[:-1]  # puncture the cover
    assert not verify_ellipticity(op, v)


# ---------------------------------------------------------------------------
# Cocancellation


def test_divergence_cocanceling_with_left_inverses():
    v = check_cocanceling(divergence(3).operator)
    assert v.status == COCANCELING and v.joint_kernel.dim == 0
    assert verify_cocanceling(divergence(3).operator, v)
    ks = v.left_inverses
    for i, (alpha, k) in enumerate(sorted(ks.items())):
        assert k == QMatrix.from_rows([[1 if r == alpha.index(1) else 0] for r in range(3)])


def test_higher_order_left_inverse_is_injection():
    op = higher_order_div(2, 2).operator
    ks = left_inverses(op)
    acc = QMatrix.zeros(op.dim_v, op.dim_v)
    for alpha, k in ks.items():
        acc = acc + (k @ op.terms_dict()[alpha])
    assert acc == QMatrix.identity(op.dim_v)


def test_curl_div_joint_kernel_is_identity_line():
    inst = curl_div(3)
    v = check_cocanceling(inst.operator)
    assert v.status == NOT_COCANCELING
    expected = subspace_from_columns(9, inst.truth["joint_kernel_basis"])
    assert v.joint_kernel == expected
    assert left_inverses(inst.operator) is None
    assert verify_cocanceling(inst.operator, v)


def test_saint_venant_r1_zero_operator_not_cocanceling():
    op = saint_venant(1).operator
    assert op.is_zero()
    v = check_cocanceling(op)
    assert v.status == NOT_COCANCELING
    assert v.joint_kernel.dim == op.dim_v


def test_exterior_d_cocanceling():
    assert check_cocanceling(exterior_d(4, 2).operator).status == COCANCELING


def test_left_inverses_iff_cocanceling():
    for inst in (divergence(2), higher_order_div(3, 2), curl_div(2), saint_venant(2)):
        v = check_cocanceling(inst.operator)
        ks = left_inverses(inst.operator)
        assert (ks is not None) == (v.status == COCANCELING)


# ---------------------------------------------------------------------------
# Cancellation


def test_gradient_r1_not_canceling_witness_one():
    v = check_canceling(gradient(1).operator, seed=5)
    assert v.status == NOT_CANCELING and v.witness == (F(1),)
    op = gradient(1).operator
    assert verify_canceling(op, v, verified_ellipticity(op))


def test_gradient_r2_canceling():
    v = check_canceling(gradient(2).operator, seed=5)
    assert v.status == CANCELING and v.intersection.dim == 0
    assert verify_canceling(gradient(2).operator, v, None)


def test_laplacian_never_canceling():
    v = check_canceling(laplacian(3).operator, seed=1)
    assert v.status == NOT_CANCELING
    assert v.intersection.dim == 1
    op = laplacian(3).operator
    assert verify_canceling(op, v, verified_ellipticity(op))
    assert not verify_canceling(op, v, None)


def test_hodge_degree_one_intersection_is_zeroth_component():
    inst = hodge_pair(3, 1)
    res = image_intersection(inst.operator, seed=3)
    assert res.certified
    assert res.subspace == subspace_from_columns(4, [(0, 0, 0, 1)])


def test_hyperbolic_canceling_certified_at_every_seed():
    # Its images drop rank only on the diagonals, which the lattice
    # directions sampled for non-elliptic symbols always include.
    op = hyperbolic_example().operator
    for seed in range(12):
        v = check_canceling(op, seed=seed)
        assert v.status == CANCELING and v.certified, seed
        assert verify_canceling(op, v, None), seed


def test_quaternion_canceling():
    assert check_canceling(quaternion().operator, seed=2).status == CANCELING


def test_membership_residual_detects_non_membership():
    op = gradient(2).operator
    residual = membership_residual(op, [F(1), F(0)])
    assert not all(p.is_zero() for p in residual)
    # The witness for the full space of a square invertible symbol is exact.
    op1 = gradient(1).operator
    assert all(p.is_zero() for p in membership_residual(op1, [F(1)]))


def test_monotone_trajectory_and_iteration_bound():
    for inst in (gradient(2), laplacian(2), hodge_pair(3, 1), sym_gradient(2)):
        v = check_canceling(inst.operator, seed=9)
        traj = v.dim_trajectory
        assert all(b <= a for a, b in zip(traj, traj[1:]))
        assert v.iterations <= inst.operator.dim_e + (inst.operator.dim_e + 4)


def test_tampered_witness_rejected():
    op = laplacian(2).operator
    v = check_canceling(op, seed=1)
    v.witness = (F(0),)
    assert not verify_canceling(op, v, verified_ellipticity(op))


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
    assert verify_partial_canceling(inst.operator, inst.constraint_map, v, None)


def test_partial_reduces_to_cancellation_at_zero_map():
    inst = hodge_pair(3, 1)
    op = inst.operator
    z = QMatrix.zeros(1, op.dim_e)
    v = check_partial_canceling(check_canceling(op, seed=2), z)
    assert v.status == "FAILS"  # ker 0 = E and the intersection is a line
    assert v.witness == (0, 0, 0, 1)
    assert verify_partial_canceling(op, z, v, verified_ellipticity(op))
    assert not verify_partial_canceling(op, z, v, None)


def test_partial_always_holds_at_identity():
    inst = laplacian(2)
    v = check_partial_canceling(check_canceling(inst.operator, seed=2), QMatrix.identity(1))
    assert v.status == "HOLDS"


def test_partial_shape_mismatch():
    with pytest.raises(ValueError):
        check_partial_canceling(check_canceling(gradient(2).operator), QMatrix.identity(3))


def test_joint_kernel_of_nonzero_term_free_symbol():
    z = SymbolOperator.zero(2, 2, 1, 1)
    assert joint_kernel(z).dim == 2
