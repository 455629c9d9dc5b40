"""Annihilator construction and verification."""

import hashlib
import json
import time

import pytest

from symlab.catalog import (
    codifferential,
    exterior_derivative,
    gradient,
    hodge_pair,
    hyperbolic_example,
    laplacian,
    quaternion,
    regression_instances,
    saint_venant,
    split_laplacian,
    sym_gradient,
)
from symlab.cli import main
from symlab import compat
from symlab.compat import build_annihilator, verify_annihilator
from symlab.deciders import (
    COCANCELING,
    check_canceling,
    check_cocanceling,
    image_intersection,
)
from symlab.exact import (
    Polynomial,
    QMatrix,
    SymbolOperator,
    kernel_basis,
    multi_indices,
    subspace_from_columns,
)
from symlab.exact import matrix
from test_exact_symbol import coefficients, ref_evaluate


def elliptic_instances():
    return [r for r in regression_instances() if r.truth.get("elliptic")]


def test_gradient_annihilator_matches_hand_expansion():
    # L(x) = (x_2, -x_1): the planar curl, of degree 1.
    res = build_annihilator(gradient(2).operator)
    assert coefficients(res.operator) == {((0, 1), 0, 0): 1, ((1, 0), 0, 1): -1}
    assert res.operator.order == 1
    report = verify_annihilator(gradient(2).operator, res.operator)
    assert report.identity_ok and report.kernels_match


def test_sym_gradient_annihilator_is_saint_venant():
    # Degree 2 with the six Saint-Venant compatibility conditions, among them
    # x_1^2 e_00 + x_0^2 e_11 - 2 x_0 x_1 e_01 (codomain order 00, 01, 02, 11,
    # 12, 22).
    op = sym_gradient(3).operator
    l = build_annihilator(op).operator
    assert (l.order, l.dim_e) == (2, 6)
    row = SymbolOperator.from_entries(3, 6, 1, 2, {
        ((0, 2, 0), 0, 0): 1, ((2, 0, 0), 0, 3): 1, ((1, 1, 0), 0, 1): -2})
    assert all(p.is_zero() for col in op.columns() for p in row.apply(col))

    def flat(sym):
        """One coefficient vector per row, over every monomial of degree 2."""
        coeffs = coefficients(sym)
        return [[coeffs.get((alpha, i, j), 0)
                 for alpha in multi_indices(3, 2) for j in range(sym.dim_v)]
                for i in range(sym.dim_e)]

    rows = flat(l)
    assert QMatrix.from_rows(rows).rank() == QMatrix.from_rows(rows + flat(row)).rank() == 6


def test_annihilation_identity_across_elliptic_examples():
    for inst in (gradient(3), sym_gradient(2), quaternion(), hodge_pair(3, 2)):
        res = build_annihilator(inst.operator)
        report = verify_annihilator(inst.operator, res.operator)
        assert report.identity_ok and report.kernels_match
        assert not res.operator.is_zero() and 1 <= res.operator.order <= 2


def test_compat_gate_on_elliptic_instances():
    for inst in elliptic_instances() + [hodge_pair(5, 1), split_laplacian(4, 1)]:
        l = build_annihilator(inst.operator).operator
        report = verify_annihilator(inst.operator, l)
        assert report.identity_ok and report.kernels_match and report.ranks_full, inst.name


def test_hyperbolic_annihilator_is_zero_with_kernel_mismatch():
    # A square symbol of full generic rank has the zero annihilator, and the
    # kernel samples at the degenerate diagonal directions expose that its
    # kernels are too large.
    op = hyperbolic_example().operator
    res = build_annihilator(op)
    assert res.operator.is_zero()
    report = verify_annihilator(op, res.operator)
    assert report.identity_ok and not report.kernels_match
    failing = [xi for xi, ok in report.kernel_checks if not ok]
    assert any(abs(xi[0]) == abs(xi[1]) for xi in failing)


def test_laplacian_annihilator_zero_and_not_cocanceling():
    res = build_annihilator(laplacian(2).operator)
    assert res.operator.is_zero()
    assert check_cocanceling(res.operator).status != COCANCELING


def test_verify_annihilator_rejects_zero_for_canceling_operator():
    # The zero symbol annihilates everything but its kernels are everything,
    # so the kernel comparison must fail wherever images are proper.
    op = gradient(2).operator
    zero = SymbolOperator.zero(2, 2, 2, 2)
    report = verify_annihilator(op, zero)
    assert report.identity_ok
    assert not report.kernels_match


def test_verify_annihilator_full_pass_on_construction():
    op = sym_gradient(2).operator
    res = build_annihilator(op)
    report = verify_annihilator(op, res.operator)
    assert report.identity_ok and report.kernels_match and report.ranks_full


def perturbed_sym_gradient_annihilator():
    # One coefficient of L moved by 1 adds x^alpha times row 0 of A to row 0
    # of L(x) A(x), which is then no longer zero.
    l = build_annihilator(sym_gradient(2).operator).operator
    coeffs = coefficients(l)
    key = (l.terms[0][0], 0, 0)
    coeffs[key] = coeffs.get(key, 0) + 1
    return SymbolOperator.from_entries(l.n, l.dim_v, l.dim_e, l.order, coeffs)


def test_verify_annihilator_rejects_perturbed_identity():
    op = sym_gradient(2).operator
    report = verify_annihilator(op, perturbed_sym_gradient_annihilator())
    assert report.identity_ok is False and not report.kernels_match
    assert verify_annihilator(op, build_annihilator(op).operator).identity_ok is True


def test_rank_counts_match_subspace_comparison():
    # With L A = 0 exact, the rank count must give the verdict of comparing
    # the canonical subspaces ker L(xi) and A(xi)[V]; without it every
    # kernel check reads False.
    cases = [(inst.operator, build_annihilator(inst.operator).operator)
             for inst in regression_instances()]
    cases += [(gradient(2).operator, SymbolOperator.zero(2, 2, 2, 2)),
              (sym_gradient(2).operator, perturbed_sym_gradient_annihilator())]
    for a, l in cases:
        report = verify_annihilator(a, l)
        for (xi, ker_ok), (_xi, rank_ok) in zip(report.kernel_checks, report.rank_checks):
            image = subspace_from_columns(a.dim_e, zip(*ref_evaluate(a, xi)))
            kernel = kernel_basis(QMatrix.from_rows(ref_evaluate(l, xi)))
            assert ker_ok == (report.identity_ok and kernel == image)
            assert rank_ok == (image.dim == a.dim_v)
    assert not report.identity_ok  # the last case takes the failed-identity branch


def test_annihilator_cocancellation_tracks_cancellation():
    # The paper's criterion: L cocanceling iff A canceling, on every
    # elliptic regression instance.
    for inst in elliptic_instances():
        res = build_annihilator(inst.operator)
        cv = check_canceling(inst.operator, seed=3)
        assert (cv.status == "CANCELING") == inst.truth["canceling"], inst.name
        assert (check_cocanceling(res.operator).status == COCANCELING) == (
            cv.status == "CANCELING"
        ), inst.name


def test_compat_on_saint_venant_3_exits_0(tmp_path):
    # Its adjugate annihilator would have degree 2 * 2 * 6 = 24 in 81 x 81
    # entries; the least-degree one has degree 1.
    out = tmp_path / "compat.json"
    assert main(["compat", "catalog:saint_venant?n=3", "--json", str(out)]) == 0
    transcript = json.loads(out.read_text())["transcript"]
    assert transcript["identity_ok"] and transcript["kernels_match"]
    assert transcript["order"] == 1 and transcript["rows"] > 0


def test_hodge_remark_annihilator():
    # For the paired derivative/codifferential symbol on 2-forms over R^4,
    # the block operator (q^(m-1) down-up on the top component, q^(m-1)
    # up-down on the bottom one) with q = |x|^2 annihilates it, where m is
    # the codomain dimension 4 + 4.
    n, ell = 4, 2
    a = hodge_pair(n, ell).operator  # 6 -> 8

    xs = [Polynomial.variable(n, i) for i in range(n)]
    q = sum((x * x for x in xs[1:]), xs[0] * xs[0])

    du3 = exterior_derivative(n, ell + 1)  # 3-forms -> 4-forms
    co4 = codifferential(n, ell + 2)       # 4-forms -> 3-forms
    co1 = codifferential(n, ell - 1)       # 1-forms -> 0-forms
    du0 = exterior_derivative(n, ell - 2)  # 0-forms -> 1-forms
    # The bare block operator: co4 du3 on the 3-form part of each column of
    # A (its first 4 entries), du0 co1 on the 1-form part (the last 4).
    for col in a.columns():
        assert all(p.is_zero() for p in co4.apply(du3.apply(col[:4])))
        assert all(p.is_zero() for p in du0.apply(co1.apply(col[4:])))
    top = [co4.apply(col) for col in du3.columns()]     # 4 x 4, degree 2
    bottom = [du0.apply(col) for col in co1.columns()]  # 4 x 4, degree 2
    # The full remark operator carries the q^(m-1) factor; scaling by a
    # polynomial preserves annihilation, and the result is homogeneous of
    # degree 2(m - 1) + 2.
    m = 8
    scaled = [q.pow(m - 1) * p for block in (top, bottom) for col in block for p in col]
    assert all(p.is_homogeneous(2 * (m - 1) + 2) for p in scaled)
    assert any(not p.is_zero() for p in scaled)


def test_questions_at_xi_build_no_fraction_rows(monkeypatch):
    # Ranks, images and kernels at xi read the integer rows of the symbol
    # and of its multiplication matrix: with the Fraction-to-integer row
    # conversion disabled, building and verifying the annihilator and
    # intersecting the images still succeed.
    def refuse(row):
        raise AssertionError("a Fraction row entered the elimination")

    a = sym_gradient(4).operator
    monkeypatch.setattr(matrix, "_int_row", refuse)
    with pytest.raises(AssertionError):  # the Fraction path goes through it
        kernel_basis(QMatrix.from_rows(ref_evaluate(a, [1] * a.n)))
    l = build_annihilator(a).operator
    report = verify_annihilator(a, l)
    assert report.identity_ok and report.kernels_match and report.ranks_full
    assert image_intersection(a).status == "CANCELING"


def test_system_budget_admits_saint_venant_5_and_every_regression_instance(monkeypatch):
    # saint_venant(5) stops at degree 1, on a 525 x 3,125 system.
    sv5 = saint_venant(5).operator
    compat._check_size(sv5, 0)
    compat._check_size(sv5, 1)
    with pytest.raises(compat.AnnihilatorBudgetError, match="degree-2"):
        compat._check_size(sv5, 2)
    monkeypatch.setattr(compat, "MAX_SYSTEM_ENTRIES", 14_580)
    for inst in regression_instances():
        build_annihilator(inst.operator)


def test_oversize_compat_exits_3_before_building(tmp_path, capsys):
    # saint_venant(9) has dim E = 6,561: its degree-0 system (2,025 x 6,561)
    # is refused before the ranks or any row is built.
    out = tmp_path / "compat.json"
    start = time.perf_counter()
    assert main(["compat", "catalog:saint_venant?n=9", "--json", str(out)]) == 3
    assert time.perf_counter() - start < 30.0
    err = capsys.readouterr().err
    assert "2,025 x 6,561" in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


# sha256 of the compat JSON, with L and the input digest written in operator
# schema 2 (nonzero entries only).
COMPAT_PINS = {
    "catalog:sym_gradient?n=4": "02ff7e4a901bbc38",
    "catalog:hodge_pair?n=4&ell=1": "23459b57baf97951",
    "catalog:split_laplacian?n=3&ell=1": "5893daff7e185f3b",
    "catalog:saint_venant?n=3": "9433b06d6a82c7a9",
}


@pytest.mark.parametrize("uri", sorted(COMPAT_PINS))
def test_compat_json_matches_its_pin(tmp_path, uri):
    out = tmp_path / "compat.json"
    assert main(["compat", uri, "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == COMPAT_PINS[uri]
