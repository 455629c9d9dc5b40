"""Catalog constructors, the sign rules of d and delta, validation, ground truth."""

from collections import Counter
from fractions import Fraction as F
from math import comb

import pytest

from symlab.catalog import (
    FormIndexing,
    catalog_get,
    catalog_names,
    codifferential,
    defigueiredo,
    exterior_derivative,
    gradient,
    hodge_pair,
    lstar_bound_records,
    quadratic_collection,
    quaternion,
    regression_instances,
    saint_venant_k,
    sym_gradient_sk,
)
from symlab.deciders import check_canceling, check_ellipticity
from symlab.exact import PolyMatrix, Polynomial
from test_exact_symbol import ref_evaluate, ref_times


def symbol_entries(op, sign=1):
    """The nonzero coefficients of a symbol times ``sign``, keyed (alpha, row, col)."""
    return {(alpha, i, j): sign * F(x, op.den)
            for alpha, rows in op.terms for i, row in enumerate(rows) for j, x in row}


def test_wedge_sign_entries():
    # 1-forms of R^3 are (e1, e2, e3) and 2-forms (e12, e13, e23).
    d = symbol_entries(exterior_derivative(3, 1))
    assert d[(0, 1, 0), 0, 0] == -1  # xi = e2 on e1: e2 wedge e1 = -e12
    assert d[(1, 0, 0), 0, 1] == 1   # xi = e1 on e2: e1 wedge e2 = e12
    assert ((1, 0, 0), 0, 0) not in d  # e1 wedge e1 = 0


def test_d_and_delta_square_to_zero():
    for n in range(1, 7):
        for ell in range(n - 1):
            assert exterior_derivative(n, ell + 1).compose(exterior_derivative(n, ell)).is_zero()
            assert codifferential(n, ell + 1).compose(codifferential(n, ell + 2)).is_zero()


def test_cartan_identity():
    # With iota = (-1)^(n(ell+1)) delta on ell-forms, the interior product
    # by xi, d iota + iota d = |xi|^2 I on ell-forms at every degree.
    for n in range(1, 7):
        for ell in range(n + 1):
            total = Counter()
            if ell >= 1:
                d_delta = exterior_derivative(n, ell - 1).compose(codifferential(n, ell))
                total.update(symbol_entries(d_delta, (-1) ** (n * (ell + 1))))
            if ell <= n - 1:
                delta_d = codifferential(n, ell + 1).compose(exterior_derivative(n, ell))
                total.update(symbol_entries(delta_d, (-1) ** (n * (ell + 2))))
            assert {k: x for k, x in total.items() if x} == {
                (tuple(2 * (j == i) for j in range(n)), r, r): 1
                for i in range(n) for r in range(comb(n, ell))}, (n, ell)


def norm_squared_identity(n, size):
    """|x|^2 times the size x size identity, in n variables."""
    q = Polynomial.make(n, {tuple(2 if i == j else 0 for i in range(n)): F(1) for j in range(n)})
    z = Polynomial.zero(n)
    return PolyMatrix.from_rows(n, [[q if i == j else z for j in range(size)]
                                    for i in range(size)])


def test_hodge_pair_gram_is_scalar():
    # The two components' squared lengths add up to |xi|^2 |v|^2.
    op = hodge_pair(4, 2).operator
    assert op.gram() == norm_squared_identity(4, op.dim_v)


def test_hodge_pair_dimensions():
    op = hodge_pair(4, 2).operator
    assert (op.dim_v, op.dim_e) == (6, 8)


def test_gradient_r1_is_scalar_multiplication():
    op = gradient(1).operator
    assert op.dim_v == op.dim_e == 1 and op.order == 1
    assert ref_evaluate(op, [F(7)]) == [[7]]


def test_defigueiredo_row_count_and_validation():
    inst = defigueiredo(2, 2)
    assert inst.operator.dim_e == 3
    with pytest.raises(ValueError):
        defigueiredo(2, 2, etas=[(1, 0), (2, 0), (3, 0)])  # collinear directions
    with pytest.raises(ValueError):
        defigueiredo(2, 2, ws=[(1, 1), (2, 2), (1, 0)])  # dependent pair


def test_quadratic_collection_validation():
    with pytest.raises(ValueError):
        quadratic_collection(2, 2)  # default needs m + 1 <= n
    with pytest.raises(ValueError):
        quadratic_collection(2, 1, xis=[(1, 0), (F(1, 2), 0)])  # not unit
    with pytest.raises(ValueError):
        quadratic_collection(2, 1, xis=[(1, 0), (-1, 0)])  # parallel lines
    # Rational non-axis unit vectors are accepted.
    inst = quadratic_collection(2, 1, xis=[(1, 0), (F(3, 5), F(4, 5))])
    assert check_ellipticity(inst.operator).status == "ELLIPTIC"


def test_quaternion_multiplication_table():
    op = quaternion().operator
    # (1 + i + j + k) times j = j + ij + j^2 + kj = -1 - i + j + k.
    out = ref_times(ref_evaluate(op, [1, 1, 1, 1]), [0, 1, 0])
    assert out == [F(-1), F(-1), F(1), F(1)]
    assert op.gram() == norm_squared_identity(4, 3)


def test_sym_gradient_sk_counts():
    op = sym_gradient_sk(2, 2).operator
    assert (op.dim_v, op.dim_e) == (3, 4)


def test_saint_venant_k_zero_on_line():
    assert saint_venant_k(1, 3).operator.is_zero()


def test_form_indexing_counts():
    fi = FormIndexing(5, 2)
    assert fi.dim == 10 and len(fi.subsets()) == 10
    with pytest.raises(ValueError):
        FormIndexing(3, 4)


def test_catalog_get_and_names():
    assert "gradient" in catalog_names()
    inst = catalog_get("gradient", n=2)
    assert inst.operator.dim_e == 2
    with pytest.raises(KeyError):
        catalog_get("nope")


def test_dimension_bound_audit_first_order():
    # Every injective first-order entry with trivial common image satisfies
    # dim E > dim V and dim E >= n.
    for inst in regression_instances():
        if inst.role != "operator" or inst.operator.order != 1:
            continue
        if not (inst.truth.get("elliptic") and inst.truth.get("canceling")):
            continue
        op = inst.operator
        assert op.dim_e > op.dim_v, inst.name
        assert op.dim_e >= op.n, inst.name


def test_quaternion_attains_lower_bound():
    rec = next(r for r in lstar_bound_records() if r.get("witness") == "quaternion")
    op = quaternion().operator
    assert rec["value"] == op.dim_e == max(op.n, op.dim_v + 1)
    assert any(not r["verified"] for r in lstar_bound_records())


def test_regression_instances_cover_table():
    names = {inst.name for inst in regression_instances()}
    assert len(names) >= 16
