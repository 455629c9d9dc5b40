"""Exact linear algebra: kernels, solving, canonical subspaces."""

from fractions import Fraction as F

import pytest

from symlab.exact import (
    QMatrix,
    column_space,
    kernel_basis,
    solve_exact,
    subspace_from_columns,
    subspace_intersection,
)


def cols(s):
    return [tuple(c) for c in s.columns()]


def test_kernel_one_equation_canonical():
    k = kernel_basis(QMatrix.from_rows([[1, 1]]))
    assert cols(k) == [(F(1), F(-1))]


def test_kernel_identity_trivial():
    assert kernel_basis(QMatrix.identity(3)).dim == 0


def test_kernel_of_degenerate_direction():
    # The 2x2 symbol [[x1, -x2], [x2, -x1]] at the diagonal direction.
    m = QMatrix.from_rows([[1, -1], [1, -1]])
    k = kernel_basis(m)
    assert cols(k) == [(F(1), F(1))]


def test_kernel_row_equivalence_invariance():
    m = QMatrix.from_rows([[1, 2, 3], [2, 4, 7]])
    # Left-multiplying by an invertible matrix keeps the kernel.
    g = QMatrix.from_rows([[3, 1], [5, 2]])
    assert kernel_basis(m) == kernel_basis(g @ m)


def test_solve_identity_returns_rhs():
    b = QMatrix.column([3, F(1, 2), -2])
    assert solve_exact(QMatrix.identity(3), b) == b


def test_solve_inconsistent_none():
    assert solve_exact(QMatrix.from_rows([[1], [1]]), QMatrix.column([1, 2])) is None


def test_solve_gradient_direction():
    # Symbol of the gradient at (1, 0): solve A x = (1, 0).
    a = QMatrix.from_rows([[1], [0]])
    x = solve_exact(a, QMatrix.column([1, 0]))
    assert x == QMatrix.column([1])


def test_intersection_coordinate_planes():
    e12 = subspace_from_columns(3, [(1, 0, 0), (0, 1, 0)])
    e23 = subspace_from_columns(3, [(0, 1, 0), (0, 0, 1)])
    assert cols(subspace_intersection(e12, e23)) == [(F(0), F(1), F(0))]


def test_intersection_idempotent():
    s = subspace_from_columns(4, [(1, 2, 3, 4), (0, 1, 0, 2)])
    assert subspace_intersection(s, s) == s


def test_intersection_gradient_images_trivial():
    im1 = column_space(QMatrix.from_rows([[1], [0]]))
    im2 = column_space(QMatrix.from_rows([[0], [1]]))
    assert subspace_intersection(im1, im2).dim == 0


def test_intersection_ambient_mismatch():
    s1 = subspace_from_columns(2, [(1, 0)])
    s2 = subspace_from_columns(3, [(1, 0, 0)])
    with pytest.raises(ValueError):
        subspace_intersection(s1, s2)


def test_canonical_form_unique_for_equal_spans():
    s1 = subspace_from_columns(3, [(1, 1, 0), (0, 1, 1)])
    s2 = subspace_from_columns(3, [(2, 2, 0), (1, 2, 1), (1, 0, -1)])
    assert s1 == s2
    # Leading entries are 1 in increasing row positions.
    lead_rows = []
    for c in s1.columns():
        nz = [i for i, x in enumerate(c) if x != 0]
        assert c[nz[0]] == 1
        lead_rows.append(nz[0])
    assert lead_rows == sorted(lead_rows)


def test_rank_scale_invariance():
    m = QMatrix.from_rows([[1, 2], [2, 4], [3, 5]])
    assert m.rank() == m.scale(F(-7, 3)).rank() == 2


def test_subspace_contains():
    s = subspace_from_columns(3, [(1, 0, 0), (1, 1, 0)])
    assert s.dim == 2
    assert s.contains((5, -3, 0))
    assert not s.contains((0, 0, 1))


def test_product_matches_explicit_sum():
    # Zero rows, zero columns, scattered zero entries and 0-column shapes.
    a = QMatrix.from_rows([[0, 0, 0], [F(1, 2), 0, -3], [0, 0, 2], [4, 0, 0]])
    b = QMatrix.from_rows([[1, 0, F(2, 3), 0], [5, 7, 0, 1], [0, 0, -1, 0]])
    pairs = [
        (a, b),
        (b, a),
        (a, QMatrix.zeros(3, 0)),
        (QMatrix.zeros(2, 0), QMatrix.zeros(0, 3)),
        (QMatrix.zeros(0, 3), b),
        (QMatrix.zeros(2, 3), b),
        (QMatrix.identity(3), b),
    ]
    for x, y in pairs:
        expected = [[sum((x[i, k] * y[k, j] for k in range(x.cols)), F(0))
                     for j in range(y.cols)] for i in range(x.rows)]
        got = x @ y
        assert (got.rows, got.cols) == (x.rows, y.cols)
        assert [list(r) for r in got.entries] == expected
        assert all(type(c) is F for r in got.entries for c in r)
    with pytest.raises(ValueError):
        a @ a


def test_inverse_round_trip():
    m = QMatrix.from_rows([[2, 1], [7, 4]])
    assert m.inverse() @ m == QMatrix.identity(2)
    with pytest.raises(ValueError):
        QMatrix.from_rows([[1, 2], [2, 4]]).inverse()
