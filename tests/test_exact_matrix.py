"""Exact linear algebra: kernels, ranks, canonical subspaces."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlab.exact import (
    QMatrix,
    full_space,
    kernel_basis,
    subspace_from_columns,
    subspace_intersection,
)
from symlab.exact.matrix import _span


def cols(s):
    return [tuple(c) for c in s.columns()]


def column_space(m):
    return subspace_from_columns(m.rows, zip(*m.entries))


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_full_space_is_the_span_of_the_identity(n):
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert full_space(n) == _span(n, identity)
    assert full_space(n).dim == n


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
    scaled = QMatrix.from_rows([[F(-7, 3) * x for x in r] for r in m.entries])
    assert m.rank() == scaled.rank() == 2


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
    for m in (QMatrix.from_rows([[2, 1], [7, 4]]),
              QMatrix.from_rows([[F(1, 2), 1], [0, F(-1, 3)]])):
        assert m.inverse() @ m == QMatrix.identity(2)
    with pytest.raises(ValueError):
        QMatrix.from_rows([[1, 2], [2, 4]]).inverse()


# Reference: Gauss-Jordan on Fraction entries, the textbook algorithm the
# integer elimination must reproduce exactly.

def ref_rref(m):
    a = [list(r) for r in m.entries]
    pivots, prow = [], 0
    for col in range(m.cols):
        sel = next((i for i in range(prow, m.rows) if a[i][col] != 0), None)
        if sel is None:
            continue
        a[prow], a[sel] = a[sel], a[prow]
        a[prow] = [x / a[prow][col] for x in a[prow]]
        for i in range(m.rows):
            if i != prow and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[prow])]
        pivots.append(col)
        prow += 1
    return a, pivots


def ref_kernel_columns(m):
    """Reduced column echelon basis of ker m, from the reference RREF."""
    red, pivots = ref_rref(m)
    gens = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [F(0)] * m.cols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        gens.append(v)
    if not gens:
        return []
    g = QMatrix.from_rows(gens)
    red, pivots = ref_rref(g)
    return [tuple(red[i]) for i in range(len(pivots))]


ENTRY = st.one_of(
    st.just(F(0)),
    st.integers(-9, 9).map(F),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
)


@st.composite
def rational_matrices(draw, max_side=7, rows=None):
    if rows is None:
        rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    a = [[draw(ENTRY) for _ in range(cols)] for _ in range(rows)]
    # Dependent rows, zero rows and zero columns.
    if rows >= 3 and draw(st.booleans()):
        c = draw(ENTRY)
        a[-1] = [c * x + y for x, y in zip(a[0], a[1])]
    for i in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2)):
        if i < rows:
            a[i] = [F(0)] * cols
    for j in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2)):
        for r in a:
            if j < cols:
                r[j] = F(0)
    return QMatrix(rows, cols, tuple(map(tuple, a)))


@settings(max_examples=100, deadline=None)
@given(m=rational_matrices())
def test_pivots_rank_kernel_match_fraction_reference(m):
    _ref_red, ref_pivots = ref_rref(m)
    assert list(m.pivots()) == ref_pivots
    assert m.rank() == len(ref_pivots)
    k = kernel_basis(m)
    assert k.ambient == m.cols and k.dim == m.cols - m.rank()
    assert cols(k) == ref_kernel_columns(m)
    assert (m @ k.basis).is_zero()


@settings(max_examples=60, deadline=None)
@given(m=rational_matrices(max_side=5))
def test_inverse_and_solve_match_rank(m):
    k = min(m.rows, m.cols)
    sq = QMatrix(k, k, tuple(r[:k] for r in m.entries[:k]))
    if sq.rank() == k:
        assert sq.inverse() @ sq == QMatrix.identity(k)
    else:
        with pytest.raises(ValueError):
            sq.inverse()
    # m x = (column 0 of m) is solvable: the column space contains it.
    if m.cols:
        assert column_space(m).contains(m.col(0))


@settings(max_examples=60, deadline=None)
@given(m=rational_matrices(max_side=5), data=st.data())
def test_intersection_dimension_formula(m, data):
    n = data.draw(rational_matrices(max_side=5, rows=m.rows))
    s, t = column_space(m), column_space(n)
    both = subspace_intersection(s, t)
    total = subspace_from_columns(s.ambient, s.columns() + t.columns())
    assert both.dim == s.dim + t.dim - total.dim
    assert all(s.contains(v) and t.contains(v) for v in both.columns())


@settings(max_examples=100, deadline=None)
@given(m=rational_matrices(max_side=5), data=st.data())
def test_subspace_form_ignores_how_generators_are_given(m, data):
    # The rows of m generate s; scaling by nonzero rationals, negating,
    # permuting and duplicating them changes neither the subspace nor its
    # hash.
    gens = [list(r) for r in m.entries]
    s = subspace_from_columns(m.cols, gens)
    scales = [data.draw(ENTRY.filter(bool)) for _ in gens]
    moved = [[c * x for x in g] for c, g in zip(scales, gens)]
    moved += [g for g, dup in zip(gens, data.draw(st.lists(st.booleans(), min_size=len(gens),
                                                           max_size=len(gens)))) if dup]
    moved = data.draw(st.permutations(moved))
    t = subspace_from_columns(m.cols, moved)
    assert s == t and hash(s) == hash(t)
    # Primitive integer rows with positive pivots, in RREF.
    pivots = [next(j for j, x in enumerate(r) if x) for r in s.rows]
    assert pivots == sorted(set(pivots)) and len(pivots) == s.dim == len(ref_rref(m)[1])
    for r, p in zip(s.rows, pivots):
        assert all(type(x) is int for x in r) and r[p] > 0 and math.gcd(*r) == 1
        assert all(other[p] == 0 for other in s.rows if other is not r)
    assert cols(s) == [tuple(r[:m.cols]) for r in ref_rref(m)[0][:s.dim]]


@settings(max_examples=100, deadline=None)
@given(m=rational_matrices(max_side=5), data=st.data())
def test_contains_matches_rank_reference(m, data):
    s = column_space(m)
    v = data.draw(st.one_of(
        st.lists(ENTRY, min_size=m.rows, max_size=m.rows),
        # a combination of the columns, which s contains
        st.lists(ENTRY, min_size=m.cols, max_size=m.cols).map(
            lambda c: [sum((x * y for x, y in zip(r, c)), F(0)) for r in m.entries]),
    ))
    gens = [list(c) for c in zip(*m.entries)]
    rank = len(ref_rref(QMatrix.from_rows(gens))[1]) if gens else 0
    with_v = len(ref_rref(QMatrix.from_rows(gens + [v]))[1])
    assert s.contains(v) == (with_v == rank)
