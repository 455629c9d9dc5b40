"""Exact linear algebra: kernels, ranks, inverses, canonical subspaces.

A matrix is the list of its rows; an empty list of rows is given with its
column count."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlab.exact import (
    full_space,
    inverse,
    kernel_basis,
    subspace_from_columns,
    subspace_intersection,
)
from symlab.exact.matrix import _int_row, _span, int_pivots


def cols(s):
    return [tuple(c) for c in s.columns()]


def column_space(a):
    return subspace_from_columns(len(a), zip(*a))


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def ref_product(a, b):
    """a b summed entry by entry in Fraction arithmetic; b has rows."""
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)] for row in a]


def pivots(a, ncols):
    """The pivot columns of rational rows, each scaled to integers."""
    return int_pivots(map(_int_row, a), ncols)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_full_space_is_the_span_of_the_identity(n):
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert full_space(n) == _span(n, identity)
    assert full_space(n).dim == n


def test_kernel_one_equation_canonical():
    k = kernel_basis([[1, 1]], 2)
    assert cols(k) == [(F(1), F(-1))]


def test_kernel_identity_trivial():
    assert kernel_basis(identity(3), 3).dim == 0


def test_kernel_of_degenerate_direction():
    # The 2x2 symbol [[x1, -x2], [x2, -x1]] at the diagonal direction.
    k = kernel_basis([[1, -1], [1, -1]], 2)
    assert cols(k) == [(F(1), F(1))]


def test_kernel_row_equivalence_invariance():
    m = [[1, 2, 3], [2, 4, 7]]
    # Left-multiplying by an invertible matrix keeps the kernel.
    g = [[3, 1], [5, 2]]
    assert kernel_basis(m, 3) == kernel_basis(ref_product(g, m), 3)


def test_intersection_coordinate_planes():
    e12 = subspace_from_columns(3, [(1, 0, 0), (0, 1, 0)])
    e23 = subspace_from_columns(3, [(0, 1, 0), (0, 0, 1)])
    assert cols(subspace_intersection(e12, e23)) == [(F(0), F(1), F(0))]


def test_intersection_idempotent():
    s = subspace_from_columns(4, [(1, 2, 3, 4), (0, 1, 0, 2)])
    assert subspace_intersection(s, s) == s


def test_intersection_gradient_images_trivial():
    im1 = column_space([[1], [0]])
    im2 = column_space([[0], [1]])
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
    # Leading entries are 1 in increasing row positions, and zero in the
    # other columns.
    lead_rows = []
    for c in s1.columns():
        nz = [i for i, x in enumerate(c) if x != 0]
        assert c[nz[0]] == 1
        lead_rows.append(nz[0])
    assert lead_rows == sorted(lead_rows)
    for j, i in enumerate(lead_rows):
        assert all(c[i] == 0 for k, c in enumerate(s1.columns()) if k != j)


def test_rank_scale_invariance():
    m = [[1, 2], [2, 4], [3, 5]]
    scaled = [[F(-7, 3) * x for x in r] for r in m]
    assert pivots(m, 2) == pivots(scaled, 2) == (0, 1)
    assert kernel_basis(m, 2) == kernel_basis(scaled, 2) == kernel_basis(identity(2), 2)


def test_subspace_contains():
    s = subspace_from_columns(3, [(1, 0, 0), (1, 1, 0)])
    assert s.dim == 2
    assert s.contains((5, -3, 0))
    assert not s.contains((0, 0, 1))


def test_inverse_round_trip():
    for m in ([[2, 1], [7, 4]], [[F(1, 2), 1], [0, F(-1, 3)]]):
        assert ref_product(inverse(m), m) == identity(2)
        assert all(type(x) is F for r in inverse(m) for x in r)
    assert inverse([]) == []
    for bad in ([[1, 2], [2, 4]], [[1, 2]], [[1], [2]]):
        with pytest.raises(ValueError):
            inverse(bad)


# Reference: Gauss-Jordan on Fraction entries, the textbook algorithm the
# integer elimination must reproduce exactly.

def ref_rref(a, ncols):
    a = [list(r) for r in a]
    pivots, prow = [], 0
    for col in range(ncols):
        sel = next((i for i in range(prow, len(a)) if a[i][col] != 0), None)
        if sel is None:
            continue
        a[prow], a[sel] = a[sel], a[prow]
        a[prow] = [x / a[prow][col] for x in a[prow]]
        for i in range(len(a)):
            if i != prow and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[prow])]
        pivots.append(col)
        prow += 1
    return a, pivots


def ref_kernel_columns(a, ncols):
    """Reduced column echelon basis of ker a, from the reference RREF."""
    red, pivots = ref_rref(a, ncols)
    gens = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        gens.append(v)
    red, pivots = ref_rref(gens, ncols)
    return [tuple(red[i]) for i in range(len(pivots))]


ENTRY = st.one_of(
    st.just(F(0)),
    st.integers(-9, 9).map(F),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
)


@st.composite
def rational_matrices(draw, max_side=7, rows=None):
    """(rows, column count) of a rational matrix."""
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
    return [tuple(r) for r in a], cols


@settings(max_examples=100, deadline=None)
@given(m=rational_matrices())
def test_pivots_rank_kernel_match_fraction_reference(m):
    a, ncols = m
    _ref_red, ref_pivots = ref_rref(a, ncols)
    assert list(pivots(a, ncols)) == ref_pivots
    k = kernel_basis(a, ncols)
    assert k.ambient == ncols and k.dim == ncols - len(ref_pivots)
    assert cols(k) == ref_kernel_columns(a, ncols)
    assert all(sum(x * y for x, y in zip(r, c)) == 0 for r in a for c in k.columns())


@settings(max_examples=60, deadline=None)
@given(m=rational_matrices(max_side=5))
def test_inverse_and_solve_match_rank(m):
    a, ncols = m
    k = min(len(a), ncols)
    sq = [r[:k] for r in a[:k]]
    if len(ref_rref(sq, k)[1]) == k:
        assert ref_product(inverse(sq), sq) == identity(k)
    else:
        with pytest.raises(ValueError):
            inverse(sq)
    # a x = (column 0 of a) is solvable: the column space contains it.
    if ncols:
        assert column_space(a).contains([r[0] for r in a])


@settings(max_examples=60, deadline=None)
@given(m=rational_matrices(max_side=5), data=st.data())
def test_intersection_dimension_formula(m, data):
    b, _ncols = data.draw(rational_matrices(max_side=5, rows=len(m[0])))
    s, t = column_space(m[0]), column_space(b)
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
    a, ncols = m
    gens = [list(r) for r in a]
    s = subspace_from_columns(ncols, gens)
    scales = [data.draw(ENTRY.filter(bool)) for _ in gens]
    moved = [[c * x for x in g] for c, g in zip(scales, gens)]
    moved += [g for g, dup in zip(gens, data.draw(st.lists(st.booleans(), min_size=len(gens),
                                                           max_size=len(gens)))) if dup]
    moved = data.draw(st.permutations(moved))
    t = subspace_from_columns(ncols, moved)
    assert s == t and hash(s) == hash(t)
    # Primitive integer rows with positive pivots, in RREF.
    ref_red, ref_pivots = ref_rref(a, ncols)
    pivot_cols = [next(j for j, x in enumerate(r) if x) for r in s.rows]
    assert pivot_cols == ref_pivots and len(pivot_cols) == s.dim
    for r, p in zip(s.rows, pivot_cols):
        assert all(type(x) is int for x in r) and r[p] > 0 and math.gcd(*r) == 1
        assert all(other[p] == 0 for other in s.rows if other is not r)
    # The columns are the reference RREF rows: reduced column echelon form.
    assert cols(s) == [tuple(r) for r in ref_red[:s.dim]]


@settings(max_examples=100, deadline=None)
@given(m=rational_matrices(max_side=5), data=st.data())
def test_contains_matches_rank_reference(m, data):
    a, ncols = m
    s = column_space(a)
    v = data.draw(st.one_of(
        st.lists(ENTRY, min_size=len(a), max_size=len(a)),
        # a combination of the columns, which s contains
        st.lists(ENTRY, min_size=ncols, max_size=ncols).map(
            lambda c: [sum((x * y for x, y in zip(r, c)), F(0)) for r in a]),
    ))
    gens = [list(c) for c in zip(*a)]
    rank = len(ref_rref(gens, len(a))[1])
    with_v = len(ref_rref(gens + [v], len(a))[1])
    assert s.contains(v) == (with_v == rank)
