"""Symbol operators, gram matrices, polynomial-matrix determinants."""

import functools
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symlab.catalog import (
    divergence,
    exterior_d,
    gradient,
    hodge_pair,
    hyperbolic_example,
    laplacian,
    regression_instances,
    saint_venant,
    sym_gradient,
)
from symlab.compat import build_annihilator
from symlab.deciders import NOT_ELLIPTIC, EllipticityVerdict, verify_ellipticity
from symlab.exact import (
    Polynomial,
    PolyMatrix,
    SymbolOperator,
    kernel_basis,
    multi_indices,
    subspace_from_columns,
)
from symlab.exact import polymatrix
from symlab.exact.matrix import int_column_space, int_kernel, int_pivots
from symlab.io import operator_from_json, operator_to_json
from test_exact_matrix import ref_rref


def coefficients(op):
    """The symbol's nonzero coefficients, {(alpha, row, col): value}."""
    return {(alpha, i, j): F(x, op.den) for alpha, rows in op.terms
            for i, row in enumerate(rows) for j, x in row}


def ref_evaluate(op, xi):
    """A(xi) summed coefficient by coefficient in Fraction arithmetic."""
    acc = [[F(0)] * op.dim_v for _ in range(op.dim_e)]
    for (alpha, i, j), x in coefficients(op).items():
        for c, e in zip(xi, alpha):
            x *= F(c) ** e
        acc[i][j] += x
    return acc


def ref_gram(op, xi):
    """A(xi)^T A(xi), summed entry by entry in Fraction arithmetic."""
    a = ref_evaluate(op, xi)
    return [[sum((r[i] * r[j] for r in a), F(0)) for j in range(op.dim_v)]
            for i in range(op.dim_v)]


def ref_times(rows, v):
    """The matrix with these rows times the vector v."""
    return [sum((x * y for x, y in zip(r, v)), F(0)) for r in rows]


def ref_at(m, xi):
    """The polynomial matrix m, a Gram matrix for one, evaluated at xi."""
    return [[p.evaluate(xi) for p in row] for row in m.entries]


def test_gradient_evaluate():
    g = gradient(2).operator
    assert ref_evaluate(g, [2, 3]) == [[2], [3]]


def test_divergence_evaluate():
    d = divergence(2).operator
    assert ref_evaluate(d, [2, 3]) == [[2, 3]]


def test_evaluate_homogeneity():
    h = hyperbolic_example().operator
    for t in (F(2), F(-3, 7), F(5, 2)):
        xi = [F(1, 3), F(-2)]
        scaled = ref_evaluate(h, [t * x for x in xi])
        assert scaled == [[t**h.order * x for x in r] for r in ref_evaluate(h, xi)]


def test_saint_venant_displayed_entry():
    # At frequency (1, 0) applied to the (e2 tensor e2) form, the tensor
    # component (e2, e2, e1, e1) equals 1.
    w = saint_venant(2).operator
    mat = ref_evaluate(w, [1, 0])
    col = 0  # multiset {2, 2} is exponent (0, 2), first in graded-lex order
    row = 1 * 8 + 1 * 4 + 0 * 2 + 0  # tensor index (1, 1, 0, 0), row-major
    assert mat[row][col] == 1


def test_saint_venant_matches_quadruple_formula():
    # Independent oracle: evaluate the displayed 4-slot formula directly.
    w = saint_venant(2).operator
    xi = [F(2), F(-3)]
    mat = ref_evaluate(w, xi)
    pairs = [(0, 0), (0, 1), (1, 1)]  # graded-lex multisets (0,2),(1,1),(2,0) map
    sym = {(0, 2): (1, 1), (1, 1): (0, 1), (2, 0): (0, 0)}
    from symlab.exact.poly import multi_indices

    cols = multi_indices(2, 2)
    for col, beta in enumerate(cols):
        i, j = sym[beta]
        e = {(i, j): F(1), (j, i): F(1)} if i != j else {(i, i): F(1)}

        def e_val(a, b):
            return e.get((a, b), F(0))

        for u, v, ww, z in itertools.product(range(2), repeat=4):
            expected = (
                e_val(u, v) * xi[ww] * xi[z]
                + e_val(ww, z) * xi[u] * xi[v]
                - e_val(u, z) * xi[ww] * xi[v]
                - e_val(ww, v) * xi[u] * xi[z]
            )
            row = u * 8 + v * 4 + ww * 2 + z
            assert mat[row][col] == expected


def test_gram_gradient_and_hyperbolic_determinant():
    g = gradient(2).operator
    gram = g.gram()
    x1sq = Polynomial.make(2, {(2, 0): F(1), (0, 2): F(1)})
    assert gram.entries[0][0] == x1sq
    assert gram.det() == x1sq

    h = hyperbolic_example().operator
    det = h.gram().det()
    # Hand expansion: (x1^2 - x2^2)^2.
    expected = Polynomial.make(2, {(4, 0): F(1), (2, 2): F(-2), (0, 4): F(1)})
    assert det == expected
    assert det.evaluate([1, 1]) == 0 and det.evaluate([1, -1]) == 0


def test_diag_polymatrix_det():
    x0 = Polynomial.variable(2, 0)
    x1 = Polynomial.variable(2, 1)
    z = Polynomial.zero(2)
    m = PolyMatrix.from_rows(2, [[x0, z], [z, x1]])
    assert m.det() == x0 * x1


def exact_det(m) -> F:
    """det of the rational matrix with rows m by Gaussian elimination."""
    rows = [list(r) for r in m]
    det = F(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def test_gram_determinant_matches_evaluated_determinant():
    # det(G)(xi) == det(G(xi)) on every regression instance, including the
    # 1/2 and 1/3 entries of sym_gradient and sym_gradient_sk.
    rng = random.Random(11)
    for inst in regression_instances():
        gram = inst.operator.gram()
        det = gram.det()
        for _ in range(3):
            xi = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(inst.operator.n)]
            assert det.evaluate(xi) == exact_det(ref_at(gram, xi)), inst.name


RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# Entries in n = 1, 2, 3 variables: up to 3 terms with exponents 0..2.
ENTRIES = {n: st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), RATIONALS, max_size=3)
           for n in (1, 2, 3)}
POINTS = {n: st.lists(RATIONALS, min_size=n, max_size=n) for n in (1, 2, 3)}


@st.composite
def poly_matrices(draw):
    n, size = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rows = [[Polynomial.make(n, draw(ENTRIES[n])) for _ in range(size)] for _ in range(size)]
    return PolyMatrix.from_rows(n, rows)


@settings(max_examples=60, deadline=None)
@given(m=poly_matrices(), data=st.data())
def test_det_matches_evaluated_determinant(m, data):
    det = m.det()
    for _ in range(3):
        xi = data.draw(POINTS[m.n])
        assert det.evaluate(xi) == exact_det(ref_at(m, xi))


@settings(max_examples=40, deadline=None)
@given(m=poly_matrices(), data=st.data())
def test_adjugate_columns_give_det_times_unit_vectors(m, data):
    # M adj(M) e_i == det(M) e_i, evaluated at drawn points.
    det = m.det()
    i = data.draw(st.integers(0, m.rows - 1))
    w = m.adjugate_column(i)
    xi = data.draw(POINTS[m.n])
    mw = ref_times(ref_at(m, xi), [p.evaluate(xi) for p in w])
    assert mw == [det.evaluate(xi) * (r == i) for r in range(m.rows)]


def test_det_of_empty_matrix_and_zero_row():
    assert PolyMatrix.from_rows(3, []).det() == Polynomial.constant(3, 1)
    x0, x1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    z = Polynomial.zero(2)
    assert PolyMatrix.from_rows(2, [[x0, x1], [z, z]]).det() == z
    assert PolyMatrix.from_rows(2, [[z, z], [x0, x1]]).det() == z


def test_hodge_pair_5_2_gram_determinant_size():
    det = hodge_pair(5, 2).operator.gram().det()
    assert len(det.terms) == 1001 and det.degree() == 20 and det.is_homogeneous(20)


def test_det_budget_counts_coefficient_products(monkeypatch):
    # det(A^T A) of hodge_pair(5,2) takes exactly 10,010 coefficient products.
    gram = hodge_pair(5, 2).operator.gram()
    monkeypatch.setattr(polymatrix, "MAX_DET_PRODUCTS", 10_010)
    assert len(gram.det().terms) == 1001
    monkeypatch.setattr(polymatrix, "MAX_DET_PRODUCTS", 10_009)
    with pytest.raises(polymatrix.DetBudgetError, match="10,009 coefficient products"):
        gram.det()


def test_from_entries_builds_the_sparse_terms():
    # D = 2, the terms in graded-lex order, each of its dim E rows the
    # (column, numerator over D) pairs of its nonzero entries.
    entries = {((1, 0), 0, 1): F(1, 2), ((1, 0), 2, 0): -3, ((0, 1), 1, 1): 1,
               ((0, 1), 2, 1): 0}
    op = SymbolOperator.from_entries(2, 2, 3, 1, entries)
    assert op.den == 2
    assert op.terms == (((0, 1), ((), ((1, 2),), ())),
                        ((1, 0), (((1, 1),), (), ((0, -6),))))
    assert coefficients(op) == {k: F(x) for k, x in entries.items() if x}
    # Entries that are all zero leave no term.
    with pytest.raises(ValueError, match="all coefficient matrices are zero"):
        SymbolOperator.from_entries(2, 2, 3, 1, {((1, 0), 0, 0): 0})
    assert SymbolOperator.from_entries(2, 2, 3, 1, {((1, 0), 0, 0): 0}, allow_zero=True).is_zero()
    with pytest.raises(ValueError, match="does not have degree"):
        SymbolOperator.from_entries(2, 2, 3, 1, {((2, 0), 0, 0): 1})
    for i, j in ((3, 0), (0, 2), (-1, 0)):
        with pytest.raises(ValueError, match="outside"):
            SymbolOperator.from_entries(2, 2, 3, 1, {((1, 0), i, j): 1})


def test_gram_matches_product_at_sampled_points():
    # G(xi) == A(xi)^T A(xi) for every regression instance.
    rng = random.Random(7)
    for inst in regression_instances():
        op = inst.operator
        gram = op.gram()
        for _ in range(3):
            xi = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(op.n)]
            assert ref_at(gram, xi) == ref_gram(op, xi), inst.name


def test_multiplication_matrix_and_apply_agree_with_evaluation():
    # The matrix of u -> A u is multiplication_rows divided by D, the lcm of
    # the coefficient denominators: its column b * dimV + j is A(x) x^beta
    # e_j in coordinates of E[x]_(d+k); apply(u) evaluates to A(xi) u(xi).
    # sym_gradient(3) has entries 1/2, so D = 2 there.
    for op in (saint_venant(2).operator, sym_gradient(3).operator):
        n, d = op.n, 1
        den = math.lcm(*(x.denominator for x in coefficients(op).values()))
        rows = op.multiplication_rows(d)
        sources = multi_indices(n, d)
        targets = multi_indices(n, d + op.order)
        assert len(rows) == len(targets) * op.dim_e
        assert all(len(r) == len(sources) * op.dim_v for r in rows)
        coeffs = [F(c % 5 - 2, 1 + c % 3) for c in range(len(sources) * op.dim_v)]
        u = [Polynomial.make(n, {beta: coeffs[b * op.dim_v + j]
                                 for b, beta in enumerate(sources)})
             for j in range(op.dim_v)]
        image = [sum(x * c for x, c in zip(r, coeffs)) / den for r in rows]
        au = op.apply(u)
        for i in range(op.dim_e):
            expect = Polynomial.make(n, {gamma: image[g * op.dim_e + i]
                                         for g, gamma in enumerate(targets)})
            assert au[i] == expect
        xi = [F(3), F(-2, 5), F(7, 4)][:n]
        assert ref_times(ref_evaluate(op, xi), [q.evaluate(xi) for q in u]) == [
            q.evaluate(xi) for q in au]


def test_coefficient_round_trip():
    # The coefficients of each polynomial entry of the columns are the
    # symbol's entries.
    for inst in (gradient(2), hyperbolic_example(), saint_venant(2)):
        op = inst.operator
        back = {(alpha, i, j): c for j, col in enumerate(op.columns())
                for i, p in enumerate(col) for alpha, c in p.terms}
        assert back == coefficients(op)
        assert SymbolOperator.from_entries(op.n, op.dim_v, op.dim_e, op.order, back) == op


def test_zero_operator_rules():
    with pytest.raises(ValueError):
        SymbolOperator.from_entries(2, 1, 1, 1, {})
    z = SymbolOperator.zero(2, 3, 4, 2)
    assert z.is_zero() and z.den == 1
    assert z.scaled_rows([5, 7]) == [[0] * 3] * 4
    sv1 = saint_venant(1).operator
    assert sv1.is_zero()


def test_shape_validation():
    with pytest.raises(ValueError, match="outside"):
        SymbolOperator.from_entries(2, 1, 2, 1, {((1, 0), 0, 1): 1})
    with pytest.raises(ValueError, match="does not have degree"):
        SymbolOperator.from_entries(2, 1, 1, 2, {((1, 0), 0, 0): 1})
    with pytest.raises(ValueError, match="bad multi-index"):
        SymbolOperator.from_entries(2, 1, 1, 1, {((1,), 0, 0): 1})


COEFFS = st.one_of(
    st.just(F(0)),
    st.integers(-5, 5).map(F),
    st.fractions(min_value=-10**3, max_value=10**3, max_denominator=10**6),
)
# Non-integer rationals, with zero coordinates drawn often.
COORDS = st.one_of(st.just(F(0)), st.fractions(min_value=-50, max_value=50, max_denominator=97))


@st.composite
def operators(draw, n=None, dim_v=None, dim_e=None):
    n, dim_v, dim_e, order = (n or draw(st.integers(1, 3)), dim_v or draw(st.integers(1, 3)),
                              dim_e or draw(st.integers(1, 3)), draw(st.integers(0, 3)))
    alphas = draw(st.lists(st.sampled_from(multi_indices(n, order)), max_size=4, unique=True))
    entries = {(alpha, i, j): draw(COEFFS)
               for alpha in alphas for i in range(dim_e) for j in range(dim_v)}
    return SymbolOperator.from_entries(n, dim_v, dim_e, order, entries, allow_zero=True)


def value(op, xi):
    """A(xi) from ``scaled_rows``, divided by its own D q^order."""
    c = op.den * math.lcm(*(F(x).denominator for x in xi)) ** op.order
    return [[F(x, c) for x in r] for r in op.scaled_rows(xi)]


@settings(max_examples=80, deadline=None)
@given(op=operators(), data=st.data())
def test_evaluate_matches_fraction_reference(op, data):
    # scaled_rows(xi) is A(xi) times exactly D q^order, q the lcm of the
    # denominators of xi.
    for _ in range(3):
        xi = data.draw(st.lists(COORDS, min_size=op.n, max_size=op.n))
        assert value(op, xi) == ref_evaluate(op, xi)
    zero = SymbolOperator.zero(op.n, op.dim_v, op.dim_e, op.order)
    assert ref_evaluate(zero, xi) == [[0] * op.dim_v] * op.dim_e


def ref_apply(op, u):
    """A(x) u(x) summed coefficient by coefficient in Fraction arithmetic."""
    acc = [{} for _ in range(op.dim_e)]
    for (alpha, i, j), x in coefficients(op).items():
        for beta, c in u[j].terms:
            key = tuple(a + b for a, b in zip(alpha, beta))
            acc[i][key] = acc[i].get(key, F(0)) + x * c
    return [Polynomial.make(op.n, terms) for terms in acc]


@settings(max_examples=80, deadline=None)
@given(op=operators(), data=st.data())
def test_apply_matches_fraction_reference(op, data):
    u = [Polynomial.make(op.n, data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * op.n), COEFFS, max_size=3)))
        for _ in range(op.dim_v)]
    got = op.apply(u)
    assert got == ref_apply(op, u)
    assert all(type(c) is F for p in got for _a, c in p.terms)
    zero = SymbolOperator.zero(op.n, op.dim_v, op.dim_e, op.order)
    assert all(p.is_zero() for p in zero.apply(u))


@settings(max_examples=60, deadline=None)
@given(op=operators())
def test_operator_json_round_trip(op):
    # The document lists exactly the nonzero coefficients, sorted by
    # graded-lex alpha, then row, then column, and reads back to the symbol.
    doc = json.loads(json.dumps(operator_to_json(op)))
    assert doc["schema_version"] == 2
    keys = [((sum(a), tuple(a)), i, j) for a, i, j, _x in doc["terms"]]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert {(tuple(a), i, j): F(x) for a, i, j, x in doc["terms"]} == coefficients(op)
    back, _t, _meta = operator_from_json(doc)
    assert back == op and hash(back) == hash(op)
    zero = SymbolOperator.zero(op.n, op.dim_v, op.dim_e, op.order)
    assert operator_to_json(zero)["terms"] == []
    assert operator_from_json(operator_to_json(zero))[0] == zero


# ---------------------------------------------------------------------------
# Composition: the symbol of A(D) B(D) is the product A(x) B(x).


@st.composite
def composable(draw):
    """(A, B) with B's codomain A's domain, on the same variables."""
    n, mid = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a, b = draw(operators(n=n, dim_v=mid)), draw(operators(n=n, dim_e=mid))
    return a, b


@settings(max_examples=80, deadline=None)
@given(pair=composable(), data=st.data())
def test_compose_is_the_product_of_values(pair, data):
    a, b = pair
    ab = a.compose(b)
    assert (ab.n, ab.dim_v, ab.dim_e, ab.order) == (a.n, b.dim_v, a.dim_e, a.order + b.order)
    assert ab.terms or ab.den == 1  # the zero symbol has D = 1
    for _ in range(3):
        xi = data.draw(st.lists(COORDS, min_size=a.n, max_size=a.n))
        va, vb = value(a, xi), value(b, xi)
        product = [[sum((x * vb[k][j] for k, x in enumerate(row)), F(0))
                    for j in range(b.dim_v)] for row in va]
        assert value(ab, xi) == product


@pytest.mark.parametrize("n", [2, 3, 4])
def test_compositions_of_the_catalog_that_vanish(n):
    for ell in range(n - 1):
        d = exterior_d(n, ell + 1).operator.compose(exterior_d(n, ell).operator)
        assert d.is_zero() and (d.dim_v, d.dim_e, d.order) == (
            exterior_d(n, ell).operator.dim_v, exterior_d(n, ell + 1).operator.dim_e, 2)
    assert exterior_d(n, 1).operator.compose(gradient(n).operator).is_zero()
    # d after the gradient is zero, the divergence after it is the Laplacian.
    assert divergence(n).operator.compose(gradient(n).operator) == laplacian(n).operator


@pytest.mark.parametrize("entry", [sym_gradient(4), hodge_pair(4, 1)])
def test_annihilator_composes_to_zero(entry):
    a = entry.operator
    l = build_annihilator(a).operator
    assert not l.is_zero() and l.compose(a).is_zero()


def test_compose_refuses_mismatched_symbols():
    with pytest.raises(ValueError, match="compose"):
        gradient(3).operator.compose(gradient(3).operator)
    with pytest.raises(ValueError, match="compose"):
        divergence(3).operator.compose(gradient(2).operator)
    # Dimensions that fit, on different variables.
    with pytest.raises(ValueError, match="compose"):
        laplacian(2).operator.compose(divergence(3).operator)


# ---------------------------------------------------------------------------
# The integer rows that rank, image and kernel questions at xi read, pinned
# to the Fraction value of the symbol.


def assert_scaled_rows_match_evaluate(op, xi):
    rows, value = op.scaled_rows(xi), ref_evaluate(op, xi)
    assert all(type(x) is int for r in rows for x in r)
    # rows == c value for one c > 0.
    nonzero = [(x, y) for r, s in zip(rows, value) for x, y in zip(r, s) if y]
    c = F(nonzero[0][0]) / nonzero[0][1] if nonzero else F(1)
    assert c > 0
    assert [[F(x) for x in r] for r in rows] == [[c * y for y in s] for s in value]
    assert list(int_pivots(rows, op.dim_v)) == ref_rref(value, op.dim_v)[1]
    assert int_column_space(rows) == subspace_from_columns(op.dim_e, zip(*value))
    kernel = int_kernel(rows, op.dim_v)
    assert kernel == kernel_basis(value, op.dim_v)
    # A(xi) v = 0 on the rows, as verify_ellipticity checks it, against the
    # Fraction product: a kernel vector, and one off the kernel unless the
    # kernel is everything.
    if any(xi):
        off = [F(j + 1, 2) for j in range(op.dim_v)]
        for v in kernel.columns()[:1] + [off]:
            verdict = EllipticityVerdict(NOT_ELLIPTIC, witness_xi=tuple(xi), witness_v=tuple(v))
            assert verify_ellipticity(op, verdict) == all(x == 0 for x in ref_times(value, v))


@functools.cache
def regression_symbols():
    """Every regression operator and its built annihilator."""
    ops = [inst.operator for inst in regression_instances()]
    return ops + [build_annihilator(op).operator for op in ops]


NON_INTEGER = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(
    lambda x: x.denominator > 1)


@st.composite
def directions(draw, n):
    """Rational directions with a non-integer coordinate: a non-integer
    multiple of a {-1, 0, 1} lattice direction, where images drop rank, or
    a drawn vector with one coordinate made non-integer."""
    if draw(st.booleans()):
        t = draw(NON_INTEGER)
        return [t * c for c in draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n,
                                             max_size=n))]
    xi = draw(st.lists(COORDS, min_size=n, max_size=n))
    xi[draw(st.integers(0, n - 1))] = draw(NON_INTEGER)
    return xi


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_scaled_rows_match_evaluate_on_regression_symbols(data):
    # Draw an index: the repr hypothesis keeps of a drawn symbol is slow.
    ops = regression_symbols()
    op = ops[data.draw(st.integers(0, len(ops) - 1))]
    assert_scaled_rows_match_evaluate(op, data.draw(directions(op.n)))


@settings(max_examples=80, deadline=None)
@given(op=operators(), data=st.data())
def test_scaled_rows_match_evaluate_on_drawn_symbols(op, data):
    assert_scaled_rows_match_evaluate(op, data.draw(directions(op.n)))
    zero = SymbolOperator.zero(op.n, op.dim_v, op.dim_e, op.order)
    assert_scaled_rows_match_evaluate(zero, data.draw(directions(op.n)))


def test_scaled_rows_match_evaluate_on_every_regression_symbol():
    # Each of the 31 operators and its annihilator at least once.
    xi = [F(3, 7), F(-5, 11), F(2, 3), F(1, 5), F(-7, 2)]
    for op in regression_symbols():
        assert_scaled_rows_match_evaluate(op, xi[:op.n])
