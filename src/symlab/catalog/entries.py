"""Built-in operator symbols with their expected classifications.

Every constructor returns exact rational coefficient matrices.  The
``truth`` attached to each instance records the expected verdicts and is
the oracle for the regression suite: ``elliptic``/``canceling`` for
operators, ``cocanceling`` (and optionally a joint kernel basis) for
constraints.  Entries whose expected verdict depends on the parameters
encode that dependence here, not in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, Optional, Sequence

from ..exact.matrix import QMatrix
from ..exact.symbol import SymbolOperator
from .forms import (
    FormIndexing,
    codifferential_terms,
    exterior_derivative_terms,
)

ROLE_OPERATOR = "operator"
ROLE_CONSTRAINT = "constraint"


@dataclass
class CatalogResult:
    name: str
    params: dict
    operator: SymbolOperator
    role: str
    truth: dict
    constraint_map: Optional[QMatrix] = None  # T for partial-cancellation cases


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    role: str
    param_doc: str
    build: Callable[..., CatalogResult]


def _unit_alpha(n: int, i: int, k: int = 1) -> tuple[int, ...]:
    return tuple(k if j == i else 0 for j in range(n))


def _multi_indices(n: int, k: int) -> list[tuple[int, ...]]:
    from ..exact.poly import multi_indices

    return multi_indices(n, k)


# ---------------------------------------------------------------------------
# First-order operators


def gradient(n: int) -> CatalogResult:
    n = int(n)
    if n < 1:
        raise ValueError("gradient needs n >= 1")
    terms = {
        _unit_alpha(n, i): QMatrix.from_rows(
            [[1 if r == i else 0] for r in range(n)]
        )
        for i in range(n)
    }
    op = SymbolOperator.make(n, 1, n, 1, terms)
    return CatalogResult(
        "gradient", {"n": n}, op, ROLE_OPERATOR,
        {"elliptic": True, "canceling": n >= 2},
    )


def sym_indices(n: int, k: int) -> list[tuple[int, ...]]:
    """Sorted multisets of size k over n letters, as exponent tuples."""
    return _multi_indices(n, k)


def sym_gradient(n: int) -> CatalogResult:
    """Symmetrized derivative of a vector field; codomain is the space of
    symmetric bilinear forms coordinatized by sorted index pairs."""
    n = int(n)
    if n < 1:
        raise ValueError("sym_gradient needs n >= 1")
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    dim_e = len(pairs)
    terms: dict[tuple[int, ...], QMatrix] = {}
    for i in range(n):
        rows = [[Fraction(0)] * n for _ in range(dim_e)]
        for r, (p, q) in enumerate(pairs):
            # value on (e_p, e_q) of (xi_i/2)(e_i tensor v + v tensor e_i)
            if p == i:
                rows[r][q] += Fraction(1, 2)
            if q == i:
                rows[r][p] += Fraction(1, 2)
        terms[_unit_alpha(n, i)] = QMatrix.from_rows(rows)
    op = SymbolOperator.make(n, n, dim_e, 1, terms)
    return CatalogResult(
        "sym_gradient", {"n": n}, op, ROLE_OPERATOR,
        {"elliptic": True, "canceling": n >= 2},
    )


def sym_gradient_sk(n: int, k: int) -> CatalogResult:
    """Inner derivative on symmetric k-linear forms: the coordinate of the
    image at multiset beta is sum_i beta_i xi_i v_(beta - e_i) / (k + 1)."""
    n, k = int(n), int(k)
    if n < 1 or k < 1:
        raise ValueError("sym_gradient_sk needs n >= 1 and k >= 1")
    src = sym_indices(n, k)
    dst = sym_indices(n, k + 1)
    src_pos = {a: j for j, a in enumerate(src)}
    terms: dict[tuple[int, ...], QMatrix] = {}
    for i in range(n):
        rows = [[Fraction(0)] * len(src) for _ in range(len(dst))]
        for r, beta in enumerate(dst):
            if beta[i] == 0:
                continue
            reduced = tuple(b - 1 if j == i else b for j, b in enumerate(beta))
            rows[r][src_pos[reduced]] = Fraction(beta[i], k + 1)
        terms[_unit_alpha(n, i)] = QMatrix.from_rows(rows)
    op = SymbolOperator.make(n, len(src), len(dst), 1, terms)
    return CatalogResult(
        "sym_gradient_sk", {"n": n, "k": k}, op, ROLE_OPERATOR,
        {"elliptic": True, "canceling": n >= 2},
    )


def hodge_pair(n: int, ell: int) -> CatalogResult:
    """v -> (xi wedge v, star(xi wedge star v)) on ell-forms.  For ell = 1 a
    constraint map selecting the degree-0 component is attached; the common
    image intersection is exactly {0} x degree-0 part."""
    n, ell = int(n), int(ell)
    if not 1 <= ell <= n - 1:
        raise ValueError("hodge_pair needs 1 <= ell <= n-1")
    up = exterior_derivative_terms(n, ell)
    down = codifferential_terms(n, ell)
    dim_v = FormIndexing(n, ell).dim
    dim_up = FormIndexing(n, ell + 1).dim
    dim_down = FormIndexing(n, ell - 1).dim
    terms = {}
    for i in range(n):
        alpha = _unit_alpha(n, i)
        terms[alpha] = up[alpha].vstack(down[alpha])
    op = SymbolOperator.make(n, dim_v, dim_up + dim_down, 1, terms)
    t = None
    if ell == 1:
        rows = [
            [Fraction(1 if c == dim_up + r else 0) for c in range(dim_up + dim_down)]
            for r in range(dim_down)
        ]
        t = QMatrix.from_rows(rows)
    return CatalogResult(
        "hodge_pair", {"n": n, "ell": ell}, op, ROLE_OPERATOR,
        {
            "elliptic": True,
            "canceling": 2 <= ell <= n - 2,
            "partial_holds": True if ell == 1 else None,
        },
        constraint_map=t,
    )


def quaternion() -> CatalogResult:
    """Left multiplication of an imaginary quaternion by a real frequency
    quaternion, stored through the multiplication table."""
    # Rows ordered (1, i, j, k); columns (i, j, k).
    a1 = QMatrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    ai = QMatrix.from_rows([[-1, 0, 0], [0, 0, 0], [0, 0, -1], [0, 1, 0]])
    aj = QMatrix.from_rows([[0, -1, 0], [0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    ak = QMatrix.from_rows([[0, 0, -1], [0, -1, 0], [1, 0, 0], [0, 0, 0]])
    terms = {
        (1, 0, 0, 0): a1,
        (0, 1, 0, 0): ai,
        (0, 0, 1, 0): aj,
        (0, 0, 0, 1): ak,
    }
    op = SymbolOperator.make(4, 3, 4, 1, terms)
    return CatalogResult(
        "quaternion", {}, op, ROLE_OPERATOR, {"elliptic": True, "canceling": True}
    )


def _moment_vectors(count: int, dim: int) -> list[tuple[Fraction, ...]]:
    return [
        tuple(Fraction(t) ** p for p in range(dim)) for t in range(1, count + 1)
    ]


def _check_wise_independent(vectors: Sequence[tuple], take: int) -> bool:
    for subset in itertools.combinations(vectors, take):
        if QMatrix.from_rows(list(subset)).rank() < take:
            return False
    return True


def defigueiredo(
    n: int,
    m: int,
    etas: Optional[Sequence[Sequence]] = None,
    ws: Optional[Sequence[Sequence]] = None,
) -> CatalogResult:
    """Rows (eta_i . xi)(w_i . v) for n+m-1 direction pairs.  Defaults put
    both families on the moment curve, and the required n-wise / m-wise
    independence is still verified exactly."""
    n, m = int(n), int(m)
    if n < 1 or m < 1:
        raise ValueError("defigueiredo needs n >= 1 and m >= 1")
    count = n + m - 1
    etas = (
        [_coerce_vec(e, n) for e in etas] if etas is not None else _moment_vectors(count, n)
    )
    ws = [_coerce_vec(w, m) for w in ws] if ws is not None else _moment_vectors(count, m)
    if len(etas) != count or len(ws) != count:
        raise ValueError(f"need exactly {count} direction pairs")
    if not _check_wise_independent(etas, min(n, count)):
        raise ValueError("frequency directions are not n-wise independent")
    if not _check_wise_independent(ws, min(m, count)):
        raise ValueError("component directions are not m-wise independent")
    terms: dict[tuple[int, ...], QMatrix] = {}
    for i in range(n):
        rows = [[eta[i] * w[c] for c in range(m)] for eta, w in zip(etas, ws)]
        terms[_unit_alpha(n, i)] = QMatrix.from_rows(
            [[Fraction(x) for x in row] for row in rows]
        )
    op = SymbolOperator.make(n, m, count, 1, terms)
    return CatalogResult(
        "defigueiredo", {"n": n, "m": m}, op, ROLE_OPERATOR,
        {"elliptic": True, "canceling": n >= 2},
    )


def _coerce_vec(v, length: int) -> tuple[Fraction, ...]:
    out = tuple(Fraction(x) for x in v)
    if len(out) != length:
        raise ValueError("vector length mismatch")
    return out


# ---------------------------------------------------------------------------
# Second and higher order operators


def laplacian(n: int) -> CatalogResult:
    n = int(n)
    if n < 1:
        raise ValueError("laplacian needs n >= 1")
    terms = {
        _unit_alpha(n, i, 2): QMatrix.from_rows([[1]]) for i in range(n)
    }
    op = SymbolOperator.make(n, 1, 1, 2, terms)
    return CatalogResult(
        "laplacian", {"n": n}, op, ROLE_OPERATOR,
        {"elliptic": True, "canceling": False},
    )


def split_laplacian(n: int, ell: int) -> CatalogResult:
    """Second-order pair (down-then-up, up-then-down) on ell-forms."""
    n, ell = int(n), int(ell)
    if not 1 <= ell <= n - 1:
        raise ValueError("split_laplacian needs 1 <= ell <= n-1")
    if n < 2:
        raise ValueError("split_laplacian needs n >= 2")
    dim_v = FormIndexing(n, ell).dim
    up_low = exterior_derivative_terms(n, ell - 1)   # ell-1 -> ell
    down_mid = codifferential_terms(n, ell)          # ell -> ell-1
    down_high = codifferential_terms(n, ell + 1)     # ell+1 -> ell
    up_mid = exterior_derivative_terms(n, ell)       # ell -> ell+1
    terms: dict[tuple[int, ...], QMatrix] = {}
    for i in range(n):
        for j in range(n):
            alpha = tuple(
                (1 if x == i else 0) + (1 if x == j else 0) for x in range(n)
            )
            top = up_low[_unit_alpha(n, i)] @ down_mid[_unit_alpha(n, j)]
            bottom = down_high[_unit_alpha(n, i)] @ up_mid[_unit_alpha(n, j)]
            block = top.vstack(bottom)
            terms[alpha] = terms[alpha] + block if alpha in terms else block
    op = SymbolOperator.make(n, dim_v, 2 * dim_v, 2, terms)
    return CatalogResult(
        "split_laplacian", {"n": n, "ell": ell}, op, ROLE_OPERATOR,
        {"elliptic": True, "canceling": True},
    )


def quadratic_collection(
    n: int, m: int, xis: Optional[Sequence[Sequence]] = None
) -> CatalogResult:
    """Rows a_i(xi) (w_i . v) with a_i(xi) = |xi|^2 - (xi_i . xi)^2 for
    rational unit vectors xi_i whose zero lines are pairwise distinct."""
    n, m = int(n), int(m)
    if n < 2 or m < 1:
        raise ValueError("quadratic_collection needs n >= 2 and m >= 1")
    count = m + 1
    if xis is None:
        if count > n:
            raise ValueError(
                "default construction needs m + 1 <= n (give explicit unit vectors otherwise)"
            )
        xis = [
            tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(count)
        ]
    else:
        xis = [_coerce_vec(x, n) for x in xis]
        if len(xis) != count:
            raise ValueError(f"need exactly {count} unit vectors")
    for x in xis:
        if sum(c * c for c in x) != 1:
            raise ValueError("zero-set vectors must be exact unit vectors")
    for x, y in itertools.combinations(xis, 2):
        # Pairwise non-parallel keeps the zero lines distinct.
        gram = QMatrix.from_rows([list(x), list(y)])
        if gram.rank() < 2:
            raise ValueError("zero-set vectors must be pairwise non-parallel")
    ws = _moment_vectors(count, m)
    if not _check_wise_independent(ws, min(m, count)):
        raise ValueError("component directions are not m-wise independent")
    terms: dict[tuple[int, ...], QMatrix] = {}
    for p in range(n):
        for q in range(p, n):
            alpha = tuple(
                (2 if (x == p == q) else (1 if x in (p, q) else 0)) for x in range(n)
            )
            rows = []
            for xi_i, w in zip(xis, ws):
                # coefficient of xi_p xi_q in |xi|^2 - (xi_i . xi)^2
                if p == q:
                    coeff = Fraction(1) - xi_i[p] * xi_i[p]
                else:
                    coeff = Fraction(-2) * xi_i[p] * xi_i[q]
                rows.append([coeff * w[c] for c in range(m)])
            mat = QMatrix.from_rows(rows)
            if not mat.is_zero():
                terms[alpha] = mat
    op = SymbolOperator.make(n, m, count, 2, terms)
    return CatalogResult(
        "quadratic_collection", {"n": n, "m": m}, op, ROLE_OPERATOR,
        {"elliptic": True, "canceling": True},
    )


def hyperbolic_example() -> CatalogResult:
    terms = {
        (1, 0): QMatrix.from_rows([[1, 0], [0, 1]]),
        (0, 1): QMatrix.from_rows([[0, -1], [-1, 0]]),
    }
    op = SymbolOperator.make(2, 2, 2, 1, terms)
    return CatalogResult(
        "hyperbolic", {}, op, ROLE_OPERATOR,
        {"elliptic": False, "canceling": True},
    )


def strange_r4() -> CatalogResult:
    terms = {
        (1, 1, 0, 0): QMatrix.from_rows([[1], [0]]),
        (0, 0, 1, 1): QMatrix.from_rows([[0], [1]]),
    }
    op = SymbolOperator.make(4, 1, 2, 2, terms)
    return CatalogResult(
        "strange_r4", {}, op, ROLE_OPERATOR,
        {"elliptic": False, "canceling": True},
    )


# ---------------------------------------------------------------------------
# Constraint symbols


def divergence(n: int) -> CatalogResult:
    n = int(n)
    if n < 1:
        raise ValueError("divergence needs n >= 1")
    terms = {
        _unit_alpha(n, i): QMatrix.from_rows([[1 if c == i else 0 for c in range(n)]])
        for i in range(n)
    }
    op = SymbolOperator.make(n, n, 1, 1, terms)
    return CatalogResult(
        "divergence", {"n": n}, op, ROLE_CONSTRAINT, {"cocanceling": True}
    )


def higher_order_div(n: int, k: int) -> CatalogResult:
    """e -> sum_alpha xi^alpha e_alpha over all |alpha| = k."""
    n, k = int(n), int(k)
    if n < 1 or k < 1:
        raise ValueError("higher_order_div needs n >= 1 and k >= 1")
    alphas = _multi_indices(n, k)
    dim_e = len(alphas)
    terms = {
        alpha: QMatrix.from_rows([[1 if c == j else 0 for c in range(dim_e)]])
        for j, alpha in enumerate(alphas)
    }
    op = SymbolOperator.make(n, dim_e, 1, k, terms)
    return CatalogResult(
        "higher_order_div", {"n": n, "k": k}, op, ROLE_CONSTRAINT,
        {"cocanceling": True},
    )


def exterior_d(n: int, ell: int) -> CatalogResult:
    n, ell = int(n), int(ell)
    if not 0 <= ell <= n - 1:
        raise ValueError("exterior_d needs 0 <= ell <= n-1")
    terms = exterior_derivative_terms(n, ell)
    op = SymbolOperator.make(
        n, FormIndexing(n, ell).dim, FormIndexing(n, ell + 1).dim, 1, terms
    )
    return CatalogResult(
        "exterior_d", {"n": n, "ell": ell}, op, ROLE_CONSTRAINT,
        {"cocanceling": True},
    )


def saint_venant(n: int) -> CatalogResult:
    return saint_venant_k(n, 2, _name="saint_venant", _params={"n": int(n)})


def saint_venant_k(
    n: int, k: int, _name: str = "saint_venant_k", _params: Optional[dict] = None
) -> CatalogResult:
    """Compatibility conditions on symmetric k-linear forms, embedded in the
    full 2k-tensor coordinate space.

    The value at (v^0_1 ... v^0_k, v^1_1 ... v^1_k) is
    sum over choices c in {0,1}^k of (-1)^|c| e(v^(c_1)_1, ..., v^(c_k)_k)
    times the product over slots j of (xi . v^(1-c_j)_j).  On R^1 every
    term cancels and the symbol is the zero operator.
    """
    n, k = int(n), int(k)
    if n < 1 or k < 1:
        raise ValueError("saint_venant needs n >= 1 and k >= 1")
    src = sym_indices(n, k)
    src_pos = {a: j for j, a in enumerate(src)}
    dim_e = len(src)
    dim_f = n ** (2 * k)
    rows_index = list(itertools.product(range(n), repeat=2 * k))
    acc: dict[tuple[int, ...], list[list[Fraction]]] = {}
    for r, tensor_idx in enumerate(rows_index):
        v0 = tensor_idx[:k]
        v1 = tensor_idx[k:]
        for choice in itertools.product((0, 1), repeat=k):
            sign = -1 if sum(choice) % 2 else 1
            form_slots = tuple(
                v1[j] if choice[j] else v0[j] for j in range(k)
            )
            xi_slots = tuple(v0[j] if choice[j] else v1[j] for j in range(k))
            beta = [0] * n
            for i in form_slots:
                beta[i] += 1
            col = src_pos[tuple(beta)]
            alpha = [0] * n
            for i in xi_slots:
                alpha[i] += 1
            alpha = tuple(alpha)
            if alpha not in acc:
                acc[alpha] = [[Fraction(0)] * dim_e for _ in range(dim_f)]
            acc[alpha][r][col] += sign
    terms = {
        alpha: QMatrix.from_rows(rows)
        for alpha, rows in acc.items()
        if any(x != 0 for row in rows for x in row)
    }
    op = SymbolOperator.make(n, dim_e, dim_f, k, terms, allow_zero=True)
    return CatalogResult(
        _name, _params if _params is not None else {"n": n, "k": k},
        op, ROLE_CONSTRAINT, {"cocanceling": n >= 2},
    )


def curl_div(n: int) -> CatalogResult:
    """e -> xi wedge (e xi) on matrix fields; the joint kernel is the line
    of multiples of the identity matrix."""
    n = int(n)
    if n < 2:
        raise ValueError("curl_div needs n >= 2")
    pairs = list(itertools.combinations(range(n), 2))  # rows of the 2-form part
    dim_e = n * n  # e indexed row-major: e[(i, j)] = entry i of e applied to e_j
    acc: dict[tuple[int, ...], list[list[Fraction]]] = {}
    for r, (a, b) in enumerate(pairs):
        # (xi wedge e(xi))_(a, b) = xi_a (e xi)_b - xi_b (e xi)_a
        #                        = sum_j xi_a xi_j e[b, j] - xi_b xi_j e[a, j]
        for j in range(n):
            for sign, row_idx, other in ((1, b, a), (-1, a, b)):
                alpha = [0] * n
                alpha[other] += 1
                alpha[j] += 1
                alpha = tuple(alpha)
                if alpha not in acc:
                    acc[alpha] = [
                        [Fraction(0)] * dim_e for _ in range(len(pairs))
                    ]
                acc[alpha][r][row_idx * n + j] += sign
    terms = {a: QMatrix.from_rows(rows) for a, rows in acc.items()}
    op = SymbolOperator.make(n, dim_e, len(pairs), 2, terms)
    identity_vec = tuple(
        Fraction(1 if (i % (n + 1)) == 0 else 0) for i in range(n * n)
    )
    return CatalogResult(
        "curl_div", {"n": n}, op, ROLE_CONSTRAINT,
        {"cocanceling": False, "joint_kernel_basis": [identity_vec]},
    )


# ---------------------------------------------------------------------------
# Registry


_ENTRIES: dict[str, CatalogEntry] = {}


def _register(name: str, role: str, param_doc: str, build):
    _ENTRIES[name] = CatalogEntry(name, role, param_doc, build)


_register("gradient", ROLE_OPERATOR, "n", gradient)
_register("sym_gradient", ROLE_OPERATOR, "n", sym_gradient)
_register("sym_gradient_sk", ROLE_OPERATOR, "n, k", sym_gradient_sk)
_register("hodge_pair", ROLE_OPERATOR, "n, ell", hodge_pair)
_register("quaternion", ROLE_OPERATOR, "", quaternion)
_register("defigueiredo", ROLE_OPERATOR, "n, m", defigueiredo)
_register("laplacian", ROLE_OPERATOR, "n", laplacian)
_register("split_laplacian", ROLE_OPERATOR, "n, ell", split_laplacian)
_register("quadratic_collection", ROLE_OPERATOR, "n, m", quadratic_collection)
_register("hyperbolic", ROLE_OPERATOR, "", hyperbolic_example)
_register("strange_r4", ROLE_OPERATOR, "", strange_r4)
_register("divergence", ROLE_CONSTRAINT, "n", divergence)
_register("higher_order_div", ROLE_CONSTRAINT, "n, k", higher_order_div)
_register("exterior_d", ROLE_CONSTRAINT, "n, ell", exterior_d)
_register("saint_venant", ROLE_CONSTRAINT, "n", saint_venant)
_register("saint_venant_k", ROLE_CONSTRAINT, "n, k", saint_venant_k)
_register("curl_div", ROLE_CONSTRAINT, "n", curl_div)


def catalog_names() -> list[str]:
    return sorted(_ENTRIES)


def catalog_entry(name: str) -> CatalogEntry:
    if name not in _ENTRIES:
        raise KeyError(f"unknown catalog entry {name!r}")
    return _ENTRIES[name]


def catalog_get(name: str, **params) -> CatalogResult:
    return catalog_entry(name).build(**params)


def regression_instances() -> list[CatalogResult]:
    """The concrete parameterizations exercised by the regression suite."""
    out = [
        gradient(1), gradient(2), gradient(3),
        sym_gradient(2), sym_gradient(3),
        sym_gradient_sk(2, 2),
        hodge_pair(3, 1), hodge_pair(3, 2), hodge_pair(4, 2),
        quaternion(),
        defigueiredo(2, 2), defigueiredo(3, 2),
        laplacian(2), laplacian(3),
        split_laplacian(2, 1), split_laplacian(3, 1),
        quadratic_collection(2, 1), quadratic_collection(3, 2),
        hyperbolic_example(), strange_r4(),
        divergence(2), divergence(3),
        higher_order_div(2, 2),
        exterior_d(3, 1), exterior_d(4, 2),
        saint_venant(1), saint_venant(2), saint_venant(3),
        saint_venant_k(2, 3),
        curl_div(2), curl_div(3),
    ]
    return out


def lstar_bound_records() -> list[dict]:
    """Known bounds for the minimal codomain dimension of an injective
    symbol with trivial common image, on R^n from an m-dimensional space.
    Records marked unverified are carried as data only."""
    return [
        {"n": 4, "m": 3, "value": 4, "verified": True, "witness": "quaternion"},
        {"n": 4, "m": 6, "lower": 7, "upper": 8, "verified": False},
        {"n": 8, "m": 7, "value": 8, "verified": False, "witness": "octonion analogue"},
        {"n": 8, "m": 42, "upper": 48, "verified": False},
    ]
