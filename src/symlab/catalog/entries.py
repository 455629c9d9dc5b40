"""Built-in operator symbols with their expected classifications.

Every constructor states a symbol's nonzero coefficients,
{(alpha, row, col): value}, to ``SymbolOperator.from_entries``, or builds
it from the symbols of d and delta in ``forms`` by stacking and composing
them.  The ``truth`` attached to each instance records the expected
verdicts and is the oracle for the regression suite:
``elliptic``/``canceling`` for operators, ``cocanceling`` (and optionally a
joint kernel basis) for constraints.  Entries whose expected verdict
depends on the parameters encode that dependence here, not in the tests.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from ..exact.matrix import QMatrix
from ..exact.poly import multi_indices
from ..exact.symbol import SymbolOperator
from .forms import codifferential, exterior_derivative

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


def _stack(top: SymbolOperator, bottom: SymbolOperator) -> SymbolOperator:
    """The symbol x -> (top(x), bottom(x)) of two symbols on one domain and
    of one order: the rows of ``bottom`` below those of ``top``."""
    entries = {(alpha, shift + i, j): Fraction(x, op.den)
               for shift, op in ((0, top), (top.dim_e, bottom))
               for alpha, rows in op.terms for i, row in enumerate(rows) for j, x in row}
    return SymbolOperator.from_entries(top.n, top.dim_v, top.dim_e + bottom.dim_e,
                                       top.order, entries)


# ---------------------------------------------------------------------------
# First-order operators


def gradient(n: int) -> CatalogResult:
    n = int(n)
    if n < 1:
        raise ValueError("gradient needs n >= 1")
    entries = {(_unit_alpha(n, i), i, 0): 1 for i in range(n)}
    op = SymbolOperator.from_entries(n, 1, n, 1, entries)
    return CatalogResult(
        "gradient", {"n": n}, op, ROLE_OPERATOR,
        {"elliptic": True, "canceling": n >= 2},
    )


def sym_gradient(n: int) -> CatalogResult:
    """Symmetrized derivative of a vector field; codomain is the space of
    symmetric bilinear forms coordinatized by sorted index pairs."""
    n = int(n)
    if n < 1:
        raise ValueError("sym_gradient needs n >= 1")
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    entries: Counter = Counter()
    for r, (p, q) in enumerate(pairs):
        # value on (e_p, e_q) of (xi_i/2)(e_i tensor v + v tensor e_i)
        for i, j in ((p, q), (q, p)):
            entries[_unit_alpha(n, i), r, j] += Fraction(1, 2)
    op = SymbolOperator.from_entries(n, n, len(pairs), 1, entries)
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
    src = multi_indices(n, k)
    dst = multi_indices(n, k + 1)
    src_pos = {a: j for j, a in enumerate(src)}
    entries = {
        (_unit_alpha(n, i), r,
         src_pos[tuple(b - 1 if j == i else b for j, b in enumerate(beta))]):
            Fraction(beta[i], k + 1)
        for r, beta in enumerate(dst) for i in range(n) if beta[i]
    }
    op = SymbolOperator.from_entries(n, len(src), len(dst), 1, entries)
    return CatalogResult(
        "sym_gradient_sk", {"n": n, "k": k}, op, ROLE_OPERATOR,
        {"elliptic": True, "canceling": n >= 2},
    )


def hodge_pair(n: int, ell: int) -> CatalogResult:
    """v -> (d v, delta v) on ell-forms.  For ell = 1 a constraint map
    selecting the degree-0 component is attached; the common image
    intersection is exactly {0} x degree-0 part."""
    n, ell = int(n), int(ell)
    if not 1 <= ell <= n - 1:
        raise ValueError("hodge_pair needs 1 <= ell <= n-1")
    up = exterior_derivative(n, ell)
    op = _stack(up, codifferential(n, ell))
    t = None
    if ell == 1:
        t = QMatrix.from_rows([[int(c == up.dim_e + r) for c in range(op.dim_e)]
                               for r in range(op.dim_e - up.dim_e)])
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
    quaternion, stated through the multiplication table."""
    # Rows ordered (1, i, j, k), columns (i, j, k): the frequency unit q,
    # row, column and sign of each product q v, as i j = k and j i = -k.
    table = {
        (0, 1, 0): 1, (0, 2, 1): 1, (0, 3, 2): 1,
        (1, 0, 0): -1, (1, 2, 2): -1, (1, 3, 1): 1,
        (2, 0, 1): -1, (2, 1, 2): 1, (2, 3, 0): -1,
        (3, 0, 2): -1, (3, 1, 1): -1, (3, 2, 0): 1,
    }
    entries = {(_unit_alpha(4, q), r, c): x for (q, r, c), x in table.items()}
    op = SymbolOperator.from_entries(4, 3, 4, 1, entries)
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
    entries = {
        (_unit_alpha(n, i), r, c): eta[i] * w[c]
        for r, (eta, w) in enumerate(zip(etas, ws)) for i in range(n) for c in range(m)
    }
    op = SymbolOperator.from_entries(n, m, count, 1, entries)
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
    entries = {(_unit_alpha(n, i, 2), 0, 0): 1 for i in range(n)}
    op = SymbolOperator.from_entries(n, 1, 1, 2, entries)
    return CatalogResult(
        "laplacian", {"n": n}, op, ROLE_OPERATOR,
        {"elliptic": True, "canceling": False},
    )


def split_laplacian(n: int, ell: int) -> CatalogResult:
    """The second-order pair (d delta, delta d) on ell-forms."""
    n, ell = int(n), int(ell)
    if not 1 <= ell <= n - 1:
        raise ValueError("split_laplacian needs 1 <= ell <= n-1")
    if n < 2:
        raise ValueError("split_laplacian needs n >= 2")
    op = _stack(exterior_derivative(n, ell - 1).compose(codifferential(n, ell)),
                codifferential(n, ell + 1).compose(exterior_derivative(n, ell)))
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
    entries = {}
    for p, q in itertools.combinations_with_replacement(range(n), 2):
        alpha = tuple((x == p) + (x == q) for x in range(n))
        for r, (xi_i, w) in enumerate(zip(xis, ws)):
            # coefficient of xi_p xi_q in |xi|^2 - (xi_i . xi)^2
            coeff = 1 - xi_i[p] * xi_i[p] if p == q else -2 * xi_i[p] * xi_i[q]
            for c in range(m):
                entries[alpha, r, c] = coeff * w[c]
    op = SymbolOperator.from_entries(n, m, count, 2, entries)
    return CatalogResult(
        "quadratic_collection", {"n": n, "m": m}, op, ROLE_OPERATOR,
        {"elliptic": True, "canceling": True},
    )


def hyperbolic_example() -> CatalogResult:
    entries = {((1, 0), 0, 0): 1, ((1, 0), 1, 1): 1, ((0, 1), 0, 1): -1, ((0, 1), 1, 0): -1}
    op = SymbolOperator.from_entries(2, 2, 2, 1, entries)
    return CatalogResult(
        "hyperbolic", {}, op, ROLE_OPERATOR,
        {"elliptic": False, "canceling": True},
    )


def strange_r4() -> CatalogResult:
    entries = {((1, 1, 0, 0), 0, 0): 1, ((0, 0, 1, 1), 1, 0): 1}
    op = SymbolOperator.from_entries(4, 1, 2, 2, entries)
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
    entries = {(_unit_alpha(n, i), 0, i): 1 for i in range(n)}
    op = SymbolOperator.from_entries(n, n, 1, 1, entries)
    return CatalogResult(
        "divergence", {"n": n}, op, ROLE_CONSTRAINT, {"cocanceling": True}
    )


def higher_order_div(n: int, k: int) -> CatalogResult:
    """e -> sum_alpha xi^alpha e_alpha over all |alpha| = k."""
    n, k = int(n), int(k)
    if n < 1 or k < 1:
        raise ValueError("higher_order_div needs n >= 1 and k >= 1")
    alphas = multi_indices(n, k)
    entries = {(alpha, 0, j): 1 for j, alpha in enumerate(alphas)}
    op = SymbolOperator.from_entries(n, len(alphas), 1, k, entries)
    return CatalogResult(
        "higher_order_div", {"n": n, "k": k}, op, ROLE_CONSTRAINT,
        {"cocanceling": True},
    )


def exterior_d(n: int, ell: int) -> CatalogResult:
    n, ell = int(n), int(ell)
    if not 0 <= ell <= n - 1:
        raise ValueError("exterior_d needs 0 <= ell <= n-1")
    return CatalogResult(
        "exterior_d", {"n": n, "ell": ell}, exterior_derivative(n, ell), ROLE_CONSTRAINT,
        {"cocanceling": True},
    )


def saint_venant(n: int) -> CatalogResult:
    return dataclasses.replace(saint_venant_k(n, 2), name="saint_venant", params={"n": int(n)})


def saint_venant_k(n: int, k: int) -> CatalogResult:
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
    src = multi_indices(n, k)
    src_pos = {a: j for j, a in enumerate(src)}
    entries: Counter = Counter()
    for r, tensor_idx in enumerate(itertools.product(range(n), repeat=2 * k)):
        v0 = tensor_idx[:k]
        v1 = tensor_idx[k:]
        for choice in itertools.product((0, 1), repeat=k):
            sign = -1 if sum(choice) % 2 else 1
            form_slots = [v1[j] if c else v0[j] for j, c in enumerate(choice)]
            xi_slots = [v0[j] if c else v1[j] for j, c in enumerate(choice)]
            beta = tuple(form_slots.count(i) for i in range(n))
            entries[tuple(xi_slots.count(i) for i in range(n)), r, src_pos[beta]] += sign
    op = SymbolOperator.from_entries(n, len(src), n ** (2 * k), k, entries, allow_zero=True)
    return CatalogResult(
        "saint_venant_k", {"n": n, "k": k}, op, ROLE_CONSTRAINT, {"cocanceling": n >= 2},
    )


def curl_div(n: int) -> CatalogResult:
    """e -> xi wedge (e xi) on matrix fields; the joint kernel is the line
    of multiples of the identity matrix."""
    n = int(n)
    if n < 2:
        raise ValueError("curl_div needs n >= 2")
    pairs = list(itertools.combinations(range(n), 2))  # rows of the 2-form part
    dim_e = n * n  # e indexed row-major: e[(i, j)] = entry i of e applied to e_j
    entries: Counter = Counter()
    for r, (a, b) in enumerate(pairs):
        # (xi wedge e(xi))_(a, b) = xi_a (e xi)_b - xi_b (e xi)_a
        #                        = sum_j xi_a xi_j e[b, j] - xi_b xi_j e[a, j]
        for j in range(n):
            for sign, row_idx, other in ((1, b, a), (-1, a, b)):
                alpha = tuple((x == other) + (x == j) for x in range(n))
                entries[alpha, r, row_idx * n + j] += sign
    op = SymbolOperator.from_entries(n, dim_e, len(pairs), 2, entries)
    identity_vec = tuple(Fraction(int(i % (n + 1) == 0)) for i in range(n * n))
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
