"""Annihilating symbols: companions L with L(x) @ A(x) == 0.

The construction is L = det(G) Id - A adj(G) A^T with G = A^T A.  The
composition with A vanishes identically for any symbol because
adj(G) G = det(G) Id.  When A is injective away from the origin the
kernel of L(xi) equals the image of A(xi) at every nonzero xi; without
injectivity only the exact annihilation identity is guaranteed, so the
result also carries per-sample kernel comparisons instead of a universal
claim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .deciders.cancellation import probe_directions
from .exact.matrix import QMatrix, column_space, kernel_basis
from .exact.poly import monomial_count
from .exact.polymatrix import PolyMatrix
from .exact.symbol import SymbolOperator

DEFAULT_TERM_BUDGET = 2_000_000


class AnnihilatorBudgetError(ValueError):
    """Predicted construction size exceeds the configured budget."""


@dataclass
class AnnihilatorResult:
    operator: SymbolOperator          # square symbol on the codomain of A
    identity_checked: bool            # L(x) @ A(x) expanded to zero exactly
    sampled_kernel_checks: list = field(default_factory=list)  # (xi, bool)

    @property
    def kernel_checks_passed(self) -> bool:
        return all(ok for _xi, ok in self.sampled_kernel_checks)


def annihilator_degree(a: SymbolOperator) -> int:
    return 2 * a.order * a.dim_v


def build_annihilator(
    a: SymbolOperator,
    term_budget: int = DEFAULT_TERM_BUDGET,
    kernel_samples: int = 6,
    seed: int = 0,
) -> AnnihilatorResult:
    degree = annihilator_degree(a)
    predicted = monomial_count(a.n, degree) * a.dim_e * a.dim_e
    if predicted > term_budget:
        raise AnnihilatorBudgetError(
            f"predicted {predicted} monomial-matrix entries exceeds budget {term_budget}"
        )
    pm = a.to_polymatrix()
    gram = a.gram()
    det_g = gram.det()
    adj_g = gram.adjugate()
    l_pm = PolyMatrix.identity_times(a.n, a.dim_e, det_g) - (
        pm @ adj_g @ pm.transpose()
    )
    identity_ok = (l_pm @ pm).is_zero()
    operator = SymbolOperator.from_polymatrix(l_pm, degree, allow_zero=True)

    checks = []
    for xi in probe_directions(a.n, kernel_samples, random.Random(seed)):
        ker = kernel_basis(operator.evaluate(xi))
        image = column_space(a.evaluate(xi))
        checks.append((xi, ker == image))
    return AnnihilatorResult(operator, identity_ok, checks)


@dataclass
class AnnihilatorReport:
    identity_ok: bool
    kernel_checks: list          # (xi, bool)
    rank_checks: list            # (xi, bool): image dimension equals dim_v

    @property
    def kernels_match(self) -> bool:
        return all(ok for _xi, ok in self.kernel_checks)

    @property
    def ranks_full(self) -> bool:
        return all(ok for _xi, ok in self.rank_checks)


def verify_annihilator(
    a: SymbolOperator,
    l: SymbolOperator,
    samples: int = 8,
    seed: int = 1,
) -> AnnihilatorReport:
    """Exact annihilation check plus sampled kernel and rank bookkeeping."""
    if l.dim_v != a.dim_e or l.n != a.n:
        raise ValueError("annihilator dimensions do not match the operator")
    identity_ok = (l.to_polymatrix() @ a.to_polymatrix()).is_zero()
    kernel_checks = []
    rank_checks = []
    for xi in probe_directions(a.n, samples, random.Random(seed)):
        image = column_space(a.evaluate(xi))
        ker = kernel_basis(l.evaluate(xi))
        kernel_checks.append((xi, ker == image))
        rank_checks.append((xi, image.dim == a.dim_v))
    return AnnihilatorReport(identity_ok, kernel_checks, rank_checks)
