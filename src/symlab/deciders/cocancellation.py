"""Joint-kernel analysis of constraint symbols.

L(xi)[e] vanishes for every xi exactly when every coefficient matrix kills
e (the monomials xi^alpha are linearly independent), so the common kernel
over all directions is the exact kernel of the stacked coefficient
matrices.  The constraint has trivial common kernel if and only if the
stacked map is injective, which in turn happens exactly when a family of
left inverses K_alpha with sum K_alpha L_alpha = Id exists.  The solver
picks dim V linearly independent rows of the stacked matrix (the pivots of
one row reduction of its transpose), inverts that square block and puts
zeros in the columns of every other row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..exact.matrix import QMatrix, Subspace, full_space, kernel_basis
from ..exact.poly import MultiIndex
from ..exact.symbol import SymbolOperator

COCANCELING = "COCANCELING"
NOT_COCANCELING = "NOT_COCANCELING"


@dataclass
class CocancelingVerdict:
    status: str
    joint_kernel: Subspace
    left_inverses: Optional[dict[MultiIndex, QMatrix]] = None

    @property
    def certified(self) -> bool:
        return True


def _stacked(l: SymbolOperator) -> Optional[QMatrix]:
    mats = [mat for _alpha, mat in l.terms]
    if not mats:
        return None
    stacked = mats[0]
    for m in mats[1:]:
        stacked = stacked.vstack(m)
    return stacked


def joint_kernel(l: SymbolOperator) -> Subspace:
    stacked = _stacked(l)
    if stacked is None:
        return full_space(l.dim_v)
    return kernel_basis(stacked)


def left_inverses(l: SymbolOperator) -> Optional[dict[MultiIndex, QMatrix]]:
    """Exact K_alpha with sum K_alpha @ L_alpha = Id, or None when the
    stacked coefficient map is not injective."""
    stacked = _stacked(l)
    if stacked is None:
        return None
    _red, rows = stacked.transpose().rref()
    if len(rows) < l.dim_v:
        return None
    inverse = QMatrix.from_rows([stacked.row(r) for r in rows]).inverse()
    column = {r: c for c, r in enumerate(rows)}  # stacked row -> column of inverse
    out: dict[MultiIndex, QMatrix] = {}
    offset = 0
    for alpha, mat in l.terms:
        out[alpha] = QMatrix.from_rows([
            [inverse[i, column[r]] if r in column else 0
             for r in range(offset, offset + mat.rows)]
            for i in range(l.dim_v)
        ])
        offset += mat.rows
    return out


def check_cocanceling(l: SymbolOperator) -> CocancelingVerdict:
    ker = joint_kernel(l)
    if ker.dim == 0:
        return CocancelingVerdict(COCANCELING, ker, left_inverses(l))
    return CocancelingVerdict(NOT_COCANCELING, ker)


def verify_cocanceling(l: SymbolOperator, verdict: CocancelingVerdict) -> bool:
    """Re-check a joint-kernel verdict with independent exact arithmetic."""
    if verdict.status == COCANCELING:
        if verdict.joint_kernel.dim != 0:
            return False
        ks = verdict.left_inverses
        if ks is None:
            return False
        acc = QMatrix.zeros(l.dim_v, l.dim_v)
        terms = l.terms_dict()
        if set(ks) != set(terms):
            return False
        for alpha, k in ks.items():
            acc = acc + (k @ terms[alpha])
        return acc == QMatrix.identity(l.dim_v)
    if verdict.status == NOT_COCANCELING:
        if verdict.joint_kernel.dim == 0:
            return False
        for v in verdict.joint_kernel.columns():
            if all(x == 0 for x in v):
                return False
            for _alpha, mat in l.terms:
                if any(x != 0 for x in mat.mul_vector(v)):
                    return False
        return True
    return False
