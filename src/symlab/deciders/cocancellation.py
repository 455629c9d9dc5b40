"""Joint-kernel analysis of constraint symbols.

L(xi)[e] vanishes for every xi exactly when every coefficient matrix kills
e (the monomials xi^alpha are linearly independent), so the common kernel
over all directions is the exact kernel of the matrix S that stacks the
coefficient matrices.  The constraint is cocanceling exactly when that
kernel is {0}.

Both verdicts carry one certificate: the joint kernel K and an r x r block
M of S (r rows, r columns) with a stated inverse N.  The verifier only
multiplies: N M = I_r gives rank S >= r, S kills every basis vector of K,
and r + dim K = dim V then forces K = ker S.  The status is COCANCELING
exactly when dim K = 0.  The decider takes the pivot columns of S, those
of S[:, cols]^T as rows, both from the forward pass, and inverts that block.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exact.matrix import QMatrix, Subspace, kernel_basis
from ..exact.symbol import SymbolOperator

COCANCELING = "COCANCELING"
NOT_COCANCELING = "NOT_COCANCELING"


@dataclass(frozen=True)
class RankBlock:
    """Rows and columns of the stacked coefficients whose square block has
    the given inverse; its size is the rank of the stack."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    inverse: QMatrix


@dataclass
class CocancelingVerdict:
    status: str
    joint_kernel: Subspace
    block: RankBlock

    @property
    def certified(self) -> bool:
        return True


def _stacked(l: SymbolOperator) -> QMatrix:
    """S: the coefficient matrices stacked in term order (0 rows for the
    zero symbol)."""
    rows = tuple(row for _alpha, mat in l.terms for row in mat.entries)
    return QMatrix(len(rows), l.dim_v, rows)


def _block(s: QMatrix, rows, cols) -> QMatrix:
    return QMatrix.from_rows([[s[i, j] for j in cols] for i in rows])


def joint_kernel(l: SymbolOperator) -> Subspace:
    return kernel_basis(_stacked(l))


def check_cocanceling(l: SymbolOperator) -> CocancelingVerdict:
    s = _stacked(l)
    cols = s.pivots()
    rows = QMatrix.from_rows([s.col(j) for j in cols]).pivots()
    block = RankBlock(rows, cols, _block(s, rows, cols).inverse())
    ker = kernel_basis(s)
    return CocancelingVerdict(COCANCELING if ker.dim == 0 else NOT_COCANCELING, ker, block)


def verify_cocanceling(l: SymbolOperator, verdict: CocancelingVerdict) -> bool:
    """Re-check a joint-kernel verdict by exact multiplication only."""
    s = _stacked(l)
    b, ker = verdict.block, verdict.joint_kernel
    r = len(b.rows)
    if len(b.cols) != r or (b.inverse.rows, b.inverse.cols) != (r, r):
        return False
    if not all(0 <= i < s.rows for i in b.rows) or not all(0 <= j < s.cols for j in b.cols):
        return False
    if b.inverse @ _block(s, b.rows, b.cols) != QMatrix.identity(r):
        return False
    if r + ker.dim != l.dim_v:
        return False
    if any(x != 0 for v in ker.columns() for x in s.mul_vector(v)):
        return False
    return verdict.status == (COCANCELING if ker.dim == 0 else NOT_COCANCELING)
