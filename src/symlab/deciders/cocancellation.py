"""Joint-kernel analysis of constraint symbols.

L(xi)[e] vanishes for every xi exactly when every coefficient matrix kills
e (the monomials xi^alpha are linearly independent), so the common kernel
over all directions is the exact kernel of the matrix S that stacks the
coefficient matrices.  The constraint is cocanceling exactly when that
kernel is {0}.

Both verdicts carry one certificate: the joint kernel K and an r x r block
M of S (r rows, r columns) with a stated inverse N.  S is read from the
symbol's sparse integer entries, which are D times S, so the block of D S
is the integer block B = D M, and the verifier only multiplies: N B = D I_r
gives rank S >= r, S kills every basis vector of K, and r + dim K = dim V
then forces K = ker S.  The status is COCANCELING exactly when dim K = 0.
The decider takes the pivot columns of S, those of S[:, cols]^T as rows,
both from the forward pass, inverts the integer block B and scales the
inverse by D to get N.  The positive scale moves no pivot and no kernel,
and the nonzero rows of S alone enter elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exact.matrix import Subspace, int_kernel, int_pivots, inverse
from ..exact.symbol import SymbolOperator

COCANCELING = "COCANCELING"
NOT_COCANCELING = "NOT_COCANCELING"


@dataclass(frozen=True)
class RankBlock:
    """Rows and columns of the stacked coefficients whose square block has
    the given inverse, r rows of ``Fraction``; r is the rank of the stack."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    inverse: tuple


@dataclass
class CocancelingVerdict:
    status: str
    joint_kernel: Subspace
    block: RankBlock

    @property
    def certified(self) -> bool:
        return True


def _stacked(l: SymbolOperator) -> list:
    """The rows of S, D times the coefficient matrices stacked in term
    order, as (column, numerator) pairs: row t * dim E + i is row i of the
    t-th term (no rows for the zero symbol)."""
    return [row for _alpha, rows in l.terms for row in rows]


def _dense(s: list, ncols: int) -> tuple[list[int], list[list[int]]]:
    """The indices of the nonzero rows of S and those rows, dense: the zero
    rows move no pivot and no kernel."""
    nonzero = [i for i, row in enumerate(s) if row]
    dense = []
    for i in nonzero:
        r = [0] * ncols
        for j, x in s[i]:
            r[j] = x
        dense.append(r)
    return nonzero, dense


def check_cocanceling(l: SymbolOperator) -> CocancelingVerdict:
    s = _stacked(l)
    nonzero, dense = _dense(s, l.dim_v)
    cols = int_pivots(dense, l.dim_v)
    # The pivots of S[:, cols]^T; the zero rows of S are its zero columns.
    picked = int_pivots([[r[j] for r in dense] for j in cols], len(dense))
    rows = tuple(nonzero[k] for k in picked)
    # N = (B / D)^-1 = D B^-1, B the integer block of D S.
    inv = inverse([[dense[k][j] for j in cols] for k in picked])
    block = RankBlock(rows, cols, tuple(tuple(l.den * x for x in row) for row in inv))
    ker = int_kernel(dense, l.dim_v)
    return CocancelingVerdict(COCANCELING if ker.dim == 0 else NOT_COCANCELING, ker, block)


def verify_cocanceling(l: SymbolOperator, verdict: CocancelingVerdict) -> bool:
    """Re-check a joint-kernel verdict by exact multiplication only."""
    s = _stacked(l)
    b, ker = verdict.block, verdict.joint_kernel
    r = len(b.rows)
    if len(b.cols) != r or len(b.inverse) != r or any(len(row) != r for row in b.inverse):
        return False
    if not all(0 <= i < len(s) for i in b.rows) or not all(0 <= j < l.dim_v for j in b.cols):
        return False
    # N B = D I_r: row k of N B adds x times row m of B for each nonzero
    # x = N[k, m], over the nonzero entries of B.
    picked = [dict(s[i]) for i in b.rows]
    block = [[(c, e[j]) for c, j in enumerate(b.cols) if j in e] for e in picked]
    for k, row in enumerate(b.inverse):
        acc = [0] * r
        for x, brow in zip(row, block):
            if x:
                for c, y in brow:
                    acc[c] += x * y
        if any(v != (l.den if c == k else 0) for c, v in enumerate(acc)):
            return False
    if r + ker.dim != l.dim_v:
        return False
    # The integer rows of K span it.
    if any(sum(x * v[j] for j, x in row) for v in ker.rows for row in s if row):
        return False
    return verdict.status == (COCANCELING if ker.dim == 0 else NOT_COCANCELING)
