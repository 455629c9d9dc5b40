"""The deciders on a seeded corpus of random symbols.

``random_symbol`` draws n in {2, 3}, dim V <= 3, dim E <= 4, order 1 or 2
and every coefficient in {-2, ..., 2}.  Each verdict of the corpus must pass
its verifier, a certified ELLIPTIC must have full rank at random rational
directions, a NOT_ELLIPTIC kernel vector must be one, and every membership
witness (u, p) of a certified NOT_CANCELING must give A(xi) u(xi) =
p(xi) e with p(xi) > 0 at random rational directions, all checked on
A(xi) formed here from ``SymbolOperator.apply`` and on u and p through
``Polynomial.evaluate``, not on the integer rows the deciders use.
"""

import random
from fractions import Fraction as F

from symlab.deciders import (
    ELLIPTIC,
    NOT_CANCELING,
    NOT_ELLIPTIC,
    check_canceling,
    check_cocanceling,
    check_ellipticity,
    verify_canceling,
    verify_cocanceling,
    verify_ellipticity,
)
from symlab.exact import Polynomial, SymbolOperator, kernel_basis, multi_indices


def random_symbol(rng: random.Random) -> SymbolOperator:
    """One symbol of the corpus, drawn from ``rng``."""
    n, dim_v, dim_e, order = rng.choice((2, 3)), rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 2)
    slots = [(alpha, i, j) for alpha in multi_indices(n, order)
             for i in range(dim_e) for j in range(dim_v)]
    while True:
        entries = {slot: rng.randint(-2, 2) for slot in slots}
        if any(entries.values()):
            return SymbolOperator.from_entries(n, dim_v, dim_e, order, entries)


def corpus(seed: int, count: int) -> list[SymbolOperator]:
    rng = random.Random(seed)
    return [random_symbol(rng) for _ in range(count)]


def matrix_at(a: SymbolOperator, xi) -> list[list[F]]:
    """The rows of A(xi), column j being A(xi) e_j."""
    cols = [[p.evaluate(xi) for p in a.apply([Polynomial.constant(a.n, int(i == j))
                                              for i in range(a.dim_v)])]
            for j in range(a.dim_v)]
    return [list(row) for row in zip(*cols)]


def random_direction(rng: random.Random, n: int) -> list[F]:
    """A nonzero rational direction with entries p / q, |p| <= 9, 1 <= q <= 9."""
    while True:
        xi = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        if any(xi):
            return xi


def test_random_corpus_verdicts_verify_and_hold():
    rng = random.Random(7)
    counts: dict = {}
    for a in corpus(0, 200):
        v = check_ellipticity(a)
        assert verify_ellipticity(a, v), a
        counts[v.status] = counts.get(v.status, 0) + 1
        if v.status == ELLIPTIC:
            for _ in range(5):
                xi = random_direction(rng, a.n)
                assert kernel_basis(matrix_at(a, xi), a.dim_v).dim == 0, (a, xi)
        elif v.status == NOT_ELLIPTIC:
            assert any(v.witness_xi) and any(v.witness_v)
            rows = matrix_at(a, v.witness_xi)
            assert all(sum(x * y for x, y in zip(r, v.witness_v)) == 0 for r in rows), a
        c = check_canceling(a, seed=0)
        assert verify_canceling(a, c), a
        counts[c.status] = counts.get(c.status, 0) + 1
        if c.status == NOT_CANCELING:
            assert c.memberships, a
            for _ in range(5):
                xi = random_direction(rng, a.n)
                rows = matrix_at(a, xi)
                for m in c.memberships:
                    u = [q.evaluate(xi) for q in m.u]
                    p = m.p.evaluate(xi)
                    assert p > 0, (a, xi, m)
                    assert [sum(x * y for x, y in zip(r, u)) for r in rows] == [
                        p * F(x) for x in m.e], (a, xi, m)
        k = check_cocanceling(a)
        assert verify_cocanceling(a, k), a
    # Each status checked above occurs, so none of the checks is idle.
    assert all(counts.get(s, 0) > 0 for s in (ELLIPTIC, NOT_ELLIPTIC, NOT_CANCELING)), counts


def test_the_budget_reaches_the_deepest_cover_of_the_corpus():
    # Symbol 338 of seed 1 (n = 2, dim V = 3, dim E = 4, order 2) needs the
    # det(A^T A) fallback with 9 bisections along one axis: a depth limit of
    # 8 would leave it UNDECIDED.
    a = corpus(1, 339)[338]
    v = check_ellipticity(a)
    assert v.status == ELLIPTIC and v.depth_reached == 9 and v.det_degree == 12
    assert verify_ellipticity(a, v)
