"""Common-image analysis of operator symbols.

The common intersection W of the images A(xi)[V] over all nonzero xi is
approximated from above by intersecting images at sampled rational
directions.  A trivial sampled intersection certifies the trivial full
intersection unconditionally.  A nonzero candidate e is certified to lie
in every image through the exact polynomial identity

    A(x) @ adj(G(x)) @ A(x)^T @ e == det(G(x)) * e,      G = A^T A,

valid for injective symbols, where both sides are polynomial vectors: the
left side divided by det(G) is the orthogonal projection onto the image,
so the identity holds everywhere iff e stays in the image everywhere.  A
failing identity yields a rational direction where e leaves the image;
adding it strictly shrinks the sampled intersection, so the loop
terminates.  For non-injective symbols no identity is available and a
nonzero intersection is reported as sampled (explicitly unsound).

W is computed once; the other verdicts derive from it.  Bourgain-Brezis
spanning holds iff W = {0}, and partial cancellation with respect to a
map T holds iff W meets ker T only at 0.  The verifiers re-intersect the
stored samples, and accept a certified nonzero vector of W (NOT_CANCELING,
or a certified partial FAILS) only with the identity above and a verified
ELLIPTIC verdict of the same report: without injectivity the identity
holds for every vector of a square symbol.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from ..exact.matrix import (
    QMatrix,
    Subspace,
    column_space,
    full_space,
    kernel_basis,
    subspace_intersection,
)
from ..exact.polymatrix import PolyMatrix
from ..exact.symbol import SymbolOperator
from .ellipticity import ELLIPTIC, EllipticityVerdict, check_ellipticity

CANCELING = "CANCELING"
NOT_CANCELING = "NOT_CANCELING"
NOT_CANCELING_SAMPLED = "NOT_CANCELING_SAMPLED"

SPANS = "SPANS"
DOES_NOT_SPAN = "DOES_NOT_SPAN"

HOLDS = "HOLDS"
FAILS = "FAILS"
FAILS_SAMPLED = "FAILS_SAMPLED"

SAMPLE_COORD_RANGE = 10
EXTRA_SAMPLE_ROUNDS = 2


def sample_directions(n: int, count: int, rng: random.Random) -> list[tuple]:
    """Deterministic nonzero integer directions with coordinates in
    [-10, 10]."""
    out = []
    while len(out) < count:
        v = tuple(
            Fraction(rng.randint(-SAMPLE_COORD_RANGE, SAMPLE_COORD_RANGE))
            for _ in range(n)
        )
        if any(x != 0 for x in v):
            out.append(v)
    return out


def probe_directions(n: int, count: int, rng: random.Random) -> list[tuple]:
    """The first 2n + 8 nonzero directions with coordinates in {-1, 0, 1},
    which hit degenerate loci such as diagonals that random samples miss,
    followed by ``count`` seeded random ones."""
    lattice = []
    for combo in itertools.product((-1, 0, 1), repeat=n):
        if any(c != 0 for c in combo):
            lattice.append(tuple(Fraction(c) for c in combo))
        if len(lattice) >= 2 * n + 8:
            break
    return lattice + sample_directions(n, count, rng)


@dataclass
class IntersectionResult:
    """Sampled (and possibly certified) common image intersection."""

    subspace: Subspace
    samples: list[tuple]
    certified: bool
    dim_trajectory: list[int] = field(default_factory=list)
    iterations: int = 0
    certified_vectors: list[tuple] = field(default_factory=list)


@dataclass
class CancelingVerdict:
    status: str
    samples: list[tuple]
    intersection: Subspace
    witness: Optional[tuple] = None
    dim_trajectory: list[int] = field(default_factory=list)
    iterations: int = 0

    @property
    def certified(self) -> bool:
        return self.status in (CANCELING, NOT_CANCELING)


@dataclass
class SpanningVerdict:
    status: str
    span_dim: int
    certified: bool


@dataclass
class PartialCancelingVerdict:
    status: str
    samples: list[tuple]
    image_intersection: Subspace
    constrained_intersection: Subspace
    witness: Optional[tuple] = None

    @property
    def certified(self) -> bool:
        return self.status in (HOLDS, FAILS)


def membership_residual(a: SymbolOperator, e: Sequence[Fraction]) -> list:
    """Polynomial vector A adj(G) A^T e - det(G) e; identically zero iff e
    lies in the image of A(x) wherever det(G)(x) != 0."""
    pm = a.to_polymatrix()
    gram = a.gram()
    det_g = gram.det()
    adj_g = gram.adjugate()
    projected = (pm @ adj_g @ pm.transpose()).mul_rational_vector(e)
    return [
        proj - det_g.scale(Fraction(c)) for proj, c in zip(projected, e)
    ]


def _nonzero_point_of(residual: list, n: int) -> tuple:
    """A rational point where some residual entry is nonzero, found by
    scanning integer grids of growing radius (a nonzero polynomial cannot
    vanish on arbitrarily large grids)."""
    radius = 3
    while radius <= 3 ** 8:
        for combo in itertools.product(range(-radius, radius + 1), repeat=n):
            if all(c == 0 for c in combo):
                continue
            pt = tuple(Fraction(c) for c in combo)
            for p in residual:
                if p.evaluate(pt) != 0:
                    return pt
        radius *= 2
    raise RuntimeError("could not locate a nonzero value of a nonzero polynomial")


def image_intersection(
    a: SymbolOperator,
    seed: int = 0,
    ellipticity: Optional[EllipticityVerdict] = None,
) -> IntersectionResult:
    """Intersect images at sampled directions; certify exactness for
    injective symbols by validating every surviving basis vector."""
    rng = random.Random(seed)
    initial = a.dim_e + 4
    samples = sample_directions(a.n, initial, rng)
    w = full_space(a.dim_e)
    trajectory: list[int] = []
    for xi in samples:
        w = subspace_intersection(w, column_space(a.evaluate(xi)))
        trajectory.append(w.dim)
    iterations = 0
    max_iterations = a.dim_e + initial
    if w.dim == 0:
        return IntersectionResult(w, samples, True, trajectory, iterations)

    if ellipticity is None:
        ellipticity = check_ellipticity(a)
    if ellipticity.status == ELLIPTIC:
        certified_vectors: list[tuple] = []
        while True:
            iterations += 1
            if iterations > max_iterations:
                raise RuntimeError("membership certification failed to terminate")
            progress = False
            certified_vectors = []
            for e in w.columns():
                residual = membership_residual(a, e)
                if all(p.is_zero() for p in residual):
                    certified_vectors.append(e)
                    continue
                xi = _nonzero_point_of(residual, a.n)
                samples.append(xi)
                w = subspace_intersection(w, column_space(a.evaluate(xi)))
                trajectory.append(w.dim)
                progress = True
                break
            if not progress:
                break
            if w.dim == 0:
                return IntersectionResult(w, samples, True, trajectory, iterations)
        return IntersectionResult(
            w, samples, True, trajectory, iterations, certified_vectors
        )

    # Not certifiably injective: images may drop rank only on a thin locus,
    # so try the low-height lattice directions and extra random rounds, then
    # report the sampled subspace without a certificate.
    for xi in probe_directions(a.n, EXTRA_SAMPLE_ROUNDS * initial, rng):
        samples.append(xi)
        w = subspace_intersection(w, column_space(a.evaluate(xi)))
        trajectory.append(w.dim)
        if w.dim == 0:
            return IntersectionResult(w, samples, True, trajectory, iterations)
    return IntersectionResult(w, samples, False, trajectory, iterations)


def check_canceling(
    a: SymbolOperator,
    seed: int = 0,
    ellipticity: Optional[EllipticityVerdict] = None,
) -> CancelingVerdict:
    res = image_intersection(a, seed, ellipticity)
    if res.subspace.dim == 0:
        return CancelingVerdict(
            CANCELING, res.samples, res.subspace,
            dim_trajectory=res.dim_trajectory, iterations=res.iterations,
        )
    if res.certified:
        return CancelingVerdict(
            NOT_CANCELING, res.samples, res.subspace,
            witness=res.subspace.columns()[0],
            dim_trajectory=res.dim_trajectory, iterations=res.iterations,
        )
    return CancelingVerdict(
        NOT_CANCELING_SAMPLED, res.samples, res.subspace,
        dim_trajectory=res.dim_trajectory, iterations=res.iterations,
    )


def check_bb_spanning(canceling: CancelingVerdict) -> SpanningVerdict:
    """Bourgain-Brezis spanning, derived from the common image W.

    The complements A(xi)[V]^perp span (intersection of A(xi)[V])^perp =
    W^perp, so they span E exactly when W = {0}; the verdict is as certain
    as the cancellation verdict it is derived from."""
    w = canceling.intersection
    status = SPANS if w.dim == 0 else DOES_NOT_SPAN
    return SpanningVerdict(status, w.ambient - w.dim, canceling.certified)


def check_partial_canceling(
    canceling: CancelingVerdict, t: QMatrix
) -> PartialCancelingVerdict:
    """Decide whether the common image W meets ker(t) only at 0."""
    w = canceling.intersection
    if t.cols != w.ambient:
        raise ValueError("constraint map must accept codomain vectors")
    constrained = subspace_intersection(w, kernel_basis(t))
    if constrained.dim == 0:
        # Sound even for a merely sampled intersection: the true common
        # intersection is contained in the sampled one.
        return PartialCancelingVerdict(HOLDS, canceling.samples, w, constrained)
    if canceling.certified:
        # Every vector of a certified nonzero W lies in every image.
        return PartialCancelingVerdict(
            FAILS, canceling.samples, w, constrained,
            witness=constrained.columns()[0],
        )
    return PartialCancelingVerdict(FAILS_SAMPLED, canceling.samples, w, constrained)


def _sampled_intersection(
    a: SymbolOperator, samples: Sequence[tuple]
) -> Optional[Subspace]:
    """Intersection of the images at the samples; None if a sample is not
    a nonzero direction."""
    w = full_space(a.dim_e)
    for xi in samples:
        if all(x == 0 for x in xi):
            return None
        w = subspace_intersection(w, column_space(a.evaluate(xi)))
    return w


def _verify_membership(
    a: SymbolOperator,
    e: Optional[tuple],
    sampled: Subspace,
    ellipticity: Optional[EllipticityVerdict],
) -> bool:
    """e is a nonzero vector in the image of A(xi) for every xi != 0.

    The membership identity only shows e in the image where det(A^T A) is
    nonzero; for a square symbol it holds for every e.  It proves
    membership everywhere only together with a verified ELLIPTIC verdict.
    """
    if ellipticity is None or ellipticity.status != ELLIPTIC:
        return False
    if e is None or all(x == 0 for x in e) or not sampled.contains(e):
        return False
    return all(p.is_zero() for p in membership_residual(a, e))


def verify_canceling(
    a: SymbolOperator,
    verdict: CancelingVerdict,
    ellipticity: Optional[EllipticityVerdict],
) -> bool:
    """Re-check a cancellation verdict from its stored sample set and
    witness, independently of the decision path.  ``ellipticity`` is the
    same report's ellipticity verdict if ``verify_ellipticity`` accepted
    it, else None."""
    w = _sampled_intersection(a, verdict.samples)
    if w is None or w != verdict.intersection:
        return False
    if verdict.status == CANCELING:
        return w.dim == 0
    if verdict.status == NOT_CANCELING:
        return _verify_membership(a, verdict.witness, w, ellipticity)
    if verdict.status == NOT_CANCELING_SAMPLED:
        return w.dim > 0
    return False


def verify_spanning(
    verdict: SpanningVerdict, canceling: Optional[CancelingVerdict]
) -> bool:
    """A spanning verdict holds iff it is the one derived from the same
    report's cancellation verdict, passed only if ``verify_canceling``
    accepted it."""
    return canceling is not None and verdict == check_bb_spanning(canceling)


def verify_partial_canceling(
    a: SymbolOperator,
    t: QMatrix,
    verdict: PartialCancelingVerdict,
    ellipticity: Optional[EllipticityVerdict],
) -> bool:
    """Re-check a partial cancellation verdict from its samples and
    witness; ``ellipticity`` is as for ``verify_canceling``."""
    w = _sampled_intersection(a, verdict.samples)
    if w is None or w != verdict.image_intersection:
        return False
    constrained = subspace_intersection(w, kernel_basis(t))
    if constrained != verdict.constrained_intersection:
        return False
    if verdict.status == HOLDS:
        return constrained.dim == 0
    if verdict.status == FAILS:
        return _verify_membership(a, verdict.witness, constrained, ellipticity)
    if verdict.status == FAILS_SAMPLED:
        return constrained.dim > 0
    return False
