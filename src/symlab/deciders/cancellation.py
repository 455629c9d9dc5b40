"""Common-image analysis of operator symbols.

The common intersection W of the images A(xi)[V] over all xi != 0 lies in
the intersection of the images at sampled directions, so a trivial sampled
intersection certifies W = {0}.  The search starts from the image at the
first sample and stops at the first sample where the intersection is {0}:
the verdict stores only the samples up to that one, and its dimension
trajectory ends with that 0.  A vector e is certified to lie in W by a
membership witness (``deciders.witness``): u in V[x] homogeneous of degree
s and p > 0 homogeneous of even degree s + k (k the order of A) with

    A(x) u(x) == p(x) e        exactly, as polynomials,

so that e = A(xi) u(xi) / p(xi) at every xi != 0; no ellipticity is
assumed.  Every basis vector of the sampled intersection is tried with
p = |x|^(s+k), s <= ``MAX_WITNESS_DEGREE`` (3), by one exact solve
(``find_witnesses``); the vectors it leaves open on the first intersection
are tried with p = det(A^T A) (``cofactor_witnesses``), which succeeds for
every vector of W when A is injective away from 0.  If every basis vector
has a witness, the sampled intersection is W itself (NOT_CANCELING).
Otherwise further seeded directions, the low-height lattice ones first, are
intersected until it shrinks, and the witnesses are sought again; if it
does not shrink, the verdict is NOT_CANCELING_SAMPLED, which claims
nothing, with the reason.

The cancellation verdict is the only certificate of W.  Its verifier
re-intersects the stored samples (any after W = {0} are only checked to
be nonzero), compares the dimension after each with the stated trajectory,
re-checks every witness and requires the witnessed vectors to span the
stated intersection.  Bourgain-Brezis
spanning holds iff W = {0}, and partial cancellation with respect to a map
T holds iff W meets ker T only at 0; both verdicts are derived from the
cancellation verdict, and their verifiers derive them again from a
cancellation verdict that passed instead of re-certifying W.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from ..exact.matrix import (
    Subspace,
    full_space,
    int_column_space,
    kernel_basis,
    subspace_from_columns,
    subspace_intersection,
)
from ..exact.symbol import SymbolOperator
from .ellipticity import check_ellipticity  # noqa: F401  (wrapped by bench/spans.py)
from .witness import (
    MAX_WITNESS_DEGREE,
    Membership,
    cofactor_witnesses,
    find_witnesses,
    verify_memberships,
    witness_degree_bound,
)

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
class CancelingVerdict:
    status: str
    samples: list[tuple]
    intersection: Subspace
    dim_trajectory: list[int] = field(default_factory=list)
    iterations: int = 0
    memberships: list[Membership] = field(default_factory=list)
    reason: Optional[str] = None

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
    constrained_intersection: Subspace

    @property
    def certified(self) -> bool:
        return self.status in (HOLDS, FAILS)


def _intersect(a: SymbolOperator, w: Optional[Subspace], xi: tuple) -> Subspace:
    """w ∩ A(xi)[V], with None standing for the whole space, which is
    never built: the image itself when w is None or the whole space, and w
    itself when it is already {0}.  The image is the column space of the
    integer rows of a positive multiple of A(xi)."""
    if w is not None and w.dim == 0:
        return w
    image = int_column_space(a.scaled_rows(xi))
    return image if w is None or w.dim == w.ambient else subspace_intersection(w, image)


def image_intersection(a: SymbolOperator, seed: int = 0) -> CancelingVerdict:
    """Intersect images at sampled directions, then certify every basis
    vector of the result with a membership witness or sample further.
    ``check_canceling`` is the same function."""
    rng = random.Random(seed)
    initial = a.dim_e + 4
    samples = sample_directions(a.n, initial, rng)
    w = None  # the whole space, replaced by the first image
    trajectory: list[int] = []
    for count, xi in enumerate(samples, 1):
        w = _intersect(a, w, xi)
        trajectory.append(w.dim)
        if w.dim == 0:
            return CancelingVerdict(CANCELING, samples[:count], w, trajectory)

    probes = iter(probe_directions(a.n, EXTRA_SAMPLE_ROUNDS * initial, rng))
    iterations = 1
    basis = w.columns()
    memberships = find_witnesses(a, basis)
    # A cofactor witness costs det(A^T A), its adjugate and a cover: it is
    # tried once, on this first intersection, which is W itself unless every
    # sample met the thin locus where images drop rank.
    open_ = [i for i, m in enumerate(memberships) if m is None]
    for i, m in zip(open_, cofactor_witnesses(a, [basis[i] for i in open_])):
        memberships[i] = m
    while None in memberships:
        e = basis[memberships.index(None)]
        # Images may drop rank only on a thin locus: sample until w shrinks.
        dim = w.dim
        for xi in probes:
            samples.append(xi)
            w = _intersect(a, w, xi)
            trajectory.append(w.dim)
            if w.dim < dim:
                break
        if w.dim == 0:
            return CancelingVerdict(CANCELING, samples, w, trajectory, iterations)
        if w.dim == dim:
            top = min(MAX_WITNESS_DEGREE, witness_degree_bound(a))
            reason = (
                f"basis vector {[str(x) for x in e]} has no membership witness with "
                f"p = |x|^(s+k), s <= {top}, and the sampled intersection (dimension "
                f"{dim}) did not shrink at {len(samples)} directions"
            )
            return CancelingVerdict(NOT_CANCELING_SAMPLED, samples, w, trajectory, iterations,
                                    reason=reason)
        iterations += 1
        basis = w.columns()
        memberships = find_witnesses(a, basis)
    return CancelingVerdict(NOT_CANCELING, samples, w, trajectory, iterations, memberships)


# The deciders' name for the same function; the benchmark trace wraps both.
check_canceling = image_intersection


def check_bb_spanning(canceling: CancelingVerdict) -> SpanningVerdict:
    """Bourgain-Brezis spanning, derived from the common image W.

    The complements A(xi)[V]^perp span (intersection of A(xi)[V])^perp =
    W^perp, so they span E exactly when W = {0}; the verdict is as certain
    as the cancellation verdict it is derived from."""
    w = canceling.intersection
    status = SPANS if w.dim == 0 else DOES_NOT_SPAN
    return SpanningVerdict(status, w.ambient - w.dim, canceling.certified)


def check_partial_canceling(
    canceling: CancelingVerdict, t: tuple
) -> PartialCancelingVerdict:
    """Decide whether the common image W meets ker(t) only at 0, derived
    from the cancellation verdict.  HOLDS is certified even when W is only
    sampled, since the true common image lies in the sampled one; FAILS is
    as certain as the cancellation verdict, whose witnesses put every
    vector of W in every image.  ``t`` is the rows of T, each a tuple of
    ``Fraction``."""
    w = canceling.intersection
    if any(len(row) != w.ambient for row in t):
        raise ValueError("constraint map must accept codomain vectors")
    constrained = subspace_intersection(w, kernel_basis(t, w.ambient))
    if constrained.dim == 0:
        return PartialCancelingVerdict(HOLDS, constrained)
    return PartialCancelingVerdict(FAILS if canceling.certified else FAILS_SAMPLED, constrained)


def verify_canceling(a: SymbolOperator, verdict: CancelingVerdict) -> bool:
    """Re-check a cancellation verdict independently of the decision path:
    re-intersect the images at the stored samples, which must be nonzero
    directions in R^n, and compare with the stated intersection W and the
    stated dimension after each sample.  Samples after W = {0} are checked
    but not evaluated, and read 0.  NOT_CANCELING needs W != {0} and valid
    membership witnesses whose vectors span W."""
    w = None  # the whole space, replaced by the first image
    trajectory = []
    for xi in verdict.samples:
        if len(xi) != a.n or all(x == 0 for x in xi):
            return False
        w = _intersect(a, w, xi)
        trajectory.append(w.dim)
    if w is None:
        w = full_space(a.dim_e)
    if w != verdict.intersection or trajectory != verdict.dim_trajectory:
        return False
    if verdict.status == CANCELING:
        return w.dim == 0
    if verdict.status == NOT_CANCELING:
        spanned = subspace_from_columns(a.dim_e, [m.e for m in verdict.memberships])
        return (w.dim > 0 and spanned == w
                and verify_memberships(a, verdict.memberships))
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
    verdict: PartialCancelingVerdict, canceling: Optional[CancelingVerdict], t: tuple
) -> bool:
    """A partial cancellation verdict holds iff it is the one derived from
    the same report's cancellation verdict, passed only if
    ``verify_canceling`` accepted it."""
    return canceling is not None and verdict == check_partial_canceling(canceling, t)
