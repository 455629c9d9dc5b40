"""Frequency-localized concentration families for injective symbols.

For an injective symbol A and a codomain vector e lying in every image
A(xi)[V], that is in the common image W of a certified cancellation
verdict, the field with spectrum (2 pi i)^(-k) (c(xi/s) - c(s xi)) U(xi),
where c is a radial plateau cutoff (1 inside radius 1/2, 0 outside radius
2) and U(xi) solves A(xi) U(xi) = e through the normal equations, maps
under A(D) exactly to the difference of two dilated copies of the cutoff's
inverse transform times e.  Its L1 image norm stays bounded by twice the
cutoff mass while derivative norms grow with the scale parameter; the
experiments chart that growth.

One path: ``blowup_direction`` validates e once against both certified
verdicts, ``solve_symbol_directions`` and ``cutoff_l1`` run once per grid,
and ``build_blowup_field`` builds only u at each scale.  The image A(D)u
is never built here: the experiment reduces its L1 norm slab by slab
(``grid.image_l1``), like every other image it only measures.

Every support here is compact: the cutoff vanishes for |xi| >= 2 and the
window at scale s for |xi| >= 2 s.  Each is evaluated only on the box of
frequencies with every |xi_i| below that reach (``grid.support_indices``)
and is an exact zero elsewhere, as the full-grid formula is there; the
direction solve runs on the box of the largest scale and carries that
reach, which ``build_blowup_field`` checks.  The spectra of u and of the
cutoff are held to their band: the frequencies beyond reach are never
stored, and every transform and image of u runs on the band only.

The cutoff and the window are even in every axis, and so are A(xi) and
U(xi) when every monomial of A has only even exponents, as the
Laplacian's do: the symbol's exponents alone decide it (``_even``).  Then
the direction solve runs on the octant of non-negative frequencies, and u
is held there (``grid.GridField.from_octant``), as the cutoff always is,
each held to the band of its support on every axis; every other symbol
runs on the half spectrum, held to its band on the last axis
(``grid.GridField.from_spectrum``).
"""

from __future__ import annotations

from fractions import Fraction
from math import pi
from typing import NamedTuple, Sequence

import numpy as np

from ..deciders.cancellation import CancelingVerdict
from ..deciders.ellipticity import ELLIPTIC, EllipticityVerdict
from ..exact.symbol import SymbolOperator
from .grid import (
    GridField,
    GridSpec,
    half_box_shift,
    restrict,
    support_indices,
    symbol_on_grid,
)
from .norms import lp_norm


def smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        a = np.exp(-1.0 / t, where=t > 0, out=np.zeros_like(t))
        b = np.exp(-1.0 / (1.0 - t), where=t < 1, out=np.zeros_like(t))
    return a / (a + b)


def smoothstep_deriv(t: np.ndarray) -> np.ndarray:
    """Derivative of the smooth step; supported on (0, 1)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0) & (t < 1)
    ti = t[inside]
    a = np.exp(-1.0 / ti)
    b = np.exp(-1.0 / (1.0 - ti))
    out[inside] = a * b * (1.0 / ti**2 + 1.0 / (1.0 - ti) ** 2) / (a + b) ** 2
    return out


def plateau_cutoff(r: np.ndarray) -> np.ndarray:
    """Radial profile: 1 on [0, 1/2], 0 on [2, inf), smooth in between."""
    r = np.asarray(r, dtype=float)
    return smoothstep((2.0 - r) / 1.5)


def cutoff_l1(spec: GridSpec) -> float:
    """L1 norm of psi, the inverse transform of the plateau cutoff on the
    grid: A(D)u is a difference of two dilates of psi times e, so its L1
    norm is at most 2 ||psi||_1 |e|.  The cutoff is radial, so even in
    every axis: it is evaluated on the octant where every |xi_i| < 2, its
    support, and held to that band."""
    xi = spec.frequency_grids(octant=True)
    box = support_indices(xi, 2.0)
    r = np.sqrt(sum(restrict(x, box) ** 2 for x in xi))
    return lp_norm(GridField.from_octant(spec, plateau_cutoff(r)[None, ...]), 1.0)


def _even(a: SymbolOperator) -> bool:
    """Whether every monomial of A has only even exponents: then A(xi) and
    U(xi) are even in every axis, and the blowup spectra are held on the
    octant."""
    return all(e % 2 == 0 for alpha, _ in a.terms for e in alpha)


def _band_shape(spec: GridSpec, box: list[np.ndarray], octant: bool) -> tuple[int, ...]:
    """The shape of a half spectrum or octant held to the band of ``box``
    (from ``support_indices`` on ``frequency_grids(octant)``): its
    indices on the last axis, and on every axis of an octant, are a
    prefix, as ``rfftfreq`` rises from 0, so the band stops after the last
    of them."""
    if octant:
        return tuple(len(index) for index in box)
    return spec.half_shape[:-1] + (len(box[-1]),)


class BlowupError(ValueError):
    pass


class SymbolDirections(NamedTuple):
    """U(xi) of shape (dimV, *spec.half_shape), or (dimV,
    *spec.octant_shape) for a symbol whose monomials have only even
    exponents, solved where every |xi_i| < reach and zero elsewhere."""

    values: np.ndarray
    reach: float


def solve_symbol_directions(
    a: SymbolOperator, spec: GridSpec, e: Sequence[float], reach: float
) -> SymbolDirections:
    """U(xi) with A(xi) U(xi) = e solved through the normal equations at
    every nonzero frequency of the half spectrum with every |xi_i| < reach
    (``math.inf`` for all of them); the zero frequency and the frequencies
    beyond reach get U = 0.  For a symbol whose monomials have only even
    exponents the frequencies are those of the octant."""
    octant = _even(a)
    box = support_indices(spec.frequency_grids(octant), reach)
    amat = np.zeros(tuple(len(index) for index in box) + (a.dim_e, a.dim_v))
    for r, c, values in symbol_on_grid(a, spec, _band_shape(spec, box, octant), octant):
        amat[..., r, c] = restrict(values, box)
    u = np.zeros((a.dim_v,) + (spec.octant_shape if octant else spec.half_shape))
    if amat.size:
        gram = np.einsum("...ev,...ew->...vw", amat, amat)
        rhs = np.einsum("...ev,e->...v", amat, np.asarray(e, dtype=float))
        # A nonempty box holds the zero frequency at its first index.
        origin = tuple(0 for _ in range(spec.n))
        gram[origin] = np.eye(a.dim_v)
        if a.dim_v == 1:
            # A scalar unknown: one division per frequency, not a batch of
            # 1 x 1 solves.
            solved = rhs / gram[..., 0]
        else:
            solved = np.linalg.solve(gram, rhs[..., None])[..., 0]
        solved[origin] = 0.0
        u[(slice(None),) + np.ix_(*box)] = np.moveaxis(solved, -1, 0)
    return SymbolDirections(u, reach)


def blowup_direction(
    a: SymbolOperator, e: Sequence, ellipticity: EllipticityVerdict, canceling: CancelingVerdict
) -> np.ndarray:
    """e as a float vector, once A is certified injective and e is a
    nonzero vector of the common image intersection of a certified
    cancellation verdict: only then does A(D)u collapse to the two-cutoff
    difference whose L1 norm the experiments rely on."""
    if ellipticity.status != ELLIPTIC:
        raise BlowupError("symbol is not certified injective")
    if not canceling.certified:
        raise BlowupError("the common image intersection is not certified")
    e_exact = [Fraction(x) for x in e]
    if not canceling.intersection.contains(e_exact):
        raise BlowupError(
            "direction does not lie in the certified common image intersection"
        )
    if all(x == 0 for x in e_exact):
        raise BlowupError("direction must be nonzero")
    return np.array([float(x) for x in e_exact])


def build_blowup_field(
    a: SymbolOperator, scale: float, spec: GridSpec, directions: SymbolDirections
) -> GridField:
    """The field u at one scale, from ``directions`` =
    ``solve_symbol_directions(a, spec, e, reach)`` for a direction e that
    passed ``blowup_direction`` and a reach of at least 2 scale; U(xi) does
    not depend on the scale.  The window is evaluated where every
    |xi_i| < 2 scale, its support, and u is zero outside it: its spectrum
    is held to the band of that support, on the octant when every monomial
    of A has only even exponents."""
    if scale < 2:
        raise BlowupError("scale parameter must be at least 2")
    if spec.nyquist < scale:
        raise BlowupError(
            f"grid Nyquist {spec.nyquist} cannot hold content at scale {scale}"
        )
    if directions.reach < 2.0 * scale:
        raise BlowupError(
            f"directions solved within {directions.reach} do not cover the "
            f"window at scale {scale}"
        )
    octant = _even(a)
    xi = spec.frequency_grids(octant)
    box = support_indices(xi, 2.0 * scale)
    r = np.sqrt(sum(restrict(x, box) ** 2 for x in xi))
    window = plateau_cutoff(r / scale) - plateau_cutoff(r * scale)
    # Shift the concentration point to the box center so the boundary shell
    # measures genuine truncation: the shift by half the box is (-1)^m_i on
    # axis i, a real sign applied in place.
    for sign in half_box_shift(spec, octant):
        window *= restrict(sign, box)
    inside = (slice(None),) + np.ix_(*box)
    unit = (2j * pi) ** (-a.order)
    if octant:
        # k is even: (2 pi i)^(-k) is real, and every factor on the octant
        # is the real part of the full-grid formula's.
        u_hat = (unit.real * window)[None, ...] * directions.values[inside]
        return GridField.from_octant(spec, u_hat)
    u_hat = np.zeros((a.dim_v,) + _band_shape(spec, box, octant), dtype=complex)
    u_hat[inside] = (unit * window)[None, ...] * directions.values[inside]
    return GridField.from_spectrum(spec, u_hat)
