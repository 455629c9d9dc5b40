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
is never built here: the experiment measures it with
``grid.image_magnitude`` like every other image it only measures.
"""

from __future__ import annotations

from fractions import Fraction
from math import pi
from typing import Sequence

import numpy as np

from ..deciders.cancellation import CancelingVerdict
from ..deciders.ellipticity import ELLIPTIC, EllipticityVerdict
from ..exact.symbol import SymbolOperator
from .grid import GridField, GridSpec, half_box_shift, symbol_on_grid
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
    norm is at most 2 ||psi||_1 |e|."""
    xi = spec.frequency_grids()
    r = np.sqrt(sum(x**2 for x in xi))
    hat = plateau_cutoff(r)[None, ...].astype(complex)
    return lp_norm(GridField.from_spectrum(spec, hat), 1.0)


class BlowupError(ValueError):
    pass


def solve_symbol_directions(
    a: SymbolOperator, spec: GridSpec, e: Sequence[float]
) -> np.ndarray:
    """U(xi) with A(xi) U(xi) = e solved through the normal equations at
    every nonzero frequency of the half spectrum; the zero frequency gets
    U = 0."""
    amat = np.zeros(spec.half_shape + (a.dim_e, a.dim_v))
    for r, c, values in symbol_on_grid(a, spec):
        amat[..., r, c] = values
    gram = np.einsum("...ev,...ew->...vw", amat, amat)
    rhs = np.einsum("...ev,e->...v", amat, np.asarray(e, dtype=float))
    origin = tuple(0 for _ in range(spec.n))
    gram[origin] = np.eye(a.dim_v)
    u = np.linalg.solve(gram, rhs[..., None])[..., 0]
    u[origin] = 0.0
    return np.moveaxis(u, -1, 0)  # (dimV, *half_shape)


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
    a: SymbolOperator, scale: float, spec: GridSpec, directions: np.ndarray
) -> GridField:
    """The field u at one scale, from ``directions`` =
    ``solve_symbol_directions(a, spec, e)`` for a direction e that passed
    ``blowup_direction``; U(xi) does not depend on the scale."""
    if scale < 2:
        raise BlowupError("scale parameter must be at least 2")
    if spec.nyquist < scale:
        raise BlowupError(
            f"grid Nyquist {spec.nyquist} cannot hold content at scale {scale}"
        )
    xi = spec.frequency_grids()
    r = np.sqrt(sum(x**2 for x in xi))
    window = plateau_cutoff(r / scale) - plateau_cutoff(r * scale)
    # Shift the concentration point to the box center so the boundary shell
    # measures genuine truncation: the shift by half the box is (-1)^m_i on
    # axis i, a real sign applied in place.
    for sign in half_box_shift(spec):
        window *= sign
    u_hat = ((2j * pi) ** (-a.order) * window)[None, ...] * directions
    return GridField.from_spectrum(spec, u_hat)
