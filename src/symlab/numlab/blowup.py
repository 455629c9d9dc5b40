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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import pi
from typing import Optional, Sequence

import numpy as np

from ..deciders.cancellation import CancelingVerdict, image_intersection
from ..deciders.ellipticity import ELLIPTIC, EllipticityVerdict, check_ellipticity
from ..exact.symbol import SymbolOperator
from .grid import GridField, GridSpec, apply_symbol, half_box_shift, symbol_on_grid
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


@dataclass
class BlowupProfile:
    """Radial cutoff data shared by one experiment run."""

    spec: GridSpec
    cutoff_l1: float          # L1 norm of the cutoff's inverse transform

    @staticmethod
    def build(spec: GridSpec) -> "BlowupProfile":
        xi = spec.frequency_grids()
        r = np.sqrt(sum(x**2 for x in xi))
        hat = plateau_cutoff(r)[None, ...].astype(complex)
        psi = GridField.from_spectrum(spec, hat)
        return BlowupProfile(spec, lp_norm(psi, 1.0))


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
    a: SymbolOperator,
    e: Sequence,
    ellipticity: Optional[EllipticityVerdict] = None,
    canceling: Optional[CancelingVerdict] = None,
    seed: int = 0,
) -> np.ndarray:
    """e as a float vector, once A is certified injective and e is a
    nonzero vector of the common image intersection of a certified
    cancellation verdict (each verdict computed with ``seed`` when not
    given): only then does A(D)u collapse to the two-cutoff difference whose
    L1 norm the experiments rely on."""
    if ellipticity is None:
        ellipticity = check_ellipticity(a)
    if ellipticity.status != ELLIPTIC:
        raise BlowupError("symbol is not certified injective")
    e_exact = [Fraction(x) for x in e]
    if canceling is None:
        canceling = image_intersection(a, seed)
    if not canceling.certified:
        raise BlowupError("the common image intersection is not certified")
    if not canceling.intersection.contains(e_exact):
        raise BlowupError(
            "direction does not lie in the certified common image intersection"
        )
    if all(x == 0 for x in e_exact):
        raise BlowupError("direction must be nonzero")
    return np.array([float(x) for x in e_exact])


def build_blowup_field(
    a: SymbolOperator,
    e: Sequence,
    scale: float,
    spec: GridSpec,
    profile: Optional[BlowupProfile] = None,
    ellipticity: Optional[EllipticityVerdict] = None,
    canceling: Optional[CancelingVerdict] = None,
    seed: int = 0,
    directions: Optional[np.ndarray] = None,
) -> tuple[GridField, GridField, dict]:
    """Construct (u, A(D)u) for one scale; returns the fields and a flags
    dictionary (nyquist margin, truncation tail, cutoff mass bound).

    The symbol and direction must pass ``blowup_direction``.  U(xi) does not
    depend on the scale: ``directions`` is ``solve_symbol_directions(a,
    spec, e)`` when the caller has it, and is solved here otherwise.
    """
    if scale < 2:
        raise BlowupError("scale parameter must be at least 2")
    if spec.nyquist < scale:
        raise BlowupError(
            f"grid Nyquist {spec.nyquist} cannot hold content at scale {scale}"
        )
    e_float = blowup_direction(a, e, ellipticity, canceling, seed)

    if profile is None or profile.spec != spec:
        profile = BlowupProfile.build(spec)
    xi = spec.frequency_grids()
    r = np.sqrt(sum(x**2 for x in xi))
    window = plateau_cutoff(r / scale) - plateau_cutoff(r * scale)
    if directions is None:
        directions = solve_symbol_directions(a, spec, e_float)
    # Shift the concentration point to the box center so the boundary shell
    # measures genuine truncation: the shift by half the box is (-1)^m_i on
    # axis i, a real sign applied in place.
    for sign in half_box_shift(spec):
        window *= sign
    u_hat = ((2j * pi) ** (-a.order) * window)[None, ...] * directions
    u = GridField.from_spectrum(spec, u_hat)
    au = apply_symbol(a, u)
    e_norm = float(np.sqrt((e_float**2).sum()))
    flags = {
        "nyquist": spec.nyquist,
        "nyquist_margin_ok": bool(spec.nyquist >= 4 * scale),
        "tail": u.boundary_tail(),
        "cutoff_l1": profile.cutoff_l1,
        "image_l1_bound": 2.0 * profile.cutoff_l1 * e_norm,
    }
    return u, au, flags
