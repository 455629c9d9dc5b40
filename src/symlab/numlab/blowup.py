"""Frequency-localized concentration families for injective symbols.

For an injective symbol A of order k and a codomain vector e lying in every
image A(xi)[V], that is in the common image W of a certified cancellation
verdict, the field with spectrum (2 pi i)^(-k) (c(xi/s) - c(s xi)) U(xi),
where c is a radial plateau cutoff (1 inside radius 1/2, 0 outside radius
2) and A(xi) U(xi) = e, maps under A(D) exactly to the difference of two
dilated copies of the cutoff's inverse transform times e.  Its L1 image
norm stays bounded by twice the cutoff mass while derivative norms grow
with the scale parameter; the experiments chart that growth.

U comes in closed form from the certificate, as in the paper's necessity
argument.  The NOT_CANCELING verdict holds a membership witness
A(x) u_j(x) = p_j(x) e_j, p_j > 0 away from 0, for each vector e_j of the
echelon basis of W; for e = sum_j c_j e_j, ``blowup_direction`` builds
exactly u = sum_j c_j u_j p / p_j with p the product of the distinct p_j,
so that A(x) u(x) = p(x) e, and U = u / p.  A is injective, so this U is
the only one.

``build_blowup_field`` makes one scalar field phi with spectrum
(2 pi i)^(-(s+k)) (c(xi/s) - c(s xi)) / p(xi), 0 at xi = 0, s the degree
of u, and returns u(D) phi (``grid.apply_symbol``): a field made by an
operator, which transforms nothing until it is measured.  Its image A(D)u
is the composite A u = p e applied to phi, a window times e, measured
(``grid.image_l1``) and never built.  p is evaluated on the grid
by ``grid.symbol_on_grid``, as every symbol is.

Every support here is compact: the cutoff vanishes for |xi| >= 2 and the
window at scale s for |xi| >= 2 s.  Each is evaluated only on the box of
frequencies with every |xi_i| below that reach (``grid.support_indices``)
and is an exact zero elsewhere, as the full-grid formula is there.  The
spectra of phi and of the cutoff are held to their band: the frequencies
beyond reach are never stored, and every transform and image of u runs on
the band only.

The cutoff and the window are even in every axis, and so is p when every
exponent of p is even, as |x|^(2m) is: then phi is held on the octant of
non-negative frequencies (``grid.GridField.from_octant``), as the cutoff
always is, each held to the band of its support on every axis.  Each
component of u keeps the octant when its monomials share one parity on
every axis, and otherwise expands phi to its half spectrum; a p with an odd
exponent holds phi on the half spectrum, held to its band on the last axis
(``grid.GridField.from_spectrum``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import pi, prod
from typing import NamedTuple, Sequence

import numpy as np

from ..deciders.cancellation import CancelingVerdict
from ..deciders.ellipticity import ELLIPTIC, EllipticityVerdict
from ..exact.poly import Polynomial
from ..exact.symbol import SymbolOperator
from .grid import (
    GridField,
    GridSpec,
    apply_symbol,
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


class BlowupError(ValueError):
    pass


class BlowupDirection(NamedTuple):
    """e, as a float vector, and one witness of it: u, a polynomial vector
    on V homogeneous of degree s, and p > 0 away from 0, homogeneous of
    degree s + k, with A(x) u(x) == p(x) e exactly."""

    e: np.ndarray
    u: tuple
    p: Polynomial


def blowup_direction(
    a: SymbolOperator, e: Sequence, ellipticity: EllipticityVerdict, canceling: CancelingVerdict
) -> BlowupDirection:
    """e with its witness, once A is certified injective and e is a nonzero
    vector of the common image intersection of a certified cancellation
    verdict: only then does A(D)u collapse to the two-cutoff difference
    whose L1 norm the experiments rely on.  The witness combines those of
    the verdict's memberships, one for each vector e_j of the echelon basis
    of W (``Subspace.columns``): c_j is the entry of e at the leading
    position of e_j, p the product of the distinct p_j with c_j != 0, and
    u = sum_j c_j u_j p / p_j."""
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
    terms = [(e_exact[next(i for i, x in enumerate(m.e) if x)], m) for m in canceling.memberships]
    terms = [(c, m) for c, m in terms if c]
    factors = list(dict.fromkeys(m.p for _, m in terms))
    one = Polynomial.constant(a.n, 1)
    u = [Polynomial.zero(a.n)] * a.dim_v
    for c, m in terms:
        cofactor = prod((q for q in factors if q != m.p), start=one).scale(c)
        u = [acc + q * cofactor for acc, q in zip(u, m.u)]
    return BlowupDirection(np.array([float(x) for x in e_exact]), tuple(u),
                           prod(factors, start=one))


def swap_symmetric(direction: BlowupDirection) -> bool:
    """Whether p and every entry of u are unchanged by each transposition
    of two axes, checked exactly on their terms.  Then so are phi, whose
    window and half-box shift are radial and the same on every axis, and
    every component u_c(D) phi of the blowup field: its gradient takes one
    derivative per component (``grid.derivative_magnitude`` with
    ``symmetric``)."""
    def swapped(alpha: tuple, i: int, j: int) -> tuple:
        out = list(alpha)
        out[i], out[j] = alpha[j], alpha[i]
        return tuple(out)

    polys = [q.as_dict() for q in (direction.p, *direction.u)]
    return all({swapped(alpha, i, j): x for alpha, x in terms.items()} == terms
               for i, j in combinations(range(direction.p.n), 2) for terms in polys)


def _column(polys: Sequence[Polynomial], order: int) -> SymbolOperator:
    """The len(polys) x 1 symbol of order ``order`` whose row c is polys[c]."""
    return SymbolOperator.from_entries(
        polys[0].n, 1, len(polys), order,
        {(alpha, c, 0): x for c, q in enumerate(polys) for alpha, x in q.terms})


def build_blowup_field(direction: BlowupDirection, scale: float, spec: GridSpec) -> GridField:
    """The field u at one scale, for a ``direction`` from
    ``blowup_direction``: u(D) phi, phi the scalar field with spectrum
    (2 pi i)^(-(s+k)) window / p, 0 at xi = 0.  The window is evaluated
    where every |xi_i| < 2 scale, its support, and phi is zero outside it:
    its spectrum is held to the band of that support, on the octant when
    every exponent of p is even."""
    if scale < 2:
        raise BlowupError("scale parameter must be at least 2")
    if spec.nyquist < scale:
        raise BlowupError(
            f"grid Nyquist {spec.nyquist} cannot hold content at scale {scale}"
        )
    p = direction.p
    degree = p.degree()
    octant = all(x % 2 == 0 for alpha, _ in p.terms for x in alpha)
    xi = spec.frequency_grids(octant)
    box = support_indices(xi, 2.0 * scale)
    band = (tuple(len(index) for index in box) if octant
            else spec.half_shape[:-1] + (len(box[-1]),))
    r = np.sqrt(sum(restrict(x, box) ** 2 for x in xi))
    window = plateau_cutoff(r / scale) - plateau_cutoff(r * scale)
    # Shift the concentration point to the box center so the boundary shell
    # measures genuine truncation: the shift by half the box is (-1)^m_i on
    # axis i, a real sign applied in place.
    for sign in half_box_shift(spec, octant):
        window *= restrict(sign, box)
    (_, _, p_values), = symbol_on_grid(_column([p], degree), spec, band, octant)
    p_values = restrict(p_values, box)
    # s + k is even: (2 pi i)^(-(s+k)) is real.  The window is 0 at xi = 0,
    # the one zero of p.
    unit = ((2j * pi) ** -degree).real
    hat = np.divide(unit * window, p_values, out=np.zeros_like(window),
                    where=p_values != 0.0)[None, ...]
    if octant:
        phi = GridField.from_octant(spec, hat)
    else:
        held = np.zeros((1,) + band, dtype=complex)
        held[(slice(None),) + np.ix_(*box)] = hat
        phi = GridField.from_spectrum(spec, held)
    return apply_symbol(_column(direction.u, max(q.degree() for q in direction.u)), phi)
