"""Test fields used by the experiments.

The fields built from an operator are operator-made (``grid.apply_symbol``):
the curl-potential field is the planar curl of a Gaussian, and the newton
field is the gradient of a scalar potential held by its spectrum, so every
image the experiments measure on them is one composite symbol applied to
the potential.

The centred radial fields sampled in space, the Gaussian bump, the
mollified disc and the plateau test functions, are even about the box
centre by their closed form: each is evaluated on the octant of grid
points only (indices 0 .. N/2 of every axis, the centre being index N/2)
and held there (``grid.GridField.from_octant_values``), so its spectrum,
images, norms and pairings run on the octant.  Every sum over one of them
(the Gaussian's mass, the plateau's gradient norm) weights each point of
the octant by its mirror count (``grid.grid_sum``).  The offset fields
are sampled on the grid: ``dx_bump`` holds its values, and the potential
of ``curl_potential_field`` is held by its spectrum only, its values being
dropped once transformed, so that the field's values are synthesized one
component at a time, and only when read."""

from __future__ import annotations

from math import pi
from typing import Optional

import numpy as np

from ..catalog import gradient
from ..exact.symbol import SymbolOperator
from .blowup import smoothstep, smoothstep_deriv
from .grid import (
    GridField,
    GridSpec,
    analysis,
    apply_symbol,
    grid_sum,
    half_box_shift,
    restrict,
    support_indices,
)

# g -> (d2 g, -d1 g): the planar curl of a scalar potential.
_PERP_GRADIENT = SymbolOperator.from_entries(2, 1, 2, 1, {((1, 0), 1, 0): -1, ((0, 1), 0, 0): 1})
# phi -> (d1 phi, d2 phi, d3 phi).
_GRADIENT_3 = gradient(3).operator


def _octant_offsets(spec: GridSpec) -> list[np.ndarray]:
    """x_i - c per axis, c the box centre, on the octant of grid points
    (indices 0 .. N/2 of every axis, the centre being index N/2): one axis
    each, broadcast to spec.octant_shape.  Each offset is the negative of
    the full grid's at the mirror index N - m."""
    top = (slice(spec.size // 2 + 1),) * spec.n
    c = spec.box / 2.0
    return [x[top] - c for x in spec.coordinate_grids()]


def _octant_radius(spec: GridSpec) -> np.ndarray:
    return np.sqrt(sum(d**2 for d in _octant_offsets(spec)))


def gaussian_bump(
    spec: GridSpec,
    sigma: float = 1.0,
    components: Optional[list[float]] = None,
    normalize_l1: bool = False,
) -> GridField:
    """Gaussian exp(-r^2 / (2 sigma^2)) centered in the box, optionally
    scaled to unit mass, broadcast onto a component direction.  Radial
    about the centre, so held on its octant of grid points
    (``GridField.from_octant_values``), where its mass is the mirror-
    weighted sum."""
    g = np.exp(-(_octant_radius(spec) ** 2) / (2.0 * sigma**2))
    if normalize_l1:
        g = g / (grid_sum(spec, g, slice(None)) * spec.cell_volume)
    comps = components if components is not None else [1.0]
    return GridField.from_octant_values(spec, np.stack([c * g for c in comps]))


def mollified_disc(spec: GridSpec, radius: float = 1.0, width: float = 0.2) -> GridField:
    """Smoothed indicator of the centered disc; the transition band has the
    given width.  Radial about the centre, so held on its octant of grid
    points."""
    vals = smoothstep((radius + width / 2.0 - _octant_radius(spec)) / width)
    return GridField.from_octant_values(spec, vals[None, ...])


def dx_bump(spec: GridSpec, sigma: float = 1.0) -> GridField:
    """First coordinate derivative of a Gaussian: a mean-zero scalar field.
    The center sits off the grid symmetry point so discrete pairings with
    even test functions do not cancel identically."""
    coords = spec.coordinate_grids()
    c = spec.box / 2.0 + 0.37 * sigma
    r2 = sum((x - c) ** 2 for x in coords)
    g = np.exp(-r2 / (2.0 * sigma**2))
    vals = -(coords[0] - c) / sigma**2 * g
    return GridField(spec, vals[None, ...])


def curl_potential_field(spec: GridSpec, sigma: float = 1.0) -> GridField:
    """Divergence-free planar field (d2 g, -d1 g) from a skewed Gaussian
    potential; the skew and offset avoid exact discrete cancellations in
    pairings against radial test functions.  The potential is sampled on
    the grid, checked finite and held by its spectrum only
    (``grid.analysis``, then ``GridField.from_spectrum``): its values are
    dropped here."""
    if spec.n != 2:
        raise ValueError("curl potential field is two-dimensional")
    x, y = spec.coordinate_grids()
    cx = spec.box / 2.0 + 0.29 * sigma
    cy = spec.box / 2.0 - 0.17 * sigma
    g = np.exp(
        -((x - cx) ** 2) / (2.0 * sigma**2) - ((y - cy) ** 2) / (0.8 * sigma**2)
    )
    potential = GridField.from_spectrum(spec, analysis(spec, g[None, ...]))
    return apply_symbol(_PERP_GRADIENT, potential)


def newton_gradient_field(spec: GridSpec, eps: float) -> GridField:
    """Mollified fundamental-solution gradient on a 3-d box, the field
    grad(D) phi made from the scalar potential phi: the spectrum of phi is
    -moll_hat / (4 pi^2 |xi|^2), a Gaussian mollifier at scale eps over the
    Laplacian's multiplier, with the constant mode removed, and shifted to
    the box center.  The field's divergence is the mollifier minus its box
    mean, and its curl is the zero symbol.

    The spectrum of phi is a function of |xi| times the shift
    (-1)^(m_0 + m_1 + m_2): even in every axis, so phi is held on its
    octant (``GridField.from_octant``), and every image of it through a
    monomial is even or odd in every axis and measured on the octant too.
    Both factors are unchanged when the integer modes m_i trade places, and
    the Nyquist mask is the same on every axis; so phi on the grid is
    symmetric under every permutation of the axes, and d_j phi is d_2 phi
    with axes j and 2 swapped (up to rounding): the field's magnitude is
    the axis-swap sum of (d_2 phi)^2 (``grid.axis_swap_sum``)."""
    if spec.n != 3:
        raise ValueError("this family lives on a three-dimensional box")
    xi = spec.frequency_grids(octant=True)
    # The real octant of phi, shift moll_hat / (-4 pi^2 |xi|^2), with the
    # constant mode removed.  The shift by half the box, which puts the
    # singular core at the box center rather than the corner, is (-1)^m_i on
    # axis i, and the Gaussian mollifier is a product over the axes too:
    # both are built from one 1-d factor per axis.  The work on the octant
    # is three passes over one real buffer (|xi|^2, the first two factors
    # over it, the scale by the last), which the field takes over.
    f0, f1, f2 = (sign * np.exp(-pi * eps**2 * x**2)
                  for sign, x in zip(half_box_shift(spec, octant=True), xi))
    real = np.empty((1,) + spec.octant_shape)
    phi = real[0]
    np.add(xi[0] ** 2 + xi[1] ** 2, xi[2] ** 2, out=phi)
    origin = (0, 0, 0)
    phi[origin] = 1.0
    np.divide(f0 * f1, phi, out=phi)
    phi *= f2 * (-1.0 / (4.0 * pi**2))
    phi[origin] = 0.0
    return apply_symbol(_GRADIENT_3, GridField.from_octant(spec, real))


def radial_cutoff_test_function(
    spec: GridSpec, exponent: float
) -> tuple[GridField, float]:
    """The slowly-opening radial plateau family: values ramp from 1 inside
    radius 1 down to 0 outside radius 2^(1/exponent) through a fixed smooth
    profile of r^exponent.

    Returns the scalar field and the n-th root of the Riemann sum of
    |gradient|^n (the gradient taken from the exact radial derivative),
    which scales like exponent^(1 - 1/n).  A grid too coarse to sample the
    ramp, where that gradient sums to zero, is refused.

    The field is radial about the centre c, so both are evaluated on the
    octant of grid points only (the field is held there,
    ``GridField.from_octant_values``), where every |x_i - c| is within one
    cell beyond 2^(1/exponent), a box that holds their support, and are
    exact zeros elsewhere.  The Riemann sum weights each point of the
    octant by its mirror count (``grid.grid_sum``).
    """
    lam = float(exponent)
    if lam <= 0:
        raise ValueError("exponent must be positive")
    offsets = _octant_offsets(spec)
    with np.errstate(over="ignore"):  # an infinite reach keeps every point
        reach = np.exp2(1.0 / lam) + spec.spacing
    box = support_indices(offsets, reach)
    inside = np.ix_(*box)
    diffs = [restrict(d, box) for d in offsets]
    r = np.sqrt(sum(d**2 for d in diffs))
    r_safe = np.where(r == 0, 1.0, r)
    with np.errstate(over="ignore"):  # r^lam = inf lies beyond the ramp
        s = r_safe**lam
    # Profile psi: 1 on [0,1], 0 on [2,inf); phi = psi(r^lam).
    phi = np.zeros(spec.octant_shape)
    phi[inside] = np.where(r == 0, 1.0, smoothstep(2.0 - s))
    # d phi / dr = psi'(s) * lam * r^(lam-1) with psi(s) = smoothstep(2-s).
    # The power is taken on the ramp only, where psi' != 0 and r^lam < 2:
    # elsewhere a large lam overflows it, and 0 * inf would be NaN.  r = 0
    # (r_safe = 1, s = 1) is off the ramp.
    sp = -smoothstep_deriv(2.0 - s)
    dphi_dr = np.power(r_safe, lam - 1.0, where=sp != 0.0, out=np.zeros_like(sp))
    dphi_dr *= sp * lam
    grads = [dphi_dr * d / r_safe for d in diffs]
    grad_power = np.zeros(spec.octant_shape)
    grad_power[inside] = np.sqrt(sum(g**2 for g in grads)) ** spec.n
    ln_riemann = (spec.cell_volume * grid_sum(spec, grad_power, slice(None))) ** (1 / spec.n)
    if ln_riemann == 0.0:
        raise ValueError(
            f"the plateau test function of exponent {lam} has no gradient on the grid "
            f"(spacing {spec.spacing}); refine the grid"
        )
    return GridField.from_octant_values(spec, phi[None, ...]), ln_riemann
