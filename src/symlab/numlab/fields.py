"""Test fields used by the experiments."""

from __future__ import annotations

from math import pi
from typing import Optional

import numpy as np

from ..exact.matrix import QMatrix
from ..exact.symbol import SymbolOperator
from .blowup import smoothstep, smoothstep_deriv
from .grid import GridField, GridSpec, apply_symbol, half_box_shift

# g -> (d2 g, -d1 g): the planar curl of a scalar potential.
_PERP_GRADIENT = SymbolOperator.make(
    2, 1, 2, 1,
    {(1, 0): QMatrix.from_rows([[0], [-1]]), (0, 1): QMatrix.from_rows([[1], [0]])},
)


def _centered_radius(spec: GridSpec) -> np.ndarray:
    coords = spec.coordinate_grids()
    c = spec.box / 2.0
    return np.sqrt(sum((x - c) ** 2 for x in coords))


def gaussian_bump(
    spec: GridSpec,
    sigma: float = 1.0,
    components: Optional[list[float]] = None,
    normalize_l1: bool = False,
) -> GridField:
    """Gaussian exp(-r^2 / (2 sigma^2)) centered in the box, optionally
    scaled to unit mass, broadcast onto a component direction."""
    r = _centered_radius(spec)
    g = np.exp(-(r**2) / (2.0 * sigma**2))
    if normalize_l1:
        g = g / (g.sum() * spec.cell_volume)
    comps = components if components is not None else [1.0]
    vals = np.stack([c * g for c in comps])
    return GridField(spec, vals)


def mollified_disc(spec: GridSpec, radius: float = 1.0, width: float = 0.2) -> GridField:
    """Smoothed indicator of the centered disc; the transition band has the
    given width."""
    r = _centered_radius(spec)
    vals = smoothstep((radius + width / 2.0 - r) / width)
    return GridField(spec, vals[None, ...])


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
    pairings against radial test functions."""
    if spec.n != 2:
        raise ValueError("curl potential field is two-dimensional")
    x, y = spec.coordinate_grids()
    cx = spec.box / 2.0 + 0.29 * sigma
    cy = spec.box / 2.0 - 0.17 * sigma
    g = np.exp(
        -((x - cx) ** 2) / (2.0 * sigma**2) - ((y - cy) ** 2) / (0.8 * sigma**2)
    )
    return apply_symbol(_PERP_GRADIENT, GridField(spec, g[None, ...]))


def newton_gradient_field(spec: GridSpec, eps: float) -> GridField:
    """Mollified fundamental-solution gradient on a 3-d box: the spectrum is
    -i xi / (2 pi |xi|^2) times a Gaussian mollifier at scale eps, with the
    constant mode removed.  Its divergence is the mollifier minus its box
    mean and its curl vanishes."""
    if spec.n != 3:
        raise ValueError("this family lives on a three-dimensional box")
    xi = spec.frequency_grids()
    # The real factor shared by the three components, shift moll_hat /
    # |xi|^2, with the constant mode removed.  The shift by half the box,
    # which puts the singular core at the box center rather than the
    # corner, is (-1)^m_i on axis i, and the Gaussian mollifier is a product
    # over the axes too: both are built from one 1-d factor per axis.
    factor = 1.0
    for sign, x in zip(half_box_shift(spec), xi):
        factor = factor * (sign * np.exp(-pi * eps**2 * x**2))
    r2 = sum(x**2 for x in xi)
    origin = tuple(0 for _ in range(spec.n))
    r2[origin] = 1.0
    factor /= r2
    factor[origin] = 0.0
    # The spectrum is purely imaginary: -i factor xi_i / (2 pi).
    spectrum = np.empty((3,) + factor.shape, dtype=complex)
    spectrum.real = 0.0
    for i in range(3):
        # xi_i is odd: on the unpaired Nyquist bin of axis i it has no real
        # representation, so component i carries nothing there.
        odd = xi[i] * (-1.0 / (2.0 * pi))
        odd.flat[spec.size // 2] = 0.0
        np.multiply(factor, odd, out=spectrum[i].imag)
    return GridField.from_spectrum(spec, spectrum)


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
    """
    lam = float(exponent)
    if lam <= 0:
        raise ValueError("exponent must be positive")
    coords = spec.coordinate_grids()
    c = spec.box / 2.0
    diffs = [x - c for x in coords]
    r = np.sqrt(sum(d**2 for d in diffs))
    r_safe = np.where(r == 0, 1.0, r)
    s = r_safe**lam
    # Profile psi: 1 on [0,1], 0 on [2,inf); phi = psi(r^lam).
    phi = smoothstep(2.0 - s)
    phi = np.where(r == 0, 1.0, phi)
    # d phi / dr = psi'(s) * lam * r^(lam-1) with psi(s) = smoothstep(2-s).
    sp = -smoothstep_deriv(2.0 - s)
    dphi_dr = sp * lam * r_safe ** (lam - 1.0)
    dphi_dr = np.where(r == 0, 0.0, dphi_dr)
    grads = [dphi_dr * d / r_safe for d in diffs]
    grad_mag = np.sqrt(sum(g**2 for g in grads))
    ln_riemann = float((grad_mag**spec.n).sum() * spec.cell_volume) ** (1.0 / spec.n)
    if ln_riemann == 0.0:
        raise ValueError(
            f"the plateau test function of exponent {lam} has no gradient on the grid "
            f"(spacing {spec.spacing}); refine the grid"
        )
    return GridField(spec, phi[None, ...]), ln_riemann
