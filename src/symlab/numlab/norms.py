"""Norms of sampled periodic fields.

The Lebesgue norms and the pairing are plain Riemann sums; the spectral L2
norm is the Parseval counterpart of the L2 norm.
"""

from __future__ import annotations

import numpy as np

from .grid import GridField


def lp_norm(u: GridField, p: float) -> float:
    if p < 1:
        raise ValueError("p must be at least 1")
    mag = u.magnitude()
    return float((u.spec.cell_volume * (mag**p).sum()) ** (1.0 / p))


def pairing(f: GridField, g: GridField) -> float:
    """Riemann sum of the pointwise scalar product of two fields."""
    if f.spec != g.spec or f.components != g.components:
        raise ValueError("pairing needs matching grids and component counts")
    return float((f.values * g.values).sum() * f.spec.cell_volume)


def l2_norm_spectral(u: GridField) -> float:
    """L2 norm computed on the spectral side (for the Parseval check), from
    the unmasked half spectrum: the interior bins of the last axis stand
    for themselves and their conjugate partners, so they count twice."""
    spec = u.spec
    hat = np.fft.rfftn(u.values, axes=tuple(range(1, spec.n + 1))) * spec.cell_volume
    weight = np.full(hat.shape[-1], 2.0)
    weight[0] = weight[-1] = 1.0
    return float(np.sqrt((np.abs(hat) ** 2 * weight).sum() / spec.box**spec.n))
