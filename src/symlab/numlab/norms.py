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
    """L2 norm computed on the spectral side (for the Parseval check)."""
    spec = u.spec
    hat = u.spectrum()
    return float(np.sqrt((np.abs(hat) ** 2).sum() / spec.box**spec.n))
