"""Norms of sampled periodic fields.

The Lebesgue norms and the pairing are plain Riemann sums, of a field or of
a pointwise magnitude such as ``grid.image_magnitude`` returns, all taken
by ``grid.grid_sum`` (which ``grid.image_l1`` takes as well): a
magnitude held on the octant, which its shape shows, and a pairing with a
field held by its values on the octant of grid points weight each point by
its mirror count.
The spectral L2 norm is the Parseval counterpart of the L2 norm.
"""

from __future__ import annotations

import numpy as np

from .grid import GridField, GridSpec, even_part, grid_sum

# Points per chunk of a norm's powers: 512 KiB of them.
NORM_CHUNK = 2**16


def lp_norm(u: GridField, p: float) -> float:
    """Riemann sum of |u|^p to the power 1/p, over the field's cached
    magnitude."""
    return magnitude_norm(u.spec, u.magnitude(), p)


def magnitude_norm(spec: GridSpec, mag: np.ndarray, p: float) -> float:
    """Riemann sum of mag^p to the power 1/p for a pointwise magnitude of
    shape spec.shape, or of spec.octant_shape for the grid magnitude that
    mirrors it.  The magnitude is taken in chunks of whole rows of axis 0,
    about ``NORM_CHUNK`` points each: each chunk's powers go into one chunk
    buffer (p = 1, 3/2 and 2 avoid the general power), ``grid.grid_sum``
    sums them, with mirror weights on an octant, and the chunk sums are
    added in order, so no second grid is held.  No sum depends on the
    number of BLAS threads."""
    if p < 1:
        raise ValueError("p must be at least 1")
    step = max(1, NORM_CHUNK // mag[0].size)
    buffer = None if p == 1 else np.empty((min(step, len(mag)),) + mag.shape[1:])
    total = 0.0
    for lo in range(0, len(mag), step):
        chunk = mag[lo: lo + step]
        power = chunk if p == 1 else buffer[: len(chunk)]
        if p == 1.5:
            np.sqrt(chunk, out=power)
            power *= chunk
        elif p == 2:
            np.square(chunk, out=power)
        elif p != 1:
            np.power(chunk, p, out=power)
        total += grid_sum(spec, power, slice(lo, lo + len(chunk)))
    return float((spec.cell_volume * total) ** (1.0 / p))


def pairing(f: GridField, g: GridField) -> float:
    """Riemann sum of the pointwise scalar product of two fields: the plain
    sum over the grid values of two fields held on the grid; otherwise one
    mirror-weighted ``grid.grid_sum`` on the octant of grid points, where a
    field held by its values there (``GridField.octant_values``) is even
    about the box centre and so pairs with the even part
    (``grid.even_part``) of a field held on the grid."""
    if f.spec != g.spec or f.components != g.components:
        raise ValueError("pairing needs matching grids and component counts")
    a, b = f.octant_values, g.octant_values
    if a is None and b is None:
        return float((f.values * g.values).sum() * f.spec.cell_volume)
    if a is None:
        a = even_part(f.spec, f.values)
    elif b is None:
        b = even_part(g.spec, g.values)
    return grid_sum(f.spec, (a * b).sum(axis=0), slice(None)) * f.spec.cell_volume


def l2_norm_spectral(u: GridField) -> float:
    """L2 norm computed on the spectral side (for the Parseval check), from
    the unmasked half spectrum: the interior bins of the last axis stand
    for themselves and their conjugate partners, so they count twice."""
    spec = u.spec
    hat = np.fft.rfftn(u.values, axes=tuple(range(1, spec.n + 1))) * spec.cell_volume
    weight = np.full(hat.shape[-1], 2.0)
    weight[0] = weight[-1] = 1.0
    return float(np.sqrt((np.abs(hat) ** 2 * weight).sum() / spec.box**spec.n))
