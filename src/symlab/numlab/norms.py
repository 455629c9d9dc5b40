"""Norms of sampled periodic fields.

The Lebesgue norms and the pairing are plain Riemann sums, of a field or of
a pointwise magnitude such as ``grid.image_magnitude`` returns; a magnitude
held on the octant (``grid.is_octant``) weights each point by its mirror
count (``grid.octant_sum``).  The spectral L2 norm is the Parseval
counterpart of the L2 norm.
"""

from __future__ import annotations

import numpy as np

from .grid import GridField, GridSpec, is_octant, octant_sum

# Points per chunk of the p = 3/2 norm: 512 KiB of square roots.
NORM_CHUNK = 2**16


def lp_norm(u: GridField, p: float) -> float:
    """Riemann sum of |u|^p to the power 1/p, over the field's cached
    magnitude."""
    return magnitude_norm(u.spec, u.magnitude(), p)


def magnitude_norm(spec: GridSpec, mag: np.ndarray, p: float) -> float:
    """Riemann sum of mag^p to the power 1/p for a pointwise magnitude of
    shape spec.shape; p = 1, 3/2 and 2 avoid the general power.  The
    products are summed by ``einsum``, whose order of summation does not
    depend on the number of BLAS threads, as ``np.dot``'s does.  For
    p = 3/2 the square roots are taken ``NORM_CHUNK`` points at a time into
    one chunk buffer, and the chunk sums added in order, so no second grid
    is held.

    An octant magnitude (shape spec.octant_shape) stands for the grid
    magnitude that mirrors it: its sum is ``octant_sum``, over the whole
    octant for p = 1, as ``grid.image_l1`` sums it, and otherwise over
    chunks of whole rows of axis 0 of about ``NORM_CHUNK`` points, the
    chunk sums added in order."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if is_octant(spec, mag):
        return float((spec.cell_volume * _octant_power_sum(spec, mag, p)) ** (1.0 / p))
    mag = mag.ravel()
    if p == 1:
        total = mag.sum()
    elif p == 1.5:
        roots = np.empty(min(NORM_CHUNK, mag.size))
        total = 0.0
        for lo in range(0, mag.size, NORM_CHUNK):
            chunk = mag[lo: lo + NORM_CHUNK]
            root = np.sqrt(chunk, out=roots[: chunk.size])
            total += np.einsum("i,i->", chunk, root)
    elif p == 2:
        total = np.einsum("i,i->", mag, mag)
    else:
        total = (mag**p).sum()
    return float((spec.cell_volume * total) ** (1.0 / p))


def _octant_power_sum(spec: GridSpec, mag: np.ndarray, p: float) -> float:
    """The grid sum of mag^p for an octant magnitude."""
    if p == 1:
        return octant_sum(spec, mag)
    step = max(1, NORM_CHUNK // mag[0].size)
    total = 0.0
    for lo in range(0, len(mag), step):
        chunk = mag[lo: lo + step]
        if p == 1.5:
            power = np.sqrt(chunk)
            power *= chunk
        elif p == 2:
            power = np.square(chunk)
        else:
            power = chunk**p
        total += octant_sum(spec, power, slice(lo, lo + len(chunk)))
    return total


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
