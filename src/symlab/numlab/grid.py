"""Periodic sampling grids and spectral application of symbols.

Conventions: the box is [0, T)^n sampled at N points per axis (N a power
of two), frequencies are m/T with integer m in fft order.  The spectral
representation follows the continuum transform: analysis multiplies the
FFT by h^n (a Riemann sum for the integral transform), synthesis divides
by T^n, so a derivative of order alpha is the multiplier (2 pi i xi)^alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi
from typing import Sequence

import numpy as np

from ..exact.symbol import SymbolOperator


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    n: int
    size: int       # points per axis
    box: float      # physical side length T

    def __post_init__(self):
        if self.n not in (1, 2, 3, 4):
            raise ValueError("grid dimension must be between 1 and 4")
        if not _is_power_of_two(self.size):
            raise ValueError("points per axis must be a power of two")
        if self.box <= 0:
            raise ValueError("box side must be positive")

    @property
    def spacing(self) -> float:
        return self.box / self.size

    @property
    def nyquist(self) -> float:
        return self.size / (2.0 * self.box)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.size,) * self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.n

    def axes(self) -> list[np.ndarray]:
        return [np.arange(self.size) * self.spacing for _ in range(self.n)]

    def coordinate_grids(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def frequency_axes(self) -> list[np.ndarray]:
        f = np.fft.fftfreq(self.size, d=self.spacing)
        return [f.copy() for _ in range(self.n)]

    def frequency_grids(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.frequency_axes(), indexing="ij"))

    def halved(self) -> "GridSpec":
        if self.size < 4:
            raise ValueError("grid too small to halve")
        return GridSpec(self.n, self.size // 2, self.box)


@dataclass
class GridField:
    spec: GridSpec
    values: np.ndarray  # shape (components, *spec.shape), float64

    def __post_init__(self):
        expected = (self.components,) + self.spec.shape
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")

    @property
    def components(self) -> int:
        return self.values.shape[0]

    @staticmethod
    def from_spectrum(spec: GridSpec, spectrum: np.ndarray) -> "GridField":
        """Synthesize a real field from continuum-normalized spectral samples
        of shape (components, *grid)."""
        axes = tuple(range(1, spec.n + 1))
        scale = spec.size**spec.n / spec.box**spec.n
        vals = np.fft.ifftn(spectrum, axes=axes) * scale
        return GridField(spec, np.ascontiguousarray(vals.real))

    def spectrum(self) -> np.ndarray:
        axes = tuple(range(1, self.spec.n + 1))
        return np.fft.fftn(self.values, axes=axes) * self.spec.cell_volume

    def magnitude(self) -> np.ndarray:
        return np.sqrt((self.values**2).sum(axis=0))

    def boundary_tail(self) -> float:
        """Largest magnitude on the outermost grid shell relative to the
        overall maximum; reports how badly the box truncates the field."""
        mag = self.magnitude()
        peak = float(mag.max())
        if peak == 0.0:
            return 0.0
        edge = 0.0
        for ax in range(self.spec.n):
            sl: list = [slice(None)] * self.spec.n
            sl[ax] = 0
            edge = max(edge, float(mag[tuple(sl)].max()))
        return edge / peak


def symbol_multiplier(a: SymbolOperator, spec: GridSpec) -> np.ndarray:
    """Array of shape (dimE, dimV, *grid): (2 pi i)^k sum_alpha xi^alpha A_alpha."""
    if a.n != spec.n:
        raise ValueError("operator and grid dimensions differ")
    xi = spec.frequency_grids()
    mult = np.zeros((a.dim_e, a.dim_v) + spec.shape, dtype=complex)
    for alpha, mat in a.terms:
        mono = np.ones(spec.shape)
        for i, e in enumerate(alpha):
            if e:
                mono = mono * xi[i] ** e
        for r in range(a.dim_e):
            for c in range(a.dim_v):
                coeff = float(mat[r, c])
                if coeff != 0.0:
                    mult[r, c] += coeff * mono
    return mult * (2j * pi) ** a.order


def nyquist_mask(spec: GridSpec) -> np.ndarray:
    """Zero on the unpaired Nyquist hyperplanes, one elsewhere.

    Real fields carry the -N/2 frequency without its positive partner, so
    odd-order multipliers on that bin have no Hermitian representation;
    projecting the bin out makes multiplier application commute with
    composition exactly."""
    mask = np.ones(spec.shape)
    half = spec.size // 2
    for ax in range(spec.n):
        sl: list = [slice(None)] * spec.n
        sl[ax] = half
        mask[tuple(sl)] = 0.0
    return mask


def apply_symbol(a: SymbolOperator, u: GridField) -> GridField:
    """Apply the operator to a periodic field through its Fourier multiplier."""
    if u.components != a.dim_v:
        raise ValueError(f"field has {u.components} components, operator expects {a.dim_v}")
    spec = u.spec
    axes = tuple(range(u.spec.n))
    u_hat = np.fft.fftn(u.values, axes=tuple(ax + 1 for ax in axes))
    u_hat *= nyquist_mask(spec)[None, ...]
    mult = symbol_multiplier(a, spec)
    out_hat = np.einsum("ev...,v...->e...", mult, u_hat)
    out = np.fft.ifftn(out_hat, axes=tuple(ax + 1 for ax in axes)).real
    return GridField(spec, np.ascontiguousarray(out))


def partial_derivative_multiplier(spec: GridSpec, alpha: Sequence[int]) -> np.ndarray:
    xi = spec.frequency_grids()
    mono = np.ones(spec.shape, dtype=complex)
    for i, e in enumerate(alpha):
        if e:
            mono = mono * (2j * pi * xi[i]) ** e
    return mono


def derivative_magnitude(u: GridField, order: int) -> np.ndarray:
    """Pointwise Frobenius magnitude of the order-th derivative tensor:
    sqrt of sum over multi-indices (with multinomial weights) and components."""
    from math import factorial

    from ..exact.poly import multi_indices

    spec = u.spec
    axes = tuple(range(1, spec.n + 1))
    u_hat = np.fft.fftn(u.values, axes=axes)
    u_hat *= nyquist_mask(spec)[None, ...]
    total = np.zeros(spec.shape)
    for alpha in multi_indices(spec.n, order):
        weight = factorial(order)
        for e in alpha:
            weight //= factorial(e)
        mult = partial_derivative_multiplier(spec, alpha)
        d = np.fft.ifftn(u_hat * mult, axes=axes).real
        total += weight * (d**2).sum(axis=0)
    return np.sqrt(total)
