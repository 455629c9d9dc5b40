"""Periodic sampling grids and spectral application of symbols.

Conventions: the box is [0, T)^n sampled at N points per axis (N a power
of two), frequencies are m/T with integer m in fft order.  The spectral
representation follows the continuum transform: analysis multiplies the
FFT by h^n (a Riemann sum for the integral transform), synthesis divides
by T^n, so a derivative of order alpha is the multiplier (2 pi i xi)^alpha.

``symbol_on_grid`` is the one place that evaluates a symbol
sum_alpha xi^alpha A_alpha at the grid frequencies.  ``apply_symbol``
multiplies a spectrum by it one entry at a time, ``derivative_magnitude``
applies the operator stacking all partial derivatives of one order, and
the blowup direction solve reads its per-frequency matrices from it.
Grids larger than ``MAX_GRID_POINTS`` are refused before anything is
allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, pi, prod
from typing import Iterator

import numpy as np

from ..exact.matrix import QMatrix
from ..exact.poly import multi_indices
from ..exact.symbol import SymbolOperator

# 128^3 (the largest built-in grid) is 2^21 points; one complex component
# of a 2^22-point grid takes 64 MiB.
MAX_GRID_POINTS = 2**22


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
        if self.size**self.n > MAX_GRID_POINTS:
            raise ValueError(
                f"{self.size}^{self.n} grid points exceed the budget of {MAX_GRID_POINTS}"
            )

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

    def frequency_grids(self) -> list[np.ndarray]:
        """Frequency coordinates per axis, shaped to broadcast against
        spec.shape (length N along their own axis, 1 elsewhere)."""
        f = np.fft.fftfreq(self.size, d=self.spacing)
        return list(np.meshgrid(*[f] * self.n, indexing="ij", sparse=True))

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
        return GridField(spec, np.fft.ifftn(spectrum, axes=axes).real * scale)

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


def symbol_on_grid(a: SymbolOperator, spec: GridSpec) -> Iterator[tuple[int, int, np.ndarray]]:
    """The symbol sum_alpha xi^alpha A_alpha at the grid frequencies, one
    nonzero entry at a time: yields (row, column, values) with real values
    that broadcast to spec.shape.  The (2 pi i)^k factor of the Fourier
    multiplier is left to the caller."""
    if a.n != spec.n:
        raise ValueError("operator and grid dimensions differ")
    xi = spec.frequency_grids()
    monomials = []
    for alpha, mat in a.terms:
        mono = np.ones((1,) * spec.n)
        for i, e in enumerate(alpha):
            if e:
                mono = mono * xi[i] ** e
        monomials.append((mono, mat))
    for r in range(a.dim_e):
        for c in range(a.dim_v):
            values = None
            for mono, mat in monomials:
                coeff = float(mat[r, c])
                if coeff != 0.0:
                    term = coeff * mono
                    values = term if values is None else values + term
            if values is not None:
                yield r, c, values


def apply_symbol(a: SymbolOperator, u: GridField) -> GridField:
    """Apply the operator to a periodic field through its Fourier multiplier
    (2 pi i)^k A(xi), one entry of the symbol at a time."""
    if u.components != a.dim_v:
        raise ValueError(f"field has {u.components} components, operator expects {a.dim_v}")
    spec = u.spec
    axes = tuple(range(1, spec.n + 1))
    u_hat = np.fft.fftn(u.values, axes=axes)
    u_hat *= nyquist_mask(spec)[None, ...]
    out_hat = np.zeros((a.dim_e,) + spec.shape, dtype=complex)
    for r, c, values in symbol_on_grid(a, spec):
        out_hat[r] += values * u_hat[c]
    del u_hat  # release the input spectrum before the inverse transform
    out_hat *= (2j * pi) ** a.order
    out = np.fft.ifftn(out_hat, axes=axes).real
    return GridField(spec, np.ascontiguousarray(out))


def derivative_magnitude(u: GridField, order: int) -> np.ndarray:
    """Pointwise Frobenius magnitude of the order-th derivative tensor:
    sqrt of sum over multi-indices (with multinomial weights) and components.
    One operator stacks the derivatives: its row i * m + c is d^alpha_i u_c."""
    n, m = u.spec.n, u.components
    alphas = multi_indices(n, order)
    rows = range(len(alphas) * m)
    terms = {
        alpha: QMatrix.from_rows([[int(r == i * m + c) for c in range(m)] for r in rows])
        for i, alpha in enumerate(alphas)
    }
    d = apply_symbol(SymbolOperator.make(n, m, len(rows), order, terms), u).values
    total = np.zeros(u.spec.shape)
    for r in rows:
        weight = factorial(order) // prod(factorial(e) for e in alphas[r // m])
        total += weight * d[r] ** 2
    return np.sqrt(total)
