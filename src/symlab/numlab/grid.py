"""Periodic sampling grids and spectral application of symbols.

Conventions: the box is [0, T)^n sampled at N points per axis (N a power
of two), frequencies are m/T with integer m.  Every field is real, so every
spectrum is the real half spectrum of ``rfftn``: shape ``spec.half_shape``,
frequencies in fft order on the first n - 1 axes and 0 .. N/2 on the last.
The spectral representation follows the continuum transform: analysis
multiplies the FFT by h^n (a Riemann sum for the integral transform),
synthesis divides by T^n, so a derivative of order alpha is the multiplier
(2 pi i xi)^alpha.

Transforms run one component at a time, each into its slice of one
preallocated array, so no transform keeps a (components, ...) intermediate
alive.  A ``GridField`` keeps its Nyquist-masked half spectrum once it is
known: a field synthesized from a spectrum never transforms forward, and a
field read by several operators transforms forward once.  It also keeps its
pointwise magnitude once a norm or the boundary tail has asked for it.

``symbol_on_grid`` is the one place that evaluates a symbol
sum_alpha xi^alpha A_alpha at the grid frequencies.  ``apply_symbol``
multiplies a spectrum by it one entry at a time, ``derivative_magnitude``
applies the operator stacking all partial derivatives of one order, and
the blowup direction solve reads its per-frequency matrices from it.
Grids larger than ``MAX_GRID_POINTS`` are refused before anything is
allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, isfinite, pi, prod
from typing import Iterator, Optional

import numpy as np
# NumPy 2 imports numpy.fft lazily, on first attribute access.  Importing it
# with the package keeps that import out of the first transform of a run,
# where a signal handler that also calls numpy.fft (the benchmark's timing
# kernel, bench/calibrate.py) can re-enter it and fail with RecursionError.
import numpy.fft  # noqa: F401

from ..exact.matrix import QMatrix
from ..exact.poly import multi_indices
from ..exact.symbol import SymbolOperator

# 128^3 (the largest built-in grid) is 2^21 points; one half-spectrum
# component of a 2^22-point grid takes about 32 MiB.
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
        if not (isfinite(self.box) and self.box > 0):
            raise ValueError("box side must be positive and finite")
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
    def half_shape(self) -> tuple[int, ...]:
        """Shape of a real half spectrum: N on the first n - 1 axes, N/2 + 1
        on the last."""
        return (self.size,) * (self.n - 1) + (self.size // 2 + 1,)

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.n

    def axes(self) -> list[np.ndarray]:
        return [np.arange(self.size) * self.spacing for _ in range(self.n)]

    def coordinate_grids(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def frequency_grids(self) -> list[np.ndarray]:
        """Frequency coordinates of the half spectrum per axis, shaped to
        broadcast against spec.half_shape: ``fftfreq`` on the first n - 1
        axes, ``rfftfreq`` on the last (length N/2 + 1, ending at the
        positive Nyquist frequency)."""
        f = np.fft.fftfreq(self.size, d=self.spacing)
        last = np.fft.rfftfreq(self.size, d=self.spacing)
        return list(np.meshgrid(*[f] * (self.n - 1), last, indexing="ij", sparse=True))

    def halved(self) -> "GridSpec":
        if self.size < 4:
            raise ValueError("grid too small to halve")
        return GridSpec(self.n, self.size // 2, self.box)


@dataclass
class GridField:
    spec: GridSpec
    values: np.ndarray  # shape (components, *spec.shape), float64
    # The Nyquist-masked, continuum-normalized half spectrum of ``values``
    # and their pointwise magnitude, each read-only once produced; the
    # values must not change after that.
    _hat: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _mag: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

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
        """Synthesize a real field from a continuum-normalized half spectrum
        of shape (components, *spec.half_shape).

        The values keep the Nyquist bins, read at -N/2 on the first n - 1
        axes, so a factor odd in the frequency of such an axis belongs
        zeroed on its Nyquist bin.  The field takes the input over as its
        spectrum, Nyquist-zeroed in place: the values' spectrum when the
        input is the half spectrum of a real field, that is when its zero
        plane of the last axis is Hermitian off the Nyquist bins."""
        return _synthesize(spec, spectrum)

    def spectrum(self) -> np.ndarray:
        """The Nyquist-masked, continuum-normalized half spectrum, of shape
        (components, *spec.half_shape): computed by one ``rfftn`` per
        component on first use, then cached (read-only)."""
        if self._hat is None:
            hat = np.empty((self.components,) + self.spec.half_shape, dtype=complex)
            for c in range(self.components):
                np.fft.rfftn(self.values[c], out=hat[c])
            hat *= self.spec.cell_volume
            zero_nyquist(self.spec, hat)
            hat.flags.writeable = False
            self._hat = hat
        return self._hat

    def magnitude(self) -> np.ndarray:
        """Pointwise Euclidean norm over the components, of shape
        spec.shape: computed on first use, then cached (read-only)."""
        if self._mag is None:
            mag = np.square(self.values[0])
            square = None
            for v in self.values[1:]:
                square = np.square(v, out=square)
                mag += square
            np.sqrt(mag, out=mag)
            mag.flags.writeable = False
            self._mag = mag
        return self._mag

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


def zero_nyquist(spec: GridSpec, hat: np.ndarray) -> None:
    """Zero the unpaired Nyquist hyperplanes (index N/2 on every axis) of a
    half spectrum in place; ``hat`` has shape (..., *spec.half_shape).

    Real fields carry the N/2 frequency without its sign partner, so
    odd-order multipliers on that bin have no Hermitian representation;
    projecting the bin out makes multiplier application commute with
    composition exactly."""
    for ax in range(spec.n):
        hat[(Ellipsis, spec.size // 2) + (slice(None),) * (spec.n - 1 - ax)] = 0.0


def half_box_shift(spec: GridSpec) -> list[np.ndarray]:
    """The shift exp(-2 pi i (T/2) xi) by half the box, one real factor per
    axis shaped like ``frequency_grids()``.  At the grid frequencies
    xi_i = m_i / T the factor of axis i is exactly (-1)^m_i, and m_i has the
    parity of its index on every axis because N is even."""
    factors = []
    for ax, length in enumerate(spec.half_shape):
        sign = np.ones(length)
        sign[1::2] = -1.0
        shape = [1] * spec.n
        shape[ax] = length
        factors.append(sign.reshape(shape))
    return factors


def _synthesize(spec: GridSpec, hat: np.ndarray) -> GridField:
    """The real field whose continuum-normalized half spectrum is ``hat``;
    ``hat``, then Nyquist-zeroed in place, is its cached spectrum."""
    axes = tuple(range(spec.n))
    values = np.empty((hat.shape[0],) + spec.shape)
    for c in range(hat.shape[0]):
        np.fft.irfftn(hat[c], s=spec.shape, axes=axes, out=values[c])
    values *= spec.size**spec.n / spec.box**spec.n
    out = GridField(spec, values)
    zero_nyquist(spec, hat)
    hat.flags.writeable = False
    out._hat = hat
    return out


def symbol_on_grid(a: SymbolOperator, spec: GridSpec) -> Iterator[tuple[int, int, np.ndarray]]:
    """The symbol sum_alpha xi^alpha A_alpha at the grid frequencies, one
    nonzero entry at a time: yields (row, column, values) with real values
    that broadcast to spec.half_shape.  The (2 pi i)^k factor of the Fourier
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
    (2 pi i)^k A(xi), one entry of the symbol at a time, on the half
    spectrum of ``u`` (cached by ``u``).  The (2 pi i)^k factor goes into
    each entry, which broadcasts and is smaller than the grid; the first
    entry of a row writes it and the others add through one buffer.  The
    result holds its own spectrum, so operators applied to it transform
    only backward."""
    if u.components != a.dim_v:
        raise ValueError(f"field has {u.components} components, operator expects {a.dim_v}")
    spec = u.spec
    u_hat = u.spectrum()
    out_hat = np.empty((a.dim_e,) + spec.half_shape, dtype=complex)
    unit = (2j * pi) ** a.order
    written: set[int] = set()
    term = None
    for r, c, values in symbol_on_grid(a, spec):
        if r in written:
            term = np.multiply(unit * values, u_hat[c], out=term)
            out_hat[r] += term
        else:
            np.multiply(unit * values, u_hat[c], out=out_hat[r])
            written.add(r)
    for r in range(a.dim_e):
        if r not in written:
            out_hat[r] = 0.0
    return _synthesize(spec, out_hat)


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
