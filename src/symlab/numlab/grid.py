"""Periodic sampling grids and spectral application of symbols.

Conventions: the box is [0, T)^n sampled at N points per axis (N a power
of two), frequencies are m/T with integer m.  Every field is real, so every
spectrum is the real half spectrum of ``rfftn``: shape ``spec.half_shape``,
frequencies in fft order on the first n - 1 axes and 0 .. N/2 on the last.
The spectral representation follows the continuum transform: analysis
multiplies the FFT by h^n (a Riemann sum for the integral transform),
synthesis divides by T^n, so a derivative of order alpha is the multiplier
(2 pi i xi)^alpha.

Forward transforms run one component at a time, each into its slice of
one preallocated array.  Inverse transforms run in place: the n - 1 complex
passes overwrite one reused work buffer, and the final real pass writes
straight into the output.  A ``GridField`` keeps its Nyquist-masked half
spectrum once it is known: a field synthesized from a spectrum never
transforms forward, and a field read by several operators transforms
forward once.  It also keeps its pointwise magnitude once a norm or the
boundary tail has asked for it.

``symbol_on_grid`` is the one place that evaluates a symbol
sum_alpha xi^alpha A_alpha at the grid frequencies, and ``_image_rows``
the one place that multiplies a spectrum by it, one row of the image at a
time.  ``apply_symbol`` collects the rows into a field; ``image_magnitude``
inverts each row as soon as it is built and adds its square to one
accumulator, so an image that is only measured is never materialized.
Every image an experiment only measures, the blowup image A(D)u included,
goes through ``image_magnitude``; the one image still built as a field is
the duality experiment's curl-potential field (the planar curl of a
Gaussian), which the experiment pairs against its test functions.
``derivative_magnitude`` measures the image of the operator stacking all
partial derivatives of one order, and the blowup direction solve reads its
per-frequency matrices from ``symbol_on_grid``.

Grids larger than ``MAX_GRID_POINTS`` are refused before anything is
allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, inf, isfinite, pi, prod
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence

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
        try:
            scales = (self.cell_volume, self.synthesis_scale)
        except (OverflowError, ZeroDivisionError):
            scales = (0.0,)
        if not all(0.0 < x < inf for x in scales):
            raise ValueError(
                f"box side {self.box} makes the cell volume h^n or the synthesis "
                f"scale (N/T)^n zero or not finite"
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

    @property
    def synthesis_scale(self) -> float:
        """N^n / T^n, the factor that turns an inverse FFT of a continuum
        spectrum into grid values."""
        return self.size**self.n / self.box**self.n

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
        plane of the last axis is Hermitian off the Nyquist bins.  Each
        component is inverted from a copy in one work buffer, because the
        input becomes the cached spectrum."""
        values = np.empty((spectrum.shape[0],) + spec.shape)
        work = np.empty(spec.half_shape, dtype=complex)
        for c in range(spectrum.shape[0]):
            np.copyto(work, spectrum[c])
            _invert(spec, work, values[c])
        out = GridField(spec, values)
        zero_nyquist(spec, spectrum)
        spectrum.flags.writeable = False
        out._hat = spectrum
        return out

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


def _invert(spec: GridSpec, work: np.ndarray, out: np.ndarray) -> None:
    """Synthesize one real component into ``out`` (shape spec.shape) from
    the continuum-normalized half spectrum in ``work``, which the n - 1
    complex passes overwrite in place.  The same passes as ``irfftn``, in
    the same order, without its fresh array per pass."""
    for ax in range(spec.n - 1):
        np.fft.ifft(work, axis=ax, out=work)
    np.fft.irfft(work, n=spec.size, axis=spec.n - 1, out=out)
    out *= spec.synthesis_scale


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


def _image_rows(
    a: SymbolOperator, u: GridField, target: Callable[[int], np.ndarray]
) -> Iterator[tuple[int, np.ndarray]]:
    """The half spectrum of A(D)u row by row: for each row with a nonzero
    symbol entry, in order, writes the row into ``target(row)`` and yields
    (row, that array).  The multiplier is (2 pi i)^k A(xi), applied to the
    spectrum of ``u`` (cached by ``u``) one entry at a time; the (2 pi i)^k
    factor goes into each entry, which broadcasts and is smaller than the
    grid.  The first entry of a row writes it and the others add through one
    buffer."""
    if u.components != a.dim_v:
        raise ValueError(f"field has {u.components} components, operator expects {a.dim_v}")
    u_hat = u.spectrum()
    unit = (2j * pi) ** a.order
    term = None
    for r, entries in groupby(symbol_on_grid(a, u.spec), key=itemgetter(0)):
        row = target(r)
        _, c, values = next(entries)
        np.multiply(unit * values, u_hat[c], out=row)
        for _, c, values in entries:
            term = np.multiply(unit * values, u_hat[c], out=term)
            row += term
        yield r, row


def apply_symbol(a: SymbolOperator, u: GridField) -> GridField:
    """Apply the operator to a periodic field through its Fourier multiplier
    (2 pi i)^k A(xi), on the half spectrum of ``u``.  The result holds its
    own spectrum, so operators applied to it transform only backward."""
    out_hat = np.empty((a.dim_e,) + u.spec.half_shape, dtype=complex)
    written = {r for r, _ in _image_rows(a, u, out_hat.__getitem__)}
    for r in range(a.dim_e):
        if r not in written:
            out_hat[r] = 0.0
    return GridField.from_spectrum(u.spec, out_hat)


def image_magnitude(
    a: SymbolOperator, u: GridField, weights: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Pointwise magnitude of A(D)u, sqrt of sum_r w_r (A(D)u)_r^2 (every
    w_r = 1 without ``weights``), equal bit for bit to
    ``apply_symbol(a, u).magnitude()`` for unit weights.  Each row spectrum
    is built in one work buffer, inverted in place and its weighted square
    added to one accumulator: the image itself is never held."""
    spec = u.spec
    work = np.empty(spec.half_shape, dtype=complex)
    total = row = None
    for r, hat in _image_rows(a, u, lambda r: work):
        if row is None:
            row = np.empty(spec.shape)
        _invert(spec, hat, row)
        np.square(row, out=row)
        if weights is not None:
            row *= weights[r]
        if total is None:
            total, row = row, None
        else:
            total += row
    if total is None:
        total = np.zeros(spec.shape)
    return np.sqrt(total, out=total)


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
    weights = [factorial(order) // prod(factorial(e) for e in alphas[r // m]) for r in rows]
    return image_magnitude(SymbolOperator.make(n, m, len(rows), order, terms), u, weights)
