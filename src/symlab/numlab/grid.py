"""Periodic sampling grids and spectral application of symbols.

Conventions: the box is [0, T)^n, n = 2, 3 or 4 (the limiting estimates
need n >= 2), sampled at N points per axis (N a power of two),
frequencies are m/T with integer m.  Every field is real, so every
spectrum is the real half spectrum of ``rfftn``: shape ``spec.half_shape``,
frequencies in fft order on the first n - 1 axes and 0 .. N/2 on the last.
The spectral representation follows the continuum transform: analysis
multiplies the FFT by h^n (a Riemann sum for the integral transform),
synthesis divides by T^n, so a derivative of order alpha is the multiplier
(2 pi i xi)^alpha.

A field holds its spectrum in one of three forms:

- the full half spectrum, shape ``spec.half_shape``;
- the half spectrum held to its band: the last axis stops after the last
  column that holds data, the columns above being zero and never stored;
- the octant, for a field even or odd in every axis: a real array on the
  non-negative frequencies 0 .. N/2 of every axis (``spec.octant_shape``),
  held to the band of its support on every axis, since in the octant
  every support is a prefix.  Component c carries its parity p_c (0 even,
  1 odd, per axis), and its spectrum is i^q_c, q_c the number of odd axes,
  times the octant mirrored on every axis, with sign -1 on the mirror
  images of odd axes.  An odd axis holds zero at index 0 and N/2.

A field built from a band-held spectrum (``from_spectrum``) or an octant
(``from_octant``) holds it so, every image of that field is built and
inverted in the same form, and the symbol is evaluated there only.  A
field sampled in space is held on the octant too when its closed form is
even about the box centre (``from_octant_values``): N is even, so a field
even about index N/2 is even about index 0 of the periodic grid, its
values on the octant of grid points (indices 0 .. N/2 of every axis)
determine it, and its spectrum is the octant's cosine transform.  Only a
closed form or the exponents of a symbol select the octant, never a
numeric test of symmetry: the builders whose closed form is even in every
axis (``fields.newton_gradient_field``, ``blowup.cutoff_l1``, and the
scalar field of ``blowup.build_blowup_field`` when every exponent of its
witness's p is even) build octants, the
centred radial fields sampled in space (``fields.gaussian_bump``,
``fields.mollified_disc`` and ``fields.radial_cutoff_test_function``)
sample their octant of grid points, and an image of an octant stays one
when every row has one parity (monomial xi^alpha flips the parity on the
axes where alpha is odd).  A row that mixes parities expands the source to
its half spectrum and takes the half path; so does every field built from
grid values (the offset ``fields.dx_bump`` and the potential of
``fields.curl_potential_field``) or any other spectrum.

Forward transforms run one component at a time, each into its slice of
one preallocated array.  ``_invert`` is the one inverse path, and returns
one array.  On a half spectrum, the complex passes over axes 0 .. n - 2 run
in place on one work buffer as wide as the spectrum held, and one
``irfft(..., n=N)`` over the last axis, which zero-pads a band-held buffer
itself, gives the values on the grid.  On an octant, ``_invert`` takes
``_octant_transform``: one ``irfft(..., n=N)`` per axis, an odd axis
taking the array times i, run in slabs of another axis that keep the
first N/2 + 1 outputs of each, and returns the values on the octant of the
grid: the values of a field even or odd in every axis are the same mirror
images of them.  The cosine transform is its own inverse up to scale, so
the same passes, scaled by T^n in place of (N/T)^n, are the forward
transform of values on the octant.

A ``GridField`` is one of three kinds.  A field built from values, on the
grid or on the octant of grid points, transforms forward once, when an
operator first reads its spectrum.  A field from a spectrum or an octant
holds it exactly as given, read-only, Nyquist hyperplanes and all, and
synthesizes nothing until it is read.  An operator-made field
(``apply_symbol``) records the operator A and its source v and holds
nothing else until it is read; applying B(D) to it records the exact
composite symbol B A (``SymbolOperator.compose``) on the same v, so a
chain of operators is never more than one symbol away from a field that
holds data.  Its spectrum, when read, is built once from the
spectrum of v; its magnitude, asked for first, is that of the image
A(D)v, measured as ``image_magnitude`` measures it.  Every kind caches its
magnitude once a norm or the boundary tail has asked for it.

The Nyquist projection belongs to the multiplier: ``_image_rows`` zeroes
the Nyquist hyperplanes of every image row it builds, and ``spectrum()``
those of the copy it returns, so the spectrum held is never changed.  The
values of a field held by a spectrum keep its Nyquist bins.  ``values``
and ``spectrum()`` of an octant field are the full grid and the half
spectrum, mirrored.

A pointwise magnitude is a grid array, or an octant array (shape
``spec.octant_shape``) for a field or image held on the octant: a
magnitude is even in every axis, so its octant determines it.
``grid_sum`` is the one Riemann sum, and a slab's trailing shape says
whether it is of the grid or of an octant: a grid slab is summed as it
is, and an octant slab weights each point by its mirror count, the
product over the axes of 1 at index 0 and N/2 and 2 elsewhere.  The
maximum and the boundary shell (``boundary_tail``) read the octant as they
are.  The magnitude of a field held by octant values is taken from them,
and such a field pairs (``norms.pairing``) by one mirror-weighted sum,
with another one or with the even part on the octant (``even_part``) of a
field on the grid.  ``even_components`` is the one way to the even parts
of every component of a field, which the plateau experiments pair: octant
values as held, grid values folded once by ``even_part``, and any other
field by one pass of ``_reduce``, which keeps each row's even part and
caches the field's magnitude.

``symbol_on_grid`` is the one place that evaluates a symbol sum_alpha
xi^alpha A_alpha at the grid frequencies, and ``_image_rows`` the one place
that multiplies a spectrum by it, one row of the image at a time and one
slab of axis 0 at a time, so no temporary of a multiply is a full row.  An
operator-made field collects the rows into its spectrum.  ``_reduce`` is
the one reduction: it takes rows, the rows of an image or the components
of a held field (``GridField._rows``, each copied into a work buffer), and
inverts each as soon as it is built.  The first row's values become the
accumulator; every later row is inverted into one reused buffer, and its
weighted square is added.  ``image_squares`` returns the sum,
``image_magnitude`` and the magnitude of a held field whose values were
never read root it, and ``image_l1`` sums the root by one ``grid_sum``,
times the cell volume, so an image that is only measured is never held,
only the magnitude of its values; the magnitude of a single unweighted row
is its absolute value.  A held field's values are its rows inverted into
place, and they, and the rows of its magnitude, are checked finite.
Measured on an operator-made field B(D)v, A(D)B(D)v is one image of v
through the composite A B: the newton gradient field is grad(D) phi, so
its divergence is the Laplacian of phi, one transform, and its curl is the
zero symbol, for which ``image_squares`` and ``image_l1`` allocate nothing
and transform nothing.  ``derivative_magnitude`` measures the image of the
operator stacking all partial derivatives of one order, and the blowup
field evaluates its witness's p through ``symbol_on_grid``.  The gradient
of a field whose closed form is unchanged by every transposition of two
axes takes one derivative, along the last axis: ``axis_swap_sum`` adds its
square with the axes swapped for the others, and ``axis_swap_magnitude``
roots that sum for ``derivative_magnitude`` and for the newton field.

Closed-form fields with compact support (the blowup window in frequency,
the plateau test function in space) are evaluated on the box of indices
that ``support_indices`` returns and are exact zeros elsewhere, where the
full-grid formula gives 0 as well.  On the last axis of a half spectrum,
and on every axis of an octant, that box is a prefix (``rfftfreq`` rises
from 0), so a band-limited spectrum so built is held to its band.  On the
octant of grid points the plateau's box ends at the centre, index N/2,
and the plateau is held on the whole octant.
Coordinates are broadcast (sparse) grids: one axis each, never a dense
copy per axis.

Grids larger than ``MAX_GRID_POINTS`` are refused before anything is
allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
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

from ..exact.poly import multi_indices
from ..exact.symbol import SymbolOperator

# 128^3 (the largest built-in grid) is 2^21 points; one half-spectrum
# component of a 2^22-point grid takes about 32 MiB.
MAX_GRID_POINTS = 2**22

# Eight times the largest slab of a row that ``_image_rows`` multiplies at
# once, of an array that ``even_part`` folds and of an octant pass, below a
# 2 MiB per-core L2 cache; a slab holds at least one index of axis 0.
SLAB_BYTES = 2**20

# i^q for q mod 4: the factor between an octant component with q odd axes
# and its spectrum.
_I_POWERS = (1, 1j, -1, -1j)


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    n: int
    size: int       # points per axis
    box: float      # physical side length T

    def __post_init__(self):
        if self.n not in (2, 3, 4):
            raise ValueError(f"grid dimension {self.n} is not between 2 and 4")
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
    def octant_shape(self) -> tuple[int, ...]:
        """Shape of an octant, spectral or of values: N/2 + 1 on every
        axis, indices 0 .. N/2."""
        return (self.size // 2 + 1,) * self.n

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
        """Physical coordinates per axis, one axis each, shaped to broadcast
        to spec.shape."""
        return list(np.meshgrid(*self.axes(), indexing="ij", sparse=True))

    def frequency_grids(self, octant: bool = False) -> list[np.ndarray]:
        """Frequency coordinates of the half spectrum per axis, shaped to
        broadcast against spec.half_shape: ``fftfreq`` on the first n - 1
        axes, ``rfftfreq`` on the last (length N/2 + 1, ending at the
        positive Nyquist frequency).  With ``octant``, those of the octant:
        ``rfftfreq`` on every axis, broadcast against spec.octant_shape."""
        f = np.fft.fftfreq(self.size, d=self.spacing)
        last = np.fft.rfftfreq(self.size, d=self.spacing)
        first = [last if octant else f] * (self.n - 1)
        return list(np.meshgrid(*first, last, indexing="ij", sparse=True))

    def halved(self) -> "GridSpec":
        if self.size < 4:
            raise ValueError("grid too small to halve")
        return GridSpec(self.n, self.size // 2, self.box)


class GridField:
    """A real field on a grid, of shape (components, *spec.shape).

    ``GridField(spec, values)`` holds the given values and transforms them
    forward on the first ``spectrum()``; the values must not change after
    that.  ``from_octant_values`` holds the values of a field even about
    the box centre on the octant of grid points; on the first read of the
    spectrum it transforms them forward into an octant spectrum, imaged as
    one from ``from_octant`` is, and its magnitude and pairings are taken
    from the octant values themselves.  ``from_spectrum`` and
    ``from_octant`` hold a spectrum and synthesize values only when they
    are read.  ``apply_symbol`` makes a field that holds an operator and
    its source field and builds its spectrum only when it is read.  The
    spectrum, synthesized or mirrored values and magnitude are each cached
    read-only once produced."""

    __slots__ = ("spec", "components", "_values", "_octant_values", "_hat", "_parity", "_mag",
                 "_made")

    def __init__(self, spec: GridSpec, values: np.ndarray):
        expected = (values.shape[0],) + spec.shape
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} != {expected}")
        _real_floating("values", values)
        _finite(values)
        self.spec = spec
        self.components = values.shape[0]
        self._values: Optional[np.ndarray] = values
        # The values on the octant of grid points, for a field sampled there.
        self._octant_values: Optional[np.ndarray] = None
        # The continuum-normalized half spectrum or octant as held, Nyquist
        # hyperplanes and all, the parity of each octant component (None
        # for a half spectrum) and the pointwise magnitude.
        self._hat: Optional[np.ndarray] = None
        self._parity: Optional[tuple[tuple[int, ...], ...]] = None
        self._mag: Optional[np.ndarray] = None
        # (A, v) for the field A(D)v of ``apply_symbol``; v is never itself
        # operator-made.
        self._made: Optional[tuple[SymbolOperator, GridField]] = None

    @classmethod
    def from_spectrum(cls, spec: GridSpec, spectrum: np.ndarray) -> "GridField":
        """A real field held by its continuum-normalized half spectrum, of
        shape (components, *spec.half_shape) or held to its band: the last
        axis may stop after any column, from the first on, and the columns
        above it are then zero.  Nothing is synthesized here.

        The field takes the input over as its spectrum, exactly as given,
        and makes it read-only.  The values are ``irfftn`` of the input,
        zero-padded to full width: they keep the Nyquist bins (index N/2 on
        each axis), read at -N/2 on the first n - 1 axes.  A factor odd in
        the frequency of such an axis belongs zeroed on its Nyquist bin, so
        ``spectrum()`` and every image of the field are Nyquist-projected.
        ``spectrum()`` is the values' spectrum when the input is the half
        spectrum of a real field, that is when its zero plane of the last
        axis is Hermitian off the Nyquist bins.  The input must be complex:
        the inverse transform's complex passes run in place on a copy of
        it."""
        if not np.issubdtype(spectrum.dtype, np.complexfloating):
            raise ValueError(f"spectrum dtype {spectrum.dtype} is not complex")
        width = spectrum.shape[-1]
        if spectrum.shape[1:-1] != spec.half_shape[:-1] or not 1 <= width <= spec.half_shape[-1]:
            raise ValueError(
                f"spectrum shape {spectrum.shape} does not end in {spec.half_shape[:-1]} "
                f"and 1 to {spec.half_shape[-1]} columns")
        return cls._holding(spec, spectrum)

    @classmethod
    def from_octant(cls, spec: GridSpec, octant: np.ndarray) -> "GridField":
        """A real field even in every axis, held by the real continuum-
        normalized spectrum on its octant: shape (components, b_0 .. b_n-1),
        every axis held to a band of 1 to N/2 + 1 indices, the frequencies
        above it being zero.  Its spectrum is the octant mirrored on every
        axis but the last.  Nothing is synthesized here; as
        ``from_spectrum`` does, the field takes the input over, read-only
        and exactly as given, Nyquist hyperplanes and all.  The input must be
        real floating: its passes are the cosine series of a real array."""
        _real_floating("octant", octant)
        top = spec.octant_shape[0]
        if octant.ndim != spec.n + 1 or not all(1 <= b <= top for b in octant.shape[1:]):
            raise ValueError(
                f"octant shape {octant.shape} does not hold 1 to {top} indices on each of "
                f"{spec.n} axes")
        out = cls._holding(spec, octant)
        out._parity = ((0,) * spec.n,) * out.components
        return out

    @classmethod
    def from_octant_values(cls, spec: GridSpec, values: np.ndarray) -> "GridField":
        """A real field even about the box centre, held by its values on the
        octant of grid points, indices 0 .. N/2 of every axis: shape
        (components, *spec.octant_shape).  N is even, so such a field is
        also even about index 0 of the periodic grid, and index m > N/2 of
        an axis holds the value at index N - m.  Its spectrum is the
        octant's cosine transform, taken on the first read of it and held
        as ``from_octant`` holds an octant.  Only the caller's closed form
        says the field is even; the values are not tested for it.  As
        ``from_octant`` does, the field takes the input over, read-only."""
        if values.ndim != spec.n + 1 or values.shape[1:] != spec.octant_shape:
            raise ValueError(
                f"octant values shape {values.shape} != (components, *{spec.octant_shape})")
        _real_floating("octant values", values)
        _finite(values)
        out = cls._empty(spec, values.shape[0])
        values.flags.writeable = False
        out._octant_values = values
        out._parity = ((0,) * spec.n,) * out.components
        return out

    @classmethod
    def _holding(cls, spec: GridSpec, hat: np.ndarray) -> "GridField":
        """A field holding ``hat``, made read-only."""
        out = cls._empty(spec, hat.shape[0])
        hat.flags.writeable = False
        out._hat = hat
        return out

    @classmethod
    def _empty(cls, spec: GridSpec, components: int) -> "GridField":
        """A field with nothing held yet, for the other constructors."""
        out = cls.__new__(cls)
        out.spec = spec
        out.components = components
        out._values = out._octant_values = out._hat = out._parity = out._mag = out._made = None
        return out

    @property
    def octant_values(self) -> Optional[np.ndarray]:
        """The values on the octant of grid points, of shape (components,
        *spec.octant_shape), read-only, for a field built by
        ``from_octant_values``; None for every other field."""
        return self._octant_values

    @property
    def values(self) -> np.ndarray:
        """The grid values, of shape (components, *spec.shape); a field built
        from a spectrum or by an operator synthesizes them on first read,
        each component a row of ``_rows``, then caches them (read-only).  An
        octant field mirrors each component from its octant of values,
        sampled or synthesized."""
        if self._values is None:
            values = np.empty((self.components,) + self.spec.shape)
            if self._octant_values is not None:
                for c, part in enumerate(self._octant_values):
                    values[c] = _unfold(self.spec, part, self._parity[c])
            else:
                rows, _ = self._rows()
                for c, row, parity in rows:
                    if parity is None:
                        _finite(_invert(self.spec, row, values[c]))
                    else:
                        values[c] = _unfold(self.spec, _finite(_invert(self.spec, row, None, parity)),
                                            parity)
            values.flags.writeable = False
            self._values = values
        return self._values

    def _rows(self) -> tuple[Iterator[tuple[int, np.ndarray, Optional[tuple]]], int]:
        """The held spectrum as an image's rows (see ``_image``), each
        component with its parity: a half-spectrum component copied in turn
        into one work buffer, which the in-place passes of ``_invert``
        scramble, and an octant component as it is held, which the octant
        passes leave as it is."""
        hat = self._held_spectrum()

        def rows() -> Iterator[tuple[int, np.ndarray, Optional[tuple]]]:
            if self._parity is not None:
                for c, parity in enumerate(self._parity):
                    yield c, hat[c], parity
                return
            work = np.empty(hat.shape[1:], dtype=hat.dtype)
            for c in range(self.components):
                np.copyto(work, hat[c])
                yield c, work, None

        return rows(), self.components - 1

    def spectrum(self) -> np.ndarray:
        """The Nyquist-masked, continuum-normalized half spectrum, of shape
        (components, *spec.half_shape), read-only: a fresh copy on every
        read of the spectrum held, zero-padded to full width when it is
        held to a band (see ``from_spectrum``) and mirrored when it is an
        octant."""
        hat = self._held_spectrum()
        if self._parity is not None:
            hat = self._unfolded()
        full = np.zeros(hat.shape[:-1] + self.spec.half_shape[-1:], dtype=complex)
        full[..., : hat.shape[-1]] = hat
        zero_nyquist(self.spec, full)
        full.flags.writeable = False
        return full

    def _unfolded(self) -> np.ndarray:
        """The half spectrum of an octant field, held to the band of the
        octant's last axis: each component's octant mirrored on the first
        n - 1 axes, times i^q.  Real when every q is even (i^q = +-1), as
        for every field even in every axis, so that half the memory holds
        it; a multiplier casts it to complex as it reads it."""
        hat = self._held_spectrum()
        real = all(sum(parity) % 2 == 0 for parity in self._parity)
        out = np.empty(hat.shape[:1] + self.spec.half_shape[:-1] + hat.shape[-1:],
                       dtype=float if real else complex)
        for c, parity in enumerate(self._parity):
            power = _I_POWERS[sum(parity) % 4]
            np.multiply(_unfold(self.spec, hat[c], parity, half=True),
                        power.real if real else power, out=out[c])
        return out

    def _held_spectrum(self) -> np.ndarray:
        """The spectrum as the field holds it: computed on first use, then
        cached (read-only), a half spectrum as wide on the last axis as the
        spectrum of its source, or an octant held to the bands of its
        source's.  A field made by A(D) from v collects the rows of the
        image (``_image_rows``), Nyquist-projected, on the octant when v is
        held there and every row has one parity (the parities are set
        then); a field built from values takes one ``rfftn`` per
        component, and one from octant values the octant passes of
        ``_octant_transform`` per component, scaled by T^n."""
        if self._hat is None:
            if self._made is not None:
                a, v = self._made
                source, parity, parities = _operand(a, v)
                hat = np.empty((self.components,) + source.shape[1:],
                               dtype=_row_dtype(source, parities))
                written = {r for r, _, _ in _image_rows(a, self.spec, source, parity, parities,
                                                        hat.__getitem__)}
                for r in range(self.components):
                    if r not in written:
                        hat[r] = 0.0
                if parities is not None:
                    even = (0,) * self.spec.n
                    self._parity = tuple(parities.get(r, even) for r in range(self.components))
            elif self._octant_values is not None:
                hat = np.empty((self.components,) + self.spec.octant_shape)
                for c, part in enumerate(self._octant_values):
                    _octant_transform(self.spec, part, self._parity[c],
                                      self.spec.box**self.spec.n, hat[c])
            else:
                hat = analysis(self.spec, self.values)
            hat.flags.writeable = False
            self._hat = hat
        return self._hat

    def magnitude(self) -> np.ndarray:
        """Pointwise Euclidean norm over the components, of shape
        spec.shape, or spec.octant_shape for a field held on the octant:
        computed on first use, then cached (read-only).  A field that holds
        its values, on the grid or, from ``from_octant_values``, on the
        octant, measures them.  Every other field (one whose values were
        never read, and every other octant field) reduces the rows of its
        held spectrum (``_rows``) as ``image_magnitude`` reduces an
        image's, so the values are not held; the result is the same bit for
        bit.  The magnitude of one component is its absolute value.  A
        field made by A(D) from v whose spectrum was never read (nor, then,
        its values) takes ``image_magnitude(A, v)``, equal bit for bit as
        well."""
        if self._mag is None:
            held = self._values if self._parity is None else self._octant_values
            if self._hat is None and self._made is not None:
                mag = image_magnitude(*self._made)
            elif held is None:
                mag = _reduce(self.spec, self._rows(), root=True,
                              read=lambda r, values, parity: _finite(values))
            elif self.components == 1:
                mag = np.abs(held[0])
            else:
                mag = np.square(held[0])
                square = None
                for v in held[1:]:
                    square = np.square(v, out=square)
                    mag += square
                np.sqrt(mag, out=mag)
            mag.flags.writeable = False
            self._mag = mag
        return self._mag

    def boundary_tail(self) -> float:
        """``boundary_tail`` of the field's magnitude."""
        return boundary_tail(self.magnitude())


def boundary_tail(mag: np.ndarray) -> float:
    """Largest value of a pointwise magnitude on the outermost grid shell
    (index 0 on some axis) relative to its overall maximum; reports how
    badly the box truncates the field.  An octant magnitude holds index 0
    of every axis and the largest value, so it gives the grid's figure."""
    peak = float(mag.max())
    if peak == 0.0:
        return 0.0
    edge = max(float(mag[(slice(None),) * ax + (0,)].max()) for ax in range(mag.ndim))
    return edge / peak


def grid_sum(spec: GridSpec, a: np.ndarray, rows: slice) -> float:
    """The sum over the grid of the values that ``a``, the slab ``rows`` of
    axis 0 of a grid or of an octant array, stands for; its trailing shape
    says which.  A grid slab is summed as it is.  An octant slab stands for
    its mirror images: each point counts its mirror count, the product over
    the axes of 1 at index 0 and N/2 and 2 elsewhere, and the axes are
    reduced from the last by ``einsum``, whose order of summation does not
    depend on the number of BLAS threads.  For N = 2 the octant is the
    grid, every mirror count is 1, and the slab is summed as a grid's."""
    if spec.size == 2 or a.shape[1:] != spec.octant_shape[1:]:
        return float(a.sum())
    weights = np.full(spec.size // 2 + 1, 2.0)
    weights[0] = weights[-1] = 1.0
    for _ in range(a.ndim - 1):
        a = np.einsum("...i,i->...", a, weights)
    return float(np.einsum("i,i->", a, weights[rows]))


def even_part(spec: GridSpec, a: np.ndarray) -> np.ndarray:
    """The even part of ``a``, an array on the grid on its last n axes,
    about the box centre (and so about index 0), on the octant of grid
    points: at each point of the octant the mean of ``a`` over its mirror
    images, index m and N - m of every axis, one axis at a time.  Summed
    against a field even about the centre, ``a`` and its even part give the
    same sum, the latter as an octant (``grid_sum``).  The first of those
    axes is folded in slabs of about an eighth of ``SLAB_BYTES`` of ``a``,
    and each slab is folded on the others and written into the result, so
    no temporary is larger than a slab."""
    top = spec.size // 2 + 1
    mirror = -np.arange(top) % spec.size
    first = a.ndim - spec.n
    out = np.empty(a.shape[:first] + spec.octant_shape)
    step = max(1, SLAB_BYTES // 8 // (8 * prod(a.shape) // a.shape[first]))
    for lo in range(0, top, step):
        rows = slice(lo, min(lo + step, top))
        index = (slice(None),) * first + (rows,)
        part = 0.5 * (a[index] + np.take(a, mirror[rows], axis=first))
        for ax in range(first + 1, a.ndim):
            part = 0.5 * (part[(slice(None),) * ax + (slice(top),)]
                          + np.take(part, mirror, axis=ax))
        out[index] = part
    return out


def zero_nyquist(spec: GridSpec, hat: np.ndarray) -> None:
    """Zero the unpaired Nyquist hyperplanes (index N/2 on every axis) of a
    half spectrum or octant in place; ``hat`` has shape
    (..., *spec.half_shape) or (..., *spec.octant_shape), or stops short of
    N/2 + 1 indices on an axis, which then has none.

    Real fields carry the N/2 frequency without its sign partner, so
    odd-order multipliers on that bin have no Hermitian representation;
    projecting the bin out of every image (``_image_rows``) makes
    multiplier application commute with composition exactly."""
    half = spec.size // 2
    for ax, length in enumerate(hat.shape[-spec.n:]):
        if length > half:
            hat[(Ellipsis, half) + (slice(None),) * (spec.n - 1 - ax)] = 0.0


def half_box_shift(spec: GridSpec, octant: bool = False) -> list[np.ndarray]:
    """The shift exp(-2 pi i (T/2) xi) by half the box, one real factor per
    axis shaped like ``frequency_grids(octant)``.  At the grid frequencies
    xi_i = m_i / T the factor of axis i is exactly (-1)^m_i, and m_i has the
    parity of its index on every axis because N is even."""
    factors = []
    for ax, length in enumerate(spec.octant_shape if octant else spec.half_shape):
        sign = np.ones(length)
        sign[1::2] = -1.0
        shape = [1] * spec.n
        shape[ax] = length
        factors.append(sign.reshape(shape))
    return factors


def support_indices(grids: Sequence[np.ndarray], reach: float) -> list[np.ndarray]:
    """Per axis, the indices where |coordinate| < reach, for coordinate
    grids that vary along one axis each (sparse grids, such as
    ``frequency_grids()`` returns).  ``np.ix_`` of the result indexes the
    box they span in a full array; ``restrict`` cuts a broadcast array to
    it."""
    return [np.flatnonzero(np.abs(g.ravel()) < reach) for g in grids]


def restrict(a: np.ndarray, indices: Sequence[np.ndarray]) -> np.ndarray:
    """The part of ``a``, an array that broadcasts to the full grid, on the
    box of ``indices`` (from ``support_indices``), still broadcast: axes
    of length 1 stay as they are."""
    for ax, index in enumerate(indices):
        if a.shape[ax] > 1:
            a = np.take(a, index, axis=ax)
    return a


def _unfold(spec: GridSpec, octant: np.ndarray, parity: Sequence[int], half: bool = False
            ) -> np.ndarray:
    """The real array that the octant array ``octant`` (one component, held
    to a band on any axis) stands for, with parity ``parity``: on the grid,
    or with ``half`` on the half spectrum, whose last axis is the octant's
    own, band and all.  Index m > N/2 of a mirrored axis reads index N - m,
    times -1 on an odd axis."""
    top = spec.size // 2
    mirror = np.r_[0: top + 1, top - 1: 0: -1]
    axes = spec.n - 1 if half else spec.n
    padded = np.zeros(spec.octant_shape[:axes] + octant.shape[axes:])
    padded[tuple(slice(b) for b in octant.shape)] = octant
    out = padded[np.ix_(*[mirror] * axes, *[np.arange(b) for b in octant.shape[axes:]])]
    for ax in range(axes):
        if parity[ax]:
            out[(slice(None),) * ax + (slice(top + 1, None),)] *= -1.0
    return out


def _invert(
    spec: GridSpec, work: np.ndarray, out: Optional[np.ndarray] = None,
    parity: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Synthesize one real component from the continuum-normalized half
    spectrum in ``work``, which the complex passes over axes 0 .. n - 2
    overwrite in place: the same passes as ``irfftn``, on the same lines,
    without its fresh array per pass.  One ``irfft(..., n=N)`` over the
    last axis, scaled by (N/T)^n, then gives the values, of spec.shape, in
    ``out`` when given and otherwise in a fresh array.  ``work`` may stop
    short of N/2 + 1 columns on the last axis, as a spectrum held to its
    band does: the complex passes run on the columns it has, and the real
    pass zero-pads them.

    With ``parity``, ``work`` is a real octant of that parity (left as it
    is), and the values are those on the octant of the grid, of
    spec.octant_shape (``_octant_transform``)."""
    if parity is not None:
        return _octant_transform(spec, work, parity, spec.synthesis_scale, out)
    for ax in range(spec.n - 1):
        np.fft.ifft(work, axis=ax, out=work)
    values = np.fft.irfft(work, n=spec.size, axis=spec.n - 1, out=out)
    values *= spec.synthesis_scale
    return values


def _octant_transform(
    spec: GridSpec, octant: np.ndarray, parity: Sequence[int], scale: float,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The real octant ``octant`` (held to a band on any axis, left as it
    is) transformed by one ``irfft(..., n=N)`` per axis, each keeping its
    first N/2 + 1 outputs, times ``scale``: the result, of
    spec.octant_shape, is ``out`` when given.  Along an even axis the pass
    sums the cosine series of the octant; along an odd one it takes i times
    the octant and sums the sine series (a real pass drops the imaginary
    part of index 0 and N/2, which an odd axis holds zero).

    The same passes run both ways, as the cosine transform (DCT-I) is its
    own inverse up to scale: with the synthesis scale (N/T)^n they invert
    an octant spectrum into the values on the octant of the grid
    (``_invert``), and with T^n they transform the values on the octant of
    a field even or odd in every axis into its octant spectrum.

    Each pass runs in slabs of another axis, each of about an eighth of
    ``SLAB_BYTES`` of N-long real outputs, and keeps the first N/2 + 1
    outputs of each slab in its result: in place when the pass leaves the
    shape as it is (the axis is held whole), otherwise in a fresh array,
    or in ``out`` once the shape is the octant's.  No pass holds its
    N-long output or a complex copy of its input whole: on 64^3 a full
    octant so inverted takes a few slabs of temporaries besides the octant
    it fills, where whole passes took about 0.8 real grids."""
    top = spec.size // 2 + 1
    values = octant
    for ax, odd in enumerate(parity):
        shape = values.shape[:ax] + (top,) + values.shape[ax + 1:]
        if values is not octant and values.shape == shape:
            result = values
        elif out is not None and shape == spec.octant_shape:
            result = out
        else:
            result = np.empty(shape)
        other = 1 if ax == 0 else 0
        count = prod(values.shape) // (values.shape[ax] * values.shape[other])
        step = max(1, SLAB_BYTES // 8 // (8 * spec.size * count))
        parts = [(slice(None),) * other + (slice(lo, lo + step),)
                 for lo in range(0, values.shape[other], step)]
        factor = scale if ax == spec.n - 1 else 1.0
        for part in parts:
            lines = np.fft.irfft(values[part] * 1j if odd else values[part], n=spec.size, axis=ax)
            np.multiply(lines[(slice(None),) * ax + (slice(top),)], factor, out=result[part])
        values = result
    return values


def _finite(values: np.ndarray) -> np.ndarray:
    """``values``, checked finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite entries")
    return values


def _real_floating(name: str, a: np.ndarray) -> None:
    """Refuse ``a`` unless its dtype is real floating: grid values and
    octants are real, and the transforms of a complex or integer array
    would fail or drop its imaginary part."""
    if not np.issubdtype(a.dtype, np.floating):
        raise ValueError(f"{name} dtype {a.dtype} is not real floating")


def analysis(spec: GridSpec, values: np.ndarray) -> np.ndarray:
    """The continuum-normalized half spectrum of real grid values of shape
    (components, *spec.shape), checked finite: one ``rfftn`` per
    component, into its slice of one array, times h^n.  A field built from
    values takes it on the first read of its spectrum; held by
    ``GridField.from_spectrum``, it makes a field that never holds the
    values (the potential of ``fields.curl_potential_field``)."""
    hat = np.empty(values.shape[:1] + spec.half_shape, dtype=complex)
    for c, part in enumerate(_finite(values)):
        np.fft.rfftn(part, out=hat[c])
    hat *= spec.cell_volume
    return hat


def symbol_on_grid(
    a: SymbolOperator, spec: GridSpec, shape: Optional[Sequence[int]] = None,
    octant: bool = False,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """The symbol sum_alpha xi^alpha A_alpha at the grid frequencies, one
    nonzero entry at a time: yields (row, column, values) with real values
    that broadcast to spec.half_shape, or with ``octant`` to
    spec.octant_shape; with ``shape``, to its first shape[i] indices of
    each axis i, as a spectrum held to a band or an octant held to bands
    has them.  The (2 pi i)^k factor of the Fourier multiplier is left to
    the caller."""
    if a.n != spec.n:
        raise ValueError("operator and grid dimensions differ")
    xi = spec.frequency_grids(octant)
    if shape is not None:
        xi = [x[tuple(slice(b) for b in shape)] for x in xi]
    monomials = []
    # (row, column) -> [(term, numerator)], the terms in graded-lex order.
    entries: dict = {}
    for t, (alpha, rows) in enumerate(a.terms):
        mono = np.ones((1,) * spec.n)
        for i, e in enumerate(alpha):
            if e:
                mono = mono * xi[i] ** e
        monomials.append(mono)
        for r, row in enumerate(rows):
            for c, x in row:
                entries.setdefault((r, c), []).append((t, x))
    for (r, c), coeffs in sorted(entries.items()):
        values = None
        for t, x in coeffs:
            coeff = x / a.den
            if coeff != 0.0:
                term = coeff * monomials[t]
                values = term if values is None else values + term
        if values is not None:
            yield r, c, values


def _image_parities(
    a: SymbolOperator, parity: Optional[Sequence[Sequence[int]]]
) -> Optional[dict[int, tuple[int, ...]]]:
    """The parity of each nonzero row of A(D)u, for a u held on the octant
    whose components have the parities ``parity``: the entry of column c
    and monomial xi^alpha gives parity_c + alpha mod 2 on each axis.  None
    when u is not held on the octant or some row mixes parities."""
    if parity is None:
        return None
    rows: dict[int, tuple[int, ...]] = {}
    for alpha, entries in a.terms:
        for r, row in enumerate(entries):
            for c, _ in row:
                p = tuple((s + e) % 2 for s, e in zip(parity[c], alpha))
                if rows.setdefault(r, p) != p:
                    return None
    return rows


def _operand(
    a: SymbolOperator, u: GridField
) -> tuple[np.ndarray, Optional[tuple], Optional[dict[int, tuple[int, ...]]]]:
    """(spectrum, component parities, row parities) that the image A(D)u is
    built from, for a u that holds data: u's octant and the parities when
    every row of the image has one parity; otherwise u's half spectrum,
    mirrored from its octant when u holds one, and None twice."""
    parities = _image_parities(a, u._parity)
    if parities is None and u._parity is not None:
        return u._unfolded(), None, None
    return u._held_spectrum(), u._parity, parities


def _row_dtype(hat: np.ndarray, parities: Optional[dict]) -> np.dtype:
    """The dtype of the image rows built from ``hat`` (from ``_operand``):
    its own on the octant, and complex on the half spectrum, which a real
    unfolded octant (``GridField._unfolded``) is not."""
    return hat.dtype if parities is not None else np.result_type(hat.dtype, 1j)


def _image_rows(
    a: SymbolOperator, spec: GridSpec, hat: np.ndarray, parity: Optional[tuple],
    parities: Optional[dict[int, tuple[int, ...]]], target: Callable[[int], np.ndarray],
) -> Iterator[tuple[int, np.ndarray, Optional[tuple[int, ...]]]]:
    """The spectrum of A(D)u row by row, held as ``hat`` (from
    ``_operand``) is: for each row with a nonzero symbol entry, in order,
    writes the row into ``target(row)`` and yields (row, that array, its
    parity on the octant or None).  The multiplier is (2 pi i)^k A(xi),
    applied to ``hat`` one entry at a time and one slab of axis 0 at a
    time, each of about an eighth of ``SLAB_BYTES`` of the row as it is
    held (band, octant and dtype): the (2 pi i)^k factor goes into the
    entry's slab, and the first entry of a row writes it, the others add
    to it, through temporaries the size of that slab, even for an entry
    that sums several monomials over the whole grid.  The row's Nyquist
    hyperplanes are then zeroed (``zero_nyquist``), whatever ``hat`` holds
    there.

    On an octant (``parities`` given), column c of parity ``parity[c]``
    and row r of parity ``parities[r]`` take the real factor
    (2 pi i)^k i^(q_c - q_r), q the number of odd axes: q_r has the parity
    of k + q_c, so the power of i is even."""
    octant = parities is not None
    unit = (2j * pi) ** a.order
    for r, entries in groupby(symbol_on_grid(a, spec, hat.shape[1:], octant), key=itemgetter(0)):
        row = target(r)
        step = max(1, SLAB_BYTES // 8 // row[0].nbytes)
        for i, (_, c, values) in enumerate(entries):
            scale = unit
            if octant:
                scale = (unit * _I_POWERS[(sum(parity[c]) - sum(parities[r])) % 4]).real
            for lo in range(0, len(row), step):
                part = slice(lo, lo + step)
                factor = scale * (values[part] if len(values) > 1 else values)
                if i:
                    row[part] += factor * hat[c, part]
                else:
                    np.multiply(factor, hat[c, part], out=row[part])
        zero_nyquist(spec, row)
        # The last factor and symbol entry are not held while the caller
        # inverts the row.
        del factor, values
        yield r, row, parities[r] if octant else None


def _source(a: SymbolOperator, u: GridField) -> tuple[SymbolOperator, GridField]:
    """(A, u) with the operator that made u composed in: (A B, v) when u is
    B(D)v, so that A(D)u is measured or built from v through one symbol."""
    if u.components != a.dim_v:
        raise ValueError(f"field has {u.components} components, operator expects {a.dim_v}")
    if a.n != u.spec.n:
        raise ValueError("operator and grid dimensions differ")
    if u._made is None:
        return a, u
    b, v = u._made
    return a.compose(b), v


def apply_symbol(a: SymbolOperator, u: GridField) -> GridField:
    """The periodic field A(D)u, whose Fourier multiplier is (2 pi i)^k A(xi),
    made without transforming anything: it records (A, u), or (A B, v) when
    u is itself B(D)v.  Its spectrum is the multiplier times the spectrum
    of the source, built when first read; measuring it or an image of it
    runs only backward transforms, and a composite that is the zero symbol
    runs none."""
    out = GridField._empty(u.spec, a.dim_e)
    out._made = _source(a, u)
    return out


def image_magnitude(
    a: SymbolOperator, u: GridField, weights: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Pointwise magnitude of A(D)u, sqrt of sum_r w_r (A(D)u)_r^2 (every
    w_r = 1 without ``weights``), equal bit for bit to the magnitude of
    ``apply_symbol(a, u)`` with its spectrum built, for unit weights; on
    the octant when the image is held there.  A field u made by B(D) from
    v is measured as (A B)(D)v."""
    a, u = _source(a, u)
    if a.is_zero():
        return np.zeros(u.spec.shape)
    return _reduce(u.spec, _image(a, u), weights, root=True)


def even_components(u: GridField) -> np.ndarray:
    """The even part about the box centre of every component of u on the
    octant of grid points, of shape (components, *spec.octant_shape), with
    u's magnitude cached in the same pass, as ``u.magnitude()`` caches it
    and equal to it bit for bit.  Values on the octant of grid points come
    back as held, and values held on the grid are folded once
    (``even_part``).  Every other field is reduced as its magnitude is
    (``_reduce``): each row is inverted once, checked finite, its even part
    kept and its square added to the magnitude, so no values are held past
    their row.  A row held on the octant is its own even part, but for the
    interior of an odd axis, where its mirror images cancel.  A field made
    by A(D) from v whose spectrum was never read takes the rows of the
    image from v, one work buffer at a time, and never holds its own
    spectrum; a zero row of A reads as zeros."""
    spec = u.spec
    if u._octant_values is not None or (u._parity is None and u._values is not None):
        u.magnitude()
        held = u._octant_values
        return held if held is not None else even_part(spec, u._values)
    parts: dict[int, np.ndarray] = {}

    def keep(r: int, values: np.ndarray, parity: Optional[tuple]) -> None:
        if parity is None:
            parts[r] = even_part(spec, _finite(values))
            return
        parts[r] = even = _finite(values).copy()
        for ax, odd in enumerate(parity):
            if odd:
                even[(slice(None),) * ax + (slice(1, -1),)] = 0.0

    unbuilt = u._made is not None and u._hat is None and not u._made[0].is_zero()
    mag = _reduce(spec, _image(*u._made) if unbuilt else u._rows(), root=True, read=keep)
    if u._mag is None:
        mag.flags.writeable = False
        u._mag = mag
    zero = np.zeros(spec.octant_shape)
    return np.stack([parts.pop(c, zero) for c in range(u.components)])


def image_squares(a: SymbolOperator, u: GridField) -> Optional[np.ndarray]:
    """sum_r (A(D)u)_r^2, the square of ``image_magnitude``, or None when
    the symbol (the composite, for a field u made by B(D) from v) has no
    nonzero entry: then nothing is allocated and nothing transformed."""
    a, u = _source(a, u)
    if a.is_zero():
        return None
    return _reduce(u.spec, _image(a, u))


def _image(
    a: SymbolOperator, u: GridField
) -> tuple[Iterator[tuple[int, np.ndarray, Optional[tuple]]], int]:
    """(rows, last) of A(D)u, for a nonzero A and a u that holds data: the
    rows of ``_image_rows``, each built in one work buffer, and the index
    of the last of them."""
    hat, parity, parities = _operand(a, u)
    work = np.empty(hat.shape[1:], dtype=_row_dtype(hat, parities))
    # The last row that ``symbol_on_grid`` yields: a stored numerator is
    # never zero.
    last = max(r for _, entries in a.terms for r, row in enumerate(entries) if row)
    return _image_rows(a, u.spec, hat, parity, parities, lambda r: work), last


def image_l1(a: SymbolOperator, u: GridField) -> float:
    """The L1 norm of A(D)u: one ``grid_sum`` of ``image_magnitude(a, u)``
    times the cell volume h^n.  0.0 for a zero symbol, with nothing
    allocated."""
    a, u = _source(a, u)
    if a.is_zero():
        return 0.0
    mag = _reduce(u.spec, _image(a, u), root=True)
    return grid_sum(u.spec, mag, slice(None)) * u.spec.cell_volume


def _reduce(
    spec: GridSpec, image: tuple, weights: Optional[Sequence[int]] = None,
    root: bool = False,
    read: Optional[Callable[[int, np.ndarray, Optional[tuple]], None]] = None,
) -> np.ndarray:
    """sum_r w_r row_r^2 (every w_r = 1 without ``weights``), or with
    ``root`` its square root, for the rows of ``image``: (rows, last) as
    ``_image`` gives them for an image and ``GridField._rows`` for the
    components of a held field, rows yielding (r, the spectrum of row r in
    a work buffer, or an octant as held, its parity or None) up to row
    ``last``.  Each row is inverted (``_invert``), and with ``read`` its
    values are passed to ``read(r, values, parity)`` before they are
    squared (a held field's magnitude checks them finite there, and
    ``even_components`` keeps their even part).  The first row's values
    become the accumulator, squared and weighted in place; every later row
    is inverted into one reused buffer, squared, weighted and added.  A
    single unweighted row taken with ``root`` is its absolute value, never
    squared.  The result is of spec.shape, or of spec.octant_shape when the
    rows are held on the octant."""
    rows, last = image
    total = buffer = None
    for r, row, parity in rows:
        values = _invert(spec, row, buffer, parity)
        if read is not None:
            read(r, values, parity)
        weight = None if weights is None else weights[r]
        if total is None and r == last and root and weight is None:
            return np.abs(values, out=values)
        np.square(values, out=values)
        if weight is not None:
            values *= weight
        if total is None:
            total = values
        else:
            total += values
            buffer = values
    return np.sqrt(total, out=total) if root else total


def axis_swap_sum(s: np.ndarray) -> np.ndarray:
    """s plus, for each axis j < n - 1, s with axes j and n - 1 swapped, in
    place, for s = sum_c (d_{n-1} w_c)^2 on a grid or an octant (a cube),
    every w_c unchanged by each transposition of two axes: then
    (d_j w_c)^2 is (d_{n-1} w_c)^2 with axes j and n - 1 swapped, and the
    result is sum_c |grad w_c|^2, from the one derivative along the last
    axis where the gradient takes n.

    Only the swap of axes n - 2 and n - 1 reads s across its rows, into
    q = (d_{n-2} w)^2, copied; the swap of a lower axis j with the last is
    taken instead as q with axes j and n - 2 swapped, which reads whole
    rows of q: the same by the symmetry, to rounding.  s and q are the
    only arrays held."""
    n = s.ndim
    q = s.swapaxes(n - 2, n - 1).copy()
    s += q
    for j in range(n - 2):
        s += q.swapaxes(j, n - 2)
    return s


def axis_swap_magnitude(a: SymbolOperator, u: GridField) -> np.ndarray:
    """The root of ``axis_swap_sum`` of ``image_squares(a, u)``, for rows
    of A(D)u that are the derivatives along the last axis of fields
    unchanged by each transposition of two axes (the same caveat as
    ``axis_swap_sum``): the gradient magnitude of those fields, from one
    inverse transform per row.  Zeros on the grid for a zero symbol."""
    s = image_squares(a, u)
    if s is None:
        return np.zeros(u.spec.shape)
    return np.sqrt(axis_swap_sum(s), out=s)


def derivative_magnitude(u: GridField, order: int, symmetric: bool = False) -> np.ndarray:
    """Pointwise Frobenius magnitude of the order-th derivative tensor:
    sqrt of sum over multi-indices (with multinomial weights) and components,
    on the octant when the image is held there.  One operator stacks the
    derivatives: its row i * m + c is d^alpha_i u_c.

    With ``symmetric``, for order 1 and a u whose every component is
    unchanged by each transposition of two axes (which only the caller's
    closed form says, never a numeric test), the operator is the one
    derivative along the last axis of each component, and
    ``axis_swap_magnitude`` of it gives the gradient's: one inverse
    transform per component where the gradient takes n."""
    n, m = u.spec.n, u.components
    if symmetric:
        if order != 1:
            raise ValueError("the axis-swap sum gives first derivatives only")
        last = (0,) * (n - 1) + (1,)
        return axis_swap_magnitude(
            SymbolOperator.from_entries(n, m, m, 1, {(last, c, c): 1 for c in range(m)}), u)
    alphas = multi_indices(n, order)
    rows = range(len(alphas) * m)
    entries = {(alpha, i * m + c, c): 1 for i, alpha in enumerate(alphas) for c in range(m)}
    weights = [factorial(order) // prod(factorial(e) for e in alphas[r // m]) for r in rows]
    # Every weight of order 1 is 1: no weights, no pass that multiplies by 1.
    return image_magnitude(SymbolOperator.from_entries(n, m, len(rows), order, entries),
                           u, weights if max(weights) > 1 else None)
