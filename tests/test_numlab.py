"""Spectral grid machinery, norms and concentration families."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from symlab.catalog import (
    divergence,
    exterior_d,
    gradient,
    hodge_pair,
    hyperbolic_example,
    laplacian,
    quaternion,
    sym_gradient,
)
from symlab.deciders import (
    NOT_CANCELING,
    NOT_CANCELING_SAMPLED,
    CancelingVerdict,
    check_canceling,
    check_ellipticity,
    image_intersection,
)
from symlab.exact import full_space
from symlab.exact.poly import multi_indices
from symlab.exact.symbol import SymbolOperator
from symlab.numlab import (
    BlowupError,
    GridField,
    GridSpec,
    apply_symbol,
    build_blowup_field,
    derivative_magnitude,
    image_magnitude,
    l2_norm_spectral,
    lp_norm,
    plateau_cutoff,
    smoothstep,
    smoothstep_deriv,
    symbol_on_grid,
)
from symlab.numlab.blowup import blowup_direction, cutoff_l1
from symlab.numlab.experiments import _LAST_OF_3, _newton_point
from symlab.numlab.fields import (
    gaussian_bump,
    mollified_disc,
    newton_gradient_field,
    radial_cutoff_test_function,
)
from symlab.numlab import grid
from symlab.numlab.grid import _invert, boundary_tail, half_box_shift, image_l1, zero_nyquist
from symlab.numlab.norms import NORM_CHUNK, magnitude_norm, pairing
from test_exact_symbol import ref_evaluate


def nyquist_mask(spec):
    # Reference: one on the half spectrum, zero on index N/2 of every axis.
    mask = np.ones(spec.half_shape)
    for ax in range(spec.n):
        sl = [slice(None)] * spec.n
        sl[ax] = spec.size // 2
        mask[tuple(sl)] = 0.0
    return mask


def three_row_slabs(monkeypatch, spec):
    # Slabs of three indices of axis 0 of a full-width complex row, which
    # ``_image_rows`` multiplies in slabs of an eighth of SLAB_BYTES: the 8
    # or 16 indices of the test grids split into at least three slabs, the
    # last one shorter.  A row held to a narrower band takes wider slabs.
    monkeypatch.setattr(grid, "SLAB_BYTES", 8 * 3 * 16 * math.prod(spec.half_shape[1:]))


def random_field(spec, components, seed=0):
    rng = np.random.default_rng(seed)
    return GridField(spec, rng.standard_normal((components,) + spec.shape))


def test_parseval():
    spec = GridSpec(2, 64, 8.0)
    u = random_field(spec, 3)
    phys = lp_norm(u, 2.0)
    assert abs(phys - l2_norm_spectral(u)) <= 1e-10 * phys


def test_pure_mode_matches_exact_symbol():
    # The multiplier at one Fourier mode must agree with the exact symbol
    # value at that frequency to 1e-9 relative.
    spec = GridSpec(2, 64, 8.0)
    cases = ((gradient(2), (1, 0), 0), (laplacian(2), (3, 2), 0), (sym_gradient(2), (1, 2), 1))
    for inst, mode, comp_in in cases:
        op = inst.operator
        x = spec.coordinate_grids()
        phase = 2 * math.pi * (mode[0] * x[0] + mode[1] * x[1]) / spec.box
        vals = np.zeros((op.dim_v,) + spec.shape)
        vals[comp_in] = np.cos(phase)
        u = GridField(spec, vals)
        out = apply_symbol(op, u)
        xi = [F(mode[0]), F(mode[1])]
        t = F(int(spec.box))
        exact = ref_evaluate(op, [x / t for x in xi])
        factor = complex(0.0, 2 * math.pi) ** op.order
        for e in range(op.dim_e):
            coeff = float(exact[e][comp_in])
            expected = (factor * coeff * np.exp(1j * phase)).real
            err = np.abs(out.values[e] - expected).max()
            assert err <= 1e-9 * max(abs(coeff) * abs(factor), 1.0)


def test_gradient_of_sine_mode():
    spec = GridSpec(2, 64, 8.0)
    x = np.broadcast_arrays(*spec.coordinate_grids())
    u = GridField(spec, np.sin(2 * np.pi * x[0] / spec.box)[None, ...])
    du = apply_symbol(gradient(2).operator, u)
    expected = (2 * np.pi / spec.box) * np.cos(2 * np.pi * x[0] / spec.box)
    assert np.abs(du.values[0] - expected).max() < 1e-10
    assert np.abs(du.values[1]).max() < 1e-12


def test_constant_field_annihilated():
    spec = GridSpec(3, 16, 4.0)
    c = GridField(spec, np.ones((1, 16, 16, 16)))
    assert np.abs(apply_symbol(laplacian(3).operator, c).values).max() == 0.0


def test_compose_matches_direct_multiplier():
    spec = GridSpec(2, 64, 8.0)
    u = random_field(spec, 1, seed=3)
    lap = apply_symbol(divergence(2).operator, apply_symbol(gradient(2).operator, u))
    xi = spec.frequency_grids()
    mult = -4 * np.pi**2 * (xi[0] ** 2 + xi[1] ** 2) * nyquist_mask(spec)
    direct = np.fft.irfftn(mult * np.fft.rfftn(u.values[0]), s=spec.shape, axes=(0, 1))
    scale = np.abs(direct).max()
    assert np.abs(lap.values[0] - direct).max() <= 1e-9 * scale


def test_zero_nyquist_matches_mask():
    rng = np.random.default_rng(5)
    for n, size in ((2, 8), (3, 8), (4, 4)):
        spec = GridSpec(n, size, 4.0)
        hat = rng.standard_normal((2,) + spec.half_shape) * (1 + 1j)
        expected = hat * nyquist_mask(spec)
        zero_nyquist(spec, hat)
        assert np.array_equal(hat, expected)


def test_smoothstep_properties():
    t = np.linspace(-1, 2, 301)
    v = smoothstep(t)
    assert np.all((0 <= v) & (v <= 1))
    assert v[0] == 0 and v[-1] == 1
    r = np.linspace(0, 3, 301)
    c = plateau_cutoff(r)
    assert np.all(c[r <= 0.5] == 1) and np.all(c[r >= 2] == 0)
    # derivative consistency with central differences
    mid = np.linspace(0.05, 0.95, 50)
    dd = (smoothstep(mid + 1e-6) - smoothstep(mid - 1e-6)) / 2e-6
    assert np.abs(dd - smoothstep_deriv(mid)).max() < 1e-5


def test_direction_solver_solves_symbol_everywhere():
    # U = u / p from the witness A(x) u(x) = p(x) e solves A(xi) U(xi) = e at
    # every nonzero frequency, with A(xi), u(xi) and p(xi) evaluated exactly.
    spec = GridSpec(3, 16, 16.0)
    op = hodge_pair(3, 1).operator
    e = [0, 0, 0, 1]
    direction = admissible(op, e)
    last = np.fft.rfftfreq(spec.size, d=1.0 / spec.size)  # integer modes 0 .. N/2
    worst = 0.0
    for m in np.ndindex(*spec.half_shape):
        if not any(m):
            continue
        modes = [int(k) - spec.size * (k >= spec.size // 2) for k in m[:-1]]
        modes.append(int(last[m[-1]]))
        xi = [F(k, int(spec.box)) for k in modes]
        a = np.array([[float(x) for x in row] for row in ref_evaluate(op, xi)])
        u = np.array([float(q.evaluate(xi) / direction.p.evaluate(xi)) for q in direction.u])
        worst = max(worst, np.abs(a @ u - e).max())
    assert worst <= 1e-12


# The catalog's blowup candidates (certified ELLIPTIC and NOT_CANCELING) and
# the skewed scalar symbol xi_0^2 + xi_0 xi_1 + xi_1^2, whose witness is the
# cofactor one, p = (xi_0^2 + xi_0 xi_1 + xi_1^2)^2, with odd exponents.
SKEWED = SymbolOperator.from_entries(
    2, 1, 1, 2, {((2, 0), 0, 0): 1, ((1, 1), 0, 0): 1, ((0, 2), 0, 0): 1})
BLOWUP_CANDIDATES = {
    "laplacian2": laplacian(2).operator, "laplacian3": laplacian(3).operator,
    "hodge21": hodge_pair(2, 1).operator, "hodge31": hodge_pair(3, 1).operator,
    "hodge32": hodge_pair(3, 2).operator, "skewed": SKEWED,
}


@pytest.mark.parametrize("op", BLOWUP_CANDIDATES.values(), ids=BLOWUP_CANDIDATES.keys())
def test_blowup_witness_is_exact(op):
    # A(x) u(x) == p(x) e as polynomials, for each basis vector of W and
    # for their sum, which mixes them when W has more than one.
    basis = image_intersection(op, 0).intersection.columns()
    for e in basis + [tuple(map(sum, zip(*basis)))]:
        direction = admissible(op, e)
        assert op.apply(direction.u) == [direction.p.scale(x) for x in e]
        assert direction.e.tolist() == [float(x) for x in e]


def admissible(op, e):
    # The experiment's validation: both verdicts computed, then checked once.
    return blowup_direction(op, e, check_ellipticity(op), image_intersection(op, 0))


def test_blowup_requires_admissible_direction():
    spec = GridSpec(2, 64, 4.0)
    with pytest.raises(BlowupError):
        admissible(gradient(2).operator, [1, 0])
    with pytest.raises(BlowupError):
        admissible(hyperbolic_example().operator, [1, 0])
    op = laplacian(2).operator
    direction = admissible(op, [1])
    for scale in (512.0, 1.5):
        with pytest.raises(BlowupError):
            build_blowup_field(direction, scale, spec)


def test_blowup_refuses_uncertified_intersection():
    # e = 1 lies in the stated intersection, but a sampled verdict certifies
    # nothing about the common image.
    op = laplacian(2).operator
    elliptic = check_ellipticity(op)
    sampled = CancelingVerdict(NOT_CANCELING_SAMPLED, [], full_space(1))
    with pytest.raises(BlowupError, match="not certified"):
        blowup_direction(op, [1], elliptic, sampled)
    certified = check_canceling(op, seed=0)
    assert certified.status == NOT_CANCELING
    assert blowup_direction(op, [1], elliptic, certified).e.tolist() == [1.0]


@pytest.mark.parametrize("op, e, spec, scale", [
    (laplacian(2).operator, [1], GridSpec(2, 256, 4.0), 4.0),
    # e = (1, 0) keeps u on the octant; e = (1, 1) mixes the parities of
    # u's components and takes the half spectrum.
    (hodge_pair(2, 1).operator, [1, 0], GridSpec(2, 256, 4.0), 4.0),
    (hodge_pair(2, 1).operator, [1, 1], GridSpec(2, 256, 4.0), 4.0),
    (hodge_pair(3, 1).operator, [0, 0, 0, 1], GridSpec(3, 32, 4.0), 2.0),
    # p has odd exponents: phi is held on the half spectrum.
    (SKEWED, [1], GridSpec(2, 256, 4.0), 4.0),
], ids=["laplacian2", "hodge21-e10", "hodge21-e11", "hodge31", "skewed"])
def test_blowup_image_identity_and_bound(op, e, spec, scale):
    # A(D)u must equal the two-cutoff difference times e; checked against a
    # direct synthesis of that difference.  Its L1 norm stays below twice
    # the cutoff's times |e|.
    u = build_blowup_field(admissible(op, e), scale, spec)
    au = apply_symbol(op, u)
    xi = spec.frequency_grids()
    r = np.sqrt(sum(x**2 for x in xi))
    window = plateau_cutoff(r / scale) - plateau_cutoff(r * scale)
    shift = np.exp(-2j * np.pi * (spec.box / 2.0) * sum(xi))
    direct = GridField.from_spectrum(spec, np.multiply.outer(np.array(e, dtype=float),
                                                             window * shift))
    peak = np.abs(direct.values).max()
    assert np.abs(au.values - direct.values).max() <= 1e-9 * peak
    bound = 2.0 * cutoff_l1(spec) * math.hypot(*e)
    assert image_l1(op, u) <= bound


def test_quaternion_blowup_disallowed_everywhere():
    # Trivial common image: no admissible direction at all.
    with pytest.raises(BlowupError):
        admissible(quaternion().operator, [1, 0, 0, 0])


def test_derivative_magnitude_of_mode():
    spec = GridSpec(2, 64, 8.0)
    x = np.broadcast_arrays(*spec.coordinate_grids())
    k = 2 * np.pi * 3 / spec.box
    u = GridField(spec, np.sin(k * x[0])[None, ...])
    dm = derivative_magnitude(u, 1)
    expected = np.abs(k * np.cos(k * x[0]))
    assert np.abs(dm - expected).max() < 1e-9 * k
    # Order 2 on a two-component oblique mode: the multinomial weights make
    # the squared magnitude sum_ij (k_i k_j)^2 = |k|^4 per component.
    kv = 2 * np.pi * np.array([3, 2]) / spec.box
    phase = kv[0] * x[0] + kv[1] * x[1]
    u = GridField(spec, np.stack([np.sin(phase), 2 * np.cos(phase)]))
    dm = derivative_magnitude(u, 2)
    expected = (kv @ kv) * np.sqrt(np.sin(phase) ** 2 + 4 * np.cos(phase) ** 2)
    assert np.abs(dm - expected).max() < 1e-9 * (kv @ kv)


def test_grid_point_budget():
    assert GridSpec(3, 128, 8.0).shape == (128, 128, 128)
    with pytest.raises(ValueError, match="budget"):
        GridSpec(3, 1024, 4.0)
    # The lab's estimates need n >= 2; a grid of another dimension is refused.
    for n in (1, 5):
        with pytest.raises(ValueError, match=f"grid dimension {n}"):
            GridSpec(n, 16, 4.0)


def cache_error(u):
    # Relative distance of the cached spectrum from rfftn(values) h^n mask.
    spec = u.spec
    fresh = np.fft.rfftn(u.values, axes=tuple(range(1, spec.n + 1)))
    fresh *= spec.cell_volume * nyquist_mask(spec)
    return np.abs(u.spectrum() - fresh).max() / np.abs(fresh).max()


def test_cached_spectrum_is_the_spectrum_of_the_values():
    # Synthesized fields and operator outputs hand their spectrum on
    # instead of transforming forward; it must be the one rfftn would give.
    # The last field transforms forward, one component at a time.  The
    # curl of the newton field is the zero symbol: its spectrum is zero.
    newton = newton_gradient_field(GridSpec(3, 32, 8.0), 0.4)
    op, spec = laplacian(2).operator, GridSpec(2, 128, 4.0)
    u = build_blowup_field(admissible(op, [1]), 4.0, spec)
    au = apply_symbol(op, u)
    fields = [newton, u, au, apply_symbol(divergence(3).operator, newton),
              apply_symbol(gradient(2).operator, random_field(GridSpec(2, 32, 8.0), 1)),
              random_field(GridSpec(2, 32, 8.0), 2, seed=7)]
    for f in fields:
        assert f.spectrum().shape == (f.components,) + f.spec.half_shape
        assert cache_error(f) <= 1e-12
    curl = apply_symbol(exterior_d(3, 1).operator, newton)
    assert curl.spectrum().shape == (3,) + newton.spec.half_shape
    assert not curl.spectrum().any()
    with pytest.raises(ValueError):
        newton.spectrum()[0, 1, 1, 1] = 0.0


def test_half_box_shift_is_the_exponential():
    for spec in (GridSpec(2, 32, 8.0), GridSpec(3, 16, 4.0)):
        xi = spec.frequency_grids()
        shift = np.ones(spec.half_shape)
        for sign in half_box_shift(spec):
            shift = shift * sign
        assert np.abs(shift - np.exp(-2j * np.pi * (spec.box / 2.0) * sum(xi))).max() <= 1e-12


def test_cached_magnitude_is_read_only_and_exact():
    u = random_field(GridSpec(3, 16, 8.0), 3, seed=2)
    mag = u.magnitude()
    assert u.magnitude() is mag
    assert np.abs(mag - np.sqrt((u.values**2).sum(0))).max() <= 1e-14
    with pytest.raises(ValueError):
        mag[0, 0, 0] = 0.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_lp_norm_fast_paths_match_the_power_sum(p):
    for components, seed in ((1, 4), (2, 5), (3, 6)):
        u = random_field(GridSpec(2, 64, 8.0), components, seed=seed)
        direct = (u.spec.cell_volume * (u.magnitude() ** p).sum()) ** (1.0 / p)
        assert abs(lp_norm(u, p) - direct) <= 1e-13 * direct


def test_odd_order_matches_full_complex_transform():
    # The first-order gradient on a random real field against the full
    # complex multiplier, with the unpaired Nyquist bins projected out.
    spec = GridSpec(3, 16, 8.0)
    u = random_field(spec, 1, seed=5)
    out = apply_symbol(gradient(3).operator, u)
    f = np.fft.fftfreq(spec.size, d=spec.spacing)
    xi = np.meshgrid(f, f, f, indexing="ij", sparse=True)
    mask = np.ones(spec.shape)
    half = spec.size // 2
    mask[half, :, :] = mask[:, half, :] = mask[:, :, half] = 0.0
    u_hat = np.fft.fftn(u.values[0]) * mask
    for i in range(3):
        direct = np.fft.ifftn(2j * np.pi * xi[i] * u_hat).real
        scale = np.abs(direct).max()
        assert np.abs(out.values[i] - direct).max() <= 1e-12 * scale


def count_transforms(monkeypatch):
    # Count every numpy.fft transform by name; every complex pass must run
    # in place.
    calls = {}
    names = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2", "rfft", "irfft", "rfftn", "irfftn")
    for name in names:
        original = getattr(np.fft, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            if _name == "ifft":
                assert kwargs.get("out") is a
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_newton_point_transform_count(monkeypatch):
    # Backward transforms only, one per image of the potential: one for the
    # field's magnitude (d_2 phi, the other partials being its transposes),
    # one for the divergence (the Laplacian) and none for the curl (the
    # zero symbol).  The potential is held on its octant and both images
    # stay there: each is one real pass per axis, n = 3; no forward
    # transform, no complex one and no irfftn.
    calls = count_transforms(monkeypatch)
    row = _newton_point(GridSpec(3, 16, 8.0), 0.4)
    assert np.isfinite(row["ratio"]) and row["curl_l1"] == 0.0
    assert calls == {"irfft": 6}


def test_operator_made_field_is_lazy_and_composes(monkeypatch):
    # B(D) of A(D)v records (B A, v): nothing is transformed until it is
    # read, and its magnitude is that of the field of the composite symbol
    # with its spectrum built.
    spec = GridSpec(2, 32, 8.0)
    v = random_field(spec, 1, seed=3)
    v.spectrum()
    a, b = gradient(2).operator, sym_gradient(2).operator
    expected = apply_symbol(b.compose(a), v)
    expected.spectrum()
    expected = expected.magnitude()
    calls = count_transforms(monkeypatch)
    u = apply_symbol(b, apply_symbol(a, v))
    assert calls == {} and u.components == 3
    assert np.array_equal(u.magnitude(), expected)
    assert calls == {"irfft": 3, "ifft": 3}
    assert np.array_equal(image_magnitude(b, apply_symbol(a, v)), expected)


def test_zero_composite_measures_as_zero_without_transforms(monkeypatch):
    spec = GridSpec(3, 16, 8.0)
    v = random_field(spec, 1, seed=4)
    v.spectrum()
    grad = apply_symbol(gradient(3).operator, v)
    calls = count_transforms(monkeypatch)
    curl = apply_symbol(exterior_d(3, 1).operator, grad)
    zero = np.zeros(spec.shape)
    assert np.array_equal(curl.magnitude(), zero)
    assert np.array_equal(image_magnitude(exterior_d(3, 1).operator, grad), zero)
    assert lp_norm(curl, 1.0) == 0.0 and curl.boundary_tail() == 0.0
    assert calls == {}


def test_zero_composite_l1_allocates_nothing():
    # The L1 norm of the zero symbol is 0.0 with no grid allocated: a zeroed
    # accumulator on 64^3 would take 2 MiB.
    spec = GridSpec(3, 64, 8.0)
    grad = newton_gradient_field(spec, 0.4)
    curl = exterior_d(3, 1).operator
    assert traced_peak(lambda: image_l1(curl, grad)) < 2**14
    assert image_l1(curl, grad) == 0.0


@pytest.mark.parametrize("size, box", [(16, 8.0), (32, 8.0), (64, 8.0), (32, 6.0)])
def test_symmetric_newton_magnitude_is_the_three_row_magnitude(size, box):
    # |grad phi| from (d_2 phi)^2 and its two transposes, taken as the
    # newton point takes it, by the axis-swap magnitude that symmetric
    # gradients share, is the magnitude of the gradient field measured row
    # by row, to rounding.
    u = newton_gradient_field(GridSpec(3, size, box), 0.4)
    symmetric = grid.axis_swap_magnitude(_LAST_OF_3, u)
    reference = u.magnitude()  # image_magnitude of the three-row gradient of phi
    assert np.abs(symmetric - reference).max() <= 1e-12 * reference.max()


def swap_symmetric_fields():
    # Fields unchanged by every swap of two axes, by their closed form:
    # radial bumps held by octant values in 2-d to 4-d, and blowup fields
    # of p = |x|^2 on the octant (2-d, 3-d) and of the skewed scalar's p,
    # with odd exponents, on the band-held half spectrum.
    for spec in (GridSpec(2, 64, 8.0), GridSpec(3, 32, 8.0), GridSpec(4, 16, 8.0)):
        yield gaussian_bump(spec, sigma=0.9)
    for op, spec in ((laplacian(2).operator, GridSpec(2, 128, 4.0)),
                     (laplacian(3).operator, GridSpec(3, 32, 4.0)),
                     (SKEWED, GridSpec(2, 128, 4.0))):
        yield build_blowup_field(admissible(op, [1]), 4.0, spec)


def test_axis_swap_gradient_is_the_row_by_row_gradient():
    # One derivative along the last axis and the axis-swap sum give the
    # magnitude of the gradient measured row by row to 1e-12 of its
    # maximum, on the octant and on the grid, in 2-d, 3-d and 4-d.
    shapes = set()
    for u in swap_symmetric_fields():
        swapped = derivative_magnitude(u, 1, symmetric=True)
        reference = derivative_magnitude(u, 1)
        assert swapped.shape == reference.shape
        assert np.abs(swapped - reference).max() <= 1e-12 * reference.max()
        shapes.add((u.spec.n, swapped.shape == u.spec.octant_shape))
    assert shapes == {(2, True), (3, True), (4, True), (2, False)}
    with pytest.raises(ValueError, match="first derivatives"):
        derivative_magnitude(gaussian_bump(GridSpec(2, 16, 8.0)), 2, symmetric=True)


def test_swap_symmetry_is_read_from_the_witness():
    # p and every entry of u unchanged by each swap of two axes, exactly:
    # true for the Laplacians and the skewed scalar, false for
    # hodge_pair(2, 1), whose u = (-x_1, x_0) for e = (1, 0).
    from symlab.numlab.blowup import swap_symmetric

    for op in (laplacian(2).operator, laplacian(3).operator, SKEWED):
        assert swap_symmetric(admissible(op, [1]))
    for e in ([1, 0], [1, 1]):
        assert not swap_symmetric(admissible(hodge_pair(2, 1).operator, e))


def test_apply_symbol_checks_dimensions_when_it_records():
    u = random_field(GridSpec(2, 16, 8.0), 1)
    with pytest.raises(ValueError, match="components"):
        apply_symbol(divergence(2).operator, u)
    with pytest.raises(ValueError, match="dimensions differ"):
        apply_symbol(gradient(3).operator, u)


IMAGE_CASES = [
    (divergence(3).operator, GridSpec(3, 16, 8.0)),
    (exterior_d(3, 1).operator, GridSpec(3, 16, 8.0)),
    (sym_gradient(2).operator, GridSpec(2, 32, 8.0)),
    # A 4-d mixed monomial, and an operator whose middle row is all zero.
    (SymbolOperator.from_entries(4, 1, 1, 2, {((1, 0, 0, 1), 0, 0): 1}), GridSpec(4, 8, 4.0)),
    (SymbolOperator.from_entries(2, 2, 3, 1, {((1, 0), 0, 0): 1, ((1, 0), 2, 1): 2,
                                              ((0, 1), 0, 1): -1, ((0, 1), 2, 0): 3}),
     GridSpec(2, 32, 8.0)),
]


@pytest.mark.parametrize("op, spec", IMAGE_CASES)
def test_image_magnitude_is_the_magnitude_of_the_image(op, spec):
    u = random_field(spec, op.dim_v, seed=11)
    assert np.array_equal(image_magnitude(op, u), apply_symbol(op, u).magnitude())


@pytest.mark.parametrize("op, spec", IMAGE_CASES)
def test_image_magnitude_in_three_row_slabs(op, spec, monkeypatch):
    # Rows multiplied in slabs of three indices of axis 0 give the magnitude
    # of the image multiplied in one slab, bit for bit.
    u = random_field(spec, op.dim_v, seed=11)
    expected = apply_symbol(op, u).magnitude()
    three_row_slabs(monkeypatch, spec)
    assert np.array_equal(image_magnitude(op, u), expected)
    assert np.array_equal(apply_symbol(op, u).magnitude(), expected)


@pytest.mark.parametrize("n, size", [(2, 16), (3, 8), (4, 8)])
@pytest.mark.parametrize("slabs", [1, 3])
def test_image_l1_is_the_l1_norm_of_the_image_magnitude(n, size, slabs, monkeypatch):
    # With rows multiplied in one slab or in slabs of three indices, the L1
    # norm agrees with the one of the magnitude to rounding: one row and
    # several, a source held to a band of two columns and an operator-made
    # source (the gradient of a divergence, one composite symbol).
    spec = GridSpec(n, size, 3.0)
    if slabs == 3:
        three_row_slabs(monkeypatch, spec)
    v = random_field(spec, 1, seed=n)
    held = GridField.from_spectrum(spec, banded_spectrum(spec, 1, 2, seed=n)[..., :2].copy())
    made = apply_symbol(divergence(n).operator, random_field(spec, n, seed=n + 1))
    last = SymbolOperator.from_entries(n, 1, 1, 1, {((0,) * (n - 1) + (1,), 0, 0): 1})
    grad = gradient(n).operator
    for op, u in [(last, v), (grad, v), (grad, held), (grad, made)]:
        expected = magnitude_norm(spec, image_magnitude(op, u), 1.0)
        assert math.isclose(image_l1(op, u), expected, rel_tol=1e-12)


def test_image_magnitude_of_an_all_zero_symbol_is_zero():
    spec = GridSpec(2, 16, 8.0)
    op = SymbolOperator.zero(2, 1, 2, 1)
    assert np.array_equal(image_magnitude(op, random_field(spec, 1)), np.zeros(spec.shape))


@pytest.mark.parametrize("order", [1, 2])
def test_derivative_magnitude_is_the_weighted_sum_of_squares(order):
    # Reference: build the stacked image of all order-th derivatives and sum
    # its squares with the multinomial weights.
    spec = GridSpec(2, 32, 8.0)
    u = random_field(spec, 2, seed=order)
    alphas = multi_indices(spec.n, order)
    m = u.components
    rows = range(len(alphas) * m)
    entries = {(alpha, i * m + c, c): 1 for i, alpha in enumerate(alphas) for c in range(m)}
    d = apply_symbol(SymbolOperator.from_entries(spec.n, m, len(rows), order, entries), u).values
    total = np.zeros(spec.shape)
    for r in rows:
        weight = math.factorial(order) // math.prod(math.factorial(e) for e in alphas[r // m])
        total += weight * d[r] ** 2
    assert np.array_equal(derivative_magnitude(u, order), np.sqrt(total))


@pytest.mark.parametrize("order", [1, 2])
def test_first_derivatives_reduce_without_weights(order, monkeypatch):
    # Every multinomial weight of order 1 is 1: the gradient's rows reach
    # ``_reduce`` with no weights, which squares them without multiplying
    # by 1, and the magnitude is the unit-weighted one bit for bit.  Order
    # 2 keeps its weights, 2 on the mixed derivative.
    spec = GridSpec(2, 32, 8.0)
    u = random_field(spec, 2, seed=order)
    seen, reduce = [], grid._reduce

    def wrapped(spec, image, weights=None, **kwargs):
        seen.append(weights)
        return reduce(spec, image, weights, **kwargs)

    monkeypatch.setattr(grid, "_reduce", wrapped)
    mag = derivative_magnitude(u, order)
    if order == 1:
        assert seen == [None]
        alphas = multi_indices(2, 1)
        stacked = SymbolOperator.from_entries(2, 2, 4, 1, {
            (alpha, i * 2 + c, c): 1 for i, alpha in enumerate(alphas) for c in range(2)})
        assert np.array_equal(mag, image_magnitude(stacked, u, [1] * 4))
    else:
        assert len(seen) == 1 and max(seen[0]) == 2


@pytest.mark.parametrize("size, bound", [(256, 3.1), (512, 3.05), (1024, 3.05)])
def test_image_l1_multiplies_in_slabs_of_the_row(size, bound):
    # Each slab of a multiply is about an eighth of SLAB_BYTES of the row it
    # multiplies, so no temporary is a whole row: the L1 norm of the
    # divergence of the generic [1, 0] Gaussian, a row of mixed parities
    # built on the real half spectrum, peaks at its row, the row's values
    # and the magnitude, about 3 real grids.  Slabs sized by the full half
    # spectrum, a whole row up to 256^2, peaked at 3.55 there.
    spec = GridSpec(2, size, 40.0)
    f = gaussian_bump(spec, sigma=1.5, components=[1.0, 0.0], normalize_l1=True)
    f.spectrum()  # the spectrum is read before tracing
    div = divergence(2).operator
    assert traced_peak(lambda: image_l1(div, f)) <= bound * 8 * size**2


@pytest.mark.parametrize("n, size", [(2, 8), (3, 8), (4, 4)])
def test_from_spectrum_matches_irfftn_and_keeps_its_input(n, size):
    # The in-place passes run on a copy: the cached spectrum is the input
    # with its Nyquist hyperplanes zeroed, not the scrambled work buffer.
    spec = GridSpec(n, size, 3.0)
    rng = np.random.default_rng(n)
    hat = rng.standard_normal((2,) + spec.half_shape) + 1j * rng.standard_normal((2,) + spec.half_shape)
    expected_hat = hat * nyquist_mask(spec)
    axes = tuple(range(1, n + 1))
    expected = np.fft.irfftn(hat, s=spec.shape, axes=axes) * (size**n / spec.box**n)
    u = GridField.from_spectrum(spec, hat)
    assert np.array_equal(u.values, expected)
    assert np.array_equal(u.spectrum(), expected_hat)


def random_spectrum(spec, components, seed):
    # Complex noise on every bin, the Nyquist hyperplanes included.
    rng = np.random.default_rng(seed)
    shape = (components,) + spec.half_shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def synthesized(spec, hat):
    # Reference synthesis: irfftn of the whole input, Nyquist bins included.
    axes = tuple(range(1, spec.n + 1))
    return np.fft.irfftn(hat, s=spec.shape, axes=axes) * spec.synthesis_scale


@pytest.mark.parametrize("n, size", [(2, 8), (3, 8), (4, 4)])
@pytest.mark.parametrize("components", [1, 2, 3])
def test_from_spectrum_streams_the_magnitude_of_its_values(n, size, components):
    # A field built from a spectrum measures its magnitude without holding
    # its values; the magnitude is the one of the synthesized values, and
    # values read afterwards are still irfftn of the input.
    spec = GridSpec(n, size, 3.0)
    hat = random_spectrum(spec, components, seed=10 * n + components)
    expected = synthesized(spec, hat)
    u = GridField.from_spectrum(spec, hat)
    mag = u.magnitude()
    assert u._values is None
    assert np.array_equal(mag, GridField(spec, expected).magnitude())
    assert np.array_equal(u.values, expected)
    assert u.magnitude() is mag


@pytest.mark.parametrize("n, size", [(2, 16), (3, 8), (4, 8)])
@pytest.mark.parametrize("components", [1, 2, 3])
def test_streamed_magnitude_in_three_row_slabs(n, size, components, monkeypatch):
    # Whatever the slab size, the magnitude squared and added row by row is
    # the magnitude of the synthesized values, and the values are irfftn.
    spec = GridSpec(n, size, 3.0)
    hat = random_spectrum(spec, components, seed=10 * n + components)
    expected = synthesized(spec, hat)
    three_row_slabs(monkeypatch, spec)
    u = GridField.from_spectrum(spec, hat)
    assert np.array_equal(u.magnitude(), GridField(spec, expected).magnitude())
    assert np.array_equal(u.values, expected)


def test_synthesized_values_are_read_only():
    spec = GridSpec(2, 8, 3.0)
    u = GridField.from_spectrum(spec, random_spectrum(spec, 2, seed=3))
    with pytest.raises(ValueError):
        u.values[0, 0, 0] = 0.0


@pytest.mark.parametrize("components", [1, 2])
def test_synthesized_values_that_overflow_are_refused(components):
    # A spectrum of 1e308 entries synthesizes values that overflow, held on
    # the half spectrum or on the octant: reading the values and measuring
    # the magnitude, each on a fresh field, raise.
    spec = GridSpec(2, 8, 3.0)
    half = np.full((components,) + spec.half_shape, 1e308, dtype=complex)
    octant = np.full((components,) + spec.octant_shape, 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        for make in (lambda: GridField.from_spectrum(spec, half.copy()),
                     lambda: GridField.from_octant(spec, octant.copy())):
            with pytest.raises(ValueError, match="non-finite"):
                make().values
            with pytest.raises(ValueError, match="non-finite"):
                make().magnitude()


def test_held_spectra_leave_their_input_as_given():
    # The field holds its input as given, Nyquist hyperplanes included:
    # synthesis, measurement, the spectrum and images (one row of mixed
    # parity, two of one parity each) read it and write nothing back.  The
    # values keep the Nyquist bins; the spectrum does not.
    spec = GridSpec(3, 8, 3.0)
    half = random_spectrum(spec, 2, seed=9)
    octant = np.random.default_rng(9).standard_normal((2,) + spec.octant_shape)
    ops = [SymbolOperator.from_entries(3, 2, 1, 1, {((1, 0, 0), 0, 0): 1, ((0, 1, 0), 0, 1): 1}),
           SymbolOperator.from_entries(3, 2, 2, 1, {((1, 0, 0), 0, 0): 1, ((0, 0, 1), 1, 1): 1})]
    for make, given in ((GridField.from_spectrum, half), (GridField.from_octant, octant)):
        held = given.copy()
        u = make(spec, held)
        u.magnitude()
        if make is GridField.from_spectrum:
            assert np.array_equal(u.values, synthesized(spec, given))
        for ax in range(spec.n):
            assert not u.spectrum()[(Ellipsis, spec.size // 2) + (slice(None),) * ax].any()
        for op in ops:
            image_magnitude(op, u)
            image_l1(op, u)
            apply_symbol(op, u).spectrum()
        assert np.array_equal(held, given)
        assert not held.flags.writeable


@pytest.mark.parametrize("n, size", [(2, 16), (3, 8), (4, 8)])
@pytest.mark.parametrize("band", [0, 1, 2, 3, 4, 5])
def test_invert_of_a_banded_spectrum_is_irfftn(n, size, band):
    # Spectra whose last-axis columns vanish from ``band`` on (an all-zero
    # spectrum for band 0, no zero column for the largest band), in work
    # buffers held to 1, 2, N/2 and N/2 + 1 columns and to the band, each
    # at least as wide as the band: the result is irfftn, written into
    # ``out`` or into a fresh array.
    spec = GridSpec(n, size, 3.0)
    hat = random_spectrum(spec, 1, seed=band)[0]
    hat[..., band:] = 0.0
    expected = synthesized(spec, hat[None, ...])[0]
    widths = {w for w in (1, 2, size // 2, size // 2 + 1, band) if w >= max(band, 1)}
    for work in (hat[..., :width] for width in sorted(widths)):
        out = np.empty(spec.shape)
        assert _invert(spec, work.copy(), out) is out
        assert np.array_equal(out, expected)
        assert np.array_equal(_invert(spec, work.copy()), expected)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_newton_point_memory():
    # The potential's octant, a row's work buffer and the octant of its
    # values (about 0.14 real grids each on 64^3) and, while a row is
    # inverted in place in that octant, a few slabs of the real passes'
    # temporaries: one point peaks at about 0.6 real components of the
    # grid.  With each pass's N-long output held whole it peaked at about
    # 1.23; held on the half spectrum, at about 3.7; synthesizing the
    # field's values and building both images in full, about 16.6.
    size = 64
    peak = traced_peak(lambda: _newton_point(GridSpec(3, size, 8.0), 0.4))
    assert peak < 0.75 * 8 * size**3


def test_single_row_octant_image_l1_holds_half_a_grid():
    # The L1 norm of d_2 phi, phi held on the whole octant of 64^3: the
    # octant of its values and a few slabs of the real passes' temporaries
    # peak at about 0.45 real grids.  The octant image is the path the
    # spectral lab's even fields take.
    spec = GridSpec(3, 64, 8.0)
    rng = np.random.default_rng(6)
    u = GridField.from_octant(spec, rng.standard_normal((1,) + spec.octant_shape))
    op = SymbolOperator.from_entries(3, 1, 1, 1, {((0, 0, 1), 0, 0): 1})
    assert traced_peak(lambda: image_l1(op, u)) < 0.5 * 8 * math.prod(spec.shape)


# ---------------------------------------------------------------------------
# Compact supports and band-limited spectra: bit for bit the full-grid
# formulas.


def full_grid_window(op, scale, spec, directions):
    # Reference: the blowup spectrum evaluated on every frequency.
    xi = spec.frequency_grids()
    r = np.sqrt(sum(x**2 for x in xi))
    window = plateau_cutoff(r / scale) - plateau_cutoff(r * scale)
    for sign in half_box_shift(spec):
        window *= sign
    return ((2j * np.pi) ** (-op.order) * window)[None, ...] * directions


def mirrored(spec, octant, parity=None, half=True):
    # Reference unfolding of octants of shape (components, b_0 .. b_n-1): on
    # the half spectrum (every axis but the last mirrored) or, without
    # ``half``, on the grid.  Index m > N/2 of a mirrored axis reads index
    # N - m, times -1 on an odd axis of ``parity``; indices beyond a band
    # read 0.
    n, size, top = spec.n, spec.size, spec.size // 2
    parity = parity or (0,) * n
    axes = n - 1 if half else n
    pad = [(0, 0)] + [(0, top + 1 - b) for b in octant.shape[1: 1 + axes]] + [(0, 0)] * (n - axes)
    out = np.pad(octant, pad)
    m = np.arange(size)
    for ax in range(axes):
        out = np.take(out, np.where(m <= top, m, size - m), axis=1 + ax)
        if parity[ax]:
            shape = [1] * out.ndim
            shape[1 + ax] = size
            out = out * np.where(m > top, -1.0, 1.0).reshape(shape)
    return out


def solved_directions(op, spec, e):
    # Reference: U(xi) with A(xi) U(xi) = e at every nonzero frequency of
    # the half spectrum, by a pseudo-inverse per frequency; U(0) = 0.
    amat = np.zeros(spec.half_shape + (op.dim_e, op.dim_v))
    for r, c, values in symbol_on_grid(op, spec):
        amat[..., r, c] = values
    return np.moveaxis(np.linalg.pinv(amat) @ np.asarray(e, dtype=float), -1, 0)


@pytest.mark.parametrize("entry, e, spec, scale", [
    (laplacian(2), [1], GridSpec(2, 256, 4.0), 4.0),
    # The window reaches the top column.
    (laplacian(2), [1], GridSpec(2, 128, 4.0), 16.0),
    # 16 columns hold data, and the second from the top is one of them.
    (hodge_pair(3, 1), [0, 0, 0, 1], GridSpec(3, 32, 4.0), 2.0),
])
def test_blowup_spectrum_is_the_full_grid_formula(entry, e, spec, scale):
    # u = u(D) phi, with U = u / p from the witness, against U solved at
    # every frequency: equal to a rounding bound of 1e-13 of the largest.
    # phi is held on the octant, and u is built from its mirror images;
    # its rows are Nyquist-projected images, and so are its values.
    op = entry.operator
    reference = full_grid_window(op, scale, spec, solved_directions(op, spec, e))
    reference *= nyquist_mask(spec)
    u = build_blowup_field(admissible(op, e), scale, spec)
    assert np.abs(u.spectrum() - reference).max() <= 1e-13 * np.abs(reference).max()
    expected = synthesized(spec, reference)
    assert np.abs(u.values - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("spec", [GridSpec(2, 64, 4.0), GridSpec(2, 256, 8.0), GridSpec(3, 16, 4.0)])
def test_cutoff_l1_is_the_full_grid_formula(spec):
    # The cutoff is held on its octant and summed there with mirror
    # weights: the same sum as the full grid's in exact arithmetic, equal
    # to a rounding bound of 1e-13.
    xi = spec.frequency_grids()
    hat = plateau_cutoff(np.sqrt(sum(x**2 for x in xi)))[None, ...].astype(complex)
    full = lp_norm(GridField.from_spectrum(spec, hat), 1.0)
    assert math.isclose(cutoff_l1(spec), full, rel_tol=1e-13)


def full_grid_plateau(spec, lam):
    # Reference: the plateau test function and its gradient sum on every point.
    c = spec.box / 2.0
    diffs = [x - c for x in spec.coordinate_grids()]
    r = np.sqrt(sum(d**2 for d in diffs))
    r_safe = np.where(r == 0, 1.0, r)
    s = r_safe**lam
    phi = np.where(r == 0, 1.0, smoothstep(2.0 - s))
    dphi_dr = np.where(r == 0, 0.0, -smoothstep_deriv(2.0 - s) * lam * r_safe ** (lam - 1.0))
    grad_mag = np.sqrt(sum((dphi_dr * d / r_safe) ** 2 for d in diffs))
    return phi, float((grad_mag**spec.n).sum() * spec.cell_volume) ** (1.0 / spec.n)


@pytest.mark.parametrize("spec", [GridSpec(2, 512, 40.0), GridSpec(3, 64, 12.0)])
@pytest.mark.parametrize("lam", [1.0, 0.5, 1.0 / 3.0, 0.25, 0.1])
def test_plateau_test_function_is_the_full_grid_formula(spec, lam):
    # The plateau is evaluated on its octant of grid points, mirrored
    # exactly onto the grid; its gradient sum weights the octant by mirror
    # counts, the full grid's sum in another order: equal to 1e-13.
    phi, grad_ln = radial_cutoff_test_function(spec, lam)
    phi_ref, grad_ln_ref = full_grid_plateau(spec, lam)
    assert np.array_equal(phi.values[0], phi_ref)
    assert math.isclose(grad_ln, grad_ln_ref, rel_tol=1e-13)


def banded_spectrum(spec, components, band, seed):
    # Noise on the last-axis columns below ``band``, zero above.
    hat = random_spectrum(spec, components, seed)
    hat[..., band:] = 0.0
    return hat


def nyquist_only_spectrum(spec, ax):
    # Data on one Nyquist hyperplane only, in the low columns: zero once
    # masked, but the values keep it.
    hat = np.zeros((2,) + spec.half_shape, dtype=complex)
    index = [slice(None)] * spec.n
    index[ax] = spec.size // 2
    index[-1] = slice(0, 2) if ax < spec.n - 1 else spec.size // 2
    hat[(slice(None),) + tuple(index)] = 1.0 + 0.5j
    return hat


@pytest.mark.parametrize("n, size", [(2, 16), (3, 8), (4, 8)])
def test_from_spectrum_of_band_limited_zero_and_nyquist_inputs(n, size):
    spec = GridSpec(n, size, 3.0)
    half = spec.half_shape[-1]
    cases = [banded_spectrum(spec, 2, band, seed=band) for band in (1, 2, half - 2)]
    cases.append(np.zeros((2,) + spec.half_shape, dtype=complex))
    cases.extend(nyquist_only_spectrum(spec, ax) for ax in range(n))
    for hat in cases:
        expected = synthesized(spec, hat)
        u = GridField.from_spectrum(spec, hat.copy())
        assert np.array_equal(u.magnitude(), GridField(spec, expected).magnitude())
        assert np.array_equal(u.values, expected)


@pytest.mark.parametrize("n, size", [(2, 16), (3, 8), (4, 8)])
@pytest.mark.parametrize("cut", [1, 2, -1, 0])
def test_narrow_spectrum_is_its_zero_padded_input(n, size, cut):
    # A spectrum held to its first ``band`` columns (band N/2 + 1 for cut 0,
    # N/2 for cut -1) gives the field of its zero-padded input bit for bit:
    # values, magnitude, the spectrum read back and an image.
    spec = GridSpec(n, size, 3.0)
    band = spec.half_shape[-1] + cut if cut <= 0 else cut
    hat = banded_spectrum(spec, 2, band, seed=band)
    narrow = GridField.from_spectrum(spec, hat[..., :band].copy())
    padded = GridField.from_spectrum(spec, hat.copy())
    assert narrow._hat.shape[-1] == band
    assert np.array_equal(narrow.spectrum(), padded.spectrum())
    assert np.array_equal(narrow.magnitude(), padded.magnitude())
    # The gradient of the second component.
    op = gradient(n).operator.compose(SymbolOperator.from_entries(n, 2, 1, 0, {((0,) * n, 0, 1): 1}))
    assert np.array_equal(image_magnitude(op, narrow), image_magnitude(op, padded))
    image = apply_symbol(op, narrow)
    assert np.array_equal(image.spectrum(), apply_symbol(op, padded).spectrum())
    assert np.array_equal(image.magnitude(), image_magnitude(op, padded))
    assert np.array_equal(narrow.values, padded.values)


def test_from_spectrum_refuses_a_band_outside_the_half_spectrum():
    spec = GridSpec(2, 8, 3.0)
    for shape in ((1, 8, 0), (1, 8, 6), (1, 4, 5)):
        with pytest.raises(ValueError, match="does not end in"):
            GridField.from_spectrum(spec, np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("make, dtype", [
    (GridField.from_spectrum, float), (GridField.from_spectrum, np.int64),
    (GridField.from_spectrum, bool), (GridField.from_octant, complex),
    (GridField.from_octant, np.int64), (GridField.from_octant, bool),
])
def test_held_spectra_refuse_a_dtype_they_cannot_invert(make, dtype):
    # A real or integer half spectrum would fail the in-place complex
    # passes at its first read, an integer octant its first image, and a
    # complex octant would add its imaginary part as a sine series: each is
    # refused at construction, by its dtype.
    spec = GridSpec(2, 8, 3.0)
    shape = spec.half_shape if make is GridField.from_spectrum else spec.octant_shape
    with pytest.raises(ValueError, match=f"dtype {np.dtype(dtype)} is not"):
        make(spec, np.ones((1,) + shape, dtype=dtype))


@pytest.mark.parametrize("make", [GridField, GridField.from_octant_values])
@pytest.mark.parametrize("dtype", [complex, np.int64, bool])
def test_values_refuse_a_dtype_that_is_not_real_floating(make, dtype):
    # Complex grid values would fail their first forward transform, and
    # complex octant values would be measured by |v| while their cosine
    # transform drops the imaginary part: both are refused, by dtype.
    spec = GridSpec(2, 8, 3.0)
    shape = spec.shape if make is GridField else spec.octant_shape
    with pytest.raises(ValueError, match=f"dtype {np.dtype(dtype)} is not real floating"):
        make(spec, np.ones((1,) + shape, dtype=dtype))


def test_octant_magnitude_inverts_the_held_octant_in_place():
    # A component held on the octant is inverted as it is held, never
    # copied into a work buffer: on 64^3 the magnitude of one component
    # peaks at about 0.31 real grids (0.45 with the copy).
    spec = GridSpec(3, 64, 8.0)
    u = GridField.from_octant(spec, np.random.default_rng(9).standard_normal((1,) + spec.octant_shape))
    held = u._held_spectrum().copy()
    assert traced_peak(u.magnitude) < 0.35 * 8 * math.prod(spec.shape)
    assert np.array_equal(u._held_spectrum(), held)


def test_even_components_reads_each_component_once():
    # Values on the grid and on the octant, a half spectrum, an octant, and
    # fields made from them by the gradient (on the half spectrum and on
    # the octant) and by a zero symbol: the even parts are, bit for bit,
    # the fold of the values of the same field built anew (octant values
    # come back as held), the held values are not inverted and every other
    # row is inverted once, and the magnitude is cached in the same pass,
    # equal to that field's bit for bit.
    spec = GridSpec(2, 16, 3.0)
    rng = np.random.default_rng(11)
    grid_values = rng.standard_normal((2,) + spec.shape)
    octant_values = rng.standard_normal((2,) + spec.octant_shape)
    half = random_spectrum(spec, 1, seed=12)
    octant = rng.standard_normal((1,) + spec.octant_shape)
    grad = gradient(2).operator
    zero = SymbolOperator.from_entries(2, 1, 1, 1, {}, allow_zero=True)
    makers = [
        lambda: GridField(spec, grid_values.copy()),
        lambda: GridField.from_octant_values(spec, octant_values.copy()),
        lambda: GridField.from_spectrum(spec, half.copy()),
        lambda: GridField.from_octant(spec, octant.copy()),
        lambda: apply_symbol(grad, GridField.from_spectrum(spec, half.copy())),
        lambda: apply_symbol(grad, GridField.from_octant(spec, octant.copy())),
        lambda: apply_symbol(zero, GridField.from_spectrum(spec, half.copy())),
    ]
    inversions, invert = [], grid._invert

    def counted(*args):
        inversions.append(args[0])
        return invert(*args)

    for i, make in enumerate(makers):
        u, reference = make(), make()
        inversions.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grid, "_invert", counted)
            even = grid.even_components(u)
            mag = u.magnitude()
        assert len(inversions) == (0 if i < 2 else u.components)
        assert even.shape == (u.components,) + spec.octant_shape
        assert np.array_equal(even, grid.even_part(spec, reference.values))
        if i == 1:
            assert even is u.octant_values
        assert np.array_equal(mag, reference.magnitude())


def full_grid_image(op, u):
    # Reference: every row of the image spectrum on the whole half grid.
    rows = np.zeros((op.dim_e,) + u.spec.half_shape, dtype=complex)
    unit = (2j * np.pi) ** op.order
    for r, c, values in symbol_on_grid(op, u.spec):
        rows[r] = rows[r] + unit * values * u.spectrum()[c]
    return rows


@pytest.mark.parametrize("op, spec", IMAGE_CASES)
def test_image_magnitude_of_a_band_limited_field(op, spec):
    u = GridField.from_spectrum(spec, banded_spectrum(spec, op.dim_v, 3, seed=4))
    mag = image_magnitude(op, u)
    assert np.array_equal(mag, apply_symbol(op, u).magnitude())
    expected = synthesized(spec, full_grid_image(op, u))
    assert np.array_equal(mag, GridField(spec, expected).magnitude())


def test_supports_are_evaluated_on_their_box_only(monkeypatch):
    # The blowup window at scale 4 on 1024^2 (box 4) lives on 32 x 32
    # frequencies of the 513 x 513 octant; the plateau at exponent 1 on
    # 512^2 (box 40) on 53 x 53 points of the grid, 27 x 27 of them on its
    # octant of grid points.
    from symlab.numlab import blowup, fields

    sizes = []

    def counting(name, module):
        original = getattr(module, name)

        def counted(t):
            sizes.append((name, np.size(t)))
            return original(t)

        monkeypatch.setattr(module, name, counted)

    counting("plateau_cutoff", blowup)
    counting("smoothstep", fields)
    op, spec = laplacian(2).operator, GridSpec(2, 1024, 4.0)
    build_blowup_field(admissible(op, [1]), 4.0, spec)
    assert sizes == [("plateau_cutoff", 1024)] * 2
    sizes.clear()
    radial_cutoff_test_function(GridSpec(2, 512, 40.0), 1.0)
    assert sizes == [("smoothstep", 729)]


def test_three_halves_norm_in_chunks():
    # The p = 3/2 norm takes its square roots one chunk at a time: it
    # agrees with the one-pass sum to rounding and holds no second grid.
    spec = GridSpec(2, 1024, 4.0)
    mag = np.abs(np.random.default_rng(3).standard_normal(spec.shape))
    whole = float((spec.cell_volume * np.einsum("i,i->", mag.ravel(), np.sqrt(mag.ravel()))) ** (2 / 3))
    assert math.isclose(magnitude_norm(spec, mag, 1.5), whole, rel_tol=1e-13)
    assert traced_peak(lambda: magnitude_norm(spec, mag, 1.5)) < 8 * NORM_CHUNK + 2**14


def test_band_limited_spectra_are_held_to_their_band(monkeypatch):
    # On 1024^2 (box 4) the blowup window at scale 4 lives on the first 32
    # of 513 octant indices of each axis and the cutoff on the first 8; the
    # image of u is built on the band of u.
    from symlab.numlab import blowup

    op, spec = laplacian(2).operator, GridSpec(2, 1024, 4.0)
    u = build_blowup_field(admissible(op, [1]), 4.0, spec)
    assert u._held_spectrum().shape == (1, 32, 32)
    assert apply_symbol(op, u)._held_spectrum().shape == (1, 32, 32)
    shapes = []
    original = GridField.from_octant

    def recorded(spec, hat):
        shapes.append(hat.shape)
        return original(spec, hat)

    monkeypatch.setattr(blowup.GridField, "from_octant", recorded)
    cutoff_l1(spec)
    assert shapes == [(1, 8, 8)]


# ---------------------------------------------------------------------------
# Fields even or odd in every axis, held on the octant.


def random_octant(spec, parity, band, rng):
    # Noise on an octant held to ``band``, zero where an odd axis of
    # ``parity`` has no bin (index 0 and N/2); an even axis keeps data on
    # its Nyquist plane.
    top = spec.size // 2
    octant = rng.standard_normal((1,) + tuple(band))
    for ax, odd in enumerate(parity):
        if odd:
            for index in (0, top):
                if index < band[ax]:
                    octant[(0,) + (slice(None),) * ax + (index,)] = 0.0
    return octant


@pytest.mark.parametrize("n, size", [(2, 16), (3, 8), (4, 8)])
def test_octant_invert_is_the_half_path_of_its_mirror_images(n, size):
    # Every parity pattern, and bands 1, 2, N/2 and N/2 + 1 on each axis:
    # the octant's real passes give the values that ``_invert`` gives for
    # the half spectrum the octant stands for, i^q times it mirrored, on the
    # octant and, mirrored, on the whole grid; within 1e-13 of the largest.
    spec = GridSpec(n, size, 3.0)
    top = size // 2
    rng = np.random.default_rng(n)
    for parity in itertools.product((0, 1), repeat=n):
        for band in itertools.product((1, 2, top, top + 1), repeat=n):
            octant = random_octant(spec, parity, band, rng)
            values = _invert(spec, octant[0].copy(), None, parity)
            assert values.shape == spec.octant_shape
            half = mirrored(spec, octant, parity) * 1j ** sum(parity)
            expected = _invert(spec, half[0])
            bound = 1e-13 * np.abs(expected).max()
            assert np.abs(values - expected[(slice(top + 1),) * n]).max() <= bound
            grid_values = mirrored(spec, values[None], parity, half=False)[0]
            assert np.abs(grid_values - expected).max() <= bound


def newton_potential_spectrum(spec, eps):
    # Reference: the potential's spectrum by its full-grid formula, as the
    # builder evaluated it on the half spectrum, Nyquist-masked.
    xi = spec.frequency_grids()
    f0, f1, f2 = (sign * np.exp(-np.pi * eps**2 * x**2)
                  for sign, x in zip(half_box_shift(spec), xi))
    r2 = xi[0] ** 2 + xi[1] ** 2 + xi[2] ** 2
    r2[0, 0, 0] = 1.0
    phi = f0 * f1 / r2 * (f2 * (-1.0 / (4.0 * np.pi**2)))
    phi[0, 0, 0] = 0.0
    return phi * nyquist_mask(spec)


@pytest.mark.parametrize("spec", [GridSpec(3, 16, 8.0), GridSpec(3, 32, 6.0)])
def test_newton_spectrum_is_the_full_grid_formula(spec):
    # The potential is built on its octant and the gradient's rows, odd in
    # one axis each, stay there: mirrored, both are the full-grid formula
    # bit for bit.
    u = newton_gradient_field(spec, 0.4)
    phi = newton_potential_spectrum(spec, 0.4)
    assert u._made[1]._held_spectrum().shape == (1,) + spec.octant_shape
    assert np.array_equal(u._made[1].spectrum(), phi[None, ...].astype(complex))
    expected = np.stack([(2j * np.pi) * x * phi for x in spec.frequency_grids()])
    assert np.array_equal(u.spectrum(), expected)
    assert u._parity == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def octant_magnitudes():
    # (spec, field or None, magnitude held on the octant): of the newton
    # field, and of a blowup field, its first derivatives and its Laplacian.
    newton = newton_gradient_field(GridSpec(3, 32, 6.0), 0.3)
    op, spec = laplacian(2).operator, GridSpec(2, 64, 4.0)
    u = build_blowup_field(admissible(op, [1]), 4.0, spec)
    au = apply_symbol(op, u)
    return [(newton.spec, newton, newton.magnitude()), (spec, u, u.magnitude()),
            (spec, None, derivative_magnitude(u, 1)), (spec, au, au.magnitude())]


@pytest.mark.parametrize("chunk", [None, 3])
def test_octant_norms_are_those_of_the_mirrored_grid(chunk, monkeypatch):
    # Riemann sums over the octant with mirror weights, p = 1, 3/2 and 2
    # (in one chunk, and in chunks of three rows), give the norms of the
    # mirrored grid magnitude to 1e-13, and the boundary tail is the same;
    # the mirrored magnitude of a field is the magnitude of its values.
    from symlab.numlab import norms

    for spec, field, mag in octant_magnitudes():
        if chunk:
            monkeypatch.setattr(norms, "NORM_CHUNK", chunk * mag[0].size)
        assert mag.shape == spec.octant_shape
        full = mirrored(spec, mag[None], half=False)[0]
        for p in (1.0, 1.5, 2.0):
            assert math.isclose(magnitude_norm(spec, mag, p), magnitude_norm(spec, full, p),
                                rel_tol=1e-13)
        assert boundary_tail(mag) == boundary_tail(full)
        if field is not None:
            expected = GridField(spec, field.values).magnitude()
            assert np.abs(full - expected).max() <= 1e-13 * expected.max()


def test_mixed_parity_row_takes_the_half_path(monkeypatch):
    # xi_0 + xi_1 on an even field mixes parities: the source is expanded
    # to its half spectrum and measured as a field held there is, on the
    # grid and with complex passes, bit for bit.
    spec = GridSpec(2, 16, 4.0)
    octant = random_octant(spec, (0, 0), spec.octant_shape, np.random.default_rng(8))
    even = GridField.from_octant(spec, octant.copy())
    half = GridField.from_spectrum(spec, mirrored(spec, octant).astype(complex))
    op = SymbolOperator.from_entries(2, 1, 1, 1, {((1, 0), 0, 0): 1, ((0, 1), 0, 0): 1})
    calls = count_transforms(monkeypatch)
    mag = image_magnitude(op, even)
    assert mag.shape == spec.shape and calls == {"ifft": 1, "irfft": 1}
    assert np.array_equal(mag, image_magnitude(op, half))
    assert image_l1(op, even) == image_l1(op, half)
    image = apply_symbol(op, even)
    assert np.array_equal(image.spectrum(), apply_symbol(op, half).spectrum())
    assert image._parity is None
    # A row of one parity stays on the octant.
    assert image_magnitude(gradient(2).operator, even).shape == spec.octant_shape


@pytest.mark.parametrize("entry, e, ell, spec, scale, passes", [
    (laplacian(2), [1], 1, GridSpec(2, 128, 4.0), 4.0, 6),
    (hodge_pair(3, 1), [0, 0, 0, 1], 0, GridSpec(3, 32, 4.0), 2.0, 39),
])
def test_blowup_point_transform_paths(entry, e, ell, spec, scale, passes, monkeypatch):
    # p = |x|^2 has even exponents and every component of u one parity, so
    # a blowup point runs real passes only, n per row of each image: for
    # the Laplacian, whose u = 1 and p are unchanged by the swap of the two
    # axes, the one first derivative that the axis-swap sum needs, the
    # field's own magnitude and A(D)u, and its reference is read from them;
    # for hodge_pair(3, 1), whose u has odd exponents, the field's three
    # components, their nine first derivatives and the one nonzero row of
    # A(D)u = p e.
    from symlab.numlab import experiments

    op = entry.operator
    direction = admissible(op, e)
    calls = count_transforms(monkeypatch)
    row, _ = experiments._blowup_point(op, ell, scale, spec, direction, 1.0)
    assert np.isfinite(row["ratio"])
    assert calls == {"irfft": passes}


THREADED_NORM = """
import numpy as np
from symlab.numlab import GridSpec
from symlab.numlab.norms import magnitude_norm
spec = GridSpec(2, 1024, 4.0)
mag = np.abs(np.random.default_rng(7).standard_normal(spec.shape))
print(repr(magnitude_norm(spec, mag, 1.5)), repr(magnitude_norm(spec, mag, 2)))
"""


def test_magnitude_norm_does_not_depend_on_thread_count():
    # On 2^20 points np.dot splits its sum across BLAS threads, so its last
    # digit moved with the thread count; the norm must not.
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", THREADED_NORM], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# Fields even about the box centre, sampled on the octant of grid points.


# n = 2 .. 4 at N = 2 (where the octant is the grid), 4 and 64; 64^4 points
# exceed the grid budget, so n = 4 takes 16.
EVEN_SPECS = [GridSpec(n, size, 3.0) for n in (2, 3, 4) for size in (2, 4, 64 if n < 4 else 16)]


def on_grid(spec, mag):
    # A magnitude on the octant mirrored onto the grid; a grid one as it is.
    return mag if mag.shape == spec.shape else mirrored(spec, mag[None], half=False)[0]


def assert_close(got, expected):
    # Within 1e-13 of the largest entry, exactly when the reference is zero.
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("spec", EVEN_SPECS, ids=lambda s: f"{s.n}d{s.size}")
def test_octant_sampled_field_is_the_grid_field_of_its_mirror_images(spec):
    # A field held by its values on the octant of grid points against the
    # grid field of those values mirrored: the same values and magnitude,
    # and within 1e-13 the same spectrum, images (of one parity per row,
    # held on the octant, and of mixed parity, on the half spectrum) and
    # pairings.
    n = spec.n
    rng = np.random.default_rng(10 * n + spec.size)
    octant, other = (rng.standard_normal((2,) + spec.octant_shape) for _ in range(2))
    u = GridField.from_octant_values(spec, octant.copy())
    v = GridField.from_octant_values(spec, other.copy())
    full = GridField(spec, mirrored(spec, octant, half=False))
    full_v = GridField(spec, mirrored(spec, other, half=False))
    assert np.array_equal(u.values, full.values)
    assert u.magnitude().shape == spec.octant_shape
    assert np.array_equal(on_grid(spec, u.magnitude()), full.magnitude())
    assert u.boundary_tail() == full.boundary_tail()
    assert_close(u.spectrum(), full.spectrum())
    first = SymbolOperator.from_entries(n, 2, 1, 0, {((0,) * n, 0, 0): 1})
    # xi_0 u_0 + xi_1 u_1: a row of two parities.
    e0, e1 = (tuple(int(i == ax) for i in range(n)) for ax in (0, 1))
    ops = [gradient(n).operator.compose(first),
           SymbolOperator.from_entries(n, 2, 1, 1, {(e0, 0, 0): 1, (e1, 0, 1): 1})]
    for op in ops:
        assert_close(on_grid(spec, image_magnitude(op, u)), image_magnitude(op, full))
        assert_close(apply_symbol(op, u).spectrum(), apply_symbol(op, full).spectrum())
        assert math.isclose(image_l1(op, u), image_l1(op, full), rel_tol=1e-13, abs_tol=1e-300)
    # Two octants pair by one mirror-weighted sum, and an octant and a grid
    # field by the grid field's even part, folded onto the octant: the
    # product of one odd part with an even field sums to zero on the grid.
    expected = pairing(full, full_v)
    for f, g in ((u, v), (u, full_v), (full, v)):
        assert math.isclose(pairing(f, g), expected, rel_tol=1e-13)
    noise = GridField(spec, rng.standard_normal((2,) + spec.shape))
    scale = np.abs(full.values * noise.values).sum() * spec.cell_volume
    for f, g in ((u, noise), (noise, u)):
        assert abs(pairing(f, g) - pairing(full, noise)) <= 1e-13 * scale


@pytest.mark.parametrize("n, size", [(2, 16), (3, 8), (4, 8)])
def test_even_part_in_slabs_is_the_whole_fold(monkeypatch, n, size):
    # The fold of the first axis runs in slabs: with slabs of one index up
    # to the whole octant, the even part of two components is, bit for bit,
    # the fold of every axis at once, axis by axis.
    spec = GridSpec(n, size, 3.0)
    a = np.random.default_rng(n).standard_normal((2,) + spec.shape)
    top = size // 2 + 1
    mirror = -np.arange(top) % size
    expected = a
    for ax in range(1, n + 1):
        expected = 0.5 * (expected[(slice(None),) * ax + (slice(top),)]
                          + np.take(expected, mirror, axis=ax))
    row_bytes = 8 * 2 * size ** (n - 1)
    for rows in (1, 2, top, size):
        monkeypatch.setattr(grid, "SLAB_BYTES", 8 * rows * row_bytes)
        assert np.array_equal(grid.even_part(spec, a), expected)


@pytest.mark.parametrize("n, size", [(2, 16), (3, 8), (4, 8)])
def test_forward_octant_transform_is_rfftn_of_the_mirrored_field(n, size):
    # The octant passes scaled by T^n transform the values on the octant of
    # a field even or odd in every axis into its octant spectrum: i^q times
    # it is rfftn of the mirrored values times h^n, Nyquist planes and all,
    # within 1e-13 of the largest.  The input is left as it is.
    spec = GridSpec(n, size, 3.0)
    top = size // 2 + 1
    rng = np.random.default_rng(n)
    for parity in itertools.product((0, 1), repeat=n):
        octant = random_octant(spec, parity, spec.octant_shape, rng)
        held = octant[0].copy()
        got = grid._octant_transform(spec, held, parity, spec.box**n)
        full = mirrored(spec, octant, parity, half=False)[0]
        expected = np.fft.rfftn(full)[(slice(top),) * n] * spec.cell_volume
        assert_close(got * 1j ** sum(parity), expected)
        assert np.array_equal(held, octant[0])


def test_octant_values_must_be_finite_and_octant_shaped():
    spec = GridSpec(2, 8, 3.0)
    for shape in ((1, 8, 8), (1, 5, 4), (5, 5), (1, 5, 5, 1)):
        with pytest.raises(ValueError, match="octant values shape"):
            GridField.from_octant_values(spec, np.zeros(shape))
    for bad in (np.nan, np.inf):
        values = np.zeros((2,) + spec.octant_shape)
        values[1, 4, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            GridField.from_octant_values(spec, values)


@pytest.mark.parametrize("spec", [GridSpec(2, 64, 8.0), GridSpec(3, 32, 6.0)])
def test_radial_builders_are_sampled_on_their_octant(spec):
    # The centred Gaussian and mollified disc are evaluated on the octant of
    # grid points: mirrored, they are the full-grid formulas bit for bit on
    # these boxes, whose coordinates are exact; the Gaussian's unit mass is
    # a mirror-weighted sum, the full grid's within 1e-13.
    c = spec.box / 2.0
    r = np.sqrt(sum((x - c) ** 2 for x in spec.coordinate_grids()))
    g = np.exp(-(r**2) / (2.0 * 0.8**2))
    bump = gaussian_bump(spec, sigma=0.8, components=[1.0, -0.5])
    assert bump.octant_values.shape == (2,) + spec.octant_shape
    assert np.array_equal(bump.values, np.stack([g, -0.5 * g]))
    unit = gaussian_bump(spec, sigma=0.8, normalize_l1=True)
    assert_close(unit.values[0], g / (g.sum() * spec.cell_volume))
    disc = mollified_disc(spec, radius=1.0, width=0.4)
    assert disc.octant_values is not None
    assert np.array_equal(disc.values[0], smoothstep((1.0 + 0.2 - r) / 0.4))
