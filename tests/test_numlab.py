"""Spectral grid machinery, norms and concentration families."""

import math
import tracemalloc
from fractions import Fraction as F

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
from symlab.exact.matrix import QMatrix
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
    solve_symbol_directions,
)
from symlab.numlab.blowup import blowup_direction, cutoff_l1
from symlab.numlab.experiments import _newton_point
from symlab.numlab.fields import newton_gradient_field
from symlab.numlab.grid import half_box_shift, zero_nyquist


def nyquist_mask(spec):
    # Reference: one on the half spectrum, zero on index N/2 of every axis.
    mask = np.ones(spec.half_shape)
    for ax in range(spec.n):
        sl = [slice(None)] * spec.n
        sl[ax] = spec.size // 2
        mask[tuple(sl)] = 0.0
    return mask


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
        exact = op.evaluate([x / t for x in xi])
        factor = complex(0.0, 2 * math.pi) ** op.order
        for e in range(op.dim_e):
            coeff = float(exact[e, comp_in])
            expected = (factor * coeff * np.exp(1j * phase)).real
            err = np.abs(out.values[e] - expected).max()
            assert err <= 1e-9 * max(abs(coeff) * abs(factor), 1.0)


def test_gradient_of_sine_mode():
    spec = GridSpec(2, 64, 8.0)
    x = spec.coordinate_grids()
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
    for n, size in ((1, 16), (2, 8), (3, 8), (4, 4)):
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
    # A(xi) U(xi) = e at every nonzero frequency, with A(xi) evaluated exactly.
    spec = GridSpec(3, 16, 16.0)
    op = hodge_pair(3, 1).operator
    e = np.array([0.0, 0.0, 0.0, 1.0])
    u = solve_symbol_directions(op, spec, e)
    assert u.shape == (op.dim_v,) + spec.half_shape
    last = np.fft.rfftfreq(spec.size, d=1.0 / spec.size)  # integer modes 0 .. N/2
    worst = 0.0
    for m in np.ndindex(*spec.half_shape):
        if not any(m):
            assert np.all(u[(slice(None),) + m] == 0.0)
            continue
        modes = [int(k) - spec.size * (k >= spec.size // 2) for k in m[:-1]]
        modes.append(int(last[m[-1]]))
        xi = [F(k, int(spec.box)) for k in modes]
        a = np.array([[float(x) for x in row] for row in op.evaluate(xi).entries])
        worst = max(worst, np.abs(a @ u[(slice(None),) + m] - e).max())
    assert worst <= 1e-12


def test_direction_solver_homogeneity():
    spec = GridSpec(2, 128, 8.0)
    u = solve_symbol_directions(laplacian(2).operator, spec, [1.0])
    # U(2 xi) = 2^(-k) U(xi) at representable mode pairs.
    for m in [(1, 2), (3, 1), (5, 4)]:
        m2 = (2 * m[0], 2 * m[1])
        a, b = u[0][m], u[0][m2]
        assert abs(b - a / 4.0) <= 1e-10 * abs(a)


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
    directions = solve_symbol_directions(op, spec, admissible(op, [1]))
    for scale in (512.0, 1.5):
        with pytest.raises(BlowupError):
            build_blowup_field(op, scale, spec, directions)


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
    assert blowup_direction(op, [1], elliptic, certified).tolist() == [1.0]


def test_blowup_image_identity_and_bound():
    # A(D)u must equal the two-cutoff difference times e; checked against a
    # direct synthesis of that difference.
    spec = GridSpec(2, 256, 4.0)
    op = laplacian(2).operator
    u = build_blowup_field(op, 4.0, spec, solve_symbol_directions(op, spec, [1.0]))
    au = apply_symbol(op, u)
    xi = spec.frequency_grids()
    r = np.sqrt(xi[0] ** 2 + xi[1] ** 2)
    window = plateau_cutoff(r / 4.0) - plateau_cutoff(r * 4.0)
    shift = np.exp(-2j * np.pi * (spec.box / 2.0) * (xi[0] + xi[1]))
    direct = GridField.from_spectrum(spec, (window * shift)[None, ...])
    scale = np.abs(direct.values).max()
    assert np.abs(au.values - direct.values).max() <= 1e-9 * scale
    assert lp_norm(au, 1.0) <= 2.0 * cutoff_l1(spec) * 1.05


def test_quaternion_blowup_disallowed_everywhere():
    # Trivial common image: no admissible direction at all.
    with pytest.raises(BlowupError):
        admissible(quaternion().operator, [1, 0, 0, 0])


def test_derivative_magnitude_of_mode():
    spec = GridSpec(2, 64, 8.0)
    x = spec.coordinate_grids()
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


def cache_error(u):
    # Relative distance of the cached spectrum from rfftn(values) h^n mask.
    spec = u.spec
    fresh = np.fft.rfftn(u.values, axes=tuple(range(1, spec.n + 1)))
    fresh *= spec.cell_volume * nyquist_mask(spec)
    return np.abs(u.spectrum() - fresh).max() / np.abs(fresh).max()


def test_cached_spectrum_is_the_spectrum_of_the_values():
    # Synthesized fields and operator outputs hand their spectrum on
    # instead of transforming forward; it must be the one rfftn would give.
    # The last field transforms forward, one component at a time.
    newton = newton_gradient_field(GridSpec(3, 32, 8.0), 0.4)
    op, spec = laplacian(2).operator, GridSpec(2, 128, 4.0)
    u = build_blowup_field(op, 4.0, spec, solve_symbol_directions(op, spec, [1.0]))
    au = apply_symbol(op, u)
    fields = [newton, u, au, apply_symbol(exterior_d(3, 1).operator, newton),
              apply_symbol(gradient(2).operator, random_field(GridSpec(2, 32, 8.0), 1)),
              random_field(GridSpec(2, 32, 8.0), 2, seed=7)]
    for f in fields:
        assert f.spectrum().shape == (f.components,) + f.spec.half_shape
        assert cache_error(f) <= 1e-12
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


def test_newton_point_transform_count(monkeypatch):
    # Backward transforms only, one per component: three for the field, one
    # for the divergence and three for the curl.  Each is n - 1 = 2 complex
    # passes in place on one work buffer and one real pass; no forward
    # transform, no full complex one and no irfftn.
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
    row = _newton_point(16, 0.4)
    assert np.isfinite(row["ratio"])
    assert calls == {"irfft": 7, "ifft": 14}


IMAGE_CASES = [
    (divergence(3).operator, GridSpec(3, 16, 8.0)),
    (exterior_d(3, 1).operator, GridSpec(3, 16, 8.0)),
    (sym_gradient(2).operator, GridSpec(2, 32, 8.0)),
    # A 4-d mixed monomial, and an operator whose middle row is all zero.
    (SymbolOperator.make(4, 1, 1, 2, {(1, 0, 0, 1): QMatrix.from_rows([[1]])}),
     GridSpec(4, 8, 4.0)),
    (SymbolOperator.make(2, 2, 3, 1, {(1, 0): QMatrix.from_rows([[1, 0], [0, 0], [0, 2]]),
                                      (0, 1): QMatrix.from_rows([[0, -1], [0, 0], [3, 0]])}),
     GridSpec(2, 32, 8.0)),
]


@pytest.mark.parametrize("op, spec", IMAGE_CASES)
def test_image_magnitude_is_the_magnitude_of_the_image(op, spec):
    u = random_field(spec, op.dim_v, seed=11)
    assert np.array_equal(image_magnitude(op, u), apply_symbol(op, u).magnitude())


def test_image_magnitude_of_an_all_zero_symbol_is_zero():
    spec = GridSpec(2, 16, 8.0)
    op = SymbolOperator.make(2, 1, 2, 1, {}, allow_zero=True)
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
    terms = {
        alpha: QMatrix.from_rows([[int(r == i * m + c) for c in range(m)] for r in rows])
        for i, alpha in enumerate(alphas)
    }
    d = apply_symbol(SymbolOperator.make(spec.n, m, len(rows), order, terms), u).values
    total = np.zeros(spec.shape)
    for r in rows:
        weight = math.factorial(order) // math.prod(math.factorial(e) for e in alphas[r // m])
        total += weight * d[r] ** 2
    assert np.array_equal(derivative_magnitude(u, order), np.sqrt(total))


@pytest.mark.parametrize("n, size", [(1, 16), (2, 8), (3, 8), (4, 4)])
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


def test_newton_point_memory():
    # Streaming the images keeps the peak of one point below 13.5 real
    # components of the grid; building both images in full needs about 16.6.
    size = 32
    component = 8 * size**3
    tracemalloc.start()
    try:
        _newton_point(size, 0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13.5 * component
