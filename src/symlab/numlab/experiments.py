"""Ratio experiments probing limiting inequalities at desk scale.

Every experiment returns (rows, manifest): rows are plain dictionaries of
floats and flags (one per schedule point), the manifest records grid,
operator digest, seed and parameters so a run can be reproduced exactly.
Reported ratios are re-measured on a half-resolution grid whenever that is
affordable; a point whose ratio moves more than ten percent is flagged
unconverged rather than silently reported.  A blowup row whose band the
halved grid holds whole reads that ratio from its own magnitudes at every
other grid point (``blowup_experiment``).  The plateau experiments,
``necessity_experiment`` and ``duality_experiment``, choose a field and
their own columns only: both take its components' even parts on the
octant (``grid.even_components``), drop the field, and pair the parts with
the plateaus in one loop (``_plateau_rows``), for any field in any n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .. import __version__
from ..catalog import divergence, sym_gradient
from ..deciders.cancellation import image_intersection
from ..deciders.ellipticity import check_ellipticity
from ..exact.symbol import SymbolOperator
from ..io import polynomial_to_json
from .blowup import (
    BlowupDirection,
    blowup_direction,
    build_blowup_field,
    cutoff_l1,
    swap_symmetric,
)
from .fields import (
    curl_potential_field,
    dx_bump,
    gaussian_bump,
    mollified_disc,
    newton_gradient_field,
    radial_cutoff_test_function,
)
from .grid import (
    GridField,
    GridSpec,
    axis_swap_magnitude,
    boundary_tail,
    derivative_magnitude,
    even_components,
    grid_sum,
    image_l1,
    image_magnitude,
)
# No caller here: the benchmark's trace (bench/spans.py) wraps this name in
# this module with the other numlab entry points.
from .grid import apply_symbol  # noqa: F401
from .norms import lp_norm, magnitude_norm, pairing

CONVERGENCE_TOL = 0.10


def _manifest(kind: str, spec: GridSpec, seed: int, params: dict, digest: Optional[str] = None) -> dict:
    doc = {
        "kind": kind,
        "tool_version": __version__,
        "grid": {"n": spec.n, "size": spec.size, "box": spec.box},
        "seed": seed,
        "params": params,
    }
    if digest is not None:
        doc["operator_digest"] = digest
    return doc


def _converged(value: float, reference: Optional[float]) -> bool:
    if reference is None:
        return True
    if value == 0.0:
        return reference == 0.0
    return abs(value - reference) <= CONVERGENCE_TOL * abs(value)


def sobolev_exponent(n: int, k: int, ell: int) -> float:
    """Target integrability for estimating order-ell derivatives against a
    unit-mass image: n / (n - (k - ell))."""
    gap = k - ell
    if gap >= n:
        raise ValueError("derivative gap must be smaller than the dimension")
    return n / (n - gap)


def _blowup_ratio_terms(
    a: SymbolOperator, ell: int, u: GridField, symmetric: bool,
    half: Optional[GridSpec] = None,
) -> tuple[float, float, Optional[np.ndarray], Optional[float]]:
    """The numerator and denominator of the blowup ratio of u, the L^q norm
    of its order-ell derivative and the L1 norm of A(D)u; the magnitude of
    that derivative (None for ell = 0, where the numerator is the norm of
    u itself), a first-order one taken by the axis-swap sum when
    ``symmetric`` (see ``blowup.swap_symmetric``); and with ``half``, the
    halved grid, the ratio read from the same magnitudes at every other
    grid point, which is the ratio on that grid when it holds u's whole
    band (see ``blowup_experiment``), else None.

    The image magnitude is taken once: its sum on the grid is the one
    ``image_l1`` takes, bit for bit, its sum on the halved grid follows,
    and it is dropped before anything else is measured."""
    spec = u.spec
    q = sobolev_exponent(spec.n, a.order, ell)
    dmag = derivative_magnitude(u, ell, symmetric and ell == 1) if ell else None
    mag = u.magnitude() if dmag is None else dmag
    num = magnitude_norm(spec, mag, q)
    image = image_magnitude(a, u)
    den = grid_sum(spec, image, slice(None)) * spec.cell_volume
    ref = None
    if half is not None:
        even = (slice(None, None, 2),) * spec.n
        half_den = grid_sum(half, image[even], slice(None)) * half.cell_volume
        del image
        ref = magnitude_norm(half, mag[even], q) / half_den
    return num, den, dmag, ref


def _blowup_point(
    a: SymbolOperator, ell: int, scale: float, spec: GridSpec,
    direction: BlowupDirection, bound: float,
) -> tuple[dict, Optional[float]]:
    """The row of one scale, and the ratio on the halved grid read from
    the row's own magnitudes when the row keeps the Nyquist margin (None
    otherwise)."""
    u = build_blowup_field(direction, scale, spec)
    symmetric = swap_symmetric(direction)
    margin_ok = spec.nyquist >= 4 * scale
    num, den, dmag, ref = _blowup_ratio_terms(a, ell, u, symmetric,
                                              spec.halved() if margin_ok else None)
    # Gradient-control companion on the same field: the order-zero Sobolev
    # ratio against the full first derivative.
    ctrl_num = lp_norm(u, spec.n / (spec.n - 1.0))
    dmag1 = dmag if ell == 1 else derivative_magnitude(u, 1, symmetric)
    ctrl_den = magnitude_norm(spec, dmag1, 1.0)
    row = {
        "scale": scale,
        "numerator": num,
        "denominator": den,
        "ratio": num / den,
        "control_numerator": ctrl_num,
        "control_denominator": ctrl_den,
        "control_ratio": ctrl_num / ctrl_den,
        "image_l1": den,
        "image_l1_bound": bound,
        "tail": u.boundary_tail(),
        "nyquist_margin_ok": margin_ok,
    }
    return row, ref


def blowup_experiment(
    a: SymbolOperator,
    e: Sequence,
    ell: int,
    scales: Sequence[float],
    spec: GridSpec,
    seed: int = 0,
    digest: Optional[str] = None,
) -> tuple[list[dict], dict]:
    """Ratio of the order-ell derivative norm to the image L1 norm across a
    schedule of concentration scales.  The ratios and tails of e and c e
    agree, so e is measured scaled exactly to a largest |entry| of 1,
    where no entry of it or of the field overflows or underflows a float;
    the manifest keeps e as given.

    Each row's convergence reference is the ratio on the halved grid, N/2
    points per axis, read or built.  A row that keeps the Nyquist margin,
    N/(2T) >= 4 scale, reads it: that is N/(4T) >= 2 scale, the halved
    grid's Nyquist frequency lies beyond the window's support, every
    |xi_i| < 2 scale, so both grids hold the same band-limited field, its
    Nyquist bins being zero on both, and the halved grid's values of u, of its
    derivatives and of A(D)u are the fine values at even indices: on the
    octant (index k of N/4 + 1 is index 2k of N/2 + 1), on the grid and in
    every dimension.  The reference is then the ratio of those magnitudes'
    Riemann sums on the halved grid, equal to the built one to rounding,
    with no transform.  A row with scale <= N/(4T) < 2 scale builds the
    field on the halved grid, as the halved grid truncates its band; a row
    with N/(4T) < scale has no reference."""
    if ell < 0 or ell >= a.order:
        raise ValueError("derivative order must satisfy 0 <= ell < operator order")
    if a.order - ell >= spec.n:
        raise ValueError("derivative gap k - ell must stay below the dimension")
    exact = [Fraction(x) for x in e]
    top = max(map(abs, exact))
    direction = blowup_direction(a, [x / top for x in exact] if top else exact,
                                 check_ellipticity(a), image_intersection(a, seed))
    # The image bound 2 ||psi||_1 |e| does not depend on the scale.
    bound = 2.0 * cutoff_l1(spec) * float(np.sqrt((direction.e**2).sum()))
    half = spec.halved()
    rows = []
    for scale in scales:
        row, ref = _blowup_point(a, ell, scale, spec, direction, bound)
        if ref is None and half.nyquist >= scale:
            # The reference needs only the ratio: no control columns, no tail.
            num, den, _, _ = _blowup_ratio_terms(
                a, ell, build_blowup_field(direction, scale, half), swap_symmetric(direction))
            ref = num / den
        row["converged"] = _converged(row["ratio"], ref)
        rows.append(row)
    manifest = _manifest(
        "blowup", spec, seed,
        {"e": [str(x) for x in e], "ell": ell, "scales": list(scales)},
        digest,
    )
    # The membership witness A(x) u(x) = p(x) e that built U = u / p.
    manifest["witness"] = {"s": direction.p.degree() - a.order,
                           "p": polynomial_to_json(direction.p)}
    return rows, manifest


# Component integrals at most this fraction of the L1 norm are round-off.
MEAN_TOL = 1e-9


def mean_component(spec: GridSpec, even: np.ndarray, f_l1: float) -> int:
    """The component with the largest integral, summed with mirror weights
    (``grid.grid_sum``) over ``even``, the components' even parts on the
    octant of grid points: the direction the plateau pairs against.
    Component 0 when every integral is round-off (at most ``MEAN_TOL``
    times the L1 norm), as for a mean-free field."""
    means = np.abs([grid_sum(spec, v, slice(None)) for v in even]) * spec.cell_volume
    k = int(np.argmax(means))
    return k if means[k] > MEAN_TOL * f_l1 else 0


def _plateau_rows(spec: GridSpec, even: np.ndarray, f_l1: float,
                  exponents: Sequence[float]) -> list[dict]:
    """One row per opening exponent of the plateau family: the plateau is
    the test function in the direction of component k of f, the one that
    ``mean_component`` picks, and pairs with that component alone, through
    its even part on the octant (``even``, from ``grid.even_components``),
    whose mirror-weighted sum is the component's integral."""
    k = mean_component(spec, even, f_l1)
    f_k = GridField.from_octant_values(spec, even[k: k + 1])
    rows = []
    for lam in exponents:
        phi, grad_ln = radial_cutoff_test_function(spec, lam)
        pair = pairing(f_k, phi)
        rows.append({"exponent": lam, "pairing": pair, "f_l1": f_l1, "grad_ln": grad_ln,
                     "ratio": pair / (f_l1 * grad_ln)})
    return rows


def necessity_experiment(
    field_kind: str,
    exponents: Sequence[float],
    spec: GridSpec,
    sigma: float = 1.0,
    seed: int = 0,
) -> tuple[list[dict], dict]:
    """Pair an integrable field against the slowly-opening plateau family.

    The test-function gradient norms obey an exact power scaling in the
    opening exponent; each row reports the measured norm, its deviation
    from that scaling, and the pairing ratio that diverges for fields with
    nonzero mean and stays bounded for mean-zero fields."""
    if field_kind == "gaussian":
        f = gaussian_bump(spec, sigma=sigma, normalize_l1=True)
    elif field_kind == "dx_bump":
        f = dx_bump(spec, sigma=sigma)
    else:
        raise ValueError(f"unknown necessity field {field_kind!r}")
    tail = f.boundary_tail()
    even = even_components(f)
    f_l1 = lp_norm(f, 1.0)
    del f
    rows = _plateau_rows(spec, even, f_l1, exponents)
    base_ln = next((r["grad_ln"] for r in rows if r["exponent"] == 1.0), None)
    if base_ln is None:
        # Reference for the scale check: measure the exponent-1 member once.
        _, base_ln = radial_cutoff_test_function(spec, 1.0)
    for row in rows:
        expected = base_ln * row["exponent"] ** (1.0 - 1.0 / spec.n)
        row.update(scale_err=abs(row["grad_ln"] - expected) / expected, tail=tail)
    manifest = _manifest(
        "necessity", spec, seed,
        {"field": field_kind, "sigma": sigma, "exponents": list(exponents)},
    )
    return rows, manifest


def duality_experiment(
    field_kind: str,
    exponents: Sequence[float],
    spec: GridSpec,
    sigma: float = 1.0,
    seed: int = 0,
) -> tuple[list[dict], dict]:
    """Probe the pairing bound for constrained versus generic vector fields.

    A field annihilated by the divergence constraint keeps the pairing
    ratio bounded along the plateau family; a generic field with nonzero
    mean drives it up."""
    if spec.n != 2:
        raise ValueError("duality experiment runs on a two-dimensional box")
    if field_kind == "curl-potential":
        f = curl_potential_field(spec, sigma=sigma)
    elif field_kind == "generic":
        f = gaussian_bump(spec, sigma=sigma, components=[1.0, 0.0], normalize_l1=True)
    else:
        raise ValueError(f"unknown duality field {field_kind!r}")
    residual = image_l1(divergence(spec.n).operator, f)
    even = even_components(f)
    f_l1 = lp_norm(f, 1.0)
    del f
    rows = _plateau_rows(spec, even, f_l1, exponents)
    for row in rows:
        row["constraint_residual_l1"] = residual
    manifest = _manifest(
        "duality", spec, seed,
        {"field": field_kind, "sigma": sigma, "exponents": list(exponents)},
    )
    return rows, manifest


# ---------------------------------------------------------------------------
# Inequality ratio families


def _gns_disc_point(spec: GridSpec, width: float) -> dict:
    u = mollified_disc(spec, radius=1.0, width=width)
    lhs = lp_norm(u, 2.0)
    # The disc is radial: |grad u| takes the one derivative along the last
    # axis and the axis-swap sum.
    rhs = magnitude_norm(spec, derivative_magnitude(u, 1, symmetric=True), 1.0)
    return {
        "size": spec.size, "width": width, "lhs": lhs, "rhs": rhs,
        "ratio": lhs / rhs, "tail": u.boundary_tail(),
    }


def _korn_point(spec: GridSpec) -> dict:
    g = gaussian_bump(spec, sigma=0.8, components=[1.0, -0.5])
    lhs = lp_norm(g, 2.0)
    rhs = image_l1(sym_gradient(2).operator, g)
    return {"size": spec.size, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs,
            "tail": g.boundary_tail()}


def _solonnikov_point(spec: GridSpec) -> dict:
    g = gaussian_bump(spec, sigma=0.8)
    # The bump is radial: |grad g| takes one derivative, as gns_disc's does.
    lhs = magnitude_norm(spec, derivative_magnitude(g, 1, symmetric=True), 2.0)
    rhs = (image_l1(_monomial_operator(2, (2, 0)), g)
           + image_l1(_monomial_operator(2, (0, 2)), g))
    return {"size": spec.size, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs,
            "tail": g.boundary_tail()}


def _strange_point(spec: GridSpec) -> dict:
    g = gaussian_bump(spec, sigma=0.9)
    lhs = lp_norm(g, 2.0)
    rhs = (image_l1(_monomial_operator(4, (1, 1, 0, 0)), g)
           + image_l1(_monomial_operator(4, (0, 0, 1, 1)), g))
    return {"size": spec.size, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs,
            "tail": g.boundary_tail()}


def _newton_point(spec: GridSpec, eps: float) -> dict:
    from ..catalog import exterior_d

    u = newton_gradient_field(spec, eps)
    # The images are measured on the potential's octant and never built:
    # the divergence, the Laplacian of phi, is one even row, inverted by one
    # real pass per axis and summed in absolute value with mirror weights,
    # and the curl, the zero symbol, costs nothing.  They are measured
    # before the field's own magnitude, so that it and an image are never
    # held together.
    div_l1 = image_l1(divergence(3).operator, u)
    curl_l1 = image_l1(exterior_d(3, 1).operator, u)
    rhs = div_l1 + curl_l1
    mag = axis_swap_magnitude(_LAST_OF_3, u)
    lhs = magnitude_norm(spec, mag, 1.5)
    return {"size": spec.size, "eps": eps, "lhs": lhs, "rhs": rhs,
            "ratio": lhs / rhs, "curl_l1": curl_l1,
            "tail": boundary_tail(mag)}


# v -> v_2, the last component of a 3-vector field.  Of the newton field
# u = grad(D) phi, phi symmetric under permutations of the axes, as
# ``newton_gradient_field`` makes it, it is d_2 phi, so |u| is the gradient
# magnitude of phi that ``grid.axis_swap_magnitude`` takes from it: one
# transform where the magnitude of u takes three.  phi is held on its octant
# and d_2 phi, odd in the last axis only, stays there: |u| is an octant
# magnitude, of spec.octant_shape, a cube that the swaps map to itself.
_LAST_OF_3 = SymbolOperator.from_entries(3, 3, 1, 0, {((0, 0, 0), 0, 2): 1})


def _monomial_operator(n: int, alpha: tuple) -> SymbolOperator:
    """The scalar operator with the single monomial symbol xi^alpha."""
    return SymbolOperator.from_entries(n, 1, 1, sum(alpha), {(alpha, 0, 0): 1})


# family -> (point, default levels, dimension and box of every grid of the
# family, smallest size that is re-measured at half resolution).  A level is
# a grid size or a tuple whose first entry is the grid size; the point takes
# the level's grid and the rest of the level.
_INEQUALITIES = {
    "gns_disc": (_gns_disc_point, [(128, 0.4), (256, 0.2), (512, 0.1)], 2, 4.0, 64),
    "korn": (_korn_point, [64, 128, 256], 2, 8.0, 0),
    "solonnikov": (_solonnikov_point, [64, 128, 256], 2, 8.0, 0),
    "strange_r4": (_strange_point, [16, 32], 4, 8.0, 32),
    "newton_r3": (_newton_point, [(128, 0.4), (128, 0.3), (128, 0.25)], 3, 8.0, 0),
}
INEQUALITY_FAMILIES = tuple(_INEQUALITIES)


def inequality_experiment(
    family: str,
    seed: int = 0,
    levels: Optional[Sequence] = None,
) -> tuple[list[dict], dict]:
    """Left/right ratio of one inequality family across a resolution or
    mollification schedule, with half-resolution convergence flags."""
    if family not in _INEQUALITIES:
        raise ValueError(f"unknown inequality family {family!r}")
    point, default, n, box, min_ref = _INEQUALITIES[family]
    levels = [list(l) if isinstance(l, (tuple, list)) else l for l in levels or default]
    # A half-resolution reference is often a level of the schedule itself;
    # the points are pure, so each distinct input is measured once.
    measured: dict[tuple, dict] = {}

    def measure(size: int, *rest) -> dict:
        args = (GridSpec(n, size, box), *rest)
        if args not in measured:
            measured[args] = point(*args)
        return measured[args]

    rows: list[dict] = []
    for level in levels:
        size, *rest = level if isinstance(level, list) else [level]
        row = dict(measure(size, *rest))
        ref = measure(size // 2, *rest)["ratio"] if size >= min_ref else None
        row["converged"] = _converged(row["ratio"], ref)
        rows.append(row)
    spec = GridSpec(n, rows[-1]["size"], box)
    manifest = _manifest(f"inequality:{family}", spec, seed, {"levels": levels})
    return rows, manifest
