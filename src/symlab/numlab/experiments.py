"""Ratio experiments probing limiting inequalities at desk scale.

Every experiment returns (rows, manifest): rows are plain dictionaries of
floats and flags (one per schedule point), the manifest records grid,
operator digest, seed and parameters so a run can be reproduced exactly.
Reported ratios are re-measured on a half-resolution grid whenever that is
affordable; a point whose ratio moves more than ten percent is flagged
unconverged rather than silently reported.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import __version__
from ..catalog import divergence, gradient, sym_gradient
from ..deciders.cancellation import image_intersection
from ..deciders.ellipticity import check_ellipticity
from ..exact.symbol import SymbolOperator
from .blowup import (
    SymbolDirections,
    blowup_direction,
    build_blowup_field,
    cutoff_l1,
    solve_symbol_directions,
)
from .fields import (
    curl_potential_field,
    dx_bump,
    gaussian_bump,
    mollified_disc,
    newton_gradient_field,
    radial_cutoff_test_function,
)
from .grid import GridField, GridSpec, derivative_magnitude, image_magnitude
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


def _image_l1(a: SymbolOperator, u: GridField) -> float:
    """L1 norm of A(D)u from its magnitude, without building the image."""
    return magnitude_norm(u.spec, image_magnitude(a, u), 1.0)


def _blowup_point(
    a: SymbolOperator, ell: int, scale: float, spec: GridSpec,
    directions: SymbolDirections, bound: float,
) -> dict:
    u = build_blowup_field(a, scale, spec, directions)
    q = sobolev_exponent(spec.n, a.order, ell)
    if ell == 0:
        num = lp_norm(u, q)
    else:
        dmag = derivative_magnitude(u, ell)
        num = magnitude_norm(spec, dmag, q)
    den = _image_l1(a, u)
    # Gradient-control companion on the same field: the order-zero Sobolev
    # ratio against the full first derivative.
    ctrl_num = lp_norm(u, spec.n / (spec.n - 1.0))
    dmag1 = dmag if ell == 1 else derivative_magnitude(u, 1)
    ctrl_den = magnitude_norm(spec, dmag1, 1.0)
    return {
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
        "nyquist_margin_ok": bool(spec.nyquist >= 4 * scale),
    }


def blowup_experiment(
    a: SymbolOperator,
    e: Sequence,
    ell: int,
    scales: Sequence[float],
    spec: GridSpec,
    seed: int = 0,
    check_convergence: bool = True,
    digest: Optional[str] = None,
) -> tuple[list[dict], dict]:
    """Ratio of the order-ell derivative norm to the image L1 norm across a
    schedule of concentration scales."""
    if ell < 0 or ell >= a.order:
        raise ValueError("derivative order must satisfy 0 <= ell < operator order")
    if a.order - ell >= spec.n:
        raise ValueError("derivative gap k - ell must stay below the dimension")
    e_float = blowup_direction(a, e, check_ellipticity(a), image_intersection(a, seed))
    e_norm = float(np.sqrt((e_float**2).sum()))
    half = spec.halved() if check_convergence else None
    # U(xi) and the image bound 2 ||psi||_1 |e| do not depend on the scale:
    # one solve and one cutoff mass per grid.  The windows of every scale
    # live where each |xi_i| < 2 max(scales), so U is solved there only.
    reach = 2.0 * max(scales, default=0.0)
    per_grid = {
        g: (solve_symbol_directions(a, g, e_float, reach), 2.0 * cutoff_l1(g) * e_norm)
        for g in (spec, half) if g is not None
    }
    rows = []
    for scale in scales:
        row = _blowup_point(a, ell, scale, spec, *per_grid[spec])
        ref = None
        if half is not None and half.nyquist >= scale:
            ref = _blowup_point(a, ell, scale, half, *per_grid[half])["ratio"]
        row["converged"] = _converged(row["ratio"], ref)
        rows.append(row)
    manifest = _manifest(
        "blowup", spec, seed,
        {"e": [str(x) for x in e], "ell": ell, "scales": list(scales)},
        digest,
    )
    return rows, manifest


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
    f_l1 = lp_norm(f, 1.0)
    rows = []
    base_ln = None
    for lam in exponents:
        phi, grad_ln = radial_cutoff_test_function(spec, lam)
        if lam == 1.0:
            base_ln = grad_ln
        elif base_ln is None:
            # Reference for the scale check: measure the exponent-1 member once.
            _, base_ln = radial_cutoff_test_function(spec, 1.0)
        pair = pairing(f, phi)
        expected = base_ln * lam ** (1.0 - 1.0 / spec.n)
        scale_err = abs(grad_ln - expected) / expected
        rows.append(
            {
                "exponent": lam,
                "pairing": pair,
                "f_l1": f_l1,
                "grad_ln": grad_ln,
                "ratio": pair / (f_l1 * grad_ln),
                "scale_err": scale_err,
                "tail": tail,
            }
        )
    manifest = _manifest(
        "necessity", spec, seed,
        {"field": field_kind, "sigma": sigma, "exponents": list(exponents)},
    )
    return rows, manifest


# Component integrals at most this fraction of the L1 norm are round-off.
MEAN_TOL = 1e-9


def mean_component(f: GridField, f_l1: float) -> int:
    """The component with the largest integral, the direction the duality
    experiment pairs against; component 0 when every integral is round-off
    (at most ``MEAN_TOL`` times the L1 norm), as for a mean-free field."""
    means = np.abs(f.values.reshape(f.components, -1).sum(axis=1)) * f.spec.cell_volume
    k = int(np.argmax(means))
    return k if means[k] > MEAN_TOL * f_l1 else 0


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
    div = divergence(spec.n).operator
    residual = _image_l1(div, f)
    # The pairings read the values: synthesize them once, before the L1
    # norm, which then takes the magnitude from them.
    f.values
    f_l1 = lp_norm(f, 1.0)
    direction = np.zeros(f.components)
    direction[mean_component(f, f_l1)] = 1.0
    rows = []
    for lam in exponents:
        phi, grad_ln = radial_cutoff_test_function(spec, lam)
        test = GridField(spec, direction[:, None, None] * phi.values[0][None, ...])
        pair = pairing(f, test)
        rows.append(
            {
                "exponent": lam,
                "pairing": pair,
                "f_l1": f_l1,
                "grad_ln": grad_ln,
                "ratio": pair / (f_l1 * grad_ln),
                "constraint_residual_l1": residual,
            }
        )
    manifest = _manifest(
        "duality", spec, seed,
        {"field": field_kind, "sigma": sigma, "exponents": list(exponents)},
    )
    return rows, manifest


# ---------------------------------------------------------------------------
# Inequality ratio families


def _gns_disc_point(size: int, width: float, box: float = 4.0) -> dict:
    spec = GridSpec(2, size, box)
    u = mollified_disc(spec, radius=1.0, width=width)
    grad = gradient(2).operator
    lhs = lp_norm(u, 2.0)
    rhs = _image_l1(grad, u)
    return {
        "size": size, "width": width, "lhs": lhs, "rhs": rhs,
        "ratio": lhs / rhs, "tail": u.boundary_tail(),
    }


def _korn_point(size: int, box: float = 8.0, sigma: float = 0.8) -> dict:
    spec = GridSpec(2, size, box)
    g = gaussian_bump(spec, sigma=sigma, components=[1.0, -0.5])
    lhs = lp_norm(g, 2.0)
    rhs = _image_l1(sym_gradient(2).operator, g)
    return {"size": size, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs,
            "tail": g.boundary_tail()}


def _solonnikov_point(size: int, box: float = 8.0, sigma: float = 0.8) -> dict:
    spec = GridSpec(2, size, box)
    g = gaussian_bump(spec, sigma=sigma)
    du_mag = derivative_magnitude(g, 1)
    lhs = float((spec.cell_volume * (du_mag**2).sum()) ** 0.5)
    rhs = (_image_l1(_monomial_operator(2, (2, 0)), g)
           + _image_l1(_monomial_operator(2, (0, 2)), g))
    return {"size": size, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs,
            "tail": g.boundary_tail()}


def _strange_point(size: int, box: float = 8.0, sigma: float = 0.9) -> dict:
    spec = GridSpec(4, size, box)
    g = gaussian_bump(spec, sigma=sigma)
    lhs = lp_norm(g, 2.0)
    rhs = (_image_l1(_monomial_operator(4, (1, 1, 0, 0)), g)
           + _image_l1(_monomial_operator(4, (0, 0, 1, 1)), g))
    return {"size": size, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs,
            "tail": g.boundary_tail()}


def _newton_point(size: int, eps: float, box: float = 8.0) -> dict:
    from ..catalog import exterior_d

    spec = GridSpec(3, size, box)
    u = newton_gradient_field(spec, eps)
    # The images are measured row by row and never built: each row is
    # inverted in place and its square added into one accumulator slab by
    # slab.  They are measured before the field's own magnitude, which the
    # field caches, so that magnitude and an image accumulator are never
    # held together.
    div_l1 = _image_l1(divergence(3).operator, u)
    curl_l1 = _image_l1(exterior_d(3, 1).operator, u)
    rhs = div_l1 + curl_l1
    lhs = lp_norm(u, 1.5)
    return {"size": size, "eps": eps, "lhs": lhs, "rhs": rhs,
            "ratio": lhs / rhs, "curl_l1": curl_l1,
            "tail": u.boundary_tail()}


def _monomial_operator(n: int, alpha: tuple) -> SymbolOperator:
    """The scalar operator with the single monomial symbol xi^alpha."""
    return SymbolOperator.from_entries(n, 1, 1, sum(alpha), {(alpha, 0, 0): 1})


# family -> (point, default levels, dimension and box of the manifest grid,
# smallest size that is re-measured at half resolution).  A level is a grid
# size or a tuple whose first entry is the grid size.
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

    def measure(*args) -> dict:
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
