"""Experiment drivers at reduced desk scale (full runs live in acceptance)."""

import math

import numpy as np
import pytest

from symlab.catalog import hodge_pair, laplacian
from symlab.deciders import check_ellipticity, image_intersection
from symlab.numlab import (
    GridField,
    GridSpec,
    apply_symbol,
    blowup_experiment,
    derivative_magnitude,
    duality_experiment,
    inequality_experiment,
    necessity_experiment,
    sobolev_exponent,
)
from symlab.numlab import blowup, experiments
from symlab.numlab.experiments import mean_component
from symlab.numlab.fields import curl_potential_field, gaussian_bump
from symlab.numlab.norms import lp_norm, magnitude_norm


def test_sobolev_exponent_values():
    assert sobolev_exponent(2, 2, 1) == 2.0
    assert sobolev_exponent(3, 1, 0) == 1.5
    with pytest.raises(ValueError):
        sobolev_exponent(2, 3, 1)  # gap equals dimension


def test_blowup_schedule_monotone_small():
    spec = GridSpec(2, 256, 4.0)
    rows, manifest = blowup_experiment(
        laplacian(2).operator, [1], 1, [4, 8], spec, check_convergence=True
    )
    assert rows[0]["ratio"] < rows[1]["ratio"]
    for r in rows:
        assert r["image_l1"] <= r["image_l1_bound"] * 1.05
    assert manifest["kind"] == "blowup"
    assert manifest["grid"]["size"] == 256


def test_blowup_solves_directions_once_per_grid(monkeypatch):
    # U(xi) does not depend on the scale: one solve on the grid and one on
    # the halved grid, and the fields match a per-scale solve.
    calls = []
    solve = blowup.solve_symbol_directions

    def counted(a, spec, e, reach):
        calls.append(spec.size)
        return solve(a, spec, e, reach)

    monkeypatch.setattr(blowup, "solve_symbol_directions", counted)
    monkeypatch.setattr(experiments, "solve_symbol_directions", counted)
    spec = GridSpec(2, 128, 4.0)
    op = laplacian(2).operator
    rows, _ = blowup_experiment(op, [1], 1, [4, 8, 16], spec, check_convergence=True)
    assert sorted(calls) == [64, 128]
    fresh = experiments._blowup_point(op, 1, 8, spec, solve(op, spec, np.array([1.0]), math.inf),
                                      2.0 * blowup.cutoff_l1(spec))
    assert rows[1] == dict(fresh, converged=rows[1]["converged"])


@pytest.mark.parametrize("entry, e, ell, spec, scale", [
    (laplacian(2), [1], 1, GridSpec(2, 128, 4.0), 4.0),
    (hodge_pair(3, 1), [0, 0, 0, 1], 0, GridSpec(3, 32, 4.0), 2.0),
])
def test_blowup_point_matches_the_built_image_recipe(entry, e, ell, spec, scale):
    # Measuring A(D)u row by row gives the row that building the image and
    # summing inline gave, bit for bit.
    op = entry.operator
    e_float = blowup.blowup_direction(op, e, check_ellipticity(op), image_intersection(op, 0))
    directions = blowup.solve_symbol_directions(op, spec, e_float, math.inf)
    bound = 2.0 * blowup.cutoff_l1(spec) * float(np.sqrt((e_float**2).sum()))
    row = experiments._blowup_point(op, ell, scale, spec, directions, bound)
    u = blowup.build_blowup_field(op, scale, spec, directions)
    au = apply_symbol(op, u)
    q = sobolev_exponent(spec.n, op.order, ell)
    if ell == 0:
        num = lp_norm(u, q)
    else:
        num = magnitude_norm(spec, derivative_magnitude(u, ell), q)
    den = lp_norm(au, 1.0)
    ctrl_num = lp_norm(u, spec.n / (spec.n - 1.0))
    ctrl_den = float(spec.cell_volume * derivative_magnitude(u, 1).sum())
    assert row == {
        "scale": scale, "numerator": num, "denominator": den, "ratio": num / den,
        "control_numerator": ctrl_num, "control_denominator": ctrl_den,
        "control_ratio": ctrl_num / ctrl_den, "image_l1": den, "image_l1_bound": bound,
        "tail": u.boundary_tail(), "nyquist_margin_ok": spec.nyquist >= 4 * scale,
    }


def test_blowup_rejects_bad_derivative_order():
    spec = GridSpec(2, 64, 4.0)
    with pytest.raises(ValueError):
        blowup_experiment(laplacian(2).operator, [1], 2, [4], spec)
    with pytest.raises(ValueError):
        blowup_experiment(laplacian(2).operator, [1], -1, [4], spec)


def test_blowup_refuses_gap_equal_dimension():
    # One-dimensional fields with a second-order operator: measuring the
    # zeroth derivative hits the refused borderline gap.
    spec = GridSpec(1, 64, 4.0)
    op = laplacian(1).operator
    with pytest.raises(ValueError):
        blowup_experiment(op, [1], 0, [4], spec)


def test_hodge_blowup_direction_grows():
    spec = GridSpec(3, 64, 4.0)
    rows, _ = blowup_experiment(
        hodge_pair(3, 1).operator, [0, 0, 0, 1], 0, [2, 4], spec,
        check_convergence=False,
    )
    assert rows[0]["ratio"] < rows[1]["ratio"]


def test_necessity_scale_and_direction_small():
    spec = GridSpec(2, 256, 40.0)
    rows, _ = necessity_experiment("gaussian", [1.0, 0.5, 0.25], spec)
    ratios = [r["ratio"] for r in rows]
    assert ratios == sorted(ratios)
    assert all(r["scale_err"] <= 0.02 for r in rows)
    rows2, _ = necessity_experiment("dx_bump", [1.0, 0.5, 0.25], spec)
    assert max(abs(r["ratio"]) for r in rows2) < 0.5 * min(ratios)


def test_duality_contrast_small():
    spec = GridSpec(2, 256, 40.0)
    free, _ = duality_experiment("curl-potential", [1.0, 0.5, 0.25], spec, sigma=1.5)
    generic, _ = duality_experiment("generic", [1.0, 0.5, 0.25], spec, sigma=1.5)
    g = [abs(r["ratio"]) for r in generic]
    f = [abs(r["ratio"]) for r in free]
    assert g == sorted(g) and g[-1] > 5 * max(f)
    assert free[0]["constraint_residual_l1"] < 1e-10


def test_inequality_family_validation():
    with pytest.raises(ValueError):
        inequality_experiment("no_such_family")


@pytest.mark.parametrize("family,distinct", [
    ("korn", [64, 32, 128, 256]),
    ("solonnikov", [64, 32, 128, 256]),
    ("strange_r4", [16, 32]),
])
def test_inequality_measures_each_input_once(monkeypatch, family, distinct):
    # The half-resolution references of these schedules are levels of the
    # schedule themselves; each distinct size is measured once.
    calls = []

    def point(size, *rest):
        calls.append(size)
        return {"size": size, "ratio": 1.0 + 1.0 / size}

    _, *spec = experiments._INEQUALITIES[family]
    monkeypatch.setitem(experiments._INEQUALITIES, family, (point, *spec))
    rows, _ = inequality_experiment(family)
    assert calls == distinct
    assert [r["size"] for r in rows] == sorted(distinct)[-len(rows):]


def test_gns_disc_small_levels():
    rows, manifest = inequality_experiment("gns_disc", levels=[(64, 0.4), (128, 0.4)])
    assert all(np.isfinite(r["ratio"]) for r in rows)
    a, b = rows[0]["ratio"], rows[1]["ratio"]
    assert abs(a - b) <= 0.1 * abs(b)


def test_blowup_default_grid_over_budget_exits_2(tmp_path, capsys):
    # The default 1024 points per axis in three dimensions would need 16 GiB
    # per complex component; the grid is refused before any allocation.
    from symlab.cli import main

    code = main(["experiment", "blowup", "--op", "catalog:laplacian?n=3", "--e", "1",
                 "--ell", "1", "--no-figure", "--csv", str(tmp_path / "b.csv")])
    assert code == 2
    assert "--grid" in capsys.readouterr().err


def test_duality_direction_ignores_round_off():
    # The curl-potential field has round-off component means; perturbing it
    # at that level must not move the pairing direction off component 0.
    spec = GridSpec(2, 128, 40.0)
    f = curl_potential_field(spec, sigma=1.5)
    f_l1 = lp_norm(f, 1.0)
    assert mean_component(f, f_l1) == 0
    rng = np.random.default_rng(0)
    for _ in range(5):
        noise = 1e-14 * np.abs(f.values).max() * rng.standard_normal(f.values.shape)
        noise[1] += 1e-14 * np.abs(f.values).max()  # a round-off mean on component 1
        assert mean_component(GridField(spec, f.values + noise), f_l1) == 0
    # A generic field pairs against the component that carries its mass.
    for comps, k in (([1.0, 0.0], 0), ([0.0, 1.0], 1), ([0.1, -1.0], 1)):
        g = gaussian_bump(spec, sigma=1.5, components=comps, normalize_l1=True)
        assert mean_component(g, lp_norm(g, 1.0)) == k


def test_duality_refuses_op(tmp_path, capsys):
    # The duality experiment always pairs against divergence(2).
    from symlab.cli import main

    code = main(["experiment", "duality", "--op", "catalog:gradient?n=2", "--no-figure",
                 "--csv", str(tmp_path / "d.csv")])
    assert code == 2
    assert "--op" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


OPTIONS = {"op": ["--op", "catalog:gradient?n=2"], "e": ["--e", "1"], "ell": ["--ell", "0"],
           "lambda": ["--lambda", "1"], "family": ["--family", "gns_disc"],
           "field": ["--field", "gaussian"], "grid": ["--grid", "64,8"]}
# The options each kind ignores; duality's --op has its own test.
UNREAD = {"necessity": ("op", "e", "ell", "family"), "duality": ("e", "ell", "family"),
          "inequality": ("op", "e", "ell", "lambda", "field", "grid"),
          "blowup": ("family", "field")}


@pytest.mark.parametrize("kind, option", [
    (kind, option) for kind, options in UNREAD.items() for option in options
])
def test_unread_options_refused(tmp_path, capsys, kind, option):
    # Only blowup reads an operator, a direction and a derivative order, and
    # inequality reads nothing but its family.
    from symlab.cli import main

    option = OPTIONS[option]
    extra = ["--family", "gns_disc"] if kind == "inequality" else []
    code = main(["experiment", kind, *extra, *option, "--no-figure",
                 "--csv", str(tmp_path / "x.csv")])
    assert code == 2
    assert option[0] in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["necessity", "--grid", "64,nan"],
    ["necessity", "--grid", "64,inf"],
    ["necessity", "--lambda", "nan"],
    ["necessity", "--lambda", "0"],
    ["duality", "--lambda", "nan"],
    ["necessity", "--field", "nonexistent"],
    # Plateau test functions whose ramp falls between the grid points.
    ["necessity", "--grid", "8,40"],
    ["necessity", "--grid", "16,40"],
    ["duality", "--grid", "8,40"],
    ["duality", "--grid", "16,40"],
    # Boxes whose cell volume or synthesis scale under- or overflows.
    ["duality", "--grid", "512,1e-300"],
    ["blowup", "--op", "catalog:laplacian?n=2", "--e", "1", "--ell", "1", "--grid", "8,1e-300"],
    ["necessity", "--grid", "8,1e308"],
    ["duality", "--grid", "8,1e308"],
    ["blowup", "--op", "catalog:laplacian?n=2", "--e", "1", "--ell", "1", "--grid", "8,1e300"],
    # An empty schedule.
    ["necessity", "--lambda", ","],
    ["duality", "--lambda", ","],
    ["blowup", "--op", "catalog:laplacian?n=2", "--e", "1", "--ell", "1", "--lambda", ","],
])
def test_bad_experiment_input_exits_2(tmp_path, capsys, argv):
    # A box or schedule that is not finite or that the grid cannot resolve,
    # and input the experiment itself refuses with ValueError, end in a
    # one-line error with exit 2, not a traceback.
    from symlab.cli import main

    code = main(["experiment", *argv, "--no-figure", "--csv", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()
