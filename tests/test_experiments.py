"""Experiment drivers at reduced desk scale (full runs live in acceptance)."""


import json
import math
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from symlab.catalog import hodge_pair, laplacian
from symlab.cli import load_operator
from symlab.deciders import check_ellipticity, image_intersection
from symlab.exact.symbol import SymbolOperator
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
from symlab.numlab.grid import axis_swap_sum, even_components, image_squares
from symlab.numlab.norms import lp_norm, magnitude_norm
from test_numlab import traced_peak


def test_sobolev_exponent_values():
    assert sobolev_exponent(2, 2, 1) == 2.0
    assert sobolev_exponent(3, 1, 0) == 1.5
    with pytest.raises(ValueError):
        sobolev_exponent(2, 3, 1)  # gap equals dimension


def test_blowup_schedule_monotone_small():
    spec = GridSpec(2, 256, 4.0)
    rows, manifest = blowup_experiment(
        laplacian(2).operator, [1], 1, [4, 8], spec
    )
    assert rows[0]["ratio"] < rows[1]["ratio"]
    for r in rows:
        assert r["image_l1"] <= r["image_l1_bound"] * 1.05
    assert manifest["kind"] == "blowup"
    assert manifest["grid"]["size"] == 256
    # The witness that built U: u = 1 of degree 0, p = |x|^2.
    assert manifest["witness"] == {"s": 0, "p": [[[0, 2], "1"], [[2, 0], "1"]]}


def swap_sum_gradient(u):
    # |grad u| of a field unchanged by every swap of two axes: the square of
    # its derivative along the last axis plus that square with the axes
    # swapped.
    n = u.spec.n
    last = SymbolOperator.from_entries(n, 1, 1, 1, {((0,) * (n - 1) + (1,), 0, 0): 1})
    return np.sqrt(axis_swap_sum(image_squares(last, u)))


@pytest.mark.parametrize("entry, e, ell, spec, scale", [
    (laplacian(2), [1], 1, GridSpec(2, 128, 4.0), 4.0),
    (hodge_pair(3, 1), [0, 0, 0, 1], 0, GridSpec(3, 32, 4.0), 2.0),
])
def test_blowup_point_matches_the_built_image_recipe(entry, e, ell, spec, scale):
    # Measuring A(D)u row by row gives the row that building the image and
    # summing inline gave, bit for bit.  The Laplacian's u is held on the
    # octant, whose magnitudes are summed with mirror weights, and is
    # unchanged by the swap of the two axes: its gradient is the axis-swap
    # sum of one derivative.  The reference is read exactly when the row
    # keeps the Nyquist margin.
    op = entry.operator
    direction = blowup.blowup_direction(op, e, check_ellipticity(op), image_intersection(op, 0))
    bound = 2.0 * blowup.cutoff_l1(spec) * float(np.sqrt((direction.e**2).sum()))
    row, ref = experiments._blowup_point(op, ell, scale, spec, direction, bound)
    u = blowup.build_blowup_field(direction, scale, spec)
    au = apply_symbol(op, u)
    q = sobolev_exponent(spec.n, op.order, ell)
    if ell == 0:
        num = lp_norm(u, q)
    else:
        num = magnitude_norm(spec, swap_sum_gradient(u), q)
    den = lp_norm(au, 1.0)
    ctrl_num = lp_norm(u, spec.n / (spec.n - 1.0))
    if ell == 1:
        ctrl_den = magnitude_norm(spec, swap_sum_gradient(u), 1.0)
    else:
        ctrl_den = magnitude_norm(spec, derivative_magnitude(u, 1), 1.0)
    assert (ref is None) == (spec.nyquist < 4 * scale)
    assert row == {
        "scale": scale, "numerator": num, "denominator": den, "ratio": num / den,
        "control_numerator": ctrl_num, "control_denominator": ctrl_den,
        "control_ratio": ctrl_num / ctrl_den, "image_l1": den, "image_l1_bound": bound,
        "tail": u.boundary_tail(), "nyquist_margin_ok": spec.nyquist >= 4 * scale,
    }


SKEWED_SCALAR = Path(__file__).parent / "data" / "skewed_scalar.json"


@pytest.mark.parametrize("op, e, ell, spec, scales", [
    # On the octant, with the axis-swap gradient.
    (laplacian(2).operator, [1], 1, GridSpec(2, 1024, 4.0), [4, 8, 16, 32]),
    # Mixed parities: the band-held half spectrum; scale 32 misses the margin.
    (hodge_pair(2, 1).operator, [1, 1], 0, GridSpec(2, 512, 4.0), [4, 8, 16, 32]),
    (laplacian(3).operator, [1], 1, GridSpec(3, 64, 4.0), [2]),
    # p with odd exponents: the band-held half spectrum, with the swap sum.
    (load_operator(str(SKEWED_SCALAR))[0], [1], 1, GridSpec(2, 512, 4.0), [4, 8, 16, 32]),
], ids=["laplacian2", "hodge21", "laplacian3", "skewed"])
def test_read_reference_is_the_halved_grid_build(op, e, ell, spec, scales):
    # On a row that keeps the Nyquist margin, the reference read from the
    # fine magnitudes at even indices is the ratio built on the halved grid,
    # its gradient taken row by row, to 1e-12; a row that misses the margin
    # reads none.
    direction = blowup.blowup_direction(op, e, check_ellipticity(op), image_intersection(op, 0))
    half = spec.halved()
    read = 0
    for scale in scales:
        row, ref = experiments._blowup_point(op, ell, scale, spec, direction, 1.0)
        if not row["nyquist_margin_ok"]:
            assert ref is None
            continue
        num, den, _, _ = experiments._blowup_ratio_terms(
            op, ell, blowup.build_blowup_field(direction, scale, half), False)
        assert math.isclose(ref, num / den, rel_tol=1e-12)
        read += 1
    assert read == sum(spec.nyquist >= 4 * scale for scale in scales) > 0


# Inverse transforms per benchmark spectral call at seed 1: the blowup's
# four scales take three each (the derivative along the last axis, u and
# A(D)u) and read their references, and the cutoff one more; gns_disc's
# and solonnikov's radial fields take one derivative for their gradients.
INVERSIONS = {"inequality_gns_disc": 6, "inequality_korn": 12, "inequality_solonnikov": 12,
              "inequality_strange_r4": 4, "inequality_newton_r3": 12, "blowup": 13,
              "necessity": 0, "duality": 2}


@pytest.mark.parametrize("name", list(INVERSIONS))
def test_inverse_transforms_per_spectral_call(name, tmp_path, monkeypatch):
    from symlab.cli import main
    from symlab.numlab import grid
    from test_spectral_golden import CALLS

    calls = []
    original = grid._invert

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(grid, "_invert", counted)
    assert main(["experiment", *CALLS[name], "--seed", "1", "--no-figure",
                 "--csv", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == INVERSIONS[name]


@pytest.mark.parametrize("op, e, ell, rows", [
    # u = (-x_1, x_0) for e = (1, 0): no swap symmetry, n rows per component.
    (hodge_pair(2, 1).operator, [1, 0], 0, [(1, False, 4)]),
    (laplacian(2).operator, [1], 1, [(1, True, 1)]),
])
def test_gradient_rows_follow_the_witness_symmetry(op, e, ell, rows, monkeypatch):
    # Each gradient of a blowup point: its order, whether it takes the
    # axis-swap sum and how many rows it inverts.
    from symlab.numlab import grid

    inversions, seen = [], []
    invert, measure = grid._invert, experiments.derivative_magnitude

    def counted(*args):
        inversions.append(args[0])
        return invert(*args)

    def derivative(u, order, symmetric=False):
        before = len(inversions)
        mag = measure(u, order, symmetric)
        seen.append((order, symmetric, len(inversions) - before))
        return mag

    monkeypatch.setattr(grid, "_invert", counted)
    monkeypatch.setattr(experiments, "derivative_magnitude", derivative)
    direction = blowup.blowup_direction(op, e, check_ellipticity(op), image_intersection(op, 0))
    experiments._blowup_point(op, ell, 4.0, GridSpec(2, 128, 4.0), direction, 1.0)
    assert seen == rows


def test_blowup_rejects_bad_derivative_order():
    spec = GridSpec(2, 64, 4.0)
    with pytest.raises(ValueError):
        blowup_experiment(laplacian(2).operator, [1], 2, [4], spec)
    with pytest.raises(ValueError):
        blowup_experiment(laplacian(2).operator, [1], -1, [4], spec)


def test_blowup_refuses_gap_equal_dimension():
    # The Laplacian on a plane, measured at its zeroth derivative: the gap
    # k - ell = 2 equals n, the refused borderline.
    spec = GridSpec(2, 64, 4.0)
    op = laplacian(2).operator
    with pytest.raises(ValueError, match="gap"):
        blowup_experiment(op, [1], 0, [4], spec)


def test_hodge_blowup_direction_grows():
    spec = GridSpec(3, 64, 4.0)
    rows, _ = blowup_experiment(
        hodge_pair(3, 1).operator, [0, 0, 0, 1], 0, [2, 4], spec
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


def test_necessity_folds_a_grid_field_once(monkeypatch):
    # dx_bump is held on the grid; it is folded onto the octant once, by
    # ``grid.even_components``, not once per plateau, and every pairing
    # stays the one of the grid field.
    from symlab.numlab import grid, norms
    from symlab.numlab.fields import dx_bump, radial_cutoff_test_function

    spec = GridSpec(2, 512, 40.0)
    exponents = [1.0, 0.5, 0.3333333333333333, 0.25]
    f = dx_bump(spec, sigma=1.0)
    unfolded = [norms.pairing(f, radial_cutoff_test_function(spec, lam)[0]) for lam in exponents]
    folds, fold = [], grid.even_part

    def counted(spec, a):
        folds.append(a.shape)
        return fold(spec, a)

    monkeypatch.setattr(grid, "even_part", counted)
    monkeypatch.setattr(norms, "even_part", counted)
    rows, _ = necessity_experiment("dx_bump", exponents, spec)
    assert folds == [(1, 512, 512)]
    assert [r["pairing"] for r in rows] == unfolded


def test_duality_contrast_small():
    spec = GridSpec(2, 256, 40.0)
    free, _ = duality_experiment("curl-potential", [1.0, 0.5, 0.25], spec, sigma=1.5)
    generic, _ = duality_experiment("generic", [1.0, 0.5, 0.25], spec, sigma=1.5)
    g = [abs(r["ratio"]) for r in generic]
    f = [abs(r["ratio"]) for r in free]
    assert g == sorted(g) and g[-1] > 5 * max(f)
    assert free[0]["constraint_residual_l1"] < 1e-10


@pytest.mark.parametrize("kind, size", [("curl-potential", 512), ("generic", 256)])
def test_duality_holds_five_real_grids(kind, size):
    # Each component is read once, as it is inverted from the potential's
    # spectrum or as its octant holds it: the potential's spectrum, one
    # row's work buffer, its values and the magnitude's accumulator, about
    # 4.7 real grids on the default 512^2 grid, where reading the field's
    # values and magnitude peaked at 9.2.  The generic field's peak (4.6
    # on 256^2) is its divergence, a row of mixed parities built from its
    # real half spectrum.
    spec = GridSpec(2, size, 40.0)
    peak = traced_peak(lambda: duality_experiment(kind, [1.0, 0.5, 0.25], spec, sigma=1.5))
    assert peak <= 5 * 8 * size**2


@pytest.mark.parametrize("kind, inversions", [("curl-potential", 2), ("generic", 1)])
def test_duality_inverts_each_row_once(monkeypatch, kind, inversions):
    # One inversion per component of the curl-potential field, none for the
    # generic field's octant values, and one for its divergence: as many
    # as when the values were read whole.
    from symlab.numlab import grid

    calls = []
    original = grid._invert

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(grid, "_invert", counted)
    duality_experiment(kind, [1.0, 0.5], GridSpec(2, 64, 40.0), sigma=1.5)
    assert len(calls) == inversions


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
    # schedule themselves; each distinct size is measured once, on a grid of
    # the dimension and box that the table states.
    calls = []

    def point(spec, *rest):
        calls.append(spec)
        return {"size": spec.size, "ratio": 1.0 + 1.0 / spec.size}

    _, default, n, box, min_ref = experiments._INEQUALITIES[family]
    monkeypatch.setitem(experiments._INEQUALITIES, family, (point, default, n, box, min_ref))
    rows, _ = inequality_experiment(family)
    assert calls == [GridSpec(n, size, box) for size in distinct]
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


def test_flagged_rows_explain_exit_3(tmp_path, capsys):
    # At scales 4 and 8 the 64-point grid misses the Nyquist margin, and at
    # scale 4 the ratio also moves more than ten percent from its value on
    # the half-resolution grid: the manifest and stderr name every failed flag.
    from symlab.cli import main

    csv_path = tmp_path / "b.csv"
    code = main(["experiment", "blowup", "--op", "catalog:laplacian?n=3", "--e", "1",
                 "--ell", "1", "--grid", "64,4.0", "--lambda", "2,4,8", "--no-figure",
                 "--csv", str(csv_path)])
    assert code == 3
    manifest = json.loads(csv_path.with_suffix(".json").read_text())
    assert manifest["flags"] == [{"row": 1, "failed": ["nyquist_margin_ok", "converged"]},
                                 {"row": 2, "failed": ["nyquist_margin_ok"]}]
    assert capsys.readouterr().err.splitlines() == [
        "blowup: row 1 flagged: nyquist_margin_ok, converged",
        "blowup: row 2 flagged: nyquist_margin_ok",
    ]
    # A run with no flagged row exits 0 with an empty list and says nothing.
    code = main(["experiment", "blowup", "--op", "catalog:laplacian?n=3", "--e", "1",
                 "--ell", "1", "--grid", "64,4.0", "--lambda", "2", "--no-figure",
                 "--csv", str(csv_path)])
    assert code == 0
    assert json.loads(csv_path.with_suffix(".json").read_text())["flags"] == []
    assert capsys.readouterr().err == ""


def test_duality_direction_ignores_round_off():
    # The curl-potential field has round-off component means; perturbing it
    # at that level must not move the pairing direction off component 0.
    # ``mean_component`` sums the even parts on the octant that
    # ``grid.even_components`` gives.
    spec = GridSpec(2, 128, 40.0)
    f = curl_potential_field(spec, sigma=1.5)
    f_l1 = lp_norm(f, 1.0)
    assert mean_component(spec, even_components(f), f_l1) == 0
    rng = np.random.default_rng(0)
    for _ in range(5):
        noise = 1e-14 * np.abs(f.values).max() * rng.standard_normal(f.values.shape)
        noise[1] += 1e-14 * np.abs(f.values).max()  # a round-off mean on component 1
        noisy = even_components(GridField(spec, f.values + noise))
        assert mean_component(spec, noisy, f_l1) == 0
    # A generic field pairs against the component that carries its mass.
    for comps, k in (([1.0, 0.0], 0), ([0.0, 1.0], 1), ([0.1, -1.0], 1)):
        g = gaussian_bump(spec, sigma=1.5, components=comps, normalize_l1=True)
        assert mean_component(spec, even_components(g), lp_norm(g, 1.0)) == k
    # The octant is summed mirrored onto the grid: component 0 sums to 0.75
    # on the octant but integrates to zero, component 1 to 0.5.
    values = np.zeros((2,) + spec.octant_shape)
    values[0, 0, 0], values[0, 1, 1], values[1, 0, 0] = 1.0, -0.25, 0.5
    assert mean_component(spec, values, 1.0) == 1


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
    # Exponents so large that r^(lambda - 1) overflows off the ramp (it
    # used to meet a zero derivative there and give NaN rows).
    ["necessity", "--lambda", "1e200", "--grid", "64,40"],
    ["duality", "--lambda", "1e308"],
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
    # An exponent that would build 10^(10^7) in full.
    ["blowup", "--op", "catalog:laplacian?n=2", "--e", "1e10000000", "--ell", "1"],
    # No grid of dimension 1: the lab's estimates need n >= 2.
    ["blowup", "--op", "catalog:gradient?n=1", "--e", "1", "--ell", "0"],
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


def test_blowup_in_dimension_one_names_the_dimension(tmp_path, capsys):
    # Without --grid the refusal names the operator's dimension, which no
    # --grid can mend, and no grid; a given --grid is named as given.
    from symlab.cli import main

    argv = ["experiment", "blowup", "--op", "catalog:gradient?n=1", "--e", "1", "--ell", "0",
            "--no-figure", "--csv", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "operator of dimension 1" in err and "--grid" not in err and "1024" not in err
    assert main(argv + ["--grid", "64,4"]) == 2
    assert capsys.readouterr().err == (
        "error: bad --grid 64,4 in dimension 1: grid dimension 1 is not between 2 and 4\n")


class Recorder:
    """Stands in for a matplotlib figure or axes: records each method call
    as (name, args, kwargs) and returns None."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args, **kwargs: self.calls.append((name, args, kwargs))


def stub_matplotlib(monkeypatch):
    """Install a stub ``matplotlib`` whose ``pyplot.subplots`` hands out one
    recorded figure and axes; returns them."""
    fig, ax = Recorder(), Recorder()
    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = lambda **kwargs: (fig, ax)
    pyplot.close = lambda figure: None
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.use = lambda backend: None
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    return fig, ax


def plotted(ax):
    [(xs, ys, _)] = [args for name, args, _ in ax.calls if name == "plot"]
    return xs, ys


def test_experiment_figure_is_drawn_beside_its_csv(tmp_path, monkeypatch):
    # With matplotlib, an experiment without --no-figure saves its ratio
    # plot as the CSV's path with .png and names it in the manifest: a
    # blowup against its scales on a log-2 axis, an inequality against the
    # grid sizes.
    from symlab.cli import main

    fig, ax = stub_matplotlib(monkeypatch)
    csv_path = tmp_path / "b.csv"
    main(["experiment", "blowup", "--op", "catalog:laplacian?n=2", "--e", "1", "--ell", "1",
          "--grid", "64,4", "--lambda", "4,8", "--csv", str(csv_path)])
    png = str(tmp_path / "b.png")
    assert json.loads((tmp_path / "b.json").read_text())["figure"] == png
    assert ("savefig", (png,), {"dpi": 130}) in fig.calls
    assert ("set_xscale", ("log",), {"base": 2}) in ax.calls
    assert ("set_xlabel", ("scale",), {}) in ax.calls
    assert plotted(ax)[0] == [4.0, 8.0]

    fig, ax = stub_matplotlib(monkeypatch)
    assert main(["experiment", "inequality", "--family", "korn",
                 "--csv", str(tmp_path / "k.csv")]) == 0
    rows = (tmp_path / "k.csv").read_text().splitlines()
    sizes = [int(line.split(",")[0]) for line in rows[1:]]
    assert rows[0].startswith("size,") and len(sizes) > 1
    assert json.loads((tmp_path / "k.json").read_text())["figure"] == str(tmp_path / "k.png")
    assert plotted(ax)[0] == sizes
    assert ("set_xlabel", ("size",), {}) in ax.calls
    assert not any(name == "set_xscale" for name, _, _ in ax.calls)


def test_experiment_without_matplotlib_names_no_figure(tmp_path, monkeypatch):
    from symlab.cli import main

    monkeypatch.setitem(sys.modules, "matplotlib", None)
    assert main(["experiment", "inequality", "--family", "korn",
                 "--csv", str(tmp_path / "k.csv")]) == 0
    assert "figure" not in json.loads((tmp_path / "k.json").read_text())
    assert not (tmp_path / "k.png").exists()


@pytest.mark.parametrize("e", ["2", "1e300", "1e400", "1e-400"])
def test_blowup_direction_scale_leaves_the_rows(tmp_path, capsys, e):
    # The ratios and tails of e and c e agree; e is measured scaled to a
    # largest |entry| of 1, so an e beyond the float range, or one that
    # underflows it, gives the rows of e = 1 with no traceback.  The
    # manifest keeps e as given.
    from symlab.cli import main

    def run(direction, tag):
        csv_path, json_path = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
        code = main(["experiment", "blowup", "--op", "catalog:laplacian?n=2", "--ell", "1",
                     "--grid", "64,4", "--lambda", "4", "--e", direction, "--no-figure",
                     "--csv", str(csv_path), "--json", str(json_path)])
        return code, csv_path.read_text(), json.loads(json_path.read_text())

    code, rows, manifest = run(e, "scaled")
    assert (code, rows) == run("1", "unit")[:2]
    assert [Fraction(x) for x in manifest["params"]["e"]] == [Fraction(e)]
    # stderr holds the flagged-row lines of the two runs and nothing else.
    flagged = [f"blowup: row {f['row']} flagged: {', '.join(f['failed'])}"
               for f in manifest["flags"]]
    assert flagged and capsys.readouterr().err.splitlines() == flagged * 2
