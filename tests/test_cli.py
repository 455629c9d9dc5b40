"""End-to-end runs of `symlab analyze` and `symlab verify`, forged and
malformed reports, and a mutation test of every certificate kind."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symlab.catalog import regression_instances
from symlab.cli import build_parser, main
from symlab.exact import full_space, kernel_basis, subspace_from_columns
from symlab.io import (
    OperatorFileError,
    matrix_from_json,
    rat_from_str,
    rat_to_str,
    subspace_from_json,
    subspace_to_json,
)

SEED = 1

# verdict key -> (truth key, status meaning True, status meaning False)
TRUTH_KEYS = {
    "ellipticity": ("elliptic", "ELLIPTIC", "NOT_ELLIPTIC"),
    "canceling": ("canceling", "CANCELING", "NOT_CANCELING"),
    "bb_spanning": ("canceling", "SPANS", "DOES_NOT_SPAN"),
    "cocanceling": ("cocanceling", "COCANCELING", "NOT_COCANCELING"),
    "partial": ("partial_holds", "HOLDS", "FAILS"),
}


def uri_of(result) -> str:
    query = "&".join(f"{k}={v}" for k, v in result.params.items())
    return f"catalog:{result.name}" + (f"?{query}" if query else "")


def analyze(tmp_path, uri, *extra):
    path = tmp_path / "report.json"
    code = main(["analyze", uri, "--seed", str(SEED), "--json", str(path), *extra])
    return code, json.loads(path.read_text())


def verify(tmp_path, report):
    path, out = tmp_path / "forged.json", tmp_path / "verified.json"
    path.write_text(json.dumps(report))
    code = main(["verify", str(path), "--json", str(out)])
    return code, (json.loads(out.read_text()) if code != 2 else None)


def test_analyze_then_verify_matches_truth(tmp_path):
    for result in regression_instances():
        uri = uri_of(result)
        extra = ("--as", "constraint") if result.role == "constraint" else ()
        code, report = analyze(tmp_path, uri, *extra)
        verdicts = report["verdicts"]
        assert code == (3 if report["uncertified"] else 0), uri
        # W has one certificate: the partial verdict is derived, and no
        # witness vector repeats a basis column of W.
        if "partial" in verdicts:
            assert set(verdicts["partial"]) == {"status", "certified",
                                                "constrained_intersection"}, uri
        assert "witness" not in verdicts.get("canceling", {}), uri
        assert set(verdicts["cocanceling"]) == {"status", "certified", "joint_kernel",
                                                "block"}, uri
        vcode, checked = verify(tmp_path, report)
        assert vcode == 0 and checked["all_ok"], (uri, checked)
        assert set(checked["verified"]) == set(report["verdicts"]), uri
        for key, doc in verdicts.items():
            if key not in TRUTH_KEYS or not doc["certified"]:
                continue
            truth_key, yes, no = TRUTH_KEYS[key]
            if truth_key in result.truth:
                expected = yes if result.truth[truth_key] else no
                assert doc["status"] == expected, (uri, key)
        assert report["uncertified"] == [], uri
        basis = result.truth.get("joint_kernel_basis")
        if basis is not None:
            kernel = verdicts["cocanceling"]["joint_kernel"]
            got = subspace_from_json(kernel, kernel["ambient"])
            assert got == subspace_from_columns(kernel["ambient"], basis), uri


def test_analyze_reports_stats(tmp_path):
    _code, report = analyze(tmp_path, "catalog:defigueiredo?n=2&m=2")
    stats = report["stats"]
    ell = stats["ellipticity"]
    assert ell["cover_boxes"] == len(report["verdicts"]["ellipticity"]["cover"])
    assert ell["boxes_examined"] >= ell["cover_boxes"] > 4
    assert len(ell["axis_depths"]) == 2 and max(ell["axis_depths"]) > 0
    assert (ell["det_terms"], ell["det_degree"]) == (5, 4)
    canceling = report["verdicts"]["canceling"]
    assert stats["canceling"]["samples"] == len(canceling["samples"])
    assert stats["canceling"]["iterations"] >= 0
    assert stats["canceling"]["witness_degrees"] == []
    _code, report = analyze(tmp_path, "catalog:hodge_pair?n=3&ell=1")
    assert report["stats"]["canceling"]["witness_degrees"] == [1]
    # verify ignores the counters.
    report["stats"] = {"ellipticity": {"boxes_examined": "x"}}
    code, checked = verify(tmp_path, report)
    assert code == 0 and checked["all_ok"]


NO_NUMPY = """
import sys
from symlab.cli import build_parser, main
uri, report, checked, compat = sys.argv[1:]
codes = [main(["analyze", uri, "--json", report]),
         main(["verify", report, "--json", checked]),
         main(["compat", uri, "--json", compat])]
print(codes, "numpy" in sys.modules)
"""


def test_exact_verbs_do_not_import_numpy(tmp_path):
    # pytest has numpy loaded already, so the verbs run in a fresh interpreter.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    files = [str(tmp_path / name) for name in ("report.json", "verified.json", "compat.json")]
    run = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, "catalog:defigueiredo?n=2&m=2", *files],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert run.stdout.strip() == "[0, 0, 0] False"


# ---------------------------------------------------------------------------
# Forged reports: each must be rejected with exit 3.


def test_forged_not_canceling_on_non_elliptic_symbol(tmp_path):
    # The images of this square symbol meet only in 0; a NOT_CANCELING
    # claim without membership witnesses must not pass.
    _code, report = analyze(tmp_path, "catalog:hyperbolic")
    report["verdicts"]["canceling"] = {
        "status": "NOT_CANCELING",
        "certified": True,
        "samples": [],
        "intersection": {"ambient": 2, "dim": 2, "basis_columns": [["1", "0"], ["0", "1"]]},
        "dim_trajectory": [],
    }
    code, checked = verify(tmp_path, report)
    assert code == 3 and checked["all_ok"] is False
    assert checked["verified"]["canceling"] is False


def test_forged_certified_does_not_span(tmp_path):
    _code, report = analyze(tmp_path, "catalog:gradient?n=2")
    # No samples: an empty set of complements spans nothing.
    report["verdicts"]["bb_spanning"] = {
        "status": "DOES_NOT_SPAN", "certified": True, "span_dim": 0, "samples": [],
    }
    code, checked = verify(tmp_path, report)
    assert code == 3 and checked["all_ok"] is False
    assert checked["verified"]["bb_spanning"] is False


def test_forged_partial_fails_without_witness(tmp_path):
    # Without samples the sampled intersection is all of E and meets ker T.
    _code, report = analyze(tmp_path, "catalog:hodge_pair?n=3&ell=1")
    ker_t = kernel_basis(matrix_from_json(report["T"]))
    report["verdicts"]["partial"] = {
        "status": "FAILS",
        "certified": True,
        "samples": [],
        "image_intersection": subspace_to_json(full_space(ker_t.ambient)),
        "constrained_intersection": subspace_to_json(ker_t),
    }
    code, checked = verify(tmp_path, report)
    assert code == 3 and checked["all_ok"] is False
    assert checked["verified"]["partial"] is False


def test_derived_verdicts_need_a_passing_canceling_verdict(tmp_path):
    _code, report = analyze(tmp_path, "catalog:hodge_pair?n=3&ell=1")
    missing = json.loads(json.dumps(report))
    del missing["verdicts"]["canceling"]
    code, checked = verify(tmp_path, missing)
    assert code == 3
    assert checked["verified"]["bb_spanning"] is False
    assert checked["verified"]["partial"] is False
    # Without its memberships the NOT_CANCELING verdict fails, and so do the
    # verdicts derived from it, although they are unchanged.
    del report["verdicts"]["canceling"]["memberships"]
    code, checked = verify(tmp_path, report)
    assert code == 3
    assert checked["verified"] == {"ellipticity": True, "canceling": False,
                                   "bb_spanning": False, "cocanceling": True,
                                   "partial": False}


def test_forged_partial_differs_from_derivation(tmp_path):
    _code, report = analyze(tmp_path, "catalog:hodge_pair?n=3&ell=1")
    assert report["verdicts"]["partial"]["status"] == "HOLDS"
    report["verdicts"]["partial"] = {
        "status": "FAILS_SAMPLED", "certified": False,
        "constrained_intersection": report["verdicts"]["canceling"]["intersection"],
    }
    code, checked = verify(tmp_path, report)
    assert code == 3 and checked["verified"]["partial"] is False
    assert checked["verified"]["canceling"] is True


def test_canceling_relabelled_not_canceling(tmp_path):
    # W = {0} with no memberships must not pass as NOT_CANCELING.
    _code, report = analyze(tmp_path, "catalog:gradient?n=2")
    canceling = report["verdicts"]["canceling"]
    assert canceling["status"] == "CANCELING" and "memberships" not in canceling
    canceling["status"] = "NOT_CANCELING"
    code, checked = verify(tmp_path, report)
    assert code == 3 and checked["verified"]["canceling"] is False
    assert checked["verified"]["bb_spanning"] is False


def test_canceling_report_with_samples_after_zero_verifies(tmp_path):
    # Reports written before the search stopped at W = {0} list every
    # initial sample; verify accepts them, and rejects a cut-short list.
    _code, report = analyze(tmp_path, "catalog:gradient?n=2")
    canceling = report["verdicts"]["canceling"]
    assert canceling["dim_trajectory"][-1] == 0
    samples = list(canceling["samples"])
    canceling["samples"] = samples + [["3", "-7"], ["1", "1"]]
    canceling["dim_trajectory"] += [0, 0]
    code, checked = verify(tmp_path, report)
    assert code == 0 and checked["verified"]["canceling"] is True
    canceling["samples"] = samples[:-1]
    code, checked = verify(tmp_path, report)
    assert code == 3 and checked["verified"]["canceling"] is False


def test_not_canceling_verifies_without_ellipticity_verdict(tmp_path):
    for uri in ("catalog:hodge_pair?n=3&ell=1", "catalog:laplacian?n=2",
                "catalog:saint_venant_k?n=2&k=3"):
        _code, report = analyze(tmp_path, uri)
        assert report["verdicts"]["canceling"]["status"] == "NOT_CANCELING"
        del report["verdicts"]["ellipticity"]
        code, checked = verify(tmp_path, report)
        assert code == 0 and checked["all_ok"], uri


@pytest.mark.parametrize("forge", ["rename", "empty"])
def test_unknown_or_missing_verdicts_are_malformed(tmp_path, capsys, forge):
    # A verdict verify does not know is not skipped, and a report with no
    # verdict does not pass.
    _code, report = analyze(tmp_path, "catalog:gradient?n=2")
    verdicts = report["verdicts"]
    if forge == "rename":
        verdicts["Canceling"] = verdicts.pop("canceling")
    else:
        verdicts.clear()
    code, _ = verify(tmp_path, report)
    assert code == 2
    assert "malformed report" in capsys.readouterr().err


def test_negative_depth_exits_2(tmp_path, capsys):
    assert main(["analyze", "catalog:defigueiredo?n=3&m=2", "--depth", "-1"]) == 2
    assert "--depth" in capsys.readouterr().err
    # Depth 0 keeps the root boxes only, which suffice for the gradient.
    code, report = analyze(tmp_path, "catalog:gradient?n=2", "--depth", "0")
    assert code == 0 and report["depth"] == 0


def test_forged_negative_witness_rejected(tmp_path):
    # u -> -u and p -> -p keep A u = p e, but -|x|^2 is not positive.
    _code, report = analyze(tmp_path, "catalog:laplacian?n=2")
    witness = report["verdicts"]["canceling"]["memberships"][0]
    for poly in witness["u"] + [witness["p"]]:
        for term in poly:
            term[1] = str(-Fraction(term[1]))
    code, checked = verify(tmp_path, report)
    assert code == 3 and checked["verified"]["canceling"] is False


def test_forged_joint_kernel_strict_subspace(tmp_path):
    # S = (1 0 0) kills span{e2, e3}; a report that claims only span{e2}
    # must not pass.
    source = tmp_path / "op.json"
    source.write_text(json.dumps({
        "schema_version": 1, "n": 2, "dimV": 3, "dimE": 1, "order": 1,
        "terms": [{"alpha": [1, 0], "matrix": [["1", "0", "0"]]}],
    }))
    _code, report = analyze(tmp_path, str(source), "--as", "constraint")
    assert verify(tmp_path, report)[0] == 0
    report["verdicts"]["cocanceling"]["joint_kernel"] = subspace_to_json(
        subspace_from_columns(3, [[0, 1, 0]]))
    code, checked = verify(tmp_path, report)
    assert code == 3 and checked["verified"]["cocanceling"] is False


# The stacked coefficients of div in two variables are S = ((0 1), (1 0)),
# and the genuine block is all of S with inverse S.
SWAP = [["0", "1"], ["1", "0"]]
IDENTITY = [["1", "0"], ["0", "1"]]


@pytest.mark.parametrize("block", [
    {"rows": [0, 0], "cols": [0, 1], "inverse": SWAP},       # singular block
    {"rows": [0, 1], "cols": [0, 1], "inverse": IDENTITY},   # wrong inverse
    {"rows": [-1, 0], "cols": [0, 1], "inverse": IDENTITY},  # row -1 would read row 1
    {"rows": [0, 1], "cols": [0, -1], "inverse": SWAP},      # column -1 would read column 1
    {"rows": [0, 2], "cols": [0, 1], "inverse": SWAP},       # row out of range
    {"rows": [], "cols": [], "inverse": []},                 # r + dim K = 0 < dim V
], ids=["singular", "wrong_inverse", "negative_row", "negative_col", "row_out_of_range",
        "rank_too_small"])
def test_forged_cocanceling_block(tmp_path, block):
    _code, report = analyze(tmp_path, "catalog:divergence?n=2", "--as", "constraint")
    assert report["verdicts"]["cocanceling"]["block"] == {
        "rows": [0, 1], "cols": [0, 1], "inverse": SWAP}
    report["verdicts"]["cocanceling"]["block"] = block
    code, checked = verify(tmp_path, report)
    assert code == 3 and checked["verified"]["cocanceling"] is False


@pytest.mark.parametrize("verb", ["analyze", "verify"])
@pytest.mark.parametrize("content", [b'{"n": "\xe9"}', b"[" * 100000],
                         ids=["not_utf8", "nested"])
def test_unreadable_input_exits_2(tmp_path, capsys, verb, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert main([verb, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    # One parser serves every call of the process.
    assert build_parser() is build_parser()
    path = tmp_path / "report.json"
    assert main(["analyze", "catalog:curl_div?n=2", "--as", "constraint",
                 "--json", str(path)]) == 0
    assert json.loads(path.read_text())["mode"] == "constraint"
    assert main(["analyze", "catalog:gradient?n=2", "--json", str(path)]) == 0
    assert json.loads(path.read_text())["mode"] == "operator"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "catalog:gradient?n=2", "--as", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["analyze", "catalog:gradient?n=2", "--seed", "3", "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    assert (report["mode"], report["seed"], report["depth"]) == ("operator", 3, 24)


def test_compat_transcript_states_order_and_rows(tmp_path):
    out = tmp_path / "compat.json"
    assert main(["compat", "catalog:gradient?n=3", "--json", str(out)]) == 0
    transcript = json.loads(out.read_text())["transcript"]
    assert (transcript["order"], transcript["rows"]) == (1, 3)


@pytest.mark.parametrize("uri, code, kernels_match, ranks_full", [
    ("catalog:hyperbolic", 3, False, False),
    ("catalog:curl_div?n=2", 0, True, False),
])
def test_compat_exit_code_follows_kernel_checks(tmp_path, uri, code, kernels_match, ranks_full):
    # The kernel checks concern L and gate the exit code; the rank checks
    # concern A and do not.
    out = tmp_path / "compat.json"
    assert main(["compat", uri, "--json", str(out)]) == code
    transcript = json.loads(out.read_text())["transcript"]
    assert transcript["identity_ok"]
    assert (transcript["kernels_match"], transcript["ranks_full"]) == (kernels_match, ranks_full)


# ---------------------------------------------------------------------------
# Malformed reports: exit 2, never a traceback.


def test_cover_bound_with_three_entries(tmp_path, capsys):
    _code, report = analyze(tmp_path, "catalog:gradient?n=2")
    report["verdicts"]["ellipticity"]["cover"][0]["box"]["bounds"][0].append("0")
    code, _ = verify(tmp_path, report)
    assert code == 2
    assert "malformed report" in capsys.readouterr().err


def test_canceling_without_samples(tmp_path, capsys):
    _code, report = analyze(tmp_path, "catalog:gradient?n=2")
    del report["verdicts"]["canceling"]["samples"]
    code, _ = verify(tmp_path, report)
    assert code == 2
    assert "malformed report" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("p", "junk"), ("p", [[["x"], "1"]]), ("p", [[[0.5, 1.5], "1"]]),
    ("p", [[[0, 2], "1/0"]]), ("u", None),
    ("e", 7), ("cover", [{"box": {"axis": 0}}]),
])
def test_malformed_witness(tmp_path, capsys, field, value):
    _code, report = analyze(tmp_path, "catalog:laplacian?n=2")
    report["verdicts"]["canceling"]["memberships"][0][field] = value
    code, _ = verify(tmp_path, report)
    assert code == 2
    assert "malformed report" in capsys.readouterr().err


def test_deep_rational_error_is_short(tmp_path, capsys):
    # A deeply nested value in place of a rational: exit 2 with a one-line
    # message that shows only the start of the literal.
    _code, report = analyze(tmp_path, "catalog:gradient?n=2")
    report["verdicts"]["cocanceling"]["block"]["inverse"][0][0] = json.loads("[" * 900 + "]" * 900)
    code, _ = verify(tmp_path, report)
    assert code == 2
    err = capsys.readouterr().err
    assert "bad rational literal" in err and len(err) < 200


RATIONAL_LITERALS = ("0", "1", "-1", "16", "-16", "17", "-17", "1/2", "-15/2", "33/2",
                     "2/4", "03", " 7 ", "+3", "-0", "1e2", "0.5", "7/3", 5, 0.25)


def test_rat_from_str_accepts_what_fraction_accepts():
    # The common literals are looked up, the rest parsed: the same values
    # either way, and always a Fraction.
    for literal in RATIONAL_LITERALS:
        value = rat_from_str(literal)
        assert type(value) is Fraction and value == Fraction(str(literal)), literal
    for p in range(-20, 21):
        for q in (1, 2, 3):
            text = rat_to_str(Fraction(p, q))
            assert rat_from_str(text) == Fraction(p, q) and rat_to_str(rat_from_str(text)) == text


def test_huge_exponent_exits_2_quickly(tmp_path, capsys):
    # Fraction would build 10**10000000 from this literal, for seconds.
    huge = "1e10000000"
    with pytest.raises(OperatorFileError):
        rat_from_str(huge)
    _code, report = analyze(tmp_path, "catalog:gradient?n=2")
    report["verdicts"]["ellipticity"]["cover"][0]["box"]["bounds"][0][1] = huge
    start = time.perf_counter()
    code, _ = verify(tmp_path, report)
    assert code == 2 and time.perf_counter() - start < 1.0
    assert "malformed report" in capsys.readouterr().err
    doc = report["operator"]
    doc["terms"][0]["matrix"][0][0] = huge
    path = tmp_path / "operator.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["analyze", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "bad rational literal" in capsys.readouterr().err


def test_rat_from_str_error_is_bounded():
    for literal in ("abc", "1/0", "1/2/3", "", "True", "x" * 100, [1, [2]]):
        with pytest.raises(OperatorFileError) as err:
            rat_from_str(literal)
        text = str(literal)
        shown = text if len(text) <= 40 else text[:40] + "..."
        assert str(err.value) == f"bad rational literal {shown!r}"


# ---------------------------------------------------------------------------
# Mutation test: change one field of a genuine report anywhere under its
# verdicts; verify may accept, reject or call the input malformed, but it
# must never raise.

# One report per certificate kind: ELLIPTIC cover, CANCELING, SPANS and
# COCANCELING block; NOT_CANCELING membership witnesses; NOT_ELLIPTIC
# witness; partial HOLDS; NOT_COCANCELING joint kernel and block.
MUTATION_SOURCES = (
    ("catalog:gradient?n=2",),
    ("catalog:laplacian?n=2",),
    ("catalog:hyperbolic",),
    ("catalog:hodge_pair?n=3&ell=1",),
    ("catalog:curl_div?n=2", "--as", "constraint"),
)

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from(["0", "1", "-1", "1/2", "1/0", "x", "", "ELLIPTIC", "FAILS"]),
    st.lists(st.sampled_from(["0", "1", "-1"]), max_size=4),
    st.lists(st.lists(st.sampled_from(["0", "1"]), max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["status", "bounds", "basis_columns"]),
                    st.integers(0, 2), max_size=2),
)


def paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from paths(child, prefix + (i,))


@pytest.fixture(scope="module")
def genuine_reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reports")
    out = []
    for argv in MUTATION_SOURCES:
        code, report = analyze(tmp, *argv)
        assert verify(tmp, report)[0] == 0
        out.append(report)
    return out


def mutate(report, targets, data) -> None:
    path = data.draw(st.sampled_from(targets))
    parent = report
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(VALUES)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_certificates_never_crash_verify(genuine_reports, tmp_path, data):
    report = json.loads(json.dumps(data.draw(st.sampled_from(genuine_reports))))
    targets = [("T",)] if "T" in report else []
    targets += [("verdicts",) + p for p in paths(report["verdicts"]) if p]
    mutate(report, targets, data)
    code, _ = verify(tmp_path, report)
    assert code in (0, 2, 3)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_witnesses_never_crash_verify(genuine_reports, tmp_path, data):
    # Only the membership witnesses (e, u, p and the cover of p) change.
    witnessed = [r for r in genuine_reports
                 if "memberships" in r["verdicts"].get("canceling", {})]
    report = json.loads(json.dumps(data.draw(st.sampled_from(witnessed))))
    memberships = report["verdicts"]["canceling"]["memberships"]
    targets = [("verdicts", "canceling", "memberships") + p for p in paths(memberships) if p]
    mutate(report, targets, data)
    code, _ = verify(tmp_path, report)
    assert code in (0, 2, 3)
