"""End-to-end runs of `symlab analyze` and `symlab verify`, forged and
malformed reports, and a mutation test of every certificate kind."""

import hashlib
import importlib
import json
import os
import random
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
    operator_digest,
    operator_from_json,
    polynomial_from_json,
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
    # Two witnesses with q = |x|^2, each covered by its two root boxes; no
    # determinant is formed.
    assert ell["witness_degrees"] == [1, 1]
    assert ell["cover_boxes"] == len(report["verdicts"]["ellipticity"]["cover"]) == 4
    assert ell["boxes_examined"] == 4 and ell["axis_depths"] == [0, 0]
    assert (ell["det_terms"], ell["det_degree"]) == (0, 0)
    canceling = report["verdicts"]["canceling"]
    assert stats["canceling"]["samples"] == len(canceling["samples"])
    assert stats["canceling"]["iterations"] >= 0
    assert stats["canceling"]["witness_degrees"] == []
    _code, report = analyze(tmp_path, "catalog:hodge_pair?n=3&ell=1")
    assert report["stats"]["canceling"]["witness_degrees"] == [1]
    # q = det(A^T A) at s = 2k dim V - k, its cover searched once.
    _code, report = analyze(tmp_path, "catalog:quadratic_collection?n=3&m=2")
    ell = report["stats"]["ellipticity"]
    assert ell["witness_degrees"] == [6, 6] and (ell["det_terms"], ell["det_degree"]) == (15, 8)
    assert ell["cover_boxes"] == 2 * ell["boxes_examined"]
    # verify ignores the counters.
    report["stats"] = {"ellipticity": {"boxes_examined": "x"}}
    code, checked = verify(tmp_path, report)
    assert code == 0 and checked["all_ok"]


def fresh_interpreter(code: str, *argv: str) -> str:
    """The stdout of ``code`` run in a new interpreter that imports symlab
    from this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return run.stdout.strip()


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
    files = [str(tmp_path / name) for name in ("report.json", "verified.json", "compat.json")]
    assert (fresh_interpreter(NO_NUMPY, "catalog:defigueiredo?n=2&m=2", *files)
            == "[0, 0, 0] False")


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
    t = matrix_from_json(report["T"])
    ker_t = kernel_basis(t, len(t[0]))
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


def test_forged_dim_trajectory_rejected(tmp_path):
    # The trajectory is the dimension of the sampled intersection after each
    # sample; verify recomputes it.
    _code, report = analyze(tmp_path, "catalog:sym_gradient?n=3")
    canceling = report["verdicts"]["canceling"]
    assert canceling["dim_trajectory"] == [3, 1, 0]
    canceling["dim_trajectory"] = [5, 4, 3]
    code, checked = verify(tmp_path, report)
    assert code == 3 and checked["verified"]["canceling"] is False
    canceling["dim_trajectory"] = [3, 1]
    code, checked = verify(tmp_path, report)
    assert code == 3 and checked["verified"]["canceling"] is False


@pytest.mark.parametrize("source, subspace, change", [
    (("catalog:curl_div?n=2", "--as", "constraint"), ("cocanceling", "joint_kernel"),
     {"dim": 7, "ambient": 99}),
    (("catalog:curl_div?n=2", "--as", "constraint"), ("cocanceling", "joint_kernel"),
     {"ambient": 5}),
    (("catalog:gradient?n=3",), ("canceling", "intersection"), {"dim": 2}),
    (("catalog:hodge_pair?n=3&ell=1",), ("partial", "constrained_intersection"), {"dim": 3}),
    # Two equal columns and their stated count, for a line.
    (("catalog:hodge_pair?n=3&ell=1",), ("canceling", "intersection"),
     {"dim": 2, "basis_columns": [["0", "0", "0", "1"]] * 2}),
    # Equal to the true values under ==, but not JSON integers.
    (("catalog:hodge_pair?n=3&ell=1",), ("canceling", "intersection"), {"dim": True}),
    (("catalog:hodge_pair?n=3&ell=1",), ("canceling", "intersection"), {"ambient": 4.0}),
], ids=["curl_div_dim_and_ambient", "curl_div_ambient", "gradient_dim", "hodge_partial_dim",
        "hodge_repeated_column", "hodge_dim_true", "hodge_ambient_float"])
def test_forged_subspace_shape_is_malformed(tmp_path, capsys, source, subspace, change):
    _code, report = analyze(tmp_path, *source)
    assert verify(tmp_path, report)[0] == 0
    key, field = subspace
    report["verdicts"][key][field].update(change)
    code, _ = verify(tmp_path, report)
    assert code == 2 and "malformed report" in capsys.readouterr().err


def _forge_trajectory(verdicts):
    canceling = verdicts["canceling"]
    canceling["dim_trajectory"] = [float(d) for d in canceling["dim_trajectory"]]


def _forge_spanning(key, value):
    def forge(verdicts):
        verdicts["bb_spanning"][key] = value
    return forge


def _forge_axis(verdicts):
    box = verdicts["canceling"]["memberships"][0]["cover"][0]["box"]
    assert box["axis"] == 0
    box["axis"] = 0.5


def _forge_repeated_term(verdicts):
    p = verdicts["canceling"]["memberships"][0]["p"]
    p.append(list(p[0]))


@pytest.mark.parametrize("forge", [
    _forge_spanning("span_dim", 3.0),
    _forge_spanning("certified", 1),
    _forge_trajectory,
    _forge_axis,
    _forge_repeated_term,
], ids=["span_dim_float", "certified_one", "trajectory_floats", "axis_half",
        "repeated_monomial"])
def test_forged_number_types_are_malformed(tmp_path, capsys, forge):
    # Each edit keeps the genuine values under == (the repeated monomial
    # too, as a dict), so only the decoder's type checks can refuse it.
    _code, report = analyze(tmp_path, "catalog:hodge_pair?n=3&ell=1")
    assert verify(tmp_path, report)[0] == 0
    forge(report["verdicts"])
    code, _ = verify(tmp_path, report)
    assert code == 2 and "malformed report" in capsys.readouterr().err


def test_operator_file_with_t_round_trip(tmp_path, capsys):
    # The emitted file carries T, which analyze reads and copies into the
    # report, and verify reads back from the report.
    source = tmp_path / "hodge.json"
    assert main(["catalog", "emit", "hodge_pair?n=3&ell=1", "--json", str(source)]) == 0
    doc = json.loads(source.read_text())
    assert doc["T"] == [["0", "0", "0", "1"]]
    code, report = analyze(tmp_path, str(source))
    assert code == 0 and report["T"] == doc["T"]
    partial = report["verdicts"]["partial"]
    assert partial["status"] == "HOLDS" and partial["certified"] is True
    code, checked = verify(tmp_path, report)
    assert code == 0 and checked["all_ok"] and checked["verified"]["partial"] is True
    capsys.readouterr()
    source.write_text(json.dumps({**doc, "T": [["0", "0", "1"]]}))
    assert main(["analyze", str(source)]) == 2
    assert "T has 3 columns, expected 4" in capsys.readouterr().err


def test_cofactor_witness_round_trip(tmp_path):
    # hodge_pair(3,1) with its xi_0 terms halved: |x|^(s+1) witnesses no
    # vector of W, and p = det(A^T A) does, with s = 5.
    source = Path(__file__).parent / "data" / "anisotropic_hodge_pair.json"
    op = operator_from_json(json.loads(source.read_text()))[0]
    code, report = analyze(tmp_path, str(source))
    canceling = report["verdicts"]["canceling"]
    assert code == 0 and canceling["status"] == "NOT_CANCELING" and canceling["certified"]
    [witness] = canceling["memberships"]
    assert polynomial_from_json(witness["p"], op.n) == op.gram().det()
    assert report["stats"]["canceling"]["witness_degrees"] == [5]
    code, checked = verify(tmp_path, report)
    assert code == 0 and checked["all_ok"]
    term = witness["u"][0][0]
    term[1] = str(Fraction(term[1]) + 1)
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


def test_input_digest_covers_t(tmp_path):
    # A report without T keeps the digest of its operator document alone.
    _code, report = analyze(tmp_path, "catalog:gradient?n=2")
    assert report["input"]["digest"] == operator_digest(report["operator"]) == "3f4c4082129da5a6"
    # Two hodge_pair(3,1) files that differ only in T get different digests.
    source = tmp_path / "hodge_pair.json"
    assert main(["catalog", "emit", "hodge_pair?n=3&ell=1", "--json", str(source)]) == 0
    doc = json.loads(source.read_text())
    digests = []
    for t in ([["0", "0", "0", "1"]], [["0", "0", "1", "0"]]):
        source.write_text(json.dumps(dict(doc, T=t)))
        _code, report = analyze(tmp_path, str(source))
        assert report["T"] == t
        digests.append(report["input"]["digest"])
    assert digests[0] != digests[1]
    assert operator_digest(report["operator"]) not in digests


def sha256_digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def test_every_writer_digests_by_sha256(tmp_path):
    # analyze without T digests the operator document alone.
    _code, report = analyze(tmp_path, "catalog:gradient?n=2")
    gradient_doc = report["operator"]
    assert report["input"]["digest"] == sha256_digest(gradient_doc)
    # analyze with T digests the operator and T together.
    source = tmp_path / "hodge_pair.json"
    assert main(["catalog", "emit", "hodge_pair?n=3&ell=1", "--json", str(source)]) == 0
    _code, report = analyze(tmp_path, str(source))
    assert report["T"] == [["0", "0", "0", "1"]]
    assert report["input"]["digest"] == sha256_digest(
        {"operator": report["operator"], "T": report["T"]})
    # The annihilator names the operator it annihilates.
    out = tmp_path / "compat.json"
    assert main(["compat", "catalog:gradient?n=2", "--json", str(out)]) == 0
    compat = json.loads(out.read_text())
    assert compat["annihilator"]["metadata"]["annihilates"] == sha256_digest(gradient_doc)
    assert compat["input"]["digest"] == sha256_digest(gradient_doc)
    # The blowup manifest names its operator.
    _code, report = analyze(tmp_path, "catalog:laplacian?n=2")
    csv_path = tmp_path / "blowup.csv"
    assert main(["experiment", "blowup", "--op", "catalog:laplacian?n=2", "--e", "1", "--ell",
                 "1", "--grid", "64,4.0", "--lambda", "2", "--no-figure",
                 "--csv", str(csv_path)]) == 0
    manifest = json.loads(csv_path.with_suffix(".json").read_text())
    assert manifest["operator_digest"] == sha256_digest(report["operator"])


SHA256_FALLBACK = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from symlab import io
from symlab.catalog import gradient
print(io.sha256 is hashlib.sha256, io.operator_digest(io.operator_to_json(gradient(2).operator)))
"""


def test_digest_without_builtin_sha256_falls_back_to_hashlib():
    # An interpreter without CPython's built-in SHA-256 module takes
    # hashlib's, and every digest stays as pinned.
    assert fresh_interpreter(SHA256_FALLBACK) == "True 3f4c4082129da5a6"


NO_OPENSSL = """
import sys
before = set(sys.modules)
from symlab.cli import main
out = sys.argv[1]
codes = [main(["analyze", "catalog:gradient?n=2", "--json", out + "/report.json"]),
         main(["verify", out + "/report.json", "--json", out + "/verified.json"]),
         main(["compat", "catalog:gradient?n=2", "--json", out + "/compat.json"]),
         main(["experiment", "blowup", "--op", "catalog:laplacian?n=2", "--e", "1",
               "--ell", "1", "--grid", "64,4.0", "--lambda", "2", "--no-figure",
               "--csv", out + "/blowup.csv"])]
print(codes, "_hashlib" in set(sys.modules) - before)
"""


def _builtin_sha256() -> bool:
    for name in ("_sha2", "_sha256"):
        try:
            importlib.import_module(name)
            return True
        except ImportError:
            pass
    return False


@pytest.mark.skipif(not _builtin_sha256(), reason="no built-in SHA-256 module")
def test_no_verb_loads_openssl(tmp_path):
    # Snapshot the modules before symlab is imported, so that whatever the
    # interpreter's site hooks load is left out.
    assert fresh_interpreter(NO_OPENSSL, str(tmp_path)) == "[0, 0, 0, 0] False"


def test_depth_option_is_gone(capsys):
    # Every positivity search runs under one fixed budget: analyze takes no
    # depth, and argparse refuses the option with exit code 2.
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "catalog:gradient?n=2", "--depth", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --depth 3" in capsys.readouterr().err


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
        "schema_version": 2, "n": 2, "dimV": 3, "dimE": 1, "order": 1,
        "terms": [[[1, 0], 0, 0, "1"]],
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
    assert (report["mode"], report["seed"]) == ("operator", 3) and "depth" not in report


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


@pytest.mark.parametrize("field, value, code, message", [
    ("witness_xi", ["-1"], 2, "frequency dimension mismatch"),
    ("witness_xi", ["-1", "1", "1"], 2, "frequency dimension mismatch"),
    ("witness_v", ["1", "-1", "0"], 2, "vector length mismatch"),
    ("witness_v", [], 3, None),
    ("witness_xi", [], 3, None),
], ids=["xi_short", "xi_long", "v_long", "v_empty", "xi_empty"])
def test_forged_not_elliptic_witness_shape(tmp_path, capsys, field, value, code, message):
    # A(xi) v = 0 at xi = (-1, 1), v = (1, -1).  A longer v with a zero
    # appended is no witness for this 2 x 2 symbol; an empty vector is zero.
    _code, report = analyze(tmp_path, "catalog:hyperbolic")
    witness = report["verdicts"]["ellipticity"]
    assert (witness["status"], witness["witness_xi"], witness["witness_v"]) == (
        "NOT_ELLIPTIC", ["-1", "1"], ["1", "-1"])
    witness[field] = value
    got, checked = verify(tmp_path, report)
    assert got == code
    if message is None:
        assert checked["verified"]["ellipticity"] is False
    else:
        assert message in capsys.readouterr().err


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
    doc["terms"][0][3] = huge
    path = tmp_path / "operator.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["analyze", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "bad rational literal" in capsys.readouterr().err


# xi_0 e_0 + xi_1 e_1: the gradient on R^2, to which each case adds one entry.
GRADIENT_FILE = {"schema_version": 2, "n": 2, "dimV": 1, "dimE": 2, "order": 1,
                 "terms": [[[0, 1], 1, 0, "1"], [[1, 0], 0, 0, "1"]]}


@pytest.mark.parametrize("entry, message", [
    (["1"], "terms[2] must be [alpha, row, col, value]"),
    ({"alpha": [1, 0], "matrix": [["1"], ["0"]]}, "terms[2] must be [alpha, row, col, value]"),
    ([[1], 0, 0, "1"], "bad multi-index (1,)"),
    ([[1.0, 0], 0, 0, "1"], "terms[2] alpha must be an array of integers"),
    ([[2, 0], 0, 0, "1"], "multi-index (2, 0) does not have degree 1"),
    ([[1, 0], 2, 0, "1"], "entry (2, 0) outside a 2 x 1 matrix"),
    ([[1, 0], 0, -1, "1"], "entry (0, -1) outside a 2 x 1 matrix"),
    ([[1, 0], "1", 0, "1"], "terms[2] row and col must be integers"),
    ([[1, 0], 1, 0.0, "1"], "terms[2] row and col must be integers"),
    ([[1, 0], 1, 0, "0"], "terms[2] is zero"),
    ([[1, 0], 1, 0, "1/0"], "bad rational literal '1/0'"),
    ([[1, 0], 1, 0, "1e10000000"], "bad rational literal '1e10000000'"),
    ([[1, 0], 0, 0, "2"], "terms[2] repeats the entry [1, 0], 0, 0"),
], ids=["short", "schema_1_term", "alpha_length", "alpha_float", "alpha_degree", "row_range",
        "col_negative", "row_string", "col_float", "zero", "bad_literal", "huge_exponent",
        "duplicate"])
def test_operator_file_refusal_exits_2(tmp_path, capsys, entry, message):
    path = tmp_path / "operator.json"
    path.write_text(json.dumps({**GRADIENT_FILE, "terms": GRADIENT_FILE["terms"] + [entry]}))
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1


def test_schema_1_operator_file_exits_2(tmp_path, capsys):
    path = tmp_path / "operator.json"
    path.write_text(json.dumps({"schema_version": 1, "n": 1, "dimV": 1, "dimE": 1, "order": 1,
                                "terms": [{"alpha": [1], "matrix": [["1"]]}]}))
    assert main(["analyze", str(path)]) == 2
    assert "unsupported schema_version 1" in capsys.readouterr().err


def dense_two_term_operator(dim):
    """The operator file of xi_0 I + xi_1 M on Q^dim, M drawn from {-1, 0, 1}
    by random.Random(1): det(A^T A) takes about 2.2 times more coefficient
    products per added dimension, 10 million at dim 16."""
    rng = random.Random(1)
    m = [[rng.choice((-1, 0, 1)) for _ in range(dim)] for _ in range(dim)]
    terms = [[[0, 1], i, j, str(x)] for i, row in enumerate(m) for j, x in enumerate(row) if x]
    terms += [[[1, 0], i, i, "1"] for i in range(dim)]
    return {"schema_version": 2, "n": 2, "dimV": dim, "dimE": dim, "order": 1, "terms": terms}


def test_gram_determinant_over_budget_exits_3_quickly(tmp_path):
    path = tmp_path / "dense24.json"
    path.write_text(json.dumps(dense_two_term_operator(24)))
    start = time.perf_counter()
    code, report = analyze(tmp_path, str(path))
    assert code == 3 and time.perf_counter() - start < 10.0
    v = report["verdicts"]["ellipticity"]
    assert v["status"] == "UNDECIDED" and v["certified"] is False
    assert v["reason"].startswith("det(A^T A): the determinant of a 24 x 24 matrix needs more")
    # A forged ELLIPTIC verdict without witnesses is rejected, and verify
    # forms no determinant.
    report["verdicts"]["ellipticity"] = {"status": "ELLIPTIC", "certified": True,
                                         "memberships": [], "cover": []}
    start = time.perf_counter()
    code, checked = verify(tmp_path, report)
    assert code == 3 and checked["verified"]["ellipticity"] is False
    assert time.perf_counter() - start < 10.0


def test_zero_cone_undecided_names_the_depth_limit(tmp_path):
    # tests/data/zero_cone.json, x_0^2 - 2 x_1^2, vanishes only at irrational
    # directions.
    path = Path(__file__).parent / "data" / "zero_cone.json"
    code, report = analyze(tmp_path, str(path))
    v = report["verdicts"]["ellipticity"]
    assert code == 3 and v["status"] == "UNDECIDED" and v["depth_reached"] == 24
    assert v["reason"] == ("the search for zeros of det(A^T A) reached the depth limit of 24 "
                           "bisections per axis after 37 boxes, with neither a cover nor a zero")
    assert report["stats"]["ellipticity"]["boxes_examined"] == 37
    code, checked = verify(tmp_path, report)
    assert code == 0 and checked["all_ok"] is True


def test_rat_from_str_error_is_bounded():
    for literal in ("abc", "1/0", "1/2/3", "", "True", "x" * 100, [1, [2]]):
        with pytest.raises(OperatorFileError) as err:
            rat_from_str(literal)
        text = str(literal)
        shown = text if len(text) <= 40 else text[:40] + "..."
        assert str(err.value) == f"bad rational literal {shown!r}"


# ---------------------------------------------------------------------------
# An output path that cannot be written: exit 2 with one line.


@pytest.mark.parametrize("argv", [
    ["analyze", "catalog:gradient?n=2", "--json", "{bad}"],
    ["verify", "{report}", "--json", "{bad}"],
    ["compat", "catalog:gradient?n=2", "--json", "{bad}"],
    ["catalog", "emit", "gradient?n=2", "--json", "{bad}"],
    ["experiment", "necessity", "--grid", "32,10", "--no-figure", "--csv", "{bad}"],
    ["experiment", "necessity", "--grid", "32,10", "--no-figure", "--csv", "{csv}",
     "--json", "{bad}"],
], ids=["analyze", "verify", "compat", "catalog", "experiment_csv", "experiment_json"])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    bad = tmp_path / "missing" / "out"
    report = tmp_path / "report.json"
    assert main(["analyze", "catalog:gradient?n=2", "--json", str(report)]) == 0
    names = {"bad": bad, "report": report, "csv": tmp_path / "rows.csv"}
    assert main([arg.format(**names) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: cannot write {bad}: No such file or directory\n"
    assert not bad.exists()


# ---------------------------------------------------------------------------
# Mutation test: change one field of a genuine report anywhere under its
# verdicts; verify may accept, reject or call the input malformed, but it
# must never raise.

# One report per certificate kind: ELLIPTIC witnesses, CANCELING, SPANS and
# COCANCELING block; NOT_CANCELING membership witnesses; NOT_ELLIPTIC
# witness; partial HOLDS; NOT_COCANCELING joint kernel and block.
MUTATION_SOURCES = (
    ("catalog:gradient?n=2",),
    ("catalog:laplacian?n=2",),
    ("catalog:hyperbolic",),
    ("catalog:hodge_pair?n=3&ell=1",),
    ("catalog:curl_div?n=2", "--as", "constraint"),
    ("catalog:sym_gradient?n=2",),
    ("catalog:split_laplacian?n=3&ell=1",),
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


def assert_sound(code, report, genuine) -> None:
    """verify never crashes, and a mutated report it accepts states every
    verdict with its genuine status."""
    assert code in (0, 2, 3)
    if code == 0:
        for key, doc in report["verdicts"].items():
            assert doc["status"] == genuine["verdicts"][key]["status"], key


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
    genuine = data.draw(st.sampled_from(genuine_reports))
    report = json.loads(json.dumps(genuine))
    targets = [("T",)] if "T" in report else []
    targets += [("verdicts",) + p for p in paths(report["verdicts"]) if p]
    mutate(report, targets, data)
    code, _ = verify(tmp_path, report)
    assert_sound(code, report, genuine)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_witnesses_never_crash_verify(genuine_reports, tmp_path, data):
    # Only the membership witnesses (e, u, p and the cover of p) change, of
    # a NOT_CANCELING or an ELLIPTIC verdict.
    witnessed = [(r, key) for r in genuine_reports for key in ("canceling", "ellipticity")
                 if "memberships" in r["verdicts"].get(key, {})]
    genuine, key = data.draw(st.sampled_from(witnessed))
    report = json.loads(json.dumps(genuine))
    memberships = report["verdicts"][key]["memberships"]
    targets = [("verdicts", key, "memberships") + p for p in paths(memberships) if p]
    mutate(report, targets, data)
    code, _ = verify(tmp_path, report)
    assert_sound(code, report, genuine)
