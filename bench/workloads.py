"""Benchmark workloads: the CLI calls each one makes and the gates that
check every call's output.

Every workload is a closed loop of in-process ``symlab.cli.main`` calls,
one at a time, with every report written to a file.  The benchmark seed is
passed to each call through ``--seed``; the instances themselves are fixed.

Why these instances (measured on 2 cores, CPython 3.11, one thread):

- ``catalog``: analyze + verify on all 31 ``regression_instances()``, the
  real mix of mostly small symbols.  ``defigueiredo(3,2)`` (about 5.5 s
  with verify, 1,314 boxes of cover subdivision) and ``hodge_pair(4,2)``
  (about 2.3 s, mostly its annihilator) dominate; the other 29 instances
  take about 2 s together, so per-call overhead, exact linear algebra and
  JSON I/O also show.
- ``cover``: analyze + verify on ``defigueiredo(3,2)`` (1,314 boxes of
  subdivision) and ``hodge_pair(5,2)`` (10 root boxes, but det(A^T A) has
  1,001 terms of degree 20; its annihilator is skipped by the term budget).
  The ellipticity cover does most of the work.
- ``annihilator``: analyze + verify + compat on ``sym_gradient(4)``,
  ``hodge_pair(4,1)`` and ``split_laplacian(3,1)``.  Their covers certify
  at the root, so the adjugate annihilator and the membership
  certification dominate.
- ``spectral``: the five inequality families, the blowup of the planar
  Laplacian on the default 1024^2 grid, necessity and duality.  FFTs and
  norms dominate; the exact layers do almost nothing.

Left out because a run could not repeat them: ``defigueiredo(3,3)``
(about 29 s with verify), ``defigueiredo(4,2)`` (UNDECIDED after about
84 s at the default depth 24), ``split_laplacian(4,1)`` (about 14 s with
compat) and ``hodge_pair(5,1)`` (about 22 s with compat).  Each can join
once the cover and annihilator layers decide it in seconds.

Known gap: ``hyperbolic`` is truly canceling, but its images drop rank
only on the diagonals, which random samples rarely hit.  For most seeds
analyze reports NOT_CANCELING_SAMPLED and an uncertified DOES_NOT_SPAN.
These lower ``decided_share``; they are not truth mismatches and are
reported on standard error, not hidden.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

WORKLOADS = ("catalog", "cover", "annihilator", "spectral")

# Calibration kernel matching each workload's work (see calibrate.py).
KERNEL = {"catalog": "exact", "cover": "exact", "annihilator": "exact", "spectral": "numeric"}

KNOWN_GAPS = {"catalog:hyperbolic": ("canceling", "bb_spanning")}

# (catalog entry, parameters); annihilator instances also run compat
COVER_INSTANCES = (("defigueiredo", {"n": 3, "m": 2}), ("hodge_pair", {"n": 5, "ell": 2}))
ANNIHILATOR_INSTANCES = (
    ("sym_gradient", {"n": 4}),
    ("hodge_pair", {"n": 4, "ell": 1}),
    ("split_laplacian", {"n": 3, "ell": 1}),
)
INEQUALITY_FAMILIES = ("gns_disc", "korn", "solonnikov", "strange_r4", "newton_r3")

# verdict key in an analyze report -> (truth key, status meaning True, status meaning False)
TRUTH_KEYS = {
    "ellipticity": ("elliptic", "ELLIPTIC", "NOT_ELLIPTIC"),
    "canceling": ("canceling", "CANCELING", "NOT_CANCELING"),
    "cocanceling": ("cocanceling", "COCANCELING", "NOT_COCANCELING"),
    "partial": ("partial_holds", "HOLDS", "FAILS"),
}


@dataclass
class Outcome:
    """What the gate of one call found."""

    failed: bool = False
    reason: str = ""
    mismatches: int = 0      # certified verdicts contradicting the truth table
    conclusive: int = 0      # certified verdicts plus unflagged experiment rows
    outcomes: int = 0        # verdicts plus experiment rows
    flagged_rows: int = 0
    uncertified: list = field(default_factory=list)

    def fail(self, reason: str) -> "Outcome":
        self.failed = True
        self.reason = self.reason or reason
        return self


@dataclass
class Call:
    """One CLI call: ``argv`` goes to ``symlab.cli.main``; ``check`` reads
    the exit code and the files the call wrote."""

    verb: str
    instance: str
    argv: list
    outputs: list            # files removed before the call, so none is stale
    check: Callable[[int], Outcome]


def prepare(workload: str, seed: int, outdir: str) -> list:
    """Set-up before the first call: import the package and build the calls."""
    import symlab.cli  # noqa: F401
    import symlab.compat  # noqa: F401
    import symlab.deciders  # noqa: F401
    import symlab.io  # noqa: F401

    if workload == "spectral":
        import symlab.numlab  # noqa: F401
    return build_calls(workload, seed, outdir)


def catalog_uri(result) -> str:
    query = "&".join(f"{k}={v}" for k, v in result.params.items())
    return f"catalog:{result.name}" + (f"?{query}" if query else "")


def build_calls(workload: str, seed: int, outdir: str) -> list:
    """The calls of one pass of ``workload``, writing into ``outdir``."""
    from symlab.catalog import catalog_get, regression_instances

    calls: list = []

    def path(suffix: str) -> str:
        return os.path.join(outdir, f"{len(calls):03d}{suffix}")

    def analyze_verify(result, role: str) -> None:
        uri = catalog_uri(result)
        report = path(".json")
        argv = ["analyze", uri, "--seed", str(seed), "--json", report]
        if role == "constraint":
            argv += ["--as", "constraint"]
        calls.append(Call("analyze", uri, argv, [report],
                          lambda code: check_analyze(code, report, result.truth)))
        checked = path(".json")
        calls.append(Call("verify", uri, ["verify", report, "--json", checked], [checked],
                          lambda code: check_verify(code, checked)))

    if workload == "catalog":
        for result in regression_instances():
            analyze_verify(result, result.role)
    elif workload in ("cover", "annihilator"):
        instances = COVER_INSTANCES if workload == "cover" else ANNIHILATOR_INSTANCES
        for name, params in instances:
            result = catalog_get(name, **params)
            analyze_verify(result, result.role)
            if workload == "annihilator":
                uri = catalog_uri(result)
                out = path(".json")
                calls.append(Call("compat", uri,
                                  ["compat", uri, "--seed", str(seed), "--json", out], [out],
                                  lambda code, out=out: check_compat(code, out)))
    elif workload == "spectral":
        experiments = [("inequality", ["--family", fam]) for fam in INEQUALITY_FAMILIES]
        experiments += [
            ("blowup", ["--op", "catalog:laplacian?n=2", "--e", "1", "--ell", "1"]),
            ("necessity", []),
            ("duality", []),
        ]
        for kind, extra in experiments:
            csv_path, json_path = path(".csv"), path(".json")
            label = " ".join([kind] + extra)
            argv = ["experiment", kind, *extra, "--seed", str(seed), "--no-figure",
                    "--csv", csv_path, "--json", json_path]
            calls.append(Call("experiment", label, argv, [csv_path, json_path],
                              lambda code, k=kind, c=csv_path, j=json_path:
                              check_experiment(code, k, c, j)))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return calls


# ---------------------------------------------------------------------------
# Gates


def _load(path: str) -> Optional[dict]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def _rank(vectors: list) -> int:
    """Rank of rational vectors by exact Gaussian elimination."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def same_span(a: list, b: list) -> bool:
    ra, rb = _rank(a), _rank(b)
    return ra == rb and _rank(list(a) + list(b)) == ra


def check_analyze(code: int, report_path: str, truth: dict) -> Outcome:
    """Exit code matches the uncertified list, and every certified verdict
    agrees with the catalog truth (including the joint kernel basis)."""
    out = Outcome()
    if code not in (0, 3):
        return out.fail(f"analyze exited {code}")
    report = _load(report_path)
    if report is None or not isinstance(report.get("verdicts"), dict):
        return out.fail("analyze wrote no readable report")
    verdicts = report["verdicts"]
    uncertified = report.get("uncertified")
    if not isinstance(uncertified, list) or (code == 3) != bool(uncertified):
        return out.fail(f"exit {code} disagrees with uncertified list {uncertified!r}")
    for key, doc in verdicts.items():
        if not isinstance(doc, dict) or "certified" not in doc:
            continue  # the annihilator entry carries no verdict
        out.outcomes += 1
        if not doc["certified"]:
            out.uncertified.append(key)
            continue
        out.conclusive += 1
        if key not in TRUTH_KEYS:
            continue
        truth_key, yes, no = TRUTH_KEYS[key]
        expected = truth.get(truth_key)
        if expected is None:
            continue
        if doc.get("status") != (yes if expected else no):
            out.mismatches += 1
    basis = truth.get("joint_kernel_basis")
    cc = verdicts.get("cocanceling")
    if basis is not None and isinstance(cc, dict):
        got = cc.get("joint_kernel", {}).get("basis_columns", [])
        try:
            agrees = same_span(got, [list(v) for v in basis])
        except (ValueError, ZeroDivisionError, TypeError, IndexError):
            agrees = False
        if not agrees:
            out.mismatches += 1
    if out.mismatches:
        out.fail(f"{out.mismatches} certified verdict(s) contradict the truth table")
    return out


def check_verify(code: int, path: str) -> Outcome:
    out = Outcome()
    doc = _load(path)
    if code != 0 or doc is None:
        return out.fail(f"verify exited {code}")
    results = doc.get("verified")
    if doc.get("all_ok") is not True or not isinstance(results, dict) or not all(results.values()):
        return out.fail(f"verify rejected the report: {results!r}")
    return out


def check_compat(code: int, path: str) -> Outcome:
    out = Outcome()
    doc = _load(path)
    if code != 0 or doc is None:
        return out.fail(f"compat exited {code}")
    transcript = doc.get("transcript", {})
    for key in ("identity_ok", "kernels_match", "ranks_full"):
        if transcript.get(key) is not True:
            return out.fail(f"compat transcript has {key} = {transcript.get(key)!r}")
    if not isinstance(doc.get("annihilator", {}).get("terms"), list):
        return out.fail("compat wrote no annihilator")
    return out


def _row_flagged(kind: str, row: dict) -> bool:
    """The CLI's own flag rule for each experiment kind."""
    if kind == "blowup":
        return row["converged"] != "1" or row["nyquist_margin_ok"] != "1"
    if kind == "inequality":
        return row.get("converged", "1") != "1"
    if kind == "necessity":
        return float(row["scale_err"]) > 0.02
    return False


def check_experiment(code: int, kind: str, csv_path: str, json_path: str) -> Outcome:
    """Rows exist with finite ratios; flagged rows match exit code 3."""
    out = Outcome()
    if code not in (0, 3):
        return out.fail(f"experiment exited {code}")
    manifest = _load(json_path)
    if manifest is None or not str(manifest.get("kind", "")).startswith(kind):
        return out.fail("experiment wrote no manifest")
    try:
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        finite = all(math.isfinite(float(r["ratio"])) for r in rows)
        flagged = sum(_row_flagged(kind, r) for r in rows)
    except (OSError, KeyError, ValueError) as exc:
        return out.fail(f"experiment CSV unreadable: {exc}")
    if not rows or not finite:
        return out.fail("experiment CSV has no rows or a non-finite ratio")
    if (code == 3) != (flagged > 0):
        return out.fail(f"exit {code} disagrees with {flagged} flagged row(s)")
    out.outcomes = len(rows)
    out.conclusive = len(rows) - flagged
    out.flagged_rows = flagged
    return out
