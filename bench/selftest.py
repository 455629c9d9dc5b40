"""Self-test of the benchmark's gates: a forged report and a wrong truth
entry must each fail their gate, and the untouched ones must pass.  The
benchmark runs it before measuring; it also runs alone:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from fractions import Fraction


def run(outdir: str) -> list:
    """Problems found; an empty list means every gate behaves."""
    from symlab.catalog import curl_div, gradient
    from symlab.cli import main

    import workloads

    problems = []

    def cli(*argv) -> int:
        try:
            return main(list(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2

    op = gradient(2)
    report = os.path.join(outdir, "selftest-analyze.json")
    checked = os.path.join(outdir, "selftest-verify.json")
    code = cli("analyze", "catalog:gradient?n=2", "--json", report)
    if workloads.check_analyze(code, report, op.truth).failed:
        problems.append("analyze gate rejects a correct report")
    wrong = dict(op.truth, elliptic=not op.truth["elliptic"])
    if not workloads.check_analyze(code, report, wrong).failed:
        problems.append("analyze gate accepts a verdict that contradicts the truth table")
    if workloads.check_verify(cli("verify", report, "--json", checked), checked).failed:
        problems.append("verify gate rejects an untouched report")

    with open(report) as fh:
        doc = json.load(fh)
    bounds = doc["verdicts"]["ellipticity"]["cover"][0]["box"]["bounds"][0]
    lo, hi = (Fraction(x) for x in bounds)
    bounds[1] = str((lo + hi) / 2)
    with open(report, "w") as fh:
        json.dump(doc, fh)
    if not workloads.check_verify(cli("verify", report, "--json", checked), checked).failed:
        problems.append("verify gate accepts a report with a tampered cover bound")

    constraint = curl_div(2)
    report = os.path.join(outdir, "selftest-constraint.json")
    code = cli("analyze", "catalog:curl_div?n=2", "--as", "constraint", "--json", report)
    if workloads.check_analyze(code, report, constraint.truth).failed:
        problems.append("analyze gate rejects a correct joint kernel")
    n = len(constraint.truth["joint_kernel_basis"][0])
    wrong = dict(constraint.truth, joint_kernel_basis=[[1] + [0] * (n - 1)])
    if not workloads.check_analyze(code, report, wrong).failed:
        problems.append("analyze gate accepts a joint kernel that contradicts the truth table")
    return problems


if __name__ == "__main__":
    from run import ROOT, use_checkout

    use_checkout()
    outdir = ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        found = run(str(outdir))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    for problem in found:
        sys.stderr.write(f"FAIL: {problem}\n")
    sys.stdout.write("selftest: " + ("FAIL" if found else "ok") + "\n")
    sys.exit(1 if found else 0)
