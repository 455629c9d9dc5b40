"""Command line interface.

Subcommands: analyze (classification report with certificates), compat
(annihilator construction + verification transcript; the only verb that
builds an annihilator), verify (standalone re-check of a report's
certificates), catalog (list / emit built-ins) and experiment (blowup /
inequality / necessity / duality; CSV + JSON manifest + a rendered figure
next to the CSV).

analyze and verify walk one verdict table, ``_verdict_kinds``: each verdict
kind is one row of key, check, codec, verifier and counters, so a new kind
is one new row.  verify decodes every verdict of the report, checks that its
"certified" flag matches its status and re-checks it with the decider's
verifier; a verdict key the table does not know, or no verdict at all, makes
the report malformed.  Ellipticity, cancellation
and cocancellation certificates stand on their own (ELLIPTIC carries
membership witnesses of A^T, NOT_ELLIPTIC a kernel vector, cancellation
membership witnesses of A and needs no ellipticity verdict; cocancellation of
either status carries the joint kernel and an inverted block of the stacked
coefficients whose size is their rank).  Spanning and
partial cancellation are derived from the cancellation verdict: verify
derives them again from it, and sees it only if it passed.

analyze takes --seed, --as and --json and no budget: every positivity
search runs under the one pair of ``deciders.witness``, which states why.
Exit codes: 0 all verdicts certified (verify: all verdicts pass), 2
input/validation error, including an unknown option, a malformed report
given to verify, a file that is not UTF-8 JSON or is nested too deeply,
and an output path that cannot be written, 3
at least one verdict or experiment row is undecided/sampled/unconverged
(verify: at least one verdict is rejected; compat: L A = 0 or a sampled
kernel check fails).  An experiment's manifest lists under "flags" each
flagged row, ``{"row": i, "failed": [column, ...]}``, and stderr gets one
line per flagged row.

Operators come from JSON files or from catalog URIs such as
``catalog:gradient?n=2``.  Reports are byte-reproducible for a fixed seed
apart from the "timings" member; "input.digest", the first 16 hex digits of
the SHA-256 of the sorted-key operator JSON, covers T when given.
Next to it, "stats" holds the deciders' counters: boxes examined, cover
size, per-axis cover depth, size and degree of det(A^T A) when it was
formed, cancellation iterations, samples and the degree s of each
membership witness of either verdict.  The compat transcript states the
order and row count of the annihilator.

symlab sets no thread counts of its own: to bound the threads of the numeric
libraries, set OMP_NUM_THREADS, OPENBLAS_NUM_THREADS or MKL_NUM_THREADS in
the environment.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
import urllib.parse
from typing import Optional

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNDECIDED = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def load_operator(source: str):
    """Operator from a catalog URI or a JSON file path.

    Returns (operator, constraint_map_or_None, metadata)."""
    from .io import OperatorFileError, load_json, operator_from_json

    if source.startswith("catalog:"):
        from .catalog import catalog_get

        rest = source[len("catalog:") :]
        name, _, query = rest.partition("?")
        params = {}
        for key, vals in urllib.parse.parse_qs(query).items():
            raw = vals[-1]
            try:
                params[key] = int(raw)
            except ValueError:
                params[key] = raw
        try:
            result = catalog_get(name, **params)
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"catalog error: {exc}")
        return result.operator, result.constraint_map, {"source": source}
    try:
        doc = load_json(source)
    except OSError as exc:
        raise CliError(f"cannot read {source}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{source}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except ValueError as exc:
        raise CliError(f"cannot read {source}: {exc}")
    try:
        op, t, metadata = operator_from_json(doc)
    except OperatorFileError as exc:
        raise CliError(f"{source}: {exc}")
    metadata = dict(metadata)
    metadata["source"] = source
    return op, t, metadata


def _parse_grid(text: Optional[str], n: int, default: tuple[int, float]):
    from .numlab import GridSpec

    parts = text.split(",") if text else default
    if len(parts) != 2:
        raise CliError("--grid expects N,T")
    try:
        return GridSpec(n, int(parts[0]), float(parts[1]))
    except ValueError as exc:
        if text:
            raise CliError(f"bad --grid {parts[0]},{parts[1]} in dimension {n}: {exc}")
        try:
            # The smallest grid of dimension n: refused only for n itself,
            # which no --grid can mend.
            GridSpec(n, 2, 1.0)
        except ValueError:
            raise CliError(f"operator of dimension {n}: {exc}")
        raise CliError(f"the default grid {parts[0]},{parts[1]} in dimension {n}: {exc}; "
                       f"give a smaller --grid")


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}")


def _write_json(doc: dict, path: Optional[str]) -> None:
    # One line: ``indent`` would send json.dumps down its pure-Python
    # encoder, several times slower on the large compat reports.
    text = json.dumps(doc, sort_keys=True) + "\n"
    if path:
        _write_file(path, text)
    else:
        sys.stdout.write(text)


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return format(v, ".12e")
    return str(v)


def _write_csv(rows: list[dict], path: str) -> list[str]:
    cols = list(rows[0].keys()) if rows else []
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row.get(c, "")) for c in cols))
    _write_file(path, "\n".join(lines) + "\n")
    return cols


def _render_figure(rows: list[dict], csv_path: str, kind: str) -> Optional[str]:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except Exception:
        return None
    if not rows:
        return None
    x_key = next(
        (k for k in ("scale", "exponent", "size", "eps") if k in rows[0]), None
    )
    if x_key is None or "ratio" not in rows[0]:
        return None
    xs = [row[x_key] for row in rows]
    ys = [row["ratio"] for row in rows]
    fig, ax = plt.subplots(figsize=(5.0, 3.4))
    ax.plot(xs, ys, "o-", color="tab:blue")
    if x_key in ("scale",):
        ax.set_xscale("log", base=2)
    ax.set_xlabel(x_key)
    ax.set_ylabel("ratio")
    ax.set_title(kind)
    ax.grid(True, alpha=0.3)
    fig.tight_layout()
    out = os.path.splitext(csv_path)[0] + ".png"
    fig.savefig(out, dpi=130)
    plt.close(fig)
    return out


# ---------------------------------------------------------------------------
# The verdict table, which analyze and verify both walk


def _verdict_kinds() -> tuple:
    """One row per verdict kind, in dependency order: (report key, the
    roles --as it serves, check(op, t, args, done), encoder, decode(doc,
    op), verify(op, t, verdict, passed), stats encoder or None).  ``done``
    holds the verdicts decided so far and ``passed`` those verified so far;
    a check that returns None does not apply.  The table is built on every
    call, so it finds the deciders and codecs under the names the
    benchmark's trace wraps."""
    from . import deciders as d
    from . import io

    def verify_partial(op, t, v, passed):
        if t is None:
            raise KeyError("T")
        return d.verify_partial_canceling(v, passed.get("canceling"), t)

    return (
        ("ellipticity", ("operator",),
         lambda op, t, args, done: d.check_ellipticity(op),
         io.ellipticity_to_json, io.ellipticity_from_json,
         lambda op, t, v, passed: d.verify_ellipticity(op, v),
         lambda v: {"boxes_examined": v.boxes_examined, "cover_boxes": len(v.cover),
                    "axis_depths": list(v.axis_depths), "det_terms": v.det_terms,
                    "det_degree": v.det_degree,
                    "witness_degrees": [m.degree for m in v.memberships]}),
        ("canceling", ("operator",),
         lambda op, t, args, done: d.check_canceling(op, seed=args.seed),
         io.canceling_to_json, io.canceling_from_json,
         lambda op, t, v, passed: d.verify_canceling(op, v),
         lambda v: {"iterations": v.iterations, "samples": len(v.samples),
                    "witness_degrees": [m.degree for m in v.memberships]}),
        ("bb_spanning", ("operator",),
         lambda op, t, args, done: d.check_bb_spanning(done["canceling"]),
         io.spanning_to_json, io.spanning_from_json,
         lambda op, t, v, passed: d.verify_spanning(v, passed.get("canceling")), None),
        ("cocanceling", ("operator", "constraint"),
         lambda op, t, args, done: d.check_cocanceling(op),
         io.cocanceling_to_json, io.cocanceling_from_json,
         lambda op, t, v, passed: d.verify_cocanceling(op, v), None),
        ("partial", ("operator",),
         lambda op, t, args, done: (None if t is None
                                    else d.check_partial_canceling(done["canceling"], t)),
         io.partial_to_json, io.partial_from_json, verify_partial, None),
    )


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    from . import __version__
    from .io import matrix_to_json, operator_digest, operator_to_json

    op, t, metadata = load_operator(args.source)
    timings: dict[str, float] = {}
    verdicts: dict[str, dict] = {}
    # Counters of the deciders; verify ignores them.
    stats: dict = {}
    uncertified = []
    done: dict = {}
    for key, roles, check, encode, _decode, _verify, encode_stats in _verdict_kinds():
        if args.as_role not in roles:
            continue
        t0 = time.perf_counter()
        v = check(op, t, args, done)
        if v is None:
            continue
        timings[key] = time.perf_counter() - t0
        done[key] = v
        verdicts[key] = encode(v)
        if encode_stats is not None:
            stats[key] = encode_stats(v)
        if not v.certified:
            uncertified.append(key)

    operator_doc = operator_to_json(op)
    t_doc = None if t is None else matrix_to_json(t)
    report = {
        "schema_version": 1,
        "tool": {"name": "symlab", "version": __version__},
        "mode": args.as_role,
        "seed": args.seed,
        "input": {
            "digest": operator_digest(operator_doc, t_doc),
            "metadata": metadata,
            "n": op.n,
            "dimV": op.dim_v,
            "dimE": op.dim_e,
            "order": op.order,
        },
        "operator": operator_doc,
        "verdicts": verdicts,
        "uncertified": uncertified,
        "stats": stats,
        "timings": timings,
    }
    if t_doc is not None:
        report["T"] = t_doc
    _write_json(report, args.json_out)
    return EXIT_UNDECIDED if uncertified else EXIT_OK


# ---------------------------------------------------------------------------
# compat


def cmd_compat(args) -> int:
    from . import __version__
    from .compat import AnnihilatorBudgetError, build_annihilator, verify_annihilator
    from .io import operator_digest, operator_to_json, vector_to_json

    op, _t, metadata = load_operator(args.source)
    try:
        result = build_annihilator(op, seed=args.seed)
    except AnnihilatorBudgetError as exc:
        raise CliError(f"compat undecided: {exc}", EXIT_UNDECIDED)
    report = verify_annihilator(op, result.operator, seed=args.seed)
    digest = operator_digest(operator_to_json(op))
    doc = {
        "schema_version": 1,
        "tool": {"name": "symlab", "version": __version__},
        "input": {"digest": digest, "metadata": metadata},
        "annihilator": operator_to_json(result.operator, metadata={"annihilates": digest}),
        "transcript": {
            "order": result.operator.order,
            "rows": result.operator.dim_e,
            "identity_ok": report.identity_ok,
            "kernel_checks": [
                {"xi": vector_to_json(xi), "ok": ok} for xi, ok in report.kernel_checks
            ],
            "kernels_match": report.kernels_match,
            "rank_checks": [
                {"xi": vector_to_json(xi), "ok": ok} for xi, ok in report.rank_checks
            ],
            "ranks_full": report.ranks_full,
        },
    }
    _write_json(doc, args.json_out)
    return EXIT_OK if report.identity_ok and report.kernels_match else EXIT_UNDECIDED


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from .io import load_json, matrix_from_json, operator_from_json

    try:
        report = load_json(args.report)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read report: {exc}")
    if not isinstance(report, dict) or "operator" not in report or "verdicts" not in report:
        raise CliError("report lacks operator or verdicts")
    results: dict[str, bool] = {}
    # Verdicts that passed, for the verifiers that build on another verdict.
    passed: dict = {}
    try:
        op, _, _ = operator_from_json(report["operator"])
        t = matrix_from_json(report["T"], "T") if "T" in report else None
        kinds = _verdict_kinds()
        unknown = sorted(set(report["verdicts"]) - {kind[0] for kind in kinds})
        if unknown or not report["verdicts"]:
            raise ValueError(f"unknown verdicts {unknown}" if unknown else "no verdicts")
        for key, _roles, _check, _encode, decode, verify, _stats in kinds:
            if key not in report["verdicts"]:
                continue
            doc = report["verdicts"][key]
            v = decode(doc, op)
            results[key] = doc["certified"] is v.certified and verify(op, t, v, passed)
            if results[key]:
                passed[key] = v
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        raise CliError(f"malformed report: {exc!r}")
    ok_all = all(results.values())
    _write_json({"verified": results, "all_ok": ok_all}, args.json_out)
    return EXIT_OK if ok_all else EXIT_UNDECIDED


# ---------------------------------------------------------------------------
# catalog


def cmd_catalog(args) -> int:
    from .catalog import catalog_entry, catalog_names

    if args.action == "list":
        rows = []
        for name in catalog_names():
            entry = catalog_entry(name)
            rows.append(f"{name:24s} {entry.role:10s} params: {entry.param_doc or '-'}")
        sys.stdout.write("\n".join(rows) + "\n")
        return EXIT_OK
    # emit
    source = args.name if args.name.startswith("catalog:") else "catalog:" + args.name
    op, t, _meta = load_operator(source)
    from .io import matrix_to_json, operator_to_json

    doc = operator_to_json(op, metadata={"source": source})
    if t is not None:
        doc["T"] = matrix_to_json(t)
    _write_json(doc, args.json_out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment


# The options each experiment kind reads, besides --seed, --csv, --json and
# --no-figure; every other option is refused.
EXPERIMENT_OPTIONS = {
    "blowup": {"--op", "--e", "--ell", "--lambda", "--grid"},
    "necessity": {"--lambda", "--field", "--grid"},
    "duality": {"--lambda", "--field", "--grid"},
    "inequality": {"--family"},
}


def cmd_experiment(args) -> int:
    from .io import operator_digest, operator_to_json

    kind = args.kind
    seed = args.seed
    given = {"--op": args.op, "--e": args.direction, "--ell": args.ell, "--lambda": args.scales,
             "--family": args.family, "--field": args.field, "--grid": args.grid}
    unread = [flag for flag, value in given.items()
              if value is not None and flag not in EXPERIMENT_OPTIONS[kind]]
    if unread:
        raise CliError(f"{kind} takes no {', '.join(unread)}; it reads only "
                       f"{', '.join(sorted(EXPERIMENT_OPTIONS[kind]))}")
    if kind == "blowup":
        from .numlab import blowup_experiment

        if not args.op:
            raise CliError("blowup needs --op")
        op, _t, _m = load_operator(args.op)
        spec = _parse_grid(args.grid, op.n, (1024, 4.0))
        scales = _parse_floats(args.scales or "4,8,16,32")
        e = _parse_rationals(args.direction, op.dim_e)
        run = functools.partial(blowup_experiment, op, e, args.ell or 0, scales, spec,
                                seed=seed, digest=operator_digest(operator_to_json(op)))
        flag = lambda r: [k for k in ("nyquist_margin_ok", "converged") if not r[k]]
    elif kind == "necessity":
        from .numlab import necessity_experiment

        spec = _parse_grid(args.grid, 2, (512, 40.0))
        exps = _parse_floats(args.scales or "1,0.5,0.3333333333333333,0.25")
        run = functools.partial(necessity_experiment, args.field or "gaussian", exps, spec,
                                seed=seed)
        flag = lambda r: ["scale_err"] if r["scale_err"] > 0.02 else []
    elif kind == "duality":
        from .numlab import duality_experiment

        spec = _parse_grid(args.grid, 2, (512, 40.0))
        exps = _parse_floats(args.scales or "1,0.5,0.3333333333333333,0.25")
        run = functools.partial(duality_experiment, args.field or "curl-potential", exps,
                                spec, sigma=1.5, seed=seed)
        flag = lambda r: []
    else:
        from .numlab import INEQUALITY_FAMILIES, inequality_experiment

        if args.family not in INEQUALITY_FAMILIES:
            raise CliError(
                f"--family must be one of {', '.join(INEQUALITY_FAMILIES)}"
            )
        run = functools.partial(inequality_experiment, args.family, seed=seed)
        flag = lambda r: [] if r.get("converged", True) else ["converged"]
    try:
        rows, manifest = run()
    except ValueError as exc:
        raise CliError(str(exc))
    flags = [{"row": i, "failed": failed} for i, r in enumerate(rows) if (failed := flag(r))]

    csv_path = args.csv_out or f"{kind}.csv"
    _write_csv(rows, csv_path)
    manifest["csv"] = csv_path
    manifest["flags"] = flags
    if not args.no_figure:
        fig = _render_figure(rows, csv_path, manifest.get("kind", kind))
        if fig:
            manifest["figure"] = fig
    _write_json(manifest, args.json_out or os.path.splitext(csv_path)[0] + ".json")
    for f in flags:
        sys.stderr.write(f"{kind}: row {f['row']} flagged: {', '.join(f['failed'])}\n")
    return EXIT_UNDECIDED if flags else EXIT_OK


def _parse_floats(text: str) -> list[float]:
    try:
        vals = [float(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise CliError(f"bad numeric list {text!r}: {exc}")
    if not vals:
        raise CliError(f"bad numeric list {text!r}: no entries")
    if not all(map(math.isfinite, vals)):
        raise CliError(f"bad numeric list {text!r}: entries must be finite")
    return vals


def _parse_rationals(text: Optional[str], expected: int):
    from .io import rat_from_str

    if not text:
        raise CliError("--e is required (comma-separated rationals)")
    try:
        vals = [rat_from_str(x) for x in text.split(",")]
    except ValueError as exc:
        raise CliError(f"bad --e: {exc}")
    if len(vals) != expected:
        raise CliError(f"direction needs {expected} entries, got {len(vals)}")
    return vals


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="symlab",
        description="Exact classification of differential operator symbols "
        "with certificates, plus a spectral experiment lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify an operator and emit a report")
    pa.add_argument("source", help="operator JSON path or catalog:<name>?<params>")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--as", dest="as_role", choices=("operator", "constraint"),
                    default="operator")
    pa.add_argument("--json", dest="json_out", default=None)
    pa.set_defaults(fn=cmd_analyze)

    pc = sub.add_parser("compat", help="build and verify the annihilating symbol")
    pc.add_argument("source")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--json", dest="json_out", default=None)
    pc.set_defaults(fn=cmd_compat)

    pv = sub.add_parser("verify", help="re-check every certificate in a report")
    pv.add_argument("report")
    pv.add_argument("--json", dest="json_out", default=None)
    pv.set_defaults(fn=cmd_verify)

    pk = sub.add_parser("catalog", help="list or emit built-in operators")
    pk.add_argument("action", choices=("list", "emit"))
    pk.add_argument("name", nargs="?", default="")
    pk.add_argument("--json", dest="json_out", default=None)
    pk.set_defaults(fn=cmd_catalog)

    pe = sub.add_parser("experiment", help="run a numerical experiment")
    pe.add_argument("kind", choices=tuple(EXPERIMENT_OPTIONS))
    pe.add_argument("--op", default=None)
    pe.add_argument("--e", dest="direction", default=None,
                    help="codomain direction (comma-separated rationals)")
    pe.add_argument("--ell", type=int, default=None,
                    help="derivative order measured in the blowup ratio (default 0)")
    pe.add_argument("--lambda", dest="scales", default=None,
                    help="schedule (comma-separated)")
    pe.add_argument("--family", default=None, help="inequality family")
    pe.add_argument("--field", default=None, help="test field kind")
    pe.add_argument("--grid", default=None, help="N,T")
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--csv", dest="csv_out", default=None)
    pe.add_argument("--json", dest="json_out", default=None)
    pe.add_argument("--no-figure", action="store_true")
    pe.set_defaults(fn=cmd_experiment)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
