"""Benchmark of the symlab CLI: wall time of analyze / verify / compat /
experiment calls over four workloads, with per-layer spans on request.

Usage (from the root of a checkout):

    python3 bench/run.py --workload catalog --seed 1 --seconds 15 --trace 0

One process, one thread.  The workload's calls run in a closed loop through
``symlab.cli.main``, one at a time, until every call has run once and
``--seconds`` have passed.  Every call's output is checked (see
``workloads.py``).  The last line of standard output is one JSON object:

- ``--trace 0``: ``wall_s`` (sum over the calls of each call's median wall
  time), ``setup_s`` (median over fresh processes of the time from the
  start of the program to its first call: imports and building the calls),
  ``peak_rss_mb`` and ``decided_share``
  (certified verdicts and unflagged experiment rows, over all of them, on
  the first pass).  Both times are scaled to a reference machine speed by
  a calibration kernel timed while the calls run (``calibrate.py``).
- ``--trace 1``: per-layer metrics from passes with timing wrappers
  installed (``spans.py``).  Each call also runs once untraced, right
  before or after, and the difference summed over a pass is
  ``trace.overhead_s``.  Spans
  are written to ``.bench_out/spans-<workload>-seed<seed>.jsonl``.

``attempted`` counts calls made and ``failed`` the calls that raised,
exited 2, failed verification or contradicted the catalog truth table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from calibrate import Calibration
from selftest import run as selftest
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def use_checkout() -> None:
    """One thread for every numeric library, and the package from this
    checkout's ``src/``; exits when the checkout has no package."""
    os.environ["SYMLAB_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "symlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no symlab package under {src}")
    sys.path.insert(0, str(src))


def measure_setup(workload: str, seed: int, outdir: Path) -> float:
    """Median set-up time over fresh processes (see ``probe.py``)."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("probe.py")),
             workload, str(seed), str(outdir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_call(call, main, tracer=None, clock=time.perf_counter):
    """Run one CLI call; returns (start, end, gate outcome), timed by ``clock``."""
    for path in call.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    gc.collect()
    code = None
    start = clock()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            if tracer is None:
                code = main(call.argv)
            else:
                tracer.instance = f"{call.verb} {call.instance}"
                code = tracer.run(f"cli.{call.verb}", main, call.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
    end = clock()
    if tracer is not None:
        tracer.end_call()
        tracer.count("io.report_bytes", sum(
            os.path.getsize(p) for p in call.outputs if p.endswith(".json") and os.path.exists(p)
        ))
    outcome = call.check(code) if code is not None else workloads.Outcome().fail("raised")
    return start, end, outcome


class Tally:
    """Calls made and what their gates found."""

    def __init__(self, calls):
        self.calls = calls
        self.attempted = 0
        self.failed = 0
        self.first_pass = {}      # call index -> outcome of its first run

    def add(self, index: int, outcome) -> None:
        self.attempted += 1
        self.failed += outcome.failed
        self.first_pass.setdefault(index, outcome)
        if outcome.failed:
            call = self.calls[index]
            sys.stderr.write(f"FAILED {call.verb} {call.instance}: {outcome.reason}\n")

    def decided_share(self) -> float:
        first = self.first_pass.values()
        return sum(o.conclusive for o in first) / sum(o.outcomes for o in first)

    def report(self) -> None:
        for index, o in sorted(self.first_pass.items()):
            call = self.calls[index]
            for key in o.uncertified:
                known = key in workloads.KNOWN_GAPS.get(call.instance, ())
                sys.stderr.write(
                    f"uncertified {key} on {call.instance}"
                    f"{' (known gap)' if known else ''}\n"
                )
            if o.flagged_rows:
                sys.stderr.write(f"{o.flagged_rows} flagged row(s) in {call.instance}\n")


def measure(calls, main, seconds: float, tally: Tally, calibration: Calibration) -> list:
    """Untraced closed loop under the calibration timer; the scaled
    wall-time samples of each call."""
    timed = []
    deadline = time.perf_counter() + seconds
    with calibration:
        while len(timed) < len(calls) or time.perf_counter() < deadline:
            k = len(timed) % len(calls)
            start, end, outcome = run_call(calls[k], main, clock=calibration.clock)
            timed.append((k, start, end))
            tally.add(k, outcome)
    samples = [[] for _ in calls]
    for k, start, end in timed:
        samples[k].append(calibration.scale(start, end))
    return samples


def measure_traced(calls, main, seconds: float, tally: Tally, spans_path: Path) -> dict:
    """Passes in which each call runs untraced and traced, back to back;
    median per-layer metrics over the passes.  Pairing each call with itself
    keeps machine drift out of the tracing overhead."""
    tracer = Tracer()
    overheads, layers = [], []
    deadline = time.perf_counter() + seconds
    while not layers or time.perf_counter() < deadline:
        first = tracer.begin_pass()
        overhead = 0.0
        for k, call in enumerate(calls):
            # Alternate which run goes first: the second run of a call finds
            # memory the first one freed, and reads faster for it.
            for traced in ((False, True) if (k + len(layers)) % 2 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    start, end, outcome = run_call(call, main, tracer if traced else None)
                finally:
                    tracer.uninstall()
                tally.add(k, outcome)
                overhead += (end - start) if traced else (start - end)
        overheads.append(overhead)
        layers.append(tracer.layer_metrics(first))
    tracer.write(str(spans_path))
    metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return metrics


def declared_metrics(trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    units = declared_metrics(bool(args.trace))
    base = ROOT / ".bench_out"
    outdir = base / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        calls = workloads.prepare(args.workload, args.seed, str(outdir))
        from symlab.cli import main as cli_main

        problems = selftest(str(outdir))
        for problem in problems:
            sys.stderr.write(f"selftest FAILED: {problem}\n")
        tally = Tally(calls)
        if args.trace:
            spans_path = base / f"spans-{args.workload}-seed{args.seed}.jsonl"
            values = measure_traced(calls, cli_main, args.seconds, tally, spans_path)
            first = tally.first_pass.values()
            values["gates.truth_mismatches"] = sum(o.mismatches for o in first)
            values["gates.flagged_rows"] = sum(o.flagged_rows for o in first)
        else:
            calibration = Calibration(workloads.KERNEL[args.workload])
            samples = measure(calls, cli_main, args.seconds, tally, calibration)
            values = {
                "wall_s": sum(statistics.median(s) for s in samples),
                "setup_s": measure_setup(args.workload, args.seed, outdir),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "decided_share": tally.decided_share(),
            }
            counts = sorted(len(s) for s in samples)
            sys.stderr.write(
                f"{args.workload}: {len(calls)} calls per pass, "
                f"{counts[0]}-{counts[-1]} samples per call, "
                f"median kernel {statistics.median(calibration.seconds):.4f} s "
                f"over {len(calibration.seconds)} timings\n"
            )
        tally.report()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, declared {sorted(units)}")
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
