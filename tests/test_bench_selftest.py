"""The benchmark's own gate self-test, run against the current package: a
change of the report format that blinds the benchmark's verify gate (for
instance to a tampered cover bound) fails here."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_gates_selftest(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import selftest

    assert selftest.run(str(tmp_path)) == []


def test_trace_wraps_the_names_it_times(tmp_path, monkeypatch):
    # The traced benchmark wraps package functions by name; a rename that
    # drops one of these spans, or a wrapper left behind, fails here.
    monkeypatch.syspath_prepend(str(BENCH))
    import numpy.fft
    import spans

    import symlab.deciders
    import symlab.io
    import symlab.numlab.experiments
    from symlab.cli import main

    owners = {
        symlab.deciders: ("check_canceling", "verify_canceling", "verify_spanning",
                          "check_bb_spanning", "check_partial_canceling"),
        symlab.io: ("canceling_to_json", "canceling_from_json", "partial_to_json",
                    "partial_from_json", "load_json"),
        symlab.numlab.experiments: ("image_intersection", "check_ellipticity"),
        numpy.fft: ("fftn", "ifftn"),
    }
    originals = {(owner, attr): getattr(owner, attr)
                 for owner, attrs in owners.items() for attr in attrs}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not fn for (owner, attr), fn in originals.items())
        report, checked = tmp_path / "report.json", tmp_path / "verified.json"
        assert main(["analyze", "catalog:hodge_pair?n=3&ell=1", "--json", str(report)]) == 0
        assert main(["verify", str(report), "--json", str(checked)]) == 0
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"ellipticity.check", "ellipticity.verify",
            "cancellation.check", "cancellation.verify", "cancellation.bb",
            "cancellation.partial", "cocancellation.check", "cocancellation.verify",
            "io.encode", "io.decode"} <= names
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in originals.items())
