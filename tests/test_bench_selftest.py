"""The benchmark's own gate self-test, run against the current package: a
change of the report format that blinds the benchmark's verify gate (for
instance to a tampered cover bound) fails here."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_gates_selftest(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import selftest

    assert selftest.run(str(tmp_path)) == []
