"""Golden outputs of the spectral lab: the CSVs of ten calls at seed 1, the
benchmark's eight ``spectral`` calls and the two plateau fields that the
benchmark does not run (``necessity --field dx_bump`` and ``duality
--field generic``), rerun in-process and compared column by column with
the files committed under ``tests/data/spectral_seed1``.

Tolerances: relative 1e-9 on every value (the files carry 13 significant
digits); flags must match exactly; ``curl_l1`` and
``constraint_residual_l1`` are images of composite symbols that vanish
(curl of a gradient, divergence of a planar curl), measured as exact zeros:
where the file holds 0 they must equal 0 (the generic duality field is not
divergence-free, and its residual compares as any value does);
``scale_err`` is a difference of nearly equal norms, so a change in the
last bit of ``grad_ln`` moves it by about 1e-7 of itself and it compares
with a relative 1e-6.  Every call converges with no row
flagged at seed 1, so each must exit 0.  To refresh the files after a
deliberate change of the lab's numbers, rerun these calls with
``symlab experiment ... --seed 1 --no-figure --csv <file>`` and keep only
the CSV (the call also writes its JSON manifest beside it).
"""

import csv
import math
from pathlib import Path

import pytest

from symlab.cli import main

GOLDEN = Path(__file__).parent / "data" / "spectral_seed1"

CALLS = {
    f"inequality_{family}": ["inequality", "--family", family]
    for family in ("gns_disc", "korn", "solonnikov", "strange_r4", "newton_r3")
}
CALLS["blowup"] = ["blowup", "--op", "catalog:laplacian?n=2", "--e", "1", "--ell", "1"]
CALLS["necessity"] = ["necessity"]
CALLS["duality"] = ["duality"]
CALLS["necessity_dx_bump"] = ["necessity", "--field", "dx_bump"]
CALLS["duality_generic"] = ["duality", "--field", "generic"]

FLAGS = {"converged", "nyquist_margin_ok"}
ZEROS = {"curl_l1", "constraint_residual_l1"}
RELATIVE = {"scale_err": 1e-6}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def agrees(column, got, want):
    if column in FLAGS:
        return got == want
    if column in ZEROS and float(want) == 0.0:
        return float(got) == 0.0
    return math.isclose(float(got), float(want), rel_tol=RELATIVE.get(column, 1e-9))


@pytest.mark.parametrize("name", list(CALLS))
def test_spectral_call_matches_its_golden_csv(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    argv = ["experiment", *CALLS[name], "--seed", "1", "--no-figure",
            "--csv", str(out), "--json", str(tmp_path / f"{name}.json")]
    assert main(argv) == 0
    got, want = read_rows(out), read_rows(GOLDEN / f"{name}.csv")
    assert len(got) == len(want) and list(got[0]) == list(want[0])
    for i, (row, expected) in enumerate(zip(got, want)):
        bad = [c for c in expected if not agrees(c, row[c], expected[c])]
        assert not bad, f"row {i}: {[(c, row[c], expected[c]) for c in bad]}"
