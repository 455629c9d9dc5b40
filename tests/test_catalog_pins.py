"""The catalog's coefficients, pinned: every entry over a parameter grid is
rebuilt and compared with ``tests/data/catalog_pins.json``.

Each record holds the sha256 of the operator's JSON document
(``io.operator_to_json``, keys sorted) and the instance's name, params,
role, truth table and constraint map T, so a change to any coefficient,
term order, shape or truth value of a catalog symbol fails here.  To
refresh the table after a deliberate change of the catalog, run
``PYTHONPATH=src python tests/test_catalog_pins.py``.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from symlab.catalog import catalog_get
from symlab.io import matrix_to_json, operator_to_json, rat_to_str

TABLE = Path(__file__).parent / "data" / "catalog_pins.json"


def _grid():
    """(name, params) of every pinned instance."""
    grid = []
    for name in ("gradient", "sym_gradient", "laplacian", "divergence", "saint_venant"):
        grid += [(name, {"n": n}) for n in range(1, 6)]
    grid += [("gradient", {"n": 6}), ("quaternion", {}), ("hyperbolic", {}),
             ("strange_r4", {})]
    grid += [("curl_div", {"n": n}) for n in range(2, 6)]
    for name in ("sym_gradient_sk", "higher_order_div", "saint_venant_k"):
        grid += [(name, {"n": n, "k": k}) for n in range(1, 5) for k in range(1, 4)]
    grid += [("defigueiredo", {"n": n, "m": m}) for n in range(1, 5) for m in range(1, 4)]
    for name in ("hodge_pair", "split_laplacian"):
        grid += [(name, {"n": n, "ell": ell}) for n in range(2, 6) for ell in range(1, n)]
    grid += [("exterior_d", {"n": n, "ell": ell}) for n in range(1, 6) for ell in range(n)]
    grid += [("quadratic_collection", {"n": n, "m": m}) for n in range(2, 6) for m in range(1, n)]
    return grid


def _plain(x):
    """Truth values as JSON: rationals as io strings, tuples as lists."""
    if isinstance(x, Fraction):
        return rat_to_str(x)
    if isinstance(x, (list, tuple)):
        return [_plain(y) for y in x]
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    return x


def pin(name, params):
    result = catalog_get(name, **params)
    blob = json.dumps(operator_to_json(result.operator), sort_keys=True).encode()
    return {
        "name": result.name,
        "params": result.params,
        "operator_sha256": hashlib.sha256(blob).hexdigest(),
        "role": result.role,
        "truth": _plain(result.truth),
        "T": None if result.constraint_map is None else matrix_to_json(result.constraint_map),
    }


def _key(name, params):
    return f"{name}?" + "&".join(f"{k}={v}" for k, v in sorted(params.items()))


def _table():
    return {_key(rec["entry"], rec["args"]): rec["pin"]
            for rec in json.loads(TABLE.read_text())}


@pytest.fixture(scope="module")
def table():
    return _table()


def test_the_table_covers_the_grid(table):
    assert sorted(table) == sorted(_key(name, params) for name, params in _grid())
    assert len(table) >= 126


@pytest.mark.parametrize("name,params", _grid(), ids=lambda x: x if isinstance(x, str) else
                         ",".join(f"{k}={v}" for k, v in x.items()))
def test_catalog_instance_matches_its_pin(table, name, params):
    assert pin(name, params) == table[_key(name, params)]


if __name__ == "__main__":
    records = [{"entry": name, "args": params, "pin": pin(name, params)}
               for name, params in _grid()]
    TABLE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} pins to {TABLE}")
