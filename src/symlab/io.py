"""JSON serialization of operators, verdicts and certificates.

Rationals travel as strings "p/q" (or "p" when the denominator is 1),
multi-indices as integer arrays, and the two matrices stated whole, T and
the inverse of a cocancellation block, held as rows of ``Fraction``, as
arrays of their rows, each an array of those strings.  Serialization is
deterministic: keys are emitted sorted and collections in graded-lex order,
so reports reproduce byte-for-byte under a fixed seed once timing fields
are stripped.

An operator (``schema_version`` 2) is ``{"n", "dimV", "dimE", "order",
"terms"}`` with ``"terms"`` its nonzero coefficients, each
``[alpha, row, col, "p/q"]``, sorted by graded-lex alpha, then row, then
column.  Its one reader refuses with ``OperatorFileError`` a malformed or
zero entry, an alpha of the wrong length or degree, a row or column that is
not an int in range, and a repeated (alpha, row, col); a document of any
other ``schema_version`` is refused as unsupported.

Each verdict has one ``*_to_json`` / ``*_from_json`` pair; the decoder
takes ``(doc, op)``, the report's operator giving the shapes.  A positivity
cover (of p in a membership witness) is a list of ``{"box": ...,
"lower_bound": "p/q"}``.  A box lies
on a face x_axis = +1 of the cube and is stored as
``{"axis": i, "bounds": [[lo, hi], ...]}`` with the n-1 intervals of the
other coordinates; the faces x_i = -1 are their mirror images and are not
stored.  A polynomial is a list of ``[alpha, "c"]`` terms, and a membership
witness (S(x) u(x) == p(x) e) is ``{"e": vector, "u": [polynomial, ...],
"p": polynomial, "cover": cover}``.  Two verdicts carry them under
``"memberships"``: NOT_CANCELING, one per basis vector of the common image
(S = A), and ELLIPTIC, one per basis vector of V (S = A^T), whose
``"cover"`` repeats its witnesses' covers together.
Decoders read untrusted reports: a missing field, a wrong type or a bad
shape (such as a cover box without n-1 bound pairs, or a subspace whose
"ambient", "dim" or number of basis columns disagrees with its span) raises
KeyError, TypeError or ValueError, which ``symlab verify`` reports as
malformed input.  An integer field must be a JSON integer (``true`` or
``4.0`` is refused), and a polynomial lists each monomial once.
Spanning and partial cancellation verdicts store no samples or witnesses of
their own; they are re-derived from the cancellation verdict of the same
report.  A partial verdict is ``{"status", "certified",
"constrained_intersection"}``.  A cocancellation verdict of either status is
``{"status", "certified", "joint_kernel", "block"}`` with ``"block":
{"rows": [i, ...], "cols": [j, ...], "inverse": matrix}``: r row and r
column indices of the stacked coefficient matrices and the inverse of the
r x r block they select (``[]`` when r = 0).

An operator's digest (``operator_digest``, a report's ``input.digest``) is
the first 16 hex digits of the SHA-256 of its sorted-key JSON.  It comes
from CPython's built-in SHA-256 module (``_sha2`` from 3.12, ``_sha256``
before), because ``import hashlib`` loads OpenSSL's ``_hashlib``, 3.6 MB
of peak RSS in a fresh CPython 3.11 process; only an interpreter built
without either module takes ``hashlib.sha256``.  It is the same function,
so the digests do not depend on which one is used.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional, Sequence

from .deciders.cancellation import CancelingVerdict, PartialCancelingVerdict, SpanningVerdict
from .deciders.cocancellation import CocancelingVerdict, RankBlock
from .deciders.ellipticity import CertifiedBox, EllipticityVerdict, FaceBox
from .deciders.witness import Membership
from .exact.matrix import Subspace, subspace_from_columns
from .exact.poly import Polynomial
from .exact.symbol import SymbolOperator

try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # an interpreter built without either

SCHEMA_VERSION = 2


class OperatorFileError(ValueError):
    """Raised when an operator file fails validation."""


def rat_to_str(x: Fraction) -> str:
    return str(x)


# Characters of an offending literal an error message shows.
SHOWN_LITERAL = 40
# The largest |exponent| of a literal such as "1e-3": Fraction builds
# 10**exponent in full.  4300 is the digit limit of Python's int("...").
MAX_EXPONENT = 4300

# The literals reports repeat most, parsed once: "0", "1" and "-1" are about
# nine in ten of a report's rationals (operator terms, blocks, subspaces).
# Keys are the exact ``rat_to_str`` spellings of the small integers.
_COMMON_LITERALS = {str(i): Fraction(i) for i in range(-16, 17)}


def rat_from_str(s: str) -> Fraction:
    text = str(s)
    common = _COMMON_LITERALS.get(text)
    if common is not None:
        return common
    _mantissa, e, exponent = text.lower().partition("e")
    try:
        if e and abs(int(exponent)) > MAX_EXPONENT:
            raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        shown = text if len(text) <= SHOWN_LITERAL else text[:SHOWN_LITERAL] + "..."
        raise OperatorFileError(f"bad rational literal {shown!r}") from None


def matrix_to_json(rows: Sequence[Sequence[Fraction]]) -> list:
    return [[rat_to_str(x) for x in row] for row in rows]


def matrix_from_json(data, what: str = "matrix") -> tuple:
    """The rows of a non-empty rational matrix, each a tuple of ``Fraction``."""
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise OperatorFileError(f"{what} must be a non-empty nested array")
    width = len(data[0])
    if any(len(r) != width for r in data):
        raise OperatorFileError(f"{what} rows have inconsistent lengths")
    return tuple(tuple(rat_from_str(x) for x in row) for row in data)


def vector_to_json(v: Sequence[Fraction]) -> list:
    return [rat_to_str(x) for x in v]


def vector_from_json(data) -> tuple:
    return tuple(rat_from_str(x) for x in data)


def subspace_to_json(s: Subspace) -> dict:
    return {
        "ambient": s.ambient,
        "dim": s.dim,
        "basis_columns": [vector_to_json(c) for c in s.columns()],
    }


def _int(x, what: str) -> int:
    """x itself if it is an int; a bool or a float equal to one is refused."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, not {x!r}")
    return x


def subspace_from_json(doc: dict, ambient: int) -> Subspace:
    """The span of the basis columns.  ValueError unless the stated ambient
    is ``ambient`` and both "dim" and the number of columns are the
    dimension of the span."""
    if _int(doc["ambient"], "subspace ambient") != ambient:
        raise ValueError(f"subspace ambient {doc['ambient']!r}, expected {ambient}")
    columns = doc["basis_columns"]
    s = subspace_from_columns(ambient, [vector_from_json(c) for c in columns])
    if _int(doc["dim"], "subspace dim") != s.dim or len(columns) != s.dim:
        raise ValueError(f"subspace states dim {doc['dim']!r} with {len(columns)} basis "
                         f"columns, which span dimension {s.dim}")
    return s


def operator_to_json(a: SymbolOperator, metadata: Optional[dict] = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n": a.n,
        "dimV": a.dim_v,
        "dimE": a.dim_e,
        "order": a.order,
        "terms": [
            [list(alpha), i, j, rat_to_str(Fraction(x, a.den))]
            for alpha, rows in a.terms for i, row in enumerate(rows) for j, x in row
        ],
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def operator_from_json(doc: dict) -> tuple[SymbolOperator, Optional[tuple], dict]:
    """Parse an operator file; returns (operator, optional rows of T, metadata)."""
    if not isinstance(doc, dict):
        raise OperatorFileError("operator file must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise OperatorFileError(f"unsupported schema_version {version!r}")
    for key in ("n", "dimV", "dimE", "order", "terms"):
        if key not in doc:
            raise OperatorFileError(f"missing field {key!r}")
    n, dim_v, dim_e, order = doc["n"], doc["dimV"], doc["dimE"], doc["order"]
    for name, val in (("n", n), ("dimV", dim_v), ("dimE", dim_e)):
        if not isinstance(val, int) or val < 1:
            raise OperatorFileError(f"{name} must be a positive integer")
    if not isinstance(order, int) or order < 0:
        raise OperatorFileError("order must be a non-negative integer")
    if not isinstance(doc["terms"], list):
        raise OperatorFileError("terms must be an array")
    entries = {}
    for idx, item in enumerate(doc["terms"]):
        if not isinstance(item, list) or len(item) != 4:
            raise OperatorFileError(f"terms[{idx}] must be [alpha, row, col, value]")
        alpha, i, j, literal = item
        if not isinstance(alpha, list) or not all(type(a) is int for a in alpha):
            raise OperatorFileError(f"terms[{idx}] alpha must be an array of integers")
        if type(i) is not int or type(j) is not int:
            raise OperatorFileError(f"terms[{idx}] row and col must be integers")
        x = rat_from_str(literal)
        if not x:
            raise OperatorFileError(f"terms[{idx}] is zero; list only nonzero entries")
        key = (tuple(alpha), i, j)
        if key in entries:
            raise OperatorFileError(f"terms[{idx}] repeats the entry {alpha}, {i}, {j}")
        entries[key] = x
    try:
        op = SymbolOperator.from_entries(n, dim_v, dim_e, order, entries, allow_zero=True)
    except ValueError as exc:
        raise OperatorFileError(str(exc)) from exc
    t = None
    if "T" in doc and doc["T"] is not None:
        t = matrix_from_json(doc["T"], "T")
        if len(t[0]) != dim_e:
            raise OperatorFileError(f"T has {len(t[0])} columns, expected {dim_e}")
    metadata = doc.get("metadata") or {}
    return op, t, metadata


def operator_digest(doc: dict, t_doc: Optional[list] = None) -> str:
    """Digest of an ``operator_to_json`` document, and of T with it if given:
    the first 16 hex digits of the SHA-256 of the sorted-key JSON of ``doc``,
    or of ``{"operator": doc, "T": t_doc}``.  The hash is CPython's built-in
    one, bit for bit ``hashlib.sha256``, which is taken only when neither
    built-in module is there (see the module docstring)."""
    blob = json.dumps(doc if t_doc is None else {"operator": doc, "T": t_doc},
                      sort_keys=True).encode()
    return sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Verdict serialization (full certificates, re-checkable by `symlab verify`)


def _facebox_to_json(b: FaceBox) -> dict:
    return {
        "axis": b.axis,
        "bounds": [[rat_to_str(lo), rat_to_str(hi)] for lo, hi in b.bounds],
    }


def _facebox_from_json(d: dict, n: int) -> FaceBox:
    bounds = d["bounds"]
    if len(bounds) != n - 1 or any(len(pair) != 2 for pair in bounds):
        raise ValueError(f"a box on a face of the {n}-cube needs {n - 1} bound pairs")
    return FaceBox(
        _int(d["axis"], "box axis"),
        tuple((rat_from_str(lo), rat_from_str(hi)) for lo, hi in bounds),
    )


def _cover_to_json(cover) -> list:
    return [
        {"box": _facebox_to_json(cb.box), "lower_bound": rat_to_str(cb.lower_bound)}
        for cb in cover
    ]


def _cover_from_json(doc: list, n: int) -> list:
    return [
        CertifiedBox(_facebox_from_json(cb["box"], n), rat_from_str(cb["lower_bound"]))
        for cb in doc
    ]


def polynomial_to_json(p: Polynomial) -> list:
    return [[list(alpha), rat_to_str(c)] for alpha, c in p.terms]


def polynomial_from_json(doc: list, n: int) -> Polynomial:
    terms = {tuple(alpha): rat_from_str(c) for alpha, c in doc}
    if not all(type(x) is int for alpha in terms for x in alpha):
        raise ValueError("monomial exponents must be integers")
    if len(terms) != len(doc):
        raise ValueError("a polynomial lists a monomial twice")
    return Polynomial.make(n, terms)


def _membership_to_json(m: Membership) -> dict:
    return {"e": vector_to_json(m.e), "u": [polynomial_to_json(q) for q in m.u],
            "p": polynomial_to_json(m.p), "cover": _cover_to_json(m.cover)}


def _membership_from_json(d: dict, n: int) -> Membership:
    return Membership(vector_from_json(d["e"]), tuple(polynomial_from_json(q, n) for q in d["u"]),
                      polynomial_from_json(d["p"], n), _cover_from_json(d["cover"], n))


def ellipticity_to_json(v: EllipticityVerdict) -> dict:
    doc: dict = {"status": v.status, "certified": v.certified}
    if v.status == "ELLIPTIC":
        doc["memberships"] = [_membership_to_json(m) for m in v.memberships]
        doc["cover"] = _cover_to_json(v.cover)
    if v.status == "NOT_ELLIPTIC":
        doc["witness_xi"] = vector_to_json(v.witness_xi)
        doc["witness_v"] = vector_to_json(v.witness_v)
    if v.status == "UNDECIDED":
        doc["undecided_box"] = (
            _facebox_to_json(v.undecided_box) if v.undecided_box else None
        )
        doc["depth_reached"] = v.depth_reached
    if v.reason is not None:
        doc["reason"] = v.reason
    return doc


def ellipticity_from_json(doc: dict, op: SymbolOperator) -> EllipticityVerdict:
    status = doc["status"]
    v = EllipticityVerdict(status)
    if status == "ELLIPTIC":
        v.memberships = [_membership_from_json(m, op.n) for m in doc["memberships"]]
        v.cover = _cover_from_json(doc["cover"], op.n)
    if status == "NOT_ELLIPTIC":
        v.witness_xi = vector_from_json(doc["witness_xi"])
        v.witness_v = vector_from_json(doc["witness_v"])
    return v


def canceling_to_json(v: CancelingVerdict) -> dict:
    doc = {
        "status": v.status,
        "certified": v.certified,
        "samples": [vector_to_json(xi) for xi in v.samples],
        "intersection": subspace_to_json(v.intersection),
        "dim_trajectory": list(v.dim_trajectory),
    }
    if v.memberships:
        doc["memberships"] = [_membership_to_json(m) for m in v.memberships]
    if v.reason is not None:
        doc["reason"] = v.reason
    return doc


def canceling_from_json(doc: dict, op: SymbolOperator) -> CancelingVerdict:
    return CancelingVerdict(
        doc["status"],
        [vector_from_json(xi) for xi in doc["samples"]],
        subspace_from_json(doc["intersection"], op.dim_e),
        [_int(d, "dim_trajectory entry") for d in doc["dim_trajectory"]],
        memberships=[_membership_from_json(m, op.n) for m in doc.get("memberships", [])],
    )


def cocanceling_to_json(v: CocancelingVerdict) -> dict:
    return {
        "status": v.status,
        "certified": True,
        "joint_kernel": subspace_to_json(v.joint_kernel),
        "block": {"rows": list(v.block.rows), "cols": list(v.block.cols),
                  "inverse": matrix_to_json(v.block.inverse)},
    }


def cocanceling_from_json(doc: dict, op: SymbolOperator) -> CocancelingVerdict:
    block = doc["block"]
    rows = tuple(_int(i, "block row") for i in block["rows"])
    cols = tuple(_int(j, "block column") for j in block["cols"])
    # The rank-0 block has an empty inverse, which matrix_from_json refuses.
    inverse = (() if block["inverse"] == []
               else matrix_from_json(block["inverse"], "block inverse"))
    return CocancelingVerdict(
        doc["status"], subspace_from_json(doc["joint_kernel"], op.dim_v),
        RankBlock(rows, cols, inverse),
    )


def spanning_to_json(v: SpanningVerdict) -> dict:
    return {"status": v.status, "certified": v.certified, "span_dim": v.span_dim}


def spanning_from_json(doc: dict, op: SymbolOperator) -> SpanningVerdict:
    if type(doc["certified"]) is not bool:
        raise ValueError(f"certified must be true or false, not {doc['certified']!r}")
    return SpanningVerdict(doc["status"], _int(doc["span_dim"], "span_dim"), doc["certified"])


def partial_to_json(v: PartialCancelingVerdict) -> dict:
    return {
        "status": v.status,
        "certified": v.certified,
        "constrained_intersection": subspace_to_json(v.constrained_intersection),
    }


def partial_from_json(doc: dict, op: SymbolOperator) -> PartialCancelingVerdict:
    return PartialCancelingVerdict(
        doc["status"], subspace_from_json(doc["constrained_intersection"], op.dim_e)
    )


def load_json(path: str) -> dict:
    """Parse a UTF-8 JSON file.  Raises OSError when it cannot be read and
    ValueError when it is not UTF-8, not JSON or nested too deeply."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
