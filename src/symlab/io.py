"""JSON serialization of operators, verdicts and certificates.

Rationals travel as strings "p/q" (or "p" when the denominator is 1),
matrices as row-major nested arrays of those strings, multi-indices as
integer arrays.  Serialization is deterministic: keys are emitted sorted
and collections in graded-lex order, so reports reproduce byte-for-byte
under a fixed seed once timing fields are stripped.

Each verdict has one ``*_to_json`` / ``*_from_json`` pair; the decoder
takes ``(doc, op)``, the report's operator giving the shapes.  A positivity
cover (of det(A^T A) in an ellipticity verdict, of p in a membership
witness) is a list of ``{"box": ..., "lower_bound": "p/q"}``.  A box lies
on a face x_axis = +1 of the cube and is stored as
``{"axis": i, "bounds": [[lo, hi], ...]}`` with the n-1 intervals of the
other coordinates; the faces x_i = -1 are their mirror images and are not
stored.  A polynomial is a list of ``[alpha, "c"]`` terms, and a membership
witness (A(x) u(x) == p(x) e) is ``{"e": vector, "u": [polynomial, ...],
"p": polynomial, "cover": cover}``; only a NOT_CANCELING verdict carries
them, one per basis vector of the common image, under ``"memberships"``.
Decoders read untrusted reports: a missing field, a wrong type or a bad
shape (such as a cover box without n-1 bound pairs) raises KeyError,
TypeError or ValueError, which ``symlab verify`` reports as malformed input.
Spanning and partial cancellation verdicts store no samples or witnesses of
their own; they are re-derived from the cancellation verdict of the same
report.  A partial verdict is ``{"status", "certified",
"constrained_intersection"}``.  A cocancellation verdict of either status is
``{"status", "certified", "joint_kernel", "block"}`` with ``"block":
{"rows": [i, ...], "cols": [j, ...], "inverse": matrix}``: r row and r
column indices of the stacked coefficient matrices and the inverse of the
r x r block they select (``[]`` when r = 0).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Optional, Sequence

from .deciders.cancellation import (
    CancelingVerdict,
    Membership,
    PartialCancelingVerdict,
    SpanningVerdict,
)
from .deciders.cocancellation import CocancelingVerdict, RankBlock
from .deciders.ellipticity import CertifiedBox, EllipticityVerdict, FaceBox
from .exact.matrix import QMatrix, Subspace, subspace_from_columns
from .exact.poly import Polynomial
from .exact.symbol import SymbolOperator

SCHEMA_VERSION = 1


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


def matrix_to_json(m: QMatrix) -> list:
    return [[rat_to_str(x) for x in row] for row in m.entries]


def matrix_from_json(data, what: str = "matrix") -> QMatrix:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise OperatorFileError(f"{what} must be a non-empty nested array")
    width = len(data[0])
    if any(len(r) != width for r in data):
        raise OperatorFileError(f"{what} rows have inconsistent lengths")
    return QMatrix.from_rows([[rat_from_str(x) for x in row] for row in data])


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


def subspace_from_json(doc: dict, ambient: int) -> Subspace:
    return subspace_from_columns(
        ambient, [vector_from_json(c) for c in doc["basis_columns"]]
    )


def operator_to_json(a: SymbolOperator, metadata: Optional[dict] = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n": a.n,
        "dimV": a.dim_v,
        "dimE": a.dim_e,
        "order": a.order,
        "terms": [
            {"alpha": list(alpha), "matrix": matrix_to_json(mat)}
            for alpha, mat in a.terms
        ],
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def operator_from_json(doc: dict) -> tuple[SymbolOperator, Optional[QMatrix], dict]:
    """Parse an operator file; returns (operator, optional T, metadata)."""
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
    terms = {}
    for idx, item in enumerate(doc["terms"]):
        if not isinstance(item, dict) or "alpha" not in item or "matrix" not in item:
            raise OperatorFileError(f"terms[{idx}] needs 'alpha' and 'matrix'")
        alpha = item["alpha"]
        if (
            not isinstance(alpha, list)
            or len(alpha) != n
            or not all(isinstance(x, int) and x >= 0 for x in alpha)
        ):
            raise OperatorFileError(
                f"terms[{idx}].alpha must be {n} non-negative integers"
            )
        if sum(alpha) != order:
            raise OperatorFileError(
                f"terms[{idx}].alpha has degree {sum(alpha)}, expected {order}"
            )
        mat = matrix_from_json(item["matrix"], f"terms[{idx}].matrix")
        if (mat.rows, mat.cols) != (dim_e, dim_v):
            raise OperatorFileError(
                f"terms[{idx}].matrix is {mat.rows}x{mat.cols}, expected {dim_e}x{dim_v}"
            )
        key = tuple(alpha)
        if key in terms:
            raise OperatorFileError(f"duplicate multi-index {alpha}")
        terms[key] = mat
    try:
        op = SymbolOperator.make(n, dim_v, dim_e, order, terms, allow_zero=True)
    except ValueError as exc:
        raise OperatorFileError(str(exc)) from exc
    t = None
    if "T" in doc and doc["T"] is not None:
        t = matrix_from_json(doc["T"], "T")
        if t.cols != dim_e:
            raise OperatorFileError(f"T has {t.cols} columns, expected {dim_e}")
    metadata = doc.get("metadata") or {}
    return op, t, metadata


def operator_digest(doc: dict) -> str:
    """Digest of an ``operator_to_json`` document."""
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


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
        int(d["axis"]),
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
        doc["cover"] = _cover_to_json(v.cover)
    if v.status == "NOT_ELLIPTIC":
        doc["witness_xi"] = vector_to_json(v.witness_xi)
        doc["witness_v"] = vector_to_json(v.witness_v)
    if v.status == "UNDECIDED":
        doc["undecided_box"] = (
            _facebox_to_json(v.undecided_box) if v.undecided_box else None
        )
        doc["depth_reached"] = v.depth_reached
    return doc


def ellipticity_from_json(doc: dict, op: SymbolOperator) -> EllipticityVerdict:
    status = doc["status"]
    v = EllipticityVerdict(status)
    if status == "ELLIPTIC":
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
    rows, cols = tuple(block["rows"]), tuple(block["cols"])
    if not all(type(i) is int for i in rows + cols):
        raise ValueError("block indices must be integers")
    # The rank-0 block has an empty inverse, which matrix_from_json refuses.
    inverse = (QMatrix.zeros(0, 0) if block["inverse"] == []
               else matrix_from_json(block["inverse"], "block inverse"))
    return CocancelingVerdict(
        doc["status"], subspace_from_json(doc["joint_kernel"], op.dim_v),
        RankBlock(rows, cols, inverse),
    )


def spanning_to_json(v: SpanningVerdict) -> dict:
    return {"status": v.status, "certified": v.certified, "span_dim": v.span_dim}


def spanning_from_json(doc: dict, op: SymbolOperator) -> SpanningVerdict:
    return SpanningVerdict(doc["status"], doc["span_dim"], doc["certified"])


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
