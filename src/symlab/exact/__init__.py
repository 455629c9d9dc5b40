"""Exact rational arithmetic, linear algebra on integer rows and
polynomial matrices."""

from .matrix import (
    Subspace,
    full_space,
    inverse,
    kernel_basis,
    subspace_from_columns,
    subspace_intersection,
)
from .poly import Polynomial, monomial_count, multi_indices
from .polymatrix import PolyMatrix
from .symbol import SymbolOperator

__all__ = [
    "Subspace",
    "full_space",
    "inverse",
    "kernel_basis",
    "subspace_from_columns",
    "subspace_intersection",
    "Polynomial",
    "monomial_count",
    "multi_indices",
    "PolyMatrix",
    "SymbolOperator",
]
