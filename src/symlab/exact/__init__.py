"""Exact rational arithmetic, linear algebra and polynomial matrices."""

from .matrix import (
    QMatrix,
    Subspace,
    full_space,
    kernel_basis,
    subspace_from_columns,
    subspace_intersection,
)
from .poly import Polynomial, monomial_count, multi_indices
from .polymatrix import PolyMatrix
from .symbol import SymbolOperator

__all__ = [
    "QMatrix",
    "Subspace",
    "full_space",
    "kernel_basis",
    "subspace_from_columns",
    "subspace_intersection",
    "Polynomial",
    "monomial_count",
    "multi_indices",
    "PolyMatrix",
    "SymbolOperator",
]
