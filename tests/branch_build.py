"""The four-branch `build` that the per-axis KINDS table replaced, kept as the tests' oracle.

Each non-chirp kind has its own branch: its index checks (row, then
column), its nonzero-value check and its own fill.  `extremizers.build`
must give the same bits and raise the same exceptions with the same
messages.
"""

import numpy as np

from mnlab.exponents import check_dimensions
from mnlab.extremizers import ColumnC, OnesD, RowR, UnitE


def _check_index(value: int, upper: int, what: str) -> None:
    if not 1 <= value <= upper:
        raise ValueError(f"{what} must lie in 1..{upper}, got {value}")


def _check_value(value: complex) -> complex:
    value = complex(value)
    if value == 0:
        raise ValueError("entry value must be nonzero")
    return value


def branch_build(kind, M: int, N: int) -> np.ndarray:
    """The entries of a column, row, ones or unit matrix, one branch per kind."""
    M, N = check_dimensions(M, N)
    if isinstance(kind, ColumnC):
        _check_index(kind.col, N, "column index")
        entries = np.zeros((M, N), dtype=np.complex128)
        entries[:, kind.col - 1] = _check_value(kind.value)
    elif isinstance(kind, RowR):
        _check_index(kind.row, M, "row index")
        entries = np.zeros((M, N), dtype=np.complex128)
        entries[kind.row - 1, :] = _check_value(kind.value)
    elif isinstance(kind, OnesD):
        entries = np.full((M, N), _check_value(kind.value), dtype=np.complex128)
    elif isinstance(kind, UnitE):
        _check_index(kind.row, M, "row index")
        _check_index(kind.col, N, "column index")
        entries = np.zeros((M, N), dtype=np.complex128)
        entries[kind.row - 1, kind.col - 1] = _check_value(kind.value)
    else:
        raise TypeError(f"unknown extremizer kind {kind!r}")
    return entries
