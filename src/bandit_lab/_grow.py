"""A row- and column-growable array buffer.

Policies append one row per round for thousands of rounds; reallocating the
exact size each time would turn O(m^2) updates into O(m t) copies.  The
buffer doubles its row capacity instead, so row appends are amortized O(row).

Columns double too (a capacity of 8, then 16, ...), so an anchor admission
writes its column of the t x m cross block in place, amortized O(t), instead
of copying every live row.
"""

from __future__ import annotations

import numpy as np


class GrowableMatrix:
    """Row- and column-growable float matrix.

    The constructor copies ``rows`` into a buffer of exactly their width;
    the first ``append_col`` widens it to max(8, twice that width).
    """

    def __init__(self, rows: np.ndarray):
        rows = np.asarray(rows, dtype=float)
        self.rows, self.cols = rows.shape
        # the capacity appending the rows one by one would reach: 16 * 2^k
        capacity = max(16, 1 << (self.rows - 1).bit_length())
        self._buf = np.zeros((capacity, self.cols))
        self._buf[: self.rows] = rows

    @property
    def view(self) -> np.ndarray:
        """Live (rows, cols) window; treat as read-only."""
        return self._buf[: self.rows, : self.cols]

    def append_row(self, row: np.ndarray) -> None:
        """Append one row; a 1-d float array is taken as it is, without a conversion."""
        if not (type(row) is np.ndarray and row.ndim == 1 and row.dtype == float):
            row = np.asarray(row, dtype=float).reshape(-1)
        if row.shape[0] != self.cols:
            raise ValueError("row width mismatch")
        if self.rows == self._buf.shape[0]:
            self._grow(2 * self.rows, self._buf.shape[1])
        self._buf[self.rows, : self.cols] = row
        self.rows += 1

    def append_col(self, col: np.ndarray) -> None:
        """Append one column, in place while the buffer has a spare one."""
        col = np.asarray(col, dtype=float).reshape(-1)
        if col.shape[0] != self.rows:
            raise ValueError("column length mismatch")
        if self.cols == self._buf.shape[1]:
            self._grow(self._buf.shape[0], max(8, 2 * self.cols))
        self._buf[: self.rows, self.cols] = col
        self.cols += 1

    def _grow(self, row_capacity: int, col_capacity: int) -> None:
        """Move the live window into a zeroed buffer of the given capacity."""
        bigger = np.zeros((row_capacity, col_capacity))
        bigger[: self.rows, : self.cols] = self.view
        self._buf = bigger
