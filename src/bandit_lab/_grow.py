"""A row-growable array buffer.

Policies append one row per round for thousands of rounds; reallocating the
exact size each time would turn O(m^2) updates into O(m t) copies.  The
buffer doubles its row capacity instead, so row appends are amortized O(row).
Column appends are not: ``append_col`` copies every live row every time.
"""

from __future__ import annotations

import numpy as np


class GrowableMatrix:
    """Row-growable (and occasionally column-growable) float matrix."""

    def __init__(self, rows: np.ndarray):
        rows = np.asarray(rows, dtype=float)
        self.rows = rows.shape[0]
        # the capacity appending the rows one by one would reach: 16 * 2^k
        capacity = max(16, 1 << (self.rows - 1).bit_length())
        self._buf = np.zeros((capacity, rows.shape[1]))
        self._buf[: self.rows] = rows

    @property
    def cols(self) -> int:
        return self._buf.shape[1]

    @property
    def view(self) -> np.ndarray:
        """Live (rows, cols) window; treat as read-only."""
        return self._buf[: self.rows]

    def append_row(self, row: np.ndarray) -> None:
        """Append one row; a 1-d float array is taken as it is, without a conversion."""
        if not (type(row) is np.ndarray and row.ndim == 1 and row.dtype == float):
            row = np.asarray(row, dtype=float).reshape(-1)
        if row.shape[0] != self.cols:
            raise ValueError("row width mismatch")
        if self.rows == self._buf.shape[0]:
            bigger = np.zeros((2 * self._buf.shape[0], self.cols))
            bigger[: self.rows] = self._buf[: self.rows]
            self._buf = bigger
        self._buf[self.rows] = row
        self.rows += 1

    def append_col(self, col: np.ndarray) -> None:
        col = np.asarray(col, dtype=float).reshape(-1)
        if col.shape[0] != self.rows:
            raise ValueError("column length mismatch")
        bigger = np.zeros((self._buf.shape[0], self.cols + 1))
        bigger[: self.rows, : self.cols] = self._buf[: self.rows]
        self._buf = bigger
        self._buf[: self.rows, -1] = col
