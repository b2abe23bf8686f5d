import numpy as np
import pytest

from bandit_lab._grow import GrowableMatrix


def test_empty_start_has_the_given_width():
    m = GrowableMatrix(np.zeros((0, 3)))
    assert m.rows == 0 and m.cols == 3
    assert m.view.shape == (0, 3)


def test_initial_rows_are_copied():
    rows = np.arange(6.0).reshape(3, 2)
    m = GrowableMatrix(rows)
    rows[0, 0] = -1.0
    assert m.rows == 3
    assert np.array_equal(m.view, np.arange(6.0).reshape(3, 2))


def test_initial_rows_from_a_transposed_block():
    block = np.arange(6.0).reshape(2, 3)
    m = GrowableMatrix(block.T)
    assert np.array_equal(m.view, block.T)
    assert m.view.flags["C_CONTIGUOUS"]


def test_rows_grow_past_capacity_and_keep_their_values():
    m = GrowableMatrix(np.zeros((0, 2)))
    capacity = m._buf.shape[0]
    want = [np.array([i, -i], dtype=float) for i in range(3 * capacity + 1)]
    for row in want:
        m.append_row(row)
    assert m.rows == len(want)
    assert m._buf.shape[0] >= m.rows
    assert np.array_equal(m.view, np.array(want))


def test_append_row_after_initial_rows():
    m = GrowableMatrix(np.ones((20, 2)))
    m.append_row([2.0, 3.0])
    assert m.rows == 21
    assert np.array_equal(m.view[-1], [2.0, 3.0])
    assert np.array_equal(m.view[:20], np.ones((20, 2)))


def test_append_col_extends_every_row():
    m = GrowableMatrix(np.arange(4.0).reshape(2, 2))
    m.append_col([7.0, 8.0])
    assert m.cols == 3
    assert np.array_equal(m.view, [[0.0, 1.0, 7.0], [2.0, 3.0, 8.0]])
    m.append_row([1.0, 2.0, 3.0])
    assert np.array_equal(m.view[-1], [1.0, 2.0, 3.0])


def test_append_col_after_row_growth_keeps_every_live_value():
    m = GrowableMatrix(np.zeros((0, 2)))
    capacity = m._buf.shape[0]
    want = np.arange(2.0 * (capacity + 3)).reshape(-1, 2)
    for row in want:
        m.append_row(row)
    assert m._buf.shape[0] > capacity  # the rows outgrew the first buffer
    col = -np.arange(1.0, m.rows + 1)
    m.append_col(col)
    assert np.array_equal(m.view, np.column_stack([want, col]))
    assert not m._buf[m.rows :].any()  # capacity past the live rows stays zero
    m.append_row([1.0, 2.0, 3.0])
    assert np.array_equal(m.view[-1], [1.0, 2.0, 3.0])


def test_append_row_takes_lists_and_arrays_and_keeps_a_copy():
    m = GrowableMatrix(np.zeros((0, 2)))
    m.append_row([1, 2])  # ints, converted
    m.append_row(np.array([[3.0, 4.0]]))  # one row, flattened
    row = np.array([5.0, 6.0])
    m.append_row(row)
    row[0] = -1.0  # the buffer holds its own copy
    assert m.view.dtype == float
    assert np.array_equal(m.view, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_width_mismatches_raise():
    m = GrowableMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="row width"):
        m.append_row([1.0, 2.0])
    with pytest.raises(ValueError, match="column length"):
        m.append_col([1.0, 2.0, 3.0])
    assert m.rows == 2 and m.cols == 3


def _rows_of_width_zero(n):
    m = GrowableMatrix(np.zeros((0, 0)))
    for _ in range(n):
        m.append_row(np.zeros(0))
    return m


def test_the_first_column_append_makes_room_for_eight():
    m = _rows_of_width_zero(5)
    m.append_col(np.full(5, 1.0))
    assert m._buf.shape[1] == 8 and m.cols == 1
    first = m.view
    for k in range(2, 4):
        m.append_col(np.full(5, float(k)))
        assert np.shares_memory(m.view, first)
    assert np.array_equal(m.view, np.tile([1.0, 2.0, 3.0], (5, 1)))


def test_from_four_columns_append_col_writes_in_place():
    m = _rows_of_width_zero(5)
    for k in range(1, 5):
        m.append_col(np.full(5, float(k)))
    first = m.view
    for k in range(5, 9):  # 4 columns fill a capacity of 8
        m.append_col(np.full(5, float(k)))
        assert np.shares_memory(m.view, first)
    assert m._buf.shape[1] == 8
    m.append_col(np.full(5, 9.0))  # the ninth column doubles the capacity
    doubled = m.view
    assert m._buf.shape[1] == 16 and not np.shares_memory(doubled, first)
    for k in range(10, 17):
        m.append_col(np.full(5, float(k)))
        assert np.shares_memory(m.view, doubled)
    assert np.array_equal(m.view, np.tile(np.arange(1.0, 17.0), (5, 1)))


def test_interleaved_row_and_col_growth_keeps_every_value():
    rng = np.random.default_rng(5)
    m = GrowableMatrix(np.zeros((0, 0)))
    want = np.zeros((0, 0))
    for _ in range(120):
        if rng.uniform() < 0.8:
            row = rng.normal(size=want.shape[1])
            m.append_row(row)
            want = np.vstack([want, row])
        else:
            col = rng.normal(size=want.shape[0])
            m.append_col(col)
            want = np.column_stack([want, col])
        assert np.array_equal(m.view, want)
    assert m.rows > 32 and m.cols > 8  # both axes doubled at least once
    assert m._buf.shape[1] > m.cols  # and the last columns are spare
    assert not m._buf[m.rows :].any() and not m._buf[:, m.cols :].any()


def test_construction_copies_a_transposed_block_at_its_exact_width():
    block = np.arange(12.0).reshape(2, 6)
    m = GrowableMatrix(block.T)
    assert not np.shares_memory(m.view, block)
    assert m._buf.shape[1] == m.cols == 2
    block[0, 0] = -1.0
    assert m.view[0, 0] == 0.0
