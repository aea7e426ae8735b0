"""The duplicate check shared by the routing pipeline's validators, and the
bounded cache of its shape-only arrays."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.arrayops import first_repeat, read_only, repeat_rows, shape_cache


def _reference(keys: np.ndarray):
    """First row with a repeat and its smallest repeated value, by sorting."""
    for row, row_keys in enumerate(keys):
        values, counts = np.unique(row_keys, return_counts=True)
        if (counts > 1).any():
            return row, int(values[counts > 1][0])
    return None


#: Dense (at most 4k bins, counted) and sparse (sorted: in 16 bits, then in
#: 64 bits) key spaces.
@pytest.mark.parametrize("n_bins", [16, 4 * 16, 4 * 16 + 1, 10_000, 10**9])
@pytest.mark.parametrize("seed", range(20))
def test_first_repeat_matches_a_sorted_scan(n_bins, seed):
    rng = np.random.default_rng(seed)
    keys = np.stack([rng.choice(n_bins, size=16, replace=False) for _ in range(4)])
    if seed % 2:
        row, i, j = rng.integers(4), rng.integers(16), rng.integers(16)
        keys[row, i] = keys[row, j]
        keys[-1, 0] = keys[-1, 1]  # a later row repeats too
    assert first_repeat(keys, n_bins) == _reference(keys)


@pytest.mark.parametrize("n_bins", [8, 1000, 10**9])
def test_first_repeat_of_distinct_and_empty_rows(n_bins):
    assert first_repeat(np.arange(8).reshape(2, 4), n_bins) is None
    assert first_repeat(np.zeros((3, 0), dtype=np.int64), n_bins) is None
    assert first_repeat(np.array([[0, 1, 2, 3], [7, 3, 7, 3]]), n_bins) == (1, 3)


def _counting_cache(maxsize, max_bytes):
    built = []

    @shape_cache(maxsize=maxsize, max_bytes=max_bytes)
    def arange(size):
        built.append(size)
        return read_only(np.arange(size, dtype=np.int64))

    return arange, built


def test_shape_cache_returns_the_held_result():
    arange, built = _counting_cache(4, 1 << 10)
    assert arange(8) is arange(8)
    assert built == [8]
    assert arange.cache_info() == (1, 4, 64, 1 << 10)
    arange.cache_clear()
    assert arange(8) is not None and built == [8, 8]


def test_shape_cache_evicts_the_oldest_by_count_and_by_bytes():
    arange, built = _counting_cache(2, 1 << 10)
    arange(1), arange(2), arange(3)  # the count bound drops size 1
    assert arange.cache_info().currsize == 2
    arange(2), arange(3)
    assert built == [1, 2, 3]
    arange, built = _counting_cache(8, 1 << 10)
    arange(1), arange(2), arange(3)
    arange(125)  # 1000 bytes: sizes 1 and 2 make room, size 3 still fits
    info = arange.cache_info()
    assert (info.currsize, info.nbytes) == (2, 1024)
    arange(3)
    assert built == [1, 2, 3, 125]


def test_shape_cache_does_not_hold_a_result_over_its_byte_budget():
    arange, built = _counting_cache(4, 1 << 10)
    assert arange(200) is not arange(200)
    assert built == [200, 200]
    assert arange.cache_info().nbytes == 0


def test_repeat_rows_is_a_read_only_broadcast():
    values = read_only(np.arange(5, dtype=np.int64))
    rows = repeat_rows(values, 3)
    assert np.array_equal(rows, np.broadcast_to(values, (3, 5)))
    assert rows.base is values and not rows.flags.writeable
    assert repeat_rows(values, 0).shape == (0, 5)
