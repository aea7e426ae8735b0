"""Array micro-optimisation helpers shared by the vectorized kernels.

Centralises the dtype tricks the batched routing pipeline leans on so each
call site documents *why* it is safe rather than re-deriving it, the
duplicate check its validators share, and the bounded cache that holds its
shape-only arrays.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

__all__ = [
    "ShapeCacheInfo",
    "array_bytes",
    "first_repeat",
    "read_only",
    "repeat_rows",
    "shape_cache",
    "shrink_sort_key",
]

#: Largest key value that still fits the 16-bit fast path.
_INT16_MAX = int(np.iinfo(np.int16).max)

#: :func:`first_repeat` counts a key space of at most this many bins per key
#: and sorts a larger one.  Measured on a 2-core x86-64 VM for 2 and 8 rows
#: of 1024 to 16384 keys: counting beats the sort up to 4 bins per key
#: (12 vs 16 µs at 2 × 1024 keys), the two meet at about 8, and from 16 on
#: the sort wins (86 vs 59 µs at 2 × 4096 keys) and its memory stops growing
#: with the key space.
DENSE_KEY_FACTOR = 4


def read_only(values: np.ndarray) -> np.ndarray:
    """``values``, marked read-only: cached shape arrays are shared by every caller."""
    values.setflags(write=False)
    return values


def repeat_rows(values: np.ndarray, n_rows: int) -> np.ndarray:
    """The read-only 1-d array ``values`` as ``n_rows`` identical rows, without a copy.

    The zero-stride view :func:`numpy.broadcast_to` returns, built directly
    by the ``ndarray`` constructor: about 1.5 µs a call against 5.5 µs
    (2-core x86-64 VM), and a B = 1 route asks for up to three.  The view is
    read-only because ``values`` is; a non-contiguous ``values`` raises
    ``ValueError``.
    """
    return np.ndarray((n_rows, values.size), values.dtype, values, 0, (0, values.itemsize))


def array_bytes(value) -> int:
    """Bytes of the numpy arrays ``value`` holds.

    Walks tuples, lists, mappings and dataclass fields; any other object
    counts as nothing.
    """
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(array_bytes(item) for item in value)
    if isinstance(value, Mapping):
        return sum(array_bytes(item) for item in value.values())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(
            array_bytes(getattr(value, field.name)) for field in dataclasses.fields(value)
        )
    return 0


class ShapeCacheInfo(NamedTuple):
    """Occupancy of a :func:`shape_cache`."""

    currsize: int
    maxsize: int
    nbytes: int
    max_bytes: int


def shape_cache(maxsize: int, max_bytes: int):
    """Decorator: cache a shape builder, bounded in entries and in bytes.

    The decorated function takes hashable shape arguments and returns
    read-only arrays (sized by :func:`array_bytes`).  At most ``maxsize``
    results and ``max_bytes`` of their arrays are kept, the oldest evicted
    first.  A result larger than ``max_bytes`` on its own is returned
    uncached: a large shape is built on every call and held by no one after
    it.  A hit is one dict lookup; the wrapper has ``cache_info()`` and
    ``cache_clear()`` like :func:`functools.lru_cache`.
    """

    def decorate(build):
        entries: dict = {}
        held = [0]
        lock = threading.Lock()

        @functools.wraps(build)
        def cached(*key):
            entry = entries.get(key)
            if entry is not None:
                return entry[0]
            value = build(*key)
            nbytes = array_bytes(value)
            if nbytes > max_bytes:
                return value
            with lock:
                if key not in entries:
                    while entries and (
                        len(entries) >= maxsize or held[0] + nbytes > max_bytes
                    ):
                        held[0] -= entries.pop(next(iter(entries)))[1]
                    entries[key] = (value, nbytes)
                    held[0] += nbytes
            return value

        def cache_info() -> ShapeCacheInfo:
            return ShapeCacheInfo(len(entries), maxsize, held[0], max_bytes)

        def cache_clear() -> None:
            with lock:
                entries.clear()
                held[0] = 0

        cached.cache_info = cache_info
        cached.cache_clear = cache_clear
        return cached

    return decorate


def shrink_sort_key(key: np.ndarray, bound: int) -> np.ndarray:
    """Return ``key`` ready for sorting, in 16 bits when the values fit.

    NumPy sorts 16-bit integers with a radix sort — roughly an order of
    magnitude faster than the comparison sort used for wider integers.  When
    the caller can bound the key values by ``bound <= 2**15 - 1`` the cast is
    value-preserving, and both ``np.sort`` (same numbers out) and stable
    ``np.argsort`` (equal keys stay equal, so the permutation is unchanged)
    are bit-identical to sorting the original array.  Larger bounds return
    ``key`` untouched.
    """
    if 0 <= bound <= _INT16_MAX:
        return key.astype(np.int16)
    return key


def first_repeat(keys: np.ndarray, n_bins: int) -> tuple[int, int] | None:
    """The first row of ``keys`` that holds a value twice, and its smallest such value.

    ``keys`` is a ``(S, k)`` array of integers in ``[0, n_bins)``, one
    segment per row; the duplicate checks of the routing pipeline order their
    segments so that the first offending row, and the smallest repeat in it,
    is the row-major first offender a sort of each row would have found.
    Returns ``(row, value)``, or ``None`` when every row is duplicate-free.

    Dense key spaces (``n_bins <= DENSE_KEY_FACTOR · k``) are counted with
    one ``bincount`` over ``S · n_bins`` bins; sparse ones (at ``d ≪ g`` the
    g² couplers or ``n1·n2`` pairs of a row) are sorted row by row and
    scanned for equal neighbours.  Either way the working memory is a small
    multiple of ``keys``, whatever ``n_bins`` is.
    """
    n_rows, k = keys.shape
    if not keys.size:
        return None
    if n_bins <= DENSE_KEY_FACTOR * k:
        counts = np.bincount(
            (keys + np.arange(0, n_rows * n_bins, n_bins, dtype=np.int64)[:, None]).ravel(),
            minlength=n_rows * n_bins,
        )
        if counts.max() < 2:
            return None
        return divmod(int(np.argmax(counts > 1)), n_bins)
    ordered = np.sort(shrink_sort_key(keys, n_bins - 1), axis=1)
    repeats = ordered[:, 1:] == ordered[:, :-1]
    if not repeats.any():
        return None
    row = int(np.argmax(repeats.any(axis=1)))
    return row, int(ordered[row, np.argmax(repeats[row])])
