"""Oracle test for the pointer-doubling orbit minima of the Euler split.

:func:`repro.graph.array_coloring._orbit_minima` has three tiers chosen by the
permutation size ``m`` — a two-gather loop below ``2**13``, a packed
``uint32`` word for ``2**13 <= m <= 2**16`` and a packed ``int64`` word above.
Each tier is compared here with a brute-force cycle walk, on the step maps the
kernel feeds it (unions of two pairings) and on one single long cycle, the
worst case for ``limit``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.array_coloring import _orbit_minima

SIZES = [2, 6, 1024, 2**13 - 2, 2**13, 2**16, 2**16 + 2]
STEP_DTYPES = [np.uint32, np.int64]


def walked_minima(step: np.ndarray) -> np.ndarray:
    """Orbit minima by walking every cycle of ``step`` once."""
    step = step.tolist()
    minima = [-1] * len(step)
    for start in range(len(step)):
        if minima[start] >= 0:
            continue
        cycle = [start]
        node = step[start]
        while node != start:
            cycle.append(node)
            node = step[node]
        low = min(cycle)
        for node in cycle:
            minima[node] = low
    return np.array(minima, dtype=np.int64)


def pairing_union_step(m: int, rng) -> np.ndarray:
    """The two-step map ``partner_right(i ^ 1)`` of a random right pairing,
    built the way the Euler split builds it."""
    order = rng.permutation(m)
    first, second = order[0::2], order[1::2]
    step = np.empty(m, dtype=np.int64)
    step[first ^ 1] = second
    step[second ^ 1] = first
    return step


def long_cycle_step(m: int, rng) -> np.ndarray:
    """One cycle through all ``m`` indices, in random order."""
    order = rng.permutation(m)
    step = np.empty(m, dtype=np.int64)
    step[order] = np.roll(order, -1)
    return step


@pytest.mark.parametrize("dtype", STEP_DTYPES, ids=lambda t: np.dtype(t).name)
@pytest.mark.parametrize("m", SIZES)
def test_pairing_union_minima_match_cycle_walk(m, dtype):
    step = pairing_union_step(m, np.random.default_rng(m))
    expected = walked_minima(step)
    # Two-step orbits of a pairing union hold at most m // 2 instances.
    got = _orbit_minima(step.astype(dtype), max(2, m // 2))
    assert np.array_equal(np.asarray(got, dtype=np.int64), expected)


@pytest.mark.parametrize("dtype", STEP_DTYPES, ids=lambda t: np.dtype(t).name)
@pytest.mark.parametrize("m", SIZES)
def test_single_long_cycle_needs_the_full_limit(m, dtype):
    step = long_cycle_step(m, np.random.default_rng(m + 1))
    got = _orbit_minima(step.astype(dtype), m)
    assert np.array_equal(np.asarray(got, dtype=np.int64), np.zeros(m, np.int64))


def test_fixed_points_are_their_own_minima():
    step = np.arange(2**13, dtype=np.int64)
    assert np.array_equal(np.asarray(_orbit_minima(step, 2), np.int64), step)
