"""Windowed data operations: consecutive sums, adjacent sums, circular shifts.

The paper's introduction lists, among the algorithms previously developed for
the POPS network, "data sum, prefix sum, consecutive sum, adjacent sum, and
several data movement operations" ([Sahni 2000b]).  Data sum and prefix sum
live in :mod:`repro.algorithms.reduction` and
:mod:`repro.algorithms.prefix_sum`; this module completes the catalogue:

* **consecutive sum** — processor ``i`` obtains the sum of the values held by
  the window ``i, i+1, …, i+w-1`` (cyclically).  Implemented with ``w - 1``
  routed circular shifts, i.e. ``(w-1)·2⌈d/g⌉`` slots.
* **adjacent sum** — the ``w = 2`` special case (each processor adds its right
  neighbour's value).
* **circular shift** — the underlying data-movement operation, exposed
  directly because it is one of [Sahni 2000b]'s primitive operations; a single
  permutation, so ``2⌈d/g⌉`` slots (1 when ``d = 1``).

Every operation is executed end-to-end on the simulator via
:class:`~repro.algorithms.exchange.PermutationEngine`, so the returned slot
counts are measured, not computed, on the default ``Session()`` pair.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from repro.algorithms.exchange import PermutationEngine
from repro.exceptions import ValidationError
from repro.patterns.families import cyclic_shift
from repro.pops.topology import POPSNetwork
from repro.utils.validation import check_positive_int

__all__ = ["circular_shift", "consecutive_sum", "adjacent_sum"]


def circular_shift(
    network: POPSNetwork,
    values: Sequence[Any],
    offset: int = 1,
) -> tuple[list[Any], int]:
    """Move every processor's value ``offset`` positions forward (cyclically).

    Returns ``(shifted, slots)`` with ``shifted[(i + offset) % n] == values[i]``.
    """
    if len(values) != network.n:
        raise ValidationError(f"expected {network.n} values, got {len(values)}")
    engine = PermutationEngine(network)
    shifted = engine.permute(list(values), cyclic_shift(network.n, offset))
    return shifted, engine.slots_used


def consecutive_sum(
    network: POPSNetwork,
    values: Sequence[Any],
    window: int,
    combine: Callable[[Any, Any], Any] = lambda a, b: a + b,
) -> tuple[list[Any], int]:
    """Cyclic windowed reduction: result[i] = values[i] ⊕ … ⊕ values[(i+window-1) % n].

    ``window`` must be between 1 and ``n``.  Uses ``window - 1`` circular
    shifts of the running copy, so the cost is ``(window-1) · 2⌈d/g⌉`` slots
    (``window - 1`` slots when ``d = 1``).
    """
    check_positive_int(window, "window")
    n = network.n
    if window > n:
        raise ValidationError(f"window {window} exceeds the processor count {n}")
    if len(values) != n:
        raise ValidationError(f"expected {n} values, got {len(values)}")

    engine = PermutationEngine(network)
    result = list(values)
    rotating = list(values)
    # After k backward shifts, processor i holds values[(i + k) % n]; adding it
    # to the accumulator extends every window by one element on the right.
    for _ in range(window - 1):
        rotating = engine.permute(rotating, cyclic_shift(n, -1))
        result = [combine(result[i], rotating[i]) for i in range(n)]
    return result, engine.slots_used


def adjacent_sum(
    network: POPSNetwork,
    values: Sequence[Any],
    combine: Callable[[Any, Any], Any] = lambda a, b: a + b,
) -> tuple[list[Any], int]:
    """Each processor combines its own value with its right neighbour's
    (cyclically): the ``window = 2`` consecutive sum of [Sahni 2000b]."""
    return consecutive_sum(network, values, window=2, combine=combine)
