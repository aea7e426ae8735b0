"""Prefix sums via hypercube dimension exchanges.

The classical hypercube prefix-sum algorithm keeps two registers per
processor: the running prefix value and the subtree total.  In round ``b``
processor ``i`` exchanges its subtree total with ``i XOR 2^b``; the total is
always accumulated, while the prefix is only updated when the partner's index
is smaller (bit ``b`` of ``i`` is one).  Each exchange is a permutation routed
by the universal router, so the POPS cost is ``2⌈d/g⌉·log2 n`` slots
(``log2 n`` when ``d = 1``) — the consecutive-sum / prefix-sum operations of
[Sahni 2000b] realised through a single universal primitive.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any

from repro.algorithms.exchange import PermutationEngine
from repro.exceptions import ValidationError
from repro.patterns.families import hypercube_exchange
from repro.pops.topology import POPSNetwork
from repro.utils.bitops import bit_length_exact, get_bit, is_power_of_two

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session

__all__ = ["hypercube_prefix_sum"]


def hypercube_prefix_sum(
    network: POPSNetwork,
    values: Sequence[Any],
    combine: Callable[[Any, Any], Any] = lambda a, b: a + b,
    session: Session | None = None,
) -> tuple[list[Any], int]:
    """Inclusive prefix reduction of ``values`` under ``combine``.

    Returns ``(prefix_vector, slots_used)`` where
    ``prefix_vector[i] = values[0] ⊕ ... ⊕ values[i]``.  The operator must be
    associative; the processor count must be a power of two.  Each exchange
    runs through ``session`` (default: ``Session()``).
    """
    n = network.n
    if not is_power_of_two(n):
        raise ValidationError(
            f"hypercube prefix sum requires a power-of-two processor count, got {n}"
        )
    if len(values) != n:
        raise ValidationError(f"expected {n} values, got {len(values)}")

    engine = PermutationEngine(network, session=session)
    prefix = list(values)
    total = list(values)
    for bit in range(bit_length_exact(n)):
        exchanged = engine.permute(total, hypercube_exchange(n, bit))
        new_total = list(total)
        new_prefix = list(prefix)
        for i in range(n):
            if get_bit(i, bit):
                # Partner has the lower index: its subtree precedes ours.
                new_total[i] = combine(exchanged[i], total[i])
                new_prefix[i] = combine(exchanged[i], prefix[i])
            else:
                new_total[i] = combine(total[i], exchanged[i])
        prefix, total = new_prefix, new_total
    return prefix, engine.slots_used
