"""Data sum / all-reduce via hypercube dimension exchanges.

[Sahni 2000b] builds the POPS data-sum algorithm from the hypercube simulation
primitives: in round ``b`` every processor exchanges its partial sum with the
processor whose index differs in bit ``b`` and adds the received value.  After
``log2 n`` rounds every processor holds the total (an all-reduce).  Each round
is a permutation (the dimension-``b`` exchange), so the universal router
executes it in ``2⌈d/g⌉`` slots and the whole reduction in
``2⌈d/g⌉·log2 n`` slots (``log2 n`` when ``d = 1``) — the figure benchmark E8
reports.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any

from repro.algorithms.exchange import PermutationEngine
from repro.exceptions import ValidationError
from repro.patterns.families import hypercube_exchange
from repro.pops.topology import POPSNetwork
from repro.utils.bitops import bit_length_exact, is_power_of_two

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session

__all__ = ["hypercube_allreduce", "data_sum"]


def hypercube_allreduce(
    network: POPSNetwork,
    values: Sequence[Any],
    combine: Callable[[Any, Any], Any],
    backend: str = "konig",
    session: Session | None = None,
) -> tuple[list[Any], int]:
    """All-reduce ``values`` with the associative/commutative operator ``combine``.

    Returns ``(result_vector, slots_used)``; every entry of the result vector
    equals the reduction of all inputs.  The processor count must be a power of
    two (the hypercube embedding of [Sahni 2000b]).  Each exchange round
    executes through the :class:`~repro.api.session.Session` layer (``session``
    or a fresh ``batched``-engine session), so the rounds run on the
    vectorized batched engine.
    """
    n = network.n
    if not is_power_of_two(n):
        raise ValidationError(
            f"hypercube all-reduce requires a power-of-two processor count, got {n}"
        )
    if len(values) != n:
        raise ValidationError(f"expected {n} values, got {len(values)}")
    engine = PermutationEngine(network, backend=backend, session=session)
    current = list(values)
    for bit in range(bit_length_exact(n)):
        exchanged = engine.permute(current, hypercube_exchange(n, bit))
        current = [combine(mine, theirs) for mine, theirs in zip(current, exchanged)]
    return current, engine.slots_used


def data_sum(
    network: POPSNetwork,
    values: Sequence[float],
    backend: str = "konig",
    session: Session | None = None,
) -> tuple[float, int]:
    """Sum one value per processor; return ``(total, slots_used)``.

    Implemented as a hypercube all-reduce with addition, mirroring the data sum
    operation of [Sahni 2000b].
    """
    reduced, slots = hypercube_allreduce(
        network, list(values), lambda a, b: a + b, backend=backend, session=session
    )
    return reduced[0], slots
