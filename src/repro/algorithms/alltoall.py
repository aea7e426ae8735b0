"""All-to-all, gather and scatter collectives built on the h-relation router.

These are the "data movement operations" flavour of the POPS literature
([Sahni 2000b] and follow-ups) expressed through the h-relation extension:

* **all-to-all personalised exchange** — every processor sends a distinct
  value to every other processor: an ``(n - 1)``-relation;
* **scatter** — one root sends a distinct value to every processor: out-degree
  ``n - 1`` at the root, in-degree 1 elsewhere;
* **gather** — every processor sends its value to one root: in-degree
  ``n - 1`` at the root.

Each collective is executed end-to-end on the slot-accurate simulator —
through the :class:`~repro.api.session.Session` layer on the ``batched``
engine, so the consuming h-relation rounds run vectorized — and returns both the
received data and the number of slots consumed, so the benchmarks can compare
measured slot counts against the ``h · 2⌈d/g⌉`` decomposition bound.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from repro.algorithms._session import collective_session
from repro.exceptions import ValidationError
from repro.pops.packet import Packet
from repro.pops.topology import POPSNetwork
from repro.routing.relation import HRelationRouter
from repro.utils.validation import check_in_range

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session

__all__ = ["all_to_all_personalized", "scatter", "gather"]


def _execute_relation(
    network: POPSNetwork,
    packets: list[Packet],
    backend: str,
    session: Session | None,
) -> tuple[dict[int, list[Packet]], int]:
    """Route ``packets`` as an h-relation, simulate, and return final buffers."""
    if session is not None:
        backend = session.config.router_backend
    router = HRelationRouter(network, backend=backend)
    plan = router.route_packets(packets)
    result = collective_session(session).simulate(
        plan.schedule, packets, verify=True
    )
    return result.buffers, plan.n_slots


def all_to_all_personalized(
    network: POPSNetwork,
    values: Sequence[Sequence[Any]],
    backend: str = "konig",
    session: Session | None = None,
) -> tuple[list[list[Any]], int]:
    """Personalised all-to-all exchange.

    ``values[i][j]`` is the value processor ``i`` sends to processor ``j``.
    Returns ``(received, slots)`` where ``received[j][i]`` is the value ``j``
    obtained from ``i`` (the transpose of the input, carried by real routed
    packets rather than a local transpose).
    """
    n = network.n
    if len(values) != n or any(len(row) != n for row in values):
        raise ValidationError(f"values must be an {n} x {n} table")

    packets = [
        Packet(source=i, destination=j, payload=values[i][j])
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    buffers, slots = _execute_relation(network, packets, backend, session)

    received: list[list[Any]] = [[None] * n for _ in range(n)]
    for j in range(n):
        received[j][j] = values[j][j]
        for packet in buffers[j]:
            received[j][packet.source] = packet.payload
    return received, slots


def scatter(
    network: POPSNetwork,
    root: int,
    values: Sequence[Any],
    backend: str = "konig",
    session: Session | None = None,
) -> tuple[list[Any], int]:
    """Scatter ``values[j]`` from ``root`` to every processor ``j``.

    Returns ``(received, slots)`` with ``received[j] == values[j]``.
    """
    check_in_range(root, 0, network.n, "root")
    if len(values) != network.n:
        raise ValidationError(f"expected {network.n} values, got {len(values)}")
    packets = [
        Packet(source=root, destination=j, payload=values[j])
        for j in range(network.n)
        if j != root
    ]
    buffers, slots = _execute_relation(network, packets, backend, session)
    received: list[Any] = [None] * network.n
    received[root] = values[root]
    for j in range(network.n):
        for packet in buffers[j]:
            if packet.source == root:
                received[j] = packet.payload
    return received, slots


def gather(
    network: POPSNetwork,
    root: int,
    values: Sequence[Any],
    backend: str = "konig",
    session: Session | None = None,
) -> tuple[list[Any], int]:
    """Gather every processor's value at ``root``.

    Returns ``(collected, slots)`` where ``collected[i]`` is processor ``i``'s
    value as received by the root.
    """
    check_in_range(root, 0, network.n, "root")
    if len(values) != network.n:
        raise ValidationError(f"expected {network.n} values, got {len(values)}")
    packets = [
        Packet(source=i, destination=root, payload=values[i])
        for i in range(network.n)
        if i != root
    ]
    buffers, slots = _execute_relation(network, packets, backend, session)
    collected: list[Any] = [None] * network.n
    collected[root] = values[root]
    for packet in buffers[root]:
        collected[packet.source] = packet.payload
    return collected, slots
