"""One-to-all broadcast (Section 1 of the paper).

The speaker drives *all* of its ``g`` transmitters with the same packet in a
single slot; every other processor reads the coupler fed by the speaker's
group.  This is the one-slot broadcast the paper describes when introducing
the architecture, and it doubles as a smoke test that the simulator's
broadcast semantics (non-consuming transmissions, one coupler read by many
processors) match the model.

Execution goes through the :class:`~repro.api.session.Session` layer, by
default ``Session()``, whose ``batched`` engine dispatches broadcast schedules
to the vectorized multi-location :mod:`repro.pops.collective_engine` — the
reference simulator is no longer on the path for any broadcast size.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Any

from repro.api.session import Session
from repro.pops.packet import Packet
from repro.pops.schedule import RoutingSchedule
from repro.pops.topology import POPSNetwork
from repro.utils.validation import check_in_range

__all__ = ["one_to_all_broadcast", "execute_broadcast"]


def one_to_all_broadcast(
    network: POPSNetwork, speaker: int, payload: Any = None
) -> tuple[RoutingSchedule, Packet]:
    """Build the one-slot broadcast schedule from ``speaker`` to every processor.

    Returns the schedule and the broadcast packet (destination is set to the
    speaker itself; the delivery test for broadcasts is "every processor holds
    a copy", not the permutation check).
    """
    check_in_range(speaker, 0, network.n, "speaker")
    packet = Packet(source=speaker, destination=speaker, payload=payload)
    schedule = RoutingSchedule(
        network=network, description=f"one-to-all broadcast from {speaker}"
    )
    slot = schedule.new_slot()
    speaker_group = network.group_of(speaker)
    for dest_group in network.groups():
        coupler = network.coupler(dest_group, speaker_group)
        slot.add_transmission(speaker, coupler, packet, consume=False)
    for processor in network.processors():
        if processor == speaker:
            continue
        coupler = network.coupler(network.group_of(processor), speaker_group)
        slot.add_reception(processor, coupler)
    return schedule, packet


def execute_broadcast(
    network: POPSNetwork,
    speaker: int,
    payload: Any,
    session: Session | None = None,
    cache_key: Hashable | None = None,
) -> tuple[list[Any], int]:
    """Run the broadcast on the simulator; return the per-processor values and slots used.

    Every processor (including the speaker) ends up with ``payload``.  Pass a
    ``session`` to choose the engine/cache explicitly (default:
    ``Session()``); ``cache_key`` memoises the compiled schedule in the
    session's cache (sound only when the key determines network, speaker
    *and* payload — see
    :func:`repro.pops.engine.compile_state`, the one place the cache is
    read; a broadcast is stored in its copy-count layout).
    """
    schedule, packet = one_to_all_broadcast(network, speaker, payload)
    if session is None:
        session = Session()
    result = session.simulate(schedule, [packet], cache_key=cache_key)
    values: list[Any] = [None] * network.n
    for processor in network.processors():
        held = result.packets_at(processor)
        values[processor] = held[0].payload if held else None
    return values, schedule.n_slots
