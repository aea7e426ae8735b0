"""Single-slot routability (Fact 1 / Gravenstreter–Melhem).

A set of packets, one per source processor and with pairwise distinct
destinations, can be routed in a single slot iff no two packets that originate
in the same group are headed for the same destination group: that is exactly
the condition under which every packet can be assigned its own coupler
``c(dest_group, source_group)`` with no conflicts (the paper's *fair
distribution* of packets already sitting at their sources).

For full permutations this is a very small class — whenever two packets of one
group target the same group, a second slot is unavoidable (the paper's Figure 3
discussion) — but the class matters both as the paper's Fact 1 building block
(the second slot of every round is exactly such a routing) and as the
characterisation of [Gravenstreter & Melhem 1998].
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.exceptions import NotRoutableInOneSlotError
from repro.pops.packet import Packet
from repro.pops.schedule import RoutingSchedule
from repro.pops.topology import POPSNetwork
from repro.utils.validation import check_permutation

__all__ = ["is_one_slot_routable", "one_slot_schedule", "OneSlotRouter"]


def is_one_slot_routable(network: POPSNetwork, pi: Sequence[int]) -> bool:
    """True iff permutation ``pi`` can be routed on ``network`` in a single slot.

    The criterion is the Gravenstreter–Melhem condition: no two packets with
    the same source group share a destination group.
    """
    images = check_permutation(pi, network.n)
    used: set[tuple[int, int]] = set()
    for source, destination in enumerate(images):
        if source == destination:
            # A packet already at its destination needs no coupler at all.
            continue
        key = (network.group_of(source), network.group_of(destination))
        if key in used:
            return False
        used.add(key)
    return True


def one_slot_schedule(
    network: POPSNetwork, packets: list[Packet], description: str = "one-slot direct"
) -> RoutingSchedule:
    """Build the single-slot schedule for a fairly distributed packet set.

    ``packets`` must satisfy: at most one packet per source processor, pairwise
    distinct destinations, and no two packets with equal source and destination
    groups.  Each packet is sent through ``c(group(dest), group(src))`` and read
    by its destination processor.

    Raises
    ------
    NotRoutableInOneSlotError
        If two packets would collide on a coupler or a destination processor.
    """
    schedule = RoutingSchedule(network=network, description=description)
    slot = schedule.new_slot()
    couplers_used: set[tuple[int, int]] = set()
    sources_used: set[int] = set()
    destinations_used: set[int] = set()
    for packet in packets:
        if packet.source == packet.destination:
            # Stationary packets stay in their processor's memory.
            continue
        source_group = network.group_of(packet.source)
        dest_group = network.group_of(packet.destination)
        if packet.source in sources_used:
            raise NotRoutableInOneSlotError(
                f"processor {packet.source} would have to send two packets"
            )
        if packet.destination in destinations_used:
            raise NotRoutableInOneSlotError(
                f"processor {packet.destination} would have to receive two packets"
            )
        if (dest_group, source_group) in couplers_used:
            raise NotRoutableInOneSlotError(
                f"coupler c({dest_group},{source_group}) needed by two packets; "
                "the packet set is not fairly distributed"
            )
        sources_used.add(packet.source)
        destinations_used.add(packet.destination)
        couplers_used.add((dest_group, source_group))
        coupler = network.coupler(dest_group, source_group)
        slot.add_transmission(packet.source, coupler, packet)
        slot.add_reception(packet.destination, coupler)
    return schedule


class OneSlotRouter:
    """Router restricted to single-slot routable permutations.

    Useful as the optimal baseline on the (small) class it covers and as the
    delivery step used by the universal router's second slots.
    """

    def __init__(self, network: POPSNetwork):
        self.network = network

    def can_route(self, pi: Sequence[int]) -> bool:
        """True iff ``pi`` is single-slot routable on this network."""
        return is_one_slot_routable(self.network, pi)

    def route(self, pi: Sequence[int]) -> RoutingSchedule:
        """Return a one-slot schedule for ``pi``.

        Raises
        ------
        NotRoutableInOneSlotError
            If ``pi`` does not satisfy the Gravenstreter–Melhem condition.
        """
        images = check_permutation(pi, self.network.n)
        if not is_one_slot_routable(self.network, images):
            raise NotRoutableInOneSlotError(
                "permutation has two same-group packets with a common destination group"
            )
        packets = [Packet(source=i, destination=images[i]) for i in range(self.network.n)]
        return one_slot_schedule(self.network, packets, description="one-slot permutation")
