"""Single-hop ("direct") permutation routing baseline.

Every packet is sent straight from its source group ``a`` to its destination
group ``b`` through coupler ``c(b, a)``; since a coupler carries one packet per
slot, packets sharing a group pair are serialised.  The number of slots is
therefore the maximum, over ordered group pairs, of the number of packets
travelling between that pair — which is also optimal among *all* single-hop
schedules (a coupler is the only path between its two groups).

The baseline serves two purposes in the benchmarks:

* it is the natural strategy the paper's two-hop algorithm is implicitly
  compared against: on group-blocked traffic it needs ``d`` slots versus the
  universal router's ``2⌈d/g⌉``;
* on traffic that is already balanced over group pairs it is optimal — for the
  matrix transpose it achieves the ``⌈d/g⌉`` slots that [Sahni 2000a] proves
  optimal, which benchmark E5 checks.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.pops.packet import Packet
from repro.pops.schedule import RoutingSchedule
from repro.pops.topology import POPSNetwork
from repro.utils.validation import check_permutation

__all__ = ["DirectRouter", "direct_slots_required", "group_traffic_matrix"]


def group_traffic_matrix(network: POPSNetwork, pi: Sequence[int]) -> list[list[int]]:
    """Return ``traffic[a][b]``: packets going from group ``a`` to group ``b`` under ``pi``."""
    images = check_permutation(pi, network.n)
    traffic = [[0] * network.g for _ in range(network.g)]
    for source, destination in enumerate(images):
        traffic[network.group_of(source)][network.group_of(destination)] += 1
    return traffic


def direct_slots_required(network: POPSNetwork, pi: Sequence[int]) -> int:
    """Slots any single-hop schedule needs for ``pi``: the max group-pair traffic.

    Packets already at their destination (``pi[i] == i``) never need a coupler
    and are excluded from the count, so the identity permutation needs 0 slots.
    """
    images = check_permutation(pi, network.n)
    counts: dict[tuple[int, int], int] = {}
    for source, destination in enumerate(images):
        if source == destination:
            continue
        pair = (network.group_of(source), network.group_of(destination))
        counts[pair] = counts.get(pair, 0) + 1
    return max(counts.values(), default=0)


class DirectRouter:
    """Routes permutations with single-hop transfers only."""

    def __init__(self, network: POPSNetwork):
        self.network = network

    def slots_required(self, pi: Sequence[int]) -> int:
        """Number of slots the direct schedule for ``pi`` will use."""
        return direct_slots_required(self.network, pi)

    def route(self, pi: Sequence[int]) -> RoutingSchedule:
        """Build the direct schedule: packets of each group pair are spread
        round-robin over the slots, one per coupler per slot."""
        network = self.network
        images = check_permutation(pi, network.n)
        packets = [Packet(source=i, destination=images[i]) for i in range(network.n)]
        n_slots = direct_slots_required(network, images)
        schedule = RoutingSchedule(
            network=network, description="direct single-hop baseline"
        )
        slots = [schedule.new_slot() for _ in range(n_slots)]

        # Assign each packet the next free slot of its (source group, dest group) pair.
        next_slot: dict[tuple[int, int], int] = {}
        for packet in packets:
            if packet.source == packet.destination:
                # A packet already at its destination never needs a coupler.
                continue
            pair = (
                network.group_of(packet.source),
                network.group_of(packet.destination),
            )
            index = next_slot.get(pair, 0)
            next_slot[pair] = index + 1
            coupler = network.coupler(pair[1], pair[0])
            slots[index].add_transmission(packet.source, coupler, packet)
            slots[index].add_reception(packet.destination, coupler)
        return schedule

    def route_packets(self, packets: list[Packet]) -> RoutingSchedule:
        """Direct-route an arbitrary packet set (at most one packet per source,
        distinct destinations); used by collectives and tests."""
        network = self.network
        counts: dict[tuple[int, int], int] = {}
        for packet in packets:
            if packet.source == packet.destination:
                continue
            pair = (
                network.group_of(packet.source),
                network.group_of(packet.destination),
            )
            counts[pair] = counts.get(pair, 0) + 1
        n_slots = max(counts.values(), default=0)
        schedule = RoutingSchedule(
            network=network, description="direct single-hop baseline (packet set)"
        )
        slots = [schedule.new_slot() for _ in range(n_slots)]
        next_slot: dict[tuple[int, int], int] = {}
        for packet in packets:
            if packet.source == packet.destination:
                continue
            pair = (
                network.group_of(packet.source),
                network.group_of(packet.destination),
            )
            index = next_slot.get(pair, 0)
            next_slot[pair] = index + 1
            coupler = network.coupler(pair[1], pair[0])
            slots[index].add_transmission(packet.source, coupler, packet)
            slots[index].add_reception(packet.destination, coupler)
        return schedule
