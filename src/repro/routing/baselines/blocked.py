"""Specialised router for group-blocked permutations (Sahni-style baseline).

A permutation is *group-blocked* when all processors of a group map into a
single destination group (so the induced map on groups is itself a
permutation).  Vector reversal, the hypercube dimension-exchange patterns of
[Sahni 2000b] (for ``2^b >= d``), and the mesh row/column shifts are all of
this form, and the prior literature routes each of them in ``2⌈d/g⌉`` slots
with a hand-crafted schedule.

For this class no edge colouring is needed: the closed formula

* ``f(h, i) = (h + i) mod g``  when ``d <= g``,
* ``f(h, i) = (h + i) mod d``  when ``d > g``

is already a fair distribution.  Condition (1) holds because ``f(h, ·)`` is
injective, condition (2) because each value is hit exactly once per source
group, and condition (3) because packets with equal destination group all come
from the same source group (the induced group map is a bijection) and hence
receive distinct values by condition (1).  Feeding the formula to the shared
two-hop builder reproduces the specialised ``2⌈d/g⌉``-slot routings without
any general machinery — this is the baseline benchmark E5/E6 compares the
universal router against.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.exceptions import RoutingError
from repro.pops.packet import Packet
from repro.pops.schedule import RoutingSchedule
from repro.pops.topology import POPSNetwork
from repro.routing.lower_bounds import is_group_blocked
from repro.routing.two_hop import build_theorem2_schedule
from repro.utils.validation import check_permutation

__all__ = ["BlockedPermutationRouter", "blocked_fair_values"]


def blocked_fair_values(network: POPSNetwork, h: int, i: int) -> int:
    """The closed-formula fair distribution for group-blocked permutations."""
    modulus = network.g if network.d <= network.g else network.d
    return (h + i) % modulus


class BlockedPermutationRouter:
    """Routes group-blocked permutations in ``2⌈d/g⌉`` slots without edge colouring."""

    def __init__(self, network: POPSNetwork):
        self.network = network

    def can_route(self, pi: Sequence[int]) -> bool:
        """True iff ``pi`` is group-blocked on this network."""
        return is_group_blocked(self.network, pi)

    def slots_required(self) -> int:
        """Slot count used for every routable permutation (1 when d == 1)."""
        d, g = self.network.d, self.network.g
        if d == 1:
            return 1
        return 2 * ((d + g - 1) // g)

    def route(self, pi: Sequence[int]) -> RoutingSchedule:
        """Build the specialised schedule for a group-blocked permutation.

        Raises
        ------
        RoutingError
            If ``pi`` is not group-blocked.
        """
        network = self.network
        images = check_permutation(pi, network.n)
        if not is_group_blocked(network, images):
            raise RoutingError(
                "BlockedPermutationRouter requires a group-blocked permutation; "
                "use PermutationRouter for arbitrary permutations"
            )
        packets = [Packet(source=i, destination=images[i]) for i in range(network.n)]

        if network.d == 1:
            # Single-slot direct routing: a group-blocked permutation on d = 1
            # moves the unique packet of each group to its (unique) target group.
            schedule = RoutingSchedule(
                network=network, description="blocked baseline (d=1 direct)"
            )
            slot = schedule.new_slot()
            for packet in packets:
                coupler = network.coupler(
                    network.group_of(packet.destination),
                    network.group_of(packet.source),
                )
                slot.add_transmission(packet.source, coupler, packet)
                slot.add_reception(packet.destination, coupler)
            return schedule

        schedule, _ = build_theorem2_schedule(
            network,
            packets,
            lambda h, i: blocked_fair_values(network, h, i),
            description="blocked-permutation specialised baseline",
        )
        return schedule
