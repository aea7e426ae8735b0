"""Value exchange: execute a permutation of per-processor values on the simulator.

Every collective in :mod:`repro.algorithms` decomposes into rounds of
"permute the processors' values according to ``π``, then combine locally".
:class:`PermutationEngine` owns the permute step: it routes payload-carrying
packets with the universal router (or any other router exposing ``route``),
executes the schedule through the :class:`~repro.api.session.Session` layer
(default: ``Session()``, whose ``batched`` engine runs these consuming
permutation rounds itself), verifies delivery and returns both the new
value vector and the number of slots consumed.  Slot counts accumulated by
the engine are what benchmark E8 reports.

Compiled schedules are *not* memoised across rounds: the packets carry the
round's values as payloads, and a cache hit would resurrect the first round's
payload-carrying universe (the documented key contract of
:func:`repro.pops.engine.compile_state`), so each round compiles
fresh and only the execution is vectorized.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.api.session import Session
from repro.exceptions import DeliveryError
from repro.pops.packet import Packet
from repro.pops.topology import POPSNetwork
from repro.routing.permutation_router import PermutationRouter
from repro.utils.validation import check_permutation

__all__ = ["permute_values", "PermutationEngine"]


class PermutationEngine:
    """Executes value permutations on a POPS network and tracks slot usage.

    Parameters
    ----------
    network:
        The POPS network to run on.
    session:
        Session supplying the router backend and the simulator engine;
        defaults to ``Session()`` (``euler-array`` on ``batched``).  Every
        executed schedule is checked for correct delivery.
    """

    def __init__(self, network: POPSNetwork, session: Session | None = None):
        self.network = network
        self.session = Session() if session is None else session
        self.router = PermutationRouter(
            network, backend=self.session.config.router_backend
        )
        self.slots_used = 0
        self.rounds_executed = 0

    def permute(self, values: Sequence[Any], pi: Sequence[int]) -> list[Any]:
        """Return the value vector after sending ``values[i]`` to processor ``pi[i]``."""
        network = self.network
        images = check_permutation(pi, network.n)
        if len(values) != network.n:
            raise DeliveryError(
                f"expected {network.n} values, got {len(values)}"
            )
        plan = self.router.route(images)
        packets = [
            Packet(source=i, destination=images[i], payload=values[i])
            for i in range(network.n)
        ]
        # The plan's schedule references Packet(source, destination) values that
        # compare equal to the payload-carrying ones (payload is excluded from
        # equality), so the same schedule moves the payloads.
        result = self.session.simulate(plan.schedule, packets, verify=True)
        self.slots_used += plan.n_slots
        self.rounds_executed += 1

        new_values: list[Any] = [None] * network.n
        for processor in network.processors():
            held = result.packets_at(processor)
            if len(held) != 1:
                raise DeliveryError(
                    f"processor {processor} holds {len(held)} packets after the "
                    "permutation; expected exactly one"
                )
            new_values[processor] = held[0].payload
        return new_values

    def reset_counters(self) -> None:
        """Zero the accumulated slot and round counters."""
        self.slots_used = 0
        self.rounds_executed = 0


def permute_values(
    network: POPSNetwork,
    values: Sequence[Any],
    pi: Sequence[int],
    session: Session | None = None,
) -> tuple[list[Any], int]:
    """One-shot helper: permute ``values`` by ``pi`` and return ``(new_values, slots)``."""
    engine = PermutationEngine(network, session=session)
    new_values = engine.permute(values, pi)
    return new_values, engine.slots_used
