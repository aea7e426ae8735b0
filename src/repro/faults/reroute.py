"""Online rerouting of residual traffic over surviving couplers.

When fault-aware execution trips (:class:`~repro.exceptions.CouplerFailedError`),
the error carries the residual packet state — every undelivered packet and the
processor currently holding it.  That residual is an h-relation-shaped traffic
pattern (each processor holds at most a few packets, each destination expects
at most one), and this module re-solves it *online* over the surviving
couplers:

* a packet whose direct coupler ``c(dest_group, holder_group)`` survives is
  delivered in one hop;
* a packet whose direct coupler failed takes a two-hop detour through an
  intermediate group ``m`` with ``c(m, a)`` and ``c(b, m)`` both alive;
* moves are packed greedily into slots under the POPS per-slot rules (one
  packet per coupler, one send and one read per processor).

The resulting :class:`~repro.pops.schedule.RoutingSchedule` is built against
the :class:`~repro.faults.spec.DegradedNetwork` view, so static validation
proves no failed hardware is touched, and the batched engine then runs it
and verifies every residual packet reaches its destination.
:func:`route_with_recovery` packages the whole story — clean route, injected
execution, recovery, verification — into one :class:`FaultRecoveryReport`
comparing total slots against the clean ``2⌈d/g⌉`` bound.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.api.config import RunConfig
from repro.exceptions import CouplerFailedError, RoutingError
from repro.obs import get_tracer
from repro.pops.packet import Packet
from repro.pops.schedule import RoutingSchedule
from repro.pops.topology import Coupler, POPSNetwork
from repro.faults.spec import FaultSpec

__all__ = [
    "ReroutePlan",
    "FaultRecoveryReport",
    "route_on_survivors",
    "reroute_residual",
    "full_reroute",
    "route_with_recovery",
]


def route_on_survivors(
    network: POPSNetwork,
    packets: Sequence[Packet],
    *,
    description: str = "greedy reroute over surviving couplers",
) -> RoutingSchedule:
    """Greedily schedule ``packets`` (source → destination) on ``network``.

    ``network`` is typically a :class:`~repro.faults.spec.DegradedNetwork`;
    the clean network works too (every coupler alive).  Each packet moves
    directly when its coupler survives, else through one intermediate group
    whose two legs both survive.  Slots are packed first-come-first-served
    under the POPS rules.  Raises :class:`RoutingError` when the faults
    disconnect some required group pair (no surviving path can make
    progress), or when a packet sits on / is destined for a failed
    processor.
    """
    pending: list[list[Any]] = []
    for pk in packets:
        if network.processor_failed(pk.source):
            raise RoutingError(
                f"{pk!r} is held by failed processor {pk.source}; "
                "its data is lost and cannot be rerouted"
            )
        if network.processor_failed(pk.destination):
            raise RoutingError(
                f"{pk!r} is destined for failed processor {pk.destination}"
            )
        if pk.source != pk.destination:
            pending.append([pk, pk.source])

    schedule = RoutingSchedule(network=network, description=description)
    g = network.g
    max_slots = 2 * len(pending) + 2
    while pending:
        if schedule.n_slots >= max_slots:  # pragma: no cover - safety net
            raise RoutingError(
                f"reroute made no net progress after {schedule.n_slots} slots; "
                f"{len(pending)} packets still pending"
            )
        used: set[Coupler] = set()
        senders: set[int] = set()
        receivers: set[int] = set()
        moves: list[tuple[list[Any], Coupler, int]] = []
        for entry in pending:
            pk, cur = entry
            if cur in senders:
                continue
            a = network.group_of(cur)
            b = network.group_of(pk.destination)
            direct = Coupler(b, a)
            if not network.coupler_failed(direct):
                if direct in used or pk.destination in receivers:
                    continue  # contended this slot; try again next slot
                moves.append((entry, direct, pk.destination))
                used.add(direct)
                senders.add(cur)
                receivers.add(pk.destination)
                continue
            # Direct coupler failed: two-hop detour through a healthy group.
            for m in range(g):
                first = Coupler(m, a)
                second = Coupler(b, m)
                if network.coupler_failed(first) or network.coupler_failed(second):
                    continue
                if first in used:
                    continue
                via = next(
                    (
                        p
                        for p in network.processors_in_group(m)
                        if p not in receivers and not network.processor_failed(p)
                    ),
                    None,
                )
                if via is None:
                    continue
                moves.append((entry, first, via))
                used.add(first)
                senders.add(cur)
                receivers.add(via)
                break
        if not moves:
            raise RoutingError(
                "fault spec leaves residual traffic unroutable: no surviving "
                f"path makes progress for {len(pending)} pending packets"
            )
        slot = schedule.new_slot()
        for entry, coupler, receiver in moves:
            pk, cur = entry
            slot.add_transmission(cur, coupler, pk)
            slot.add_reception(receiver, coupler)
            entry[1] = receiver
        pending = [entry for entry in pending if entry[1] != entry[0].destination]
    return schedule


@dataclass(frozen=True)
class ReroutePlan:
    """A verified-shape reroute: residual moves and their survivor schedule.

    ``network`` is the degraded view the schedule validates against;
    ``packets`` are the residual moves (``source`` = holder at fault time,
    ``destination`` = the original destination); ``clean_bound`` is the
    clean network's Theorem 2 slot guarantee, the yardstick
    :attr:`overhead_ratio` divides by.
    """

    network: POPSNetwork
    packets: tuple[Packet, ...]
    schedule: RoutingSchedule
    clean_bound: int

    @property
    def n_slots(self) -> int:
        """Slots the reroute schedule occupies."""
        return self.schedule.n_slots

    @property
    def overhead_ratio(self) -> float:
        """Reroute slots over the clean Theorem 2 bound."""
        return self.n_slots / self.clean_bound


def reroute_residual(
    degraded: POPSNetwork,
    residual: Mapping[Packet, int],
    *,
    description: str = "online reroute of residual traffic",
) -> ReroutePlan:
    """Re-solve ``residual`` (``{packet: current holder}``) on ``degraded``.

    Emits a ``route.reroute`` span covering the solve.  The returned plan's
    schedule is statically validated against the degraded view (so it
    provably avoids failed hardware); executing it and verifying delivery
    is the caller's half of the contract (:func:`route_with_recovery` does
    both, on the batched engine).
    """
    from repro.routing.permutation_router import theorem2_slot_bound

    moves = tuple(
        Packet(holder, pk.destination)
        for pk, holder in residual.items()
        if holder != pk.destination
    )
    clean_bound = theorem2_slot_bound(degraded.d, degraded.g)
    with get_tracer().span(
        "route.reroute", d=degraded.d, g=degraded.g, residual=len(moves)
    ):
        schedule = route_on_survivors(degraded, moves, description=description)
        schedule.validate()
    return ReroutePlan(
        network=degraded,
        packets=moves,
        schedule=schedule,
        clean_bound=clean_bound,
    )


def full_reroute(
    network: POPSNetwork, pi: Sequence[int], spec: FaultSpec
) -> ReroutePlan:
    """Re-route the *whole* permutation from scratch on the degraded view.

    The control arm for E11: discard all partial progress and solve every
    packet from its original source over the surviving couplers.  Online
    recovery (:func:`reroute_residual` from the fault's residual state)
    should never cost more slots than this.
    """
    degraded = network.degrade(spec) if network.fault_spec is None else network
    packets = {
        Packet(i, int(pi[i])): i for i in range(network.n) if int(pi[i]) != i
    }
    return reroute_residual(
        degraded, packets, description="full re-route from original sources"
    )


@dataclass(frozen=True)
class FaultRecoveryReport:
    """End-to-end account of one fault-aware routing with online recovery."""

    d: int
    g: int
    n: int
    onset_slot: int
    fault_triggered: bool
    failed_couplers: int
    failed_processors: int
    clean_slots: int
    theorem2_bound: int
    executed_slots: int
    residual_packets: int
    reroute_slots: int
    total_slots: int
    packets_moved: int
    delivered: bool

    @property
    def overhead_ratio(self) -> float:
        """Total slots over the clean Theorem 2 bound (1.0 = no degradation)."""
        return self.total_slots / self.theorem2_bound

    def to_dict(self) -> dict:
        """JSON-ready representation (all fields plus the derived ratio)."""
        return {
            "d": self.d,
            "g": self.g,
            "n": self.n,
            "onset_slot": self.onset_slot,
            "fault_triggered": self.fault_triggered,
            "failed_couplers": self.failed_couplers,
            "failed_processors": self.failed_processors,
            "clean_slots": self.clean_slots,
            "theorem2_bound": self.theorem2_bound,
            "executed_slots": self.executed_slots,
            "residual_packets": self.residual_packets,
            "reroute_slots": self.reroute_slots,
            "total_slots": self.total_slots,
            "packets_moved": self.packets_moved,
            "delivered": self.delivered,
            "overhead_ratio": self.overhead_ratio,
        }


def route_with_recovery(
    network: POPSNetwork,
    pi: Sequence[int],
    spec: FaultSpec,
    *,
    router_backend: str = RunConfig.router_backend,
) -> FaultRecoveryReport:
    """Route ``pi`` clean, execute under ``spec``, recover online, verify.

    The full fault-tolerance pipeline: the shape's router
    (:func:`~repro.routing.permutation_router.route_template`) plans the
    clean Theorem 2 schedule as a one-row batch; its batched engine executes
    it with fault injection (a ``fault.inject`` span covers the injected
    execution); if a failed
    coupler is driven inside the fault window, the residual traffic is
    re-solved over the surviving couplers (``route.reroute`` span), and the
    reroute is lowered once, then executed and verified on a batched engine
    over the degraded topology.  The report compares total slots (executed
    before the fault + reroute) against the clean ``2⌈d/g⌉`` bound.
    """
    from repro.pops.engine import BatchedSimulator, compile_schedule
    from repro.routing.permutation_router import route_template, theorem2_slot_bound
    from repro.utils.validation import check_permutation_array

    spec.validate_for(network)
    tracer = get_tracer()
    template = route_template(network.d, network.g)
    engine = template.engine
    images = check_permutation_array(pi, network.n)[None, :]
    compiled = template.router(router_backend).route_compiled_batch(images, validate=False)
    bound = theorem2_slot_bound(network.d, network.g)
    fault: CouplerFailedError | None = None
    with tracer.span(
        "fault.inject",
        d=network.d,
        g=network.g,
        onset=spec.onset_slot,
        failed_couplers=len(spec.failed_coupler_pairs(network.g)),
    ):
        try:
            locations = engine.execute_batch(compiled, faults=spec)
        except CouplerFailedError as exc:
            fault = exc
    if fault is None:
        engine.verify_locations_batch(compiled, locations)
        moved = int(compiled.pay_ptr[-1])
        return FaultRecoveryReport(
            d=network.d,
            g=network.g,
            n=network.n,
            onset_slot=spec.onset_slot,
            fault_triggered=False,
            failed_couplers=len(spec.failed_coupler_pairs(network.g)),
            failed_processors=len(spec.failed_processor_set(network)),
            clean_slots=compiled.n_slots,
            theorem2_bound=bound,
            executed_slots=compiled.n_slots,
            residual_packets=0,
            reroute_slots=0,
            total_slots=compiled.n_slots,
            packets_moved=moved,
            delivered=True,
        )

    degraded = network.degrade(spec)
    reroute = reroute_residual(degraded, fault.residual)
    rerouted = compile_schedule(degraded, reroute.schedule, list(reroute.packets))
    survivors = BatchedSimulator(degraded)
    survivors.verify_locations_batch(rerouted, survivors.execute_batch(rerouted))
    moved = int(compiled.pay_ptr[fault.slot]) + sum(
        len(slot.transmissions) for slot in reroute.schedule.slots
    )
    return FaultRecoveryReport(
        d=network.d,
        g=network.g,
        n=network.n,
        onset_slot=spec.onset_slot,
        fault_triggered=True,
        failed_couplers=len(spec.failed_coupler_pairs(network.g)),
        failed_processors=len(spec.failed_processor_set(network)),
        clean_slots=compiled.n_slots,
        theorem2_bound=bound,
        executed_slots=int(fault.slot),
        residual_packets=len(reroute.packets),
        reroute_slots=reroute.n_slots,
        total_slots=int(fault.slot) + reroute.n_slots,
        packets_moved=moved,
        delivered=True,
    )
