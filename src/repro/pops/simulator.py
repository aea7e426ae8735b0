"""Slot-accurate execution of routing schedules on a POPS network.

The simulator is the substrate substituting for optical hardware: it executes
a :class:`~repro.pops.schedule.RoutingSchedule` one slot at a time, enforcing
the POPS communication model —

* a processor may only drive couplers fed by its own group and only with a
  packet currently in its buffer;
* at most one processor drives a given coupler per slot;
* a processor reads at most one of its receivers per slot, and only couplers
  that actually carry a packet;

— and it records a full trace.  After execution,
:meth:`SimulationResult.verify_permutation_delivery` checks that every packet
sits at its destination, which is how all routing tests and benchmarks in this
repository establish end-to-end correctness (not just slot counting).
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.api.registry import SIM_ENGINES
from repro.exceptions import (
    ConfigurationError,
    CouplerConflictError,
    DeliveryError,
    ReceiverConflictError,
    SimulationError,
    TransmitterError,
    UnsupportedScheduleError,
)
from repro.pops.packet import Packet
from repro.pops.schedule import RoutingSchedule, SlotProgram
from repro.pops.topology import Coupler, POPSNetwork
from repro.pops.trace import CompiledTrace, SimulationTrace, SlotTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pops.engine import ScheduleCache

__all__ = ["POPSSimulator", "SimulationResult"]


@dataclass
class SimulationResult:
    """Outcome of executing a schedule.

    Attributes
    ----------
    network:
        The simulated network.
    buffers:
        Final buffer contents, ``processor -> list of packets held``.
    trace:
        Per-slot record of coupler payloads and deliveries — a dict-based
        :class:`SimulationTrace` from the reference backend, or a
        :class:`~repro.pops.trace.CompiledTrace` (integer arrays end to end,
        statistics as numpy reductions) from the batched engine.  Both expose
        the same statistics API.
    """

    network: POPSNetwork
    buffers: dict[int, list[Packet]]
    trace: SimulationTrace | CompiledTrace = field(default_factory=SimulationTrace)

    @property
    def n_slots(self) -> int:
        """Number of slots the executed schedule used."""
        return self.trace.n_slots

    def holder_of(self, packet: Packet) -> list[int]:
        """Processors currently holding (a copy of) ``packet``."""
        return [proc for proc, held in self.buffers.items() if packet in held]

    def packets_at(self, processor: int) -> list[Packet]:
        """Packets buffered at ``processor`` after execution."""
        return list(self.buffers.get(processor, []))

    def verify_permutation_delivery(self, packets: list[Packet]) -> None:
        """Check that every packet in ``packets`` ended at its destination
        and that no processor holds more than one of them.

        Raises
        ------
        DeliveryError
            If a packet is missing from its destination, present elsewhere, or
            duplicated.
        """
        holders_of: dict[Packet, list[int]] = {}
        for processor, held in self.buffers.items():
            for packet in held:
                holders = holders_of.setdefault(packet, [])
                if not holders or holders[-1] != processor:
                    holders.append(processor)
        for packet in packets:
            holders = holders_of.get(packet, [])
            if holders != [packet.destination]:
                raise DeliveryError(
                    f"{packet!r} should end at processor {packet.destination}, "
                    f"found at {holders}"
                )
        expected_counts: dict[int, int] = {}
        for packet in packets:
            expected_counts[packet.destination] = (
                expected_counts.get(packet.destination, 0) + 1
            )
        packet_set = set(packets)
        for processor, held in self.buffers.items():
            routed_here = [p for p in held if p in packet_set]
            if len(routed_here) != expected_counts.get(processor, 0):
                raise DeliveryError(
                    f"processor {processor} holds {len(routed_here)} routed packets, "
                    f"expected {expected_counts.get(processor, 0)}"
                )


class POPSSimulator:
    """Executes routing schedules under the POPS slot model.

    Parameters
    ----------
    network:
        The POPS(d, g) network to simulate.
    strict_receptions:
        When ``True`` (default) a processor reading a coupler that carries no
        packet is treated as a schedule bug and raises
        :class:`SimulationError`; when ``False`` the read silently yields
        nothing (useful for hand-written experimental schedules).
    backend:
        Any engine registered in :data:`repro.api.registry.SIM_ENGINES`.
        The built-ins: ``"reference"`` (default) executes transmissions one
        Python object at a time with full dynamic checking; ``"batched"``
        lowers the schedule to integer arrays and executes each slot as
        vectorized numpy operations (see :mod:`repro.pops.engine`), on a flat
        location array or, for packet-duplicating schedules — broadcast-style
        sends, multi-reader couplers — on the copy-count matrix of the
        collective engine (see :mod:`repro.pops.collective_engine`).  All
        backends produce equivalent results and traces; buffer ordering
        within a processor may differ.
    """

    #: The built-in engines.  The authoritative table is the SIM_ENGINES
    #: registry — engines registered there dispatch without touching this
    #: class.
    BACKENDS = ("reference", "batched")

    def __init__(
        self,
        network: POPSNetwork,
        strict_receptions: bool = True,
        backend: str = "reference",
    ):
        if backend not in SIM_ENGINES:
            raise ConfigurationError(
                f"unknown simulator backend {backend!r}; "
                f"expected one of {tuple(SIM_ENGINES.names())}"
            )
        self.network = network
        self.strict_receptions = strict_receptions
        self.backend = backend

    # -- initial placement ------------------------------------------------------

    def initial_buffers(self, packets: list[Packet]) -> dict[int, list[Packet]]:
        """Place every packet at its source processor."""
        buffers: dict[int, list[Packet]] = {p: [] for p in self.network.processors()}
        for packet in packets:
            if not (0 <= packet.source < self.network.n):
                raise SimulationError(
                    f"{packet!r} has source outside the network of size {self.network.n}"
                )
            buffers[packet.source].append(packet)
        return buffers

    # -- execution ------------------------------------------------------------------

    def run(
        self,
        schedule: RoutingSchedule,
        packets: list[Packet],
        initial_buffers: dict[int, list[Packet]] | None = None,
        cache_key: Hashable | None = None,
        cache: ScheduleCache | None = None,
    ) -> SimulationResult:
        """Execute ``schedule`` starting from ``packets`` at their sources.

        Dispatches to the engine registered under this simulator's backend
        name in :data:`repro.api.registry.SIM_ENGINES`.  ``cache_key`` opts
        compiled engines into the compiled-schedule cache (see
        :func:`repro.pops.engine.compile_state`) and ``cache``
        selects which cache to use (default: the process-wide one); the
        reference engine ignores both.
        """
        if schedule.network != self.network:
            raise SimulationError(
                f"schedule targets {schedule.network!r}, simulator holds {self.network!r}"
            )
        engine = SIM_ENGINES.get(self.backend)
        return engine(
            self, schedule, packets, initial_buffers, cache_key=cache_key, cache=cache
        )

    def run_reference(
        self,
        schedule: RoutingSchedule,
        packets: list[Packet],
        initial_buffers: dict[int, list[Packet]] | None = None,
        faults=None,
    ) -> SimulationResult:
        """The reference slot-by-slot execution path.

        Public so that fast-path engines registered in
        :data:`repro.api.registry.SIM_ENGINES` can fall back to it for
        schedules outside their model (as the batched engine does for
        schedules past its copy-count budget).

        ``faults`` opts into fault injection: a
        :class:`~repro.faults.FaultSpec` checked at the start of every slot
        inside the fault window.  Touching failed hardware raises
        :class:`~repro.exceptions.CouplerFailedError` with the residual
        packet state, bit-identical (same slot, same residual) to
        :meth:`repro.pops.engine.BatchedSimulator.execute` under the same
        spec.
        """
        schedule.validate()
        if faults is not None and faults.is_empty:
            faults = None
        if faults is not None:
            failed_pairs = faults.failed_coupler_pairs(self.network.g)
            failed_procs = faults.failed_processor_set(self.network)
        buffers = (
            {proc: list(held) for proc, held in initial_buffers.items()}
            if initial_buffers is not None
            else self.initial_buffers(packets)
        )
        trace = SimulationTrace()
        for slot_index, slot in enumerate(schedule.slots):
            if faults is not None and faults.active_at(slot_index):
                self._check_slot_faults(
                    slot_index, slot, buffers, packets, failed_pairs, failed_procs
                )
            trace.slots.append(self._run_slot(slot_index, slot, buffers))
        return SimulationResult(network=self.network, buffers=buffers, trace=trace)

    def _check_slot_faults(
        self,
        slot_index: int,
        slot: SlotProgram,
        buffers: dict[int, list[Packet]],
        packets: list[Packet],
        failed_pairs: frozenset[tuple[int, int]],
        failed_procs: frozenset[int],
    ) -> None:
        """Raise :class:`CouplerFailedError` if ``slot`` touches failed hardware.

        Check order mirrors the batched engine's fault path — driven couplers
        first, then failed senders, then failed receivers of carrying
        couplers — and the residual is taken before the slot executes, so
        both engines raise bit-identically.
        """
        from repro.exceptions import CouplerFailedError

        coupler = None
        message = None
        for transmission in slot.transmissions:
            pair = (
                transmission.coupler.dest_group,
                transmission.coupler.source_group,
            )
            if pair in failed_pairs:
                coupler = transmission.coupler
                message = (
                    f"slot {slot_index}: {coupler!r} is failed under the "
                    "active fault spec"
                )
                break
        if message is None:
            for transmission in slot.transmissions:
                if transmission.sender in failed_procs:
                    message = (
                        f"slot {slot_index}: failed processor "
                        f"{transmission.sender} is scheduled to transmit"
                    )
                    break
        if message is None:
            driven = {t.coupler for t in slot.transmissions}
            for reception in slot.receptions:
                if reception.receiver in failed_procs and reception.coupler in driven:
                    message = (
                        f"slot {slot_index}: failed processor "
                        f"{reception.receiver} is scheduled to receive"
                    )
                    break
        if message is None:
            return
        holder_of: dict[Packet, int] = {}
        for proc, held in buffers.items():
            for packet in held:
                holder_of.setdefault(packet, proc)
        residual = {
            packet: holder_of[packet]
            for packet in packets
            if packet in holder_of and holder_of[packet] != packet.destination
        }
        raise CouplerFailedError(
            message, slot=slot_index, coupler=coupler, residual=residual
        )

    def _run_slot(
        self, slot_index: int, slot: SlotProgram, buffers: dict[int, list[Packet]]
    ) -> SlotTrace:
        """Execute one slot, mutating ``buffers`` in place."""
        # Phase 1: all sends happen simultaneously.  Determine coupler payloads.
        payloads: dict[Coupler, Packet] = {}
        senders: dict[Coupler, int] = {}
        consumed: list[tuple[int, Packet]] = []
        consumed_seen: set[tuple[int, int]] = set()
        # Schedules reference packets by identity (source, destination); index
        # each touched buffer once so resolving to the buffered instance (which
        # carries the payload) is O(1) per transmission instead of a list scan.
        buffer_index: dict[int, dict[Packet, Packet]] = {}
        for transmission in slot.transmissions:
            sender = transmission.sender
            coupler = transmission.coupler
            packet = transmission.packet
            if not self.network.can_transmit(sender, coupler):
                raise TransmitterError(
                    f"slot {slot_index}: processor {sender} cannot drive {coupler!r}"
                )
            if coupler in payloads and senders[coupler] != sender:
                raise CouplerConflictError(
                    f"slot {slot_index}: {coupler!r} driven by processors "
                    f"{senders[coupler]} and {sender}"
                )
            index = buffer_index.get(sender)
            if index is None:
                index = {}
                for held in buffers[sender]:
                    index.setdefault(held, held)
                buffer_index[sender] = index
            buffered = index.get(packet)
            if buffered is None:
                raise SimulationError(
                    f"slot {slot_index}: processor {sender} does not hold {packet!r}"
                )
            payloads[coupler] = buffered
            senders[coupler] = sender
            if transmission.consume and (sender, id(buffered)) not in consumed_seen:
                consumed_seen.add((sender, id(buffered)))
                consumed.append((sender, buffered))

        # Phase 2: all reads happen simultaneously.
        readers: set[int] = set()
        deliveries: list[tuple[int, Packet]] = []
        for reception in slot.receptions:
            receiver = reception.receiver
            coupler = reception.coupler
            if not self.network.can_receive(receiver, coupler):
                raise TransmitterError(
                    f"slot {slot_index}: processor {receiver} cannot read {coupler!r}"
                )
            if receiver in readers:
                raise ReceiverConflictError(
                    f"slot {slot_index}: processor {receiver} reads two couplers"
                )
            readers.add(receiver)
            if coupler not in payloads:
                if self.strict_receptions:
                    raise SimulationError(
                        f"slot {slot_index}: processor {receiver} reads idle {coupler!r}"
                    )
                continue
            deliveries.append((receiver, payloads[coupler]))

        # Phase 3: commit buffer changes (sends leave, reads arrive).
        for sender, packet in consumed:
            buffers[sender].remove(packet)
        for receiver, packet in deliveries:
            buffers[receiver].append(packet)

        return SlotTrace(
            slot_index=slot_index,
            coupler_payloads=payloads,
            deliveries=deliveries,
        )

    # -- convenience -------------------------------------------------------------------

    def route_and_verify(
        self,
        schedule: RoutingSchedule,
        packets: list[Packet],
        cache_key: Hashable | None = None,
        cache: ScheduleCache | None = None,
    ) -> SimulationResult:
        """Run ``schedule`` and assert every packet reached its destination."""
        result = self.run(schedule, packets, cache_key=cache_key, cache=cache)
        result.verify_permutation_delivery(packets)
        return result


# ---------------------------------------------------------------------------
# Built-in engine registrations
# ---------------------------------------------------------------------------
#
# An engine is a callable ``engine(simulator, schedule, packets,
# initial_buffers, *, cache_key, cache) -> SimulationResult``.  Registering a
# new name in SIM_ENGINES makes it dispatchable through
# ``POPSSimulator(backend=...)`` (and therefore through RunConfig/Session and
# the CLI) without touching this module.


@SIM_ENGINES.register("reference")
def _reference_engine(
    simulator: POPSSimulator,
    schedule: RoutingSchedule,
    packets: list[Packet],
    initial_buffers: dict[int, list[Packet]] | None = None,
    *,
    cache_key: Hashable | None = None,
    cache: ScheduleCache | None = None,
) -> SimulationResult:
    """Slot-by-slot Python execution with full dynamic checking."""
    return simulator.run_reference(schedule, packets, initial_buffers)


@SIM_ENGINES.register("batched")
def _batched_engine(
    simulator: POPSSimulator,
    schedule: RoutingSchedule,
    packets: list[Packet],
    initial_buffers: dict[int, list[Packet]] | None = None,
    *,
    cache_key: Hashable | None = None,
    cache: ScheduleCache | None = None,
) -> SimulationResult:
    """Lower once, then run on the flat-location or copy-count state.

    :func:`repro.pops.engine.compile_state` lowers the schedule exactly once
    and folds it into the flat ``loc[packet]`` array when every send
    consumes, no packet is read twice in a slot and every packet starts at
    one holder; else into the copy-count matrix of the collective engine
    (:mod:`repro.pops.collective_engine`), within its fixed state budget.
    Only a schedule neither state holds (budget exceeded, value-equal copies
    with different payloads) runs on the slow reference simulator."""
    from repro.pops.collective_engine import CollectiveSimulator
    from repro.pops.engine import BatchedSimulator, CompiledSchedule, compile_state

    network, strict = simulator.network, simulator.strict_receptions
    try:
        compiled = compile_state(
            network, schedule, packets, initial_buffers, cache_key, cache
        )
    except UnsupportedScheduleError:
        return simulator.run_reference(schedule, packets, initial_buffers)
    engine = BatchedSimulator(network, strict)
    if isinstance(compiled, CompiledSchedule):
        buffers = engine.buffers_from_locations(compiled, engine.execute(compiled))
    else:
        collective = CollectiveSimulator(network, strict)
        buffers = collective.buffers_from_counts(
            compiled, collective.execute(compiled)
        )
    return SimulationResult(
        network=network, buffers=buffers, trace=engine.compiled_trace(compiled)
    )
