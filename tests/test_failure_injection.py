"""Failure-injection tests: corrupt valid schedules and check the model catches it.

The simulator is the arbiter of the POPS communication model, so these tests
take *correct* schedules produced by the real routers, inject one specific
violation, and assert that validation or execution rejects the corrupted
schedule with the precise exception class.  This guards against the failure
mode where a buggy router silently produces an invalid-but-unchecked schedule
and the benchmarks report meaningless slot counts.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    CouplerConflictError,
    DeliveryError,
    ReceiverConflictError,
    SimulationError,
    TransmitterError,
)
from repro.pops.collective_engine import (
    CollectiveSimulator,
    compile_collective_schedule,
)
from repro.pops.packet import Packet
from repro.pops.schedule import Reception, Transmission
from repro.pops.simulator import POPSSimulator, SimulationResult
from repro.pops.topology import Coupler, POPSNetwork
from repro.routing.permutation_router import PermutationRouter
from repro.utils.permutations import random_permutation


@pytest.fixture
def routed_plan(rng):
    network = POPSNetwork(3, 3)
    pi = random_permutation(network.n, rng)
    plan = PermutationRouter(network).route(pi)
    return network, plan


class TestScheduleCorruption:
    def test_pristine_schedule_passes(self, routed_plan):
        network, plan = routed_plan
        POPSSimulator(network).route_and_verify(plan.schedule, plan.packets)

    def test_duplicated_transmission_on_coupler(self, routed_plan):
        network, plan = routed_plan
        slot = plan.schedule.slots[0]
        victim = slot.transmissions[0]
        # A different processor of the same group drives the same coupler.
        other_sender = next(
            p
            for p in network.processors_in_group(network.group_of(victim.sender))
            if p != victim.sender
        )
        slot.transmissions.append(
            Transmission(other_sender, victim.coupler, Packet(other_sender, 0), True)
        )
        with pytest.raises(CouplerConflictError):
            POPSSimulator(network).run(plan.schedule, plan.packets)

    def test_receiver_reading_twice(self, routed_plan):
        network, plan = routed_plan
        slot = plan.schedule.slots[0]
        existing = slot.receptions[0]
        other_coupler = next(
            c for c in network.receive_couplers(existing.receiver) if c != existing.coupler
        )
        slot.receptions.append(Reception(existing.receiver, other_coupler))
        with pytest.raises((ReceiverConflictError, SimulationError)):
            POPSSimulator(network).run(plan.schedule, plan.packets)

    def test_transmission_from_wrong_group(self, routed_plan):
        network, plan = routed_plan
        slot = plan.schedule.slots[0]
        victim = slot.transmissions[0]
        foreign_coupler = Coupler(
            victim.coupler.dest_group, (victim.coupler.source_group + 1) % network.g
        )
        slot.transmissions[0] = Transmission(
            victim.sender, foreign_coupler, victim.packet, victim.consume
        )
        with pytest.raises(TransmitterError):
            plan.schedule.validate()

    def test_dropped_reception_breaks_delivery(self, routed_plan):
        network, plan = routed_plan
        # Remove the final reception of the delivery slot: one packet never arrives.
        plan.schedule.slots[-1].receptions.pop()
        simulator = POPSSimulator(network)
        result = simulator.run(plan.schedule, plan.packets)
        with pytest.raises(DeliveryError):
            result.verify_permutation_delivery(plan.packets)

    def test_dropped_transmission_causes_idle_read(self, routed_plan):
        network, plan = routed_plan
        plan.schedule.slots[0].transmissions.pop()
        with pytest.raises(SimulationError):
            POPSSimulator(network).run(plan.schedule, plan.packets)

    def test_sending_a_packet_never_held(self, routed_plan):
        network, plan = routed_plan
        slot = plan.schedule.slots[0]
        victim = slot.transmissions[0]
        # Replace the packet with one that lives at a different processor.
        foreign_packet = next(
            p for p in plan.packets if p.source != victim.sender
        )
        slot.transmissions[0] = Transmission(
            victim.sender, victim.coupler, foreign_packet, victim.consume
        )
        with pytest.raises(SimulationError, match="does not hold"):
            POPSSimulator(network).run(plan.schedule, plan.packets)

    def test_rerouting_to_wrong_destination_detected(self, routed_plan):
        network, plan = routed_plan
        # Swap the receivers of the first two receptions in the delivery slot:
        # both packets still arrive somewhere, but not where they belong.
        deliver = plan.schedule.slots[-1]
        first, second = deliver.receptions[0], deliver.receptions[1]
        if network.group_of(first.receiver) != network.group_of(second.receiver):
            pytest.skip("swapped receivers must share a group to stay wiring-legal")
        deliver.receptions[0] = Reception(second.receiver, first.coupler)
        deliver.receptions[1] = Reception(first.receiver, second.coupler)
        simulator = POPSSimulator(network)
        result = simulator.run(plan.schedule, plan.packets)
        with pytest.raises(DeliveryError):
            result.verify_permutation_delivery(plan.packets)


def _fresh_plan(seed: int):
    """A clean routed plan, rebuilt per corruption so mutations don't leak."""
    network = POPSNetwork(3, 3)
    pi = random_permutation(network.n, random.Random(seed))
    return network, PermutationRouter(network).route(pi)


def _corrupt_duplicate_coupler(network, plan):
    slot = plan.schedule.slots[0]
    victim = slot.transmissions[0]
    other_sender = next(
        p
        for p in network.processors_in_group(network.group_of(victim.sender))
        if p != victim.sender
    )
    slot.transmissions.append(
        Transmission(other_sender, victim.coupler, Packet(other_sender, 0), True)
    )


def _corrupt_receiver_reads_twice(network, plan):
    slot = plan.schedule.slots[0]
    existing = slot.receptions[0]
    other_coupler = next(
        c for c in network.receive_couplers(existing.receiver) if c != existing.coupler
    )
    slot.receptions.append(Reception(existing.receiver, other_coupler))


def _corrupt_dropped_transmission(network, plan):
    plan.schedule.slots[0].transmissions.pop()


def _corrupt_packet_never_held(network, plan):
    slot = plan.schedule.slots[0]
    victim = slot.transmissions[0]
    foreign_packet = next(p for p in plan.packets if p.source != victim.sender)
    slot.transmissions[0] = Transmission(
        victim.sender, victim.coupler, foreign_packet, victim.consume
    )


def _corrupt_dropped_reception(network, plan):
    plan.schedule.slots[-1].receptions.pop()


_CORRUPTIONS = {
    "duplicate-coupler-drive": _corrupt_duplicate_coupler,
    "receiver-reads-twice": _corrupt_receiver_reads_twice,
    "dropped-transmission": _corrupt_dropped_transmission,
    "packet-never-held": _corrupt_packet_never_held,
    "dropped-reception": _corrupt_dropped_reception,
}


def _run_copy_counts(network):
    """The copy-count executor that ``batched`` folds duplicating schedules
    into, driven directly: compile, execute, rebuild the buffers."""

    def run(schedule, packets) -> SimulationResult:
        compiled = compile_collective_schedule(network, schedule, packets)
        engine = CollectiveSimulator(network)
        count = engine.execute(compiled)
        return SimulationResult(
            network=network, buffers=engine.buffers_from_counts(compiled, count)
        )

    return run


#: Simulator runners by name: the two engines, and the copy-count executor.
_RUNNERS = {
    "reference": lambda network: POPSSimulator(network).run,
    "batched": lambda network: POPSSimulator(network, backend="batched").run,
    "collective": _run_copy_counts,
}


def _failure_class(network, plan, runner: str):
    """Exception class a corrupted plan raises on ``runner`` (run or verify)."""
    try:
        result = _RUNNERS[runner](network)(plan.schedule, plan.packets)
    except Exception as exc:  # noqa: BLE001 - the class is the assertion
        return type(exc)
    try:
        result.verify_permutation_delivery(plan.packets)
    except Exception as exc:  # noqa: BLE001
        return type(exc)
    return None


class TestCorruptionParityAcrossEngines:
    """Corrupted schedules fail identically on every engine.

    The reference simulator defines the failure semantics; the vectorized
    engines must raise the *same exception class* for the same corruption —
    otherwise callers handling failures portably across engines (the session
    facade, the serving daemon's error mapping) would behave differently
    depending on which engine happened to execute the schedule.
    """

    @pytest.mark.parametrize("backend", ("batched", "collective"))
    @pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=6, deadline=None)
    def test_same_exception_class_as_reference(self, backend, corruption, seed):
        corrupt = _CORRUPTIONS[corruption]
        network, plan = _fresh_plan(seed)
        corrupt(network, plan)
        expected = _failure_class(network, plan, "reference")
        assert expected is not None, "corruption must break the reference run"
        network, plan = _fresh_plan(seed)
        corrupt(network, plan)
        assert _failure_class(network, plan, backend) is expected


class TestSimulatorStateIsolation:
    def test_rerunning_same_schedule_is_deterministic(self, routed_plan):
        network, plan = routed_plan
        simulator = POPSSimulator(network)
        first = simulator.run(plan.schedule, plan.packets)
        second = simulator.run(plan.schedule, plan.packets)
        assert first.buffers == second.buffers
        assert first.trace.packets_moved_per_slot() == second.trace.packets_moved_per_slot()
