"""Property tests: the batched engine is observationally equal to the reference.

The batched engine (:mod:`repro.pops.engine`) re-implements the POPS slot
model as vectorized array operations; these tests pin it to the reference
simulator across random permutations and network shapes — final buffers,
traces, delivery verdicts, and error messages must all agree.  Buffer *ordering* within a processor is the
one sanctioned difference (the engine reconstructs buffers in packet-universe
order), so buffers are compared as per-processor multisets.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import (
    DeliveryError,
    ReproError,
    SimulationError,
    UnsupportedScheduleError,
)
from repro.pops.engine import BatchedSimulator, compile_schedule
from repro.pops.packet import Packet
from repro.pops.schedule import RoutingSchedule
from repro.pops.simulator import POPSSimulator
from repro.pops.topology import POPSNetwork
from repro.pops.trace import CompiledTrace
from repro.routing.permutation_router import PermutationRouter
from repro.utils.permutations import random_permutation


def buffers_as_multisets(result) -> dict[int, list[tuple[int, int]]]:
    """Final buffers with per-processor contents order-normalised."""
    return {
        processor: sorted((p.source, p.destination) for p in held)
        for processor, held in result.buffers.items()
    }


def trace_slots(result):
    """Per-slot records of a result's trace, materializing a compiled one."""
    trace = result.trace
    return trace.materialize().slots if isinstance(trace, CompiledTrace) else trace.slots


def assert_same_traces(reference, batched) -> None:
    assert reference.n_slots == batched.n_slots
    for ref_slot, bat_slot in zip(trace_slots(reference), trace_slots(batched)):
        assert ref_slot.slot_index == bat_slot.slot_index
        assert ref_slot.coupler_payloads == bat_slot.coupler_payloads
        assert sorted(ref_slot.deliveries) == sorted(bat_slot.deliveries)


def delivery_verdict(result, packets) -> tuple[bool, str]:
    """(delivered, message) outcome of the permutation-delivery check."""
    try:
        result.verify_permutation_delivery(packets)
        return True, ""
    except DeliveryError as error:
        return False, str(error)


network_shapes = st.tuples(
    st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5)
)


class TestRoutedPermutationParity:
    @settings(max_examples=40, deadline=None)
    @given(shape=network_shapes, seed=st.integers(0, 2**32 - 1))
    def test_backends_agree_on_routed_permutations(self, shape, seed):
        d, g = shape
        network = POPSNetwork(d, g)
        pi = random_permutation(network.n, random.Random(seed))
        plan = PermutationRouter(network).route(pi)

        reference = POPSSimulator(network).run(plan.schedule, plan.packets)
        batched = POPSSimulator(network, backend="batched").run(
            plan.schedule, plan.packets
        )

        assert buffers_as_multisets(reference) == buffers_as_multisets(batched)
        assert_same_traces(reference, batched)
        assert delivery_verdict(reference, plan.packets) == delivery_verdict(
            batched, plan.packets
        )

    @settings(max_examples=25, deadline=None)
    @given(shape=network_shapes, seed=st.integers(0, 2**32 - 1))
    def test_backends_agree_on_failed_deliveries(self, shape, seed):
        """Truncating the schedule strands packets; verdicts must still agree."""
        d, g = shape
        network = POPSNetwork(d, g)
        pi = random_permutation(network.n, random.Random(seed))
        plan = PermutationRouter(network).route(pi)
        truncated = RoutingSchedule(
            network=network, slots=plan.schedule.slots[:-1]
        )

        reference = POPSSimulator(network).run(truncated, plan.packets)
        batched = POPSSimulator(network, backend="batched").run(
            truncated, plan.packets
        )

        assert buffers_as_multisets(reference) == buffers_as_multisets(batched)
        assert delivery_verdict(reference, plan.packets) == delivery_verdict(
            batched, plan.packets
        )

    @settings(max_examples=25, deadline=None)
    @given(shape=network_shapes, seed=st.integers(0, 2**32 - 1))
    def test_idle_reads_raise_identically(self, shape, seed):
        """Extra reads of undriven couplers raise the same error on both
        backends."""
        d, g = shape
        network = POPSNetwork(d, g)
        rng = random.Random(seed)
        pi = random_permutation(network.n, rng)
        plan = PermutationRouter(network).route(pi)
        schedule = plan.schedule
        injected = 0
        for slot in schedule.slots:
            driven = slot.couplers_used()
            readers = {r.receiver for r in slot.receptions}
            for processor in network.processors():
                if processor in readers:
                    continue
                idle = [
                    c
                    for c in network.receive_couplers(processor)
                    if c not in driven
                ]
                if idle:
                    slot.add_reception(processor, rng.choice(idle))
                    injected += 1
                break  # at most one injected idle read per slot
        if not injected:
            # Routed slots usually keep every processor reading; an extra
            # slot of one read is idle everywhere.
            reader = rng.randrange(network.n)
            schedule.new_slot().add_reception(
                reader, rng.choice(list(network.receive_couplers(reader)))
            )

        errors = []
        for backend in ("reference", "batched"):
            with pytest.raises(SimulationError) as exc_info:
                POPSSimulator(network, backend=backend).run(schedule, plan.packets)
            errors.append(str(exc_info.value))
        assert errors[0] == errors[1]
        assert "reads idle" in errors[0]


class TestErrorParity:
    """Hand-built violations raise the same exception with the same message."""

    @pytest.fixture
    def net(self) -> POPSNetwork:
        return POPSNetwork(2, 3)

    def run_both(self, net, build):
        outcomes = []
        for backend in ("reference", "batched"):
            schedule, packets = build()
            simulator = POPSSimulator(net, backend=backend)
            try:
                simulator.run(schedule, packets)
                outcomes.append(None)
            except ReproError as error:
                outcomes.append((type(error), str(error)))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def test_unheld_packet(self, net):
        def build():
            packet = Packet(0, 3)
            schedule = RoutingSchedule(network=net)
            schedule.new_slot().add_transmission(2, net.coupler(1, 1), packet)
            return schedule, [packet]

        outcome = self.run_both(net, build)
        assert outcome is not None and "does not hold" in outcome[1]

    def test_empty_packet_universe(self, net):
        """A schedule with transmissions but no packets placed anywhere."""

        def build():
            packet = Packet(0, 3)
            schedule = RoutingSchedule(network=net)
            coupler = net.coupler(1, 0)
            slot = schedule.new_slot()
            slot.add_transmission(0, coupler, packet)
            slot.add_reception(3, coupler)
            return schedule, []

        outcome = self.run_both(net, build)
        assert outcome is not None and "does not hold" in outcome[1]

    def test_coupler_conflict(self, net):
        def build():
            a, b = Packet(0, 4), Packet(1, 5)
            schedule = RoutingSchedule(network=net)
            slot = schedule.new_slot()
            coupler = net.coupler(2, 0)
            slot.add_transmission(0, coupler, a)
            slot.add_transmission(1, coupler, b)
            return schedule, [a, b]

        outcome = self.run_both(net, build)
        assert outcome is not None

    def test_receiver_conflict(self, net):
        def build():
            a, b = Packet(0, 4), Packet(2, 5)
            schedule = RoutingSchedule(network=net)
            slot = schedule.new_slot()
            slot.add_transmission(0, net.coupler(2, 0), a)
            slot.add_transmission(2, net.coupler(2, 1), b)
            slot.add_reception(4, net.coupler(2, 0))
            slot.add_reception(4, net.coupler(2, 1))
            return schedule, [a, b]

        outcome = self.run_both(net, build)
        assert outcome is not None

    def test_transmit_wiring_violation(self, net):
        def build():
            packet = Packet(0, 4)
            schedule = RoutingSchedule(network=net)
            # Processor 0 is in group 0 and cannot drive c(2, 1).
            schedule.new_slot().add_transmission(0, net.coupler(2, 1), packet)
            return schedule, [packet]

        outcome = self.run_both(net, build)
        assert outcome is not None

    def test_unheld_error_is_raised_at_the_right_slot(self, net):
        """A dynamic error in slot 1 must come after slot 0 commits."""

        def build():
            packet = Packet(0, 3)
            schedule = RoutingSchedule(network=net)
            coupler = net.coupler(1, 0)
            slot = schedule.new_slot()
            slot.add_transmission(0, coupler, packet)
            slot.add_reception(3, coupler)
            # Packet moved to 3; the old source no longer holds it.
            schedule.new_slot().add_transmission(0, coupler, packet)
            return schedule, [packet]

        outcome = self.run_both(net, build)
        assert outcome is not None and outcome[1].startswith("slot 1:")


class TestFallbackToReference:
    """Schedules outside the batched model silently use the reference path."""

    @pytest.fixture
    def net(self) -> POPSNetwork:
        return POPSNetwork(2, 3)

    def test_broadcast_schedule_falls_back(self, net):
        packet = Packet(0, 0, payload="x")
        schedule = RoutingSchedule(network=net)
        slot = schedule.new_slot()
        slot.add_transmission(0, net.coupler(2, 0), Packet(0, 0), consume=False)
        slot.add_reception(4, net.coupler(2, 0))

        result = POPSSimulator(net, backend="batched").run(schedule, [packet])
        assert result.packets_at(0) == [packet]
        assert result.packets_at(4)[0].payload == "x"

    def test_multi_reader_coupler_falls_back(self, net):
        packet = Packet(0, 0)
        schedule = RoutingSchedule(network=net)
        slot = schedule.new_slot()
        slot.add_transmission(0, net.coupler(2, 0), packet)
        slot.add_reception(4, net.coupler(2, 0))
        slot.add_reception(5, net.coupler(2, 0))

        result = POPSSimulator(net, backend="batched").run(schedule, [packet])
        assert result.packets_at(4) == [packet]
        assert result.packets_at(5) == [packet]

    def test_compile_rejects_broadcasts_explicitly(self, net):
        schedule = RoutingSchedule(network=net)
        schedule.new_slot().add_transmission(
            0, net.coupler(2, 0), Packet(0, 0), consume=False
        )
        with pytest.raises(UnsupportedScheduleError):
            compile_schedule(net, schedule, [Packet(0, 0)])


class TestEngineSpecifics:
    def test_unknown_backend_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            POPSSimulator(POPSNetwork(2, 2), backend="quantum")

    def test_compiled_schedule_is_reusable(self):
        network = POPSNetwork(3, 3)
        pi = random_permutation(network.n, random.Random(9))
        plan = PermutationRouter(network).route(pi)
        engine = BatchedSimulator(network)
        compiled = engine.compile(plan.schedule, plan.packets)
        first = engine.execute(compiled)
        second = engine.execute(compiled)
        assert (first == second).all()
        engine.verify_locations(compiled, first)

    def test_verify_locations_matches_buffer_verify(self):
        network = POPSNetwork(3, 3)
        pi = random_permutation(network.n, random.Random(11))
        plan = PermutationRouter(network).route(pi)
        truncated = RoutingSchedule(network=network, slots=plan.schedule.slots[:-1])
        engine = BatchedSimulator(network)
        compiled = engine.compile(truncated, plan.packets)
        loc = engine.execute(compiled)
        with pytest.raises(DeliveryError):
            engine.verify_locations(compiled, loc)
