"""Unit tests for repro.pops.simulator (dynamic execution checks)."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    CouplerConflictError,
    DeliveryError,
    ReceiverConflictError,
    SimulationError,
)
from repro.pops.packet import Packet
from repro.pops.schedule import RoutingSchedule
from repro.pops.simulator import POPSSimulator
from repro.pops.topology import POPSNetwork


@pytest.fixture
def net() -> POPSNetwork:
    return POPSNetwork(2, 3)


@pytest.fixture
def simulator(net) -> POPSSimulator:
    return POPSSimulator(net)


def single_hop_schedule(net, packet: Packet) -> RoutingSchedule:
    schedule = RoutingSchedule(network=net)
    slot = schedule.new_slot()
    coupler = net.coupler(net.group_of(packet.destination), net.group_of(packet.source))
    slot.add_transmission(packet.source, coupler, packet)
    slot.add_reception(packet.destination, coupler)
    return schedule


class TestInitialBuffers:
    def test_places_packets_at_sources(self, simulator, net):
        packets = [Packet(0, 3), Packet(5, 1)]
        buffers = simulator.initial_buffers(packets)
        assert buffers[0] == [Packet(0, 3)]
        assert buffers[5] == [Packet(5, 1)]
        assert buffers[1] == []

    def test_rejects_out_of_range_source(self, simulator):
        with pytest.raises(SimulationError):
            simulator.initial_buffers([Packet(99, 0)])


class TestBasicExecution:
    def test_single_packet_delivery(self, simulator, net):
        packet = Packet(0, 3)
        result = simulator.run(single_hop_schedule(net, packet), [packet])
        assert result.holder_of(packet) == [3]
        assert result.n_slots == 1

    def test_route_and_verify_success(self, simulator, net):
        packet = Packet(1, 4)
        result = simulator.route_and_verify(single_hop_schedule(net, packet), [packet])
        assert result.packets_at(4) == [packet]

    def test_packet_within_group(self, simulator, net):
        packet = Packet(0, 1)  # both in group 0; uses coupler c(0,0)
        result = simulator.route_and_verify(single_hop_schedule(net, packet), [packet])
        assert result.holder_of(packet) == [1]

    def test_payload_travels_with_packet(self, simulator, net):
        payload_packet = Packet(0, 3, payload={"data": 7})
        schedule = single_hop_schedule(net, Packet(0, 3))
        result = simulator.run(schedule, [payload_packet])
        assert result.packets_at(3)[0].payload == {"data": 7}

    def test_trace_records_coupler_usage(self, simulator, net):
        packet = Packet(0, 3)
        result = simulator.run(single_hop_schedule(net, packet), [packet])
        assert result.trace.total_packets_moved == 1
        assert result.trace.max_coupler_usage() == 1

    def test_schedule_for_other_network_rejected(self, simulator):
        other = POPSNetwork(3, 3)
        schedule = RoutingSchedule(network=other)
        with pytest.raises(SimulationError):
            simulator.run(schedule, [])


class TestDynamicViolations:
    def test_sending_unheld_packet(self, simulator, net):
        # Schedule claims processor 2 sends packet that actually starts at 0.
        packet = Packet(0, 3)
        schedule = RoutingSchedule(network=net)
        slot = schedule.new_slot()
        slot.add_transmission(2, net.coupler(1, 1), packet)
        with pytest.raises(SimulationError, match="does not hold"):
            simulator.run(schedule, [packet])

    def test_coupler_conflict_at_runtime(self, simulator, net):
        a, b = Packet(0, 4), Packet(1, 5)
        schedule = RoutingSchedule(network=net)
        slot = schedule.new_slot()
        coupler = net.coupler(2, 0)
        slot.add_transmission(0, coupler, a)
        slot.add_transmission(1, coupler, b)
        with pytest.raises(CouplerConflictError):
            simulator.run(schedule, [a, b])

    def test_receiver_conflict_at_runtime(self, simulator, net):
        a, b = Packet(0, 4), Packet(2, 5)
        schedule = RoutingSchedule(network=net)
        slot = schedule.new_slot()
        slot.add_transmission(0, net.coupler(2, 0), a)
        slot.add_transmission(2, net.coupler(2, 1), b)
        slot.add_reception(4, net.coupler(2, 0))
        slot.add_reception(4, net.coupler(2, 1))
        with pytest.raises(ReceiverConflictError):
            simulator.run(schedule, [a, b])

    def test_reading_idle_coupler_strict(self, simulator, net):
        schedule = RoutingSchedule(network=net)
        slot = schedule.new_slot()
        slot.add_reception(0, net.coupler(0, 1))
        with pytest.raises(SimulationError, match="idle"):
            simulator.run(schedule, [])


class TestBroadcastSemantics:
    def test_non_consuming_send_keeps_copy(self, simulator, net):
        packet = Packet(0, 0, payload="x")
        schedule = RoutingSchedule(network=net)
        slot = schedule.new_slot()
        slot.add_transmission(0, net.coupler(2, 0), Packet(0, 0), consume=False)
        slot.add_reception(4, net.coupler(2, 0))
        result = simulator.run(schedule, [packet])
        assert result.packets_at(0) == [packet]
        assert result.packets_at(4)[0].payload == "x"

    def test_one_coupler_many_readers(self, simulator, net):
        packet = Packet(0, 0)
        schedule = RoutingSchedule(network=net)
        slot = schedule.new_slot()
        slot.add_transmission(0, net.coupler(2, 0), packet, consume=False)
        slot.add_reception(4, net.coupler(2, 0))
        slot.add_reception(5, net.coupler(2, 0))
        result = simulator.run(schedule, [packet])
        assert result.packets_at(4) == [packet]
        assert result.packets_at(5) == [packet]


class TestVerifyPermutationDelivery:
    def test_detects_undelivered_packet(self, simulator, net):
        packet = Packet(0, 3)
        empty_schedule = RoutingSchedule(network=net)
        result = simulator.run(empty_schedule, [packet])
        with pytest.raises(DeliveryError):
            result.verify_permutation_delivery([packet])

    def test_accepts_stationary_packet(self, simulator, net):
        packet = Packet(2, 2)
        result = simulator.run(RoutingSchedule(network=net), [packet])
        result.verify_permutation_delivery([packet])

    def test_two_packets_to_same_destination_accepted_if_both_arrive(self, simulator, net):
        a, b = Packet(0, 4), Packet(1, 4)
        schedule = RoutingSchedule(network=net)
        slot = schedule.new_slot()
        slot.add_transmission(0, net.coupler(2, 0), a)
        slot.add_reception(4, net.coupler(2, 0))
        second = schedule.new_slot()
        second.add_transmission(1, net.coupler(2, 0), b)
        second.add_reception(4, net.coupler(2, 0))
        result = simulator.run(schedule, [a, b])
        result.verify_permutation_delivery([a, b])

    def test_detects_duplicated_packet(self, simulator, net):
        # A non-consuming send leaves a copy at the source: the packet is then
        # held both at its destination and at its source, which the permutation
        # delivery check must reject.
        packet = Packet(0, 4)
        schedule = RoutingSchedule(network=net)
        slot = schedule.new_slot()
        slot.add_transmission(0, net.coupler(2, 0), packet, consume=False)
        slot.add_reception(4, net.coupler(2, 0))
        result = simulator.run(schedule, [packet])
        with pytest.raises(DeliveryError):
            result.verify_permutation_delivery([packet])
