"""Property tests: the collective engine is observationally equal to the reference.

The collective engine (:mod:`repro.pops.collective_engine`) re-implements the
POPS slot model for *packet-duplicating* schedules — non-consuming
(broadcast-style) sends and multi-reader couplers — as vectorized operations
on a per-packet/per-processor copy-count matrix.  These tests pin it to the
reference simulator over generated broadcast/multi-reader schedules: final
buffers (as per-processor multisets, copy multiplicity included), slot-by-slot
traces, delivery verdicts, and dynamic-error slot/offender/message must all
agree.  They also pin the ``batched`` engine's dispatch: one lowering per
run, then the flat-location, copy-count or reference state — and pure
broadcast/collective schedules never fall back to the reference simulator.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.broadcast import one_to_all_broadcast
from repro.exceptions import (
    DeliveryError,
    SimulationError,
    UnsupportedScheduleError,
)
import repro.pops.collective_engine as ce
import repro.pops.engine as engine_module
from repro.pops.collective_engine import (
    CollectiveCompiledSchedule,
    CollectiveSimulator,
    compile_collective_schedule,
    fold_copy_counts,
)
from repro.pops.engine import (
    BatchedSimulator,
    ScheduleCache,
    compile_state,
    fold_locations,
)
from repro.pops.lowering import lower_schedule
from repro.pops.packet import Packet
from repro.pops.schedule import RoutingSchedule
from repro.pops.simulator import POPSSimulator, SimulationResult
from repro.pops.topology import POPSNetwork
from repro.pops.trace import CompiledTrace
from repro.routing.permutation_router import PermutationRouter
from repro.utils.permutations import random_permutation

network_shapes = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=4)
)


def buffers_as_multisets(result) -> dict[int, list[tuple[int, int]]]:
    """Final buffers with per-processor contents order-normalised.

    Copy multiplicity is preserved: a processor holding two copies of a packet
    contributes the (source, destination) pair twice.
    """
    return {
        processor: sorted((p.source, p.destination) for p in held)
        for processor, held in result.buffers.items()
    }


def run_copy_counts(network: POPSNetwork):
    """The copy-count executor on its own, as a ``run(schedule, packets)``:
    compile, execute, rebuild the buffers and the compiled trace."""

    def run(schedule, packets) -> SimulationResult:
        compiled = compile_collective_schedule(network, schedule, packets)
        engine = CollectiveSimulator(network)
        count = engine.execute(compiled)
        return SimulationResult(
            network=network,
            buffers=engine.buffers_from_counts(compiled, count),
            trace=engine.compiled_trace(compiled),
        )

    return run


def trace_slots(result):
    """Per-slot records of a result's trace, materializing a compiled one."""
    trace = result.trace
    return trace.materialize().slots if isinstance(trace, CompiledTrace) else trace.slots


def assert_same_traces(reference, other) -> None:
    assert reference.n_slots == other.n_slots
    for ref_slot, other_slot in zip(trace_slots(reference), trace_slots(other)):
        assert ref_slot.slot_index == other_slot.slot_index
        assert ref_slot.coupler_payloads == other_slot.coupler_payloads
        assert sorted(ref_slot.deliveries) == sorted(other_slot.deliveries)


def delivery_verdict(result, packets) -> tuple[bool, str]:
    """(delivered, message) outcome of the permutation-delivery check."""
    try:
        result.verify_permutation_delivery(packets)
        return True, ""
    except DeliveryError as error:
        return False, str(error)


def build_collective_workload(
    network: POPSNetwork, rng: random.Random, rounds: int
) -> tuple[RoutingSchedule, list[Packet], dict[int, Counter]]:
    """A random valid duplicating schedule plus its expected holder counts.

    Each round one current holder of some packet broadcasts it through a
    random subset of its transmitters (sometimes consuming its copy, the
    broadcast-relay pattern); every chosen destination group contributes a
    random non-empty subset of readers, so couplers regularly fan one payload
    out to several receivers.  Holder counts are tracked alongside so rounds
    can legally relay copies created by earlier rounds.
    """
    n = network.n
    packets = [Packet(source=i, destination=i) for i in range(n)]
    holders: dict[int, Counter] = {i: Counter({i: 1}) for i in range(n)}
    schedule = RoutingSchedule(
        network=network, description="generated collective workload"
    )
    for _ in range(rounds):
        candidates = [
            (k, proc)
            for k, counts in holders.items()
            for proc, copies in counts.items()
            if copies > 0
        ]
        if not candidates:
            break
        k, speaker = rng.choice(sorted(candidates))
        packet = packets[k]
        speaker_group = network.group_of(speaker)
        dest_groups = rng.sample(
            list(network.groups()), rng.randint(1, network.g)
        )
        consume = rng.random() < 0.3
        slot = schedule.new_slot()
        receivers: list[int] = []
        for dest_group in dest_groups:
            coupler = network.coupler(dest_group, speaker_group)
            slot.add_transmission(speaker, coupler, packet, consume=consume)
            group_procs = list(network.processors_in_group(dest_group))
            for receiver in rng.sample(
                group_procs, rng.randint(1, len(group_procs))
            ):
                slot.add_reception(receiver, coupler)
                receivers.append(receiver)
        if consume:
            holders[k][speaker] -= 1
        for receiver in receivers:
            holders[k][receiver] += 1
    return schedule, packets, holders


class TestGeneratedCollectiveParity:
    @settings(max_examples=50, deadline=None)
    @given(
        shape=network_shapes,
        seed=st.integers(0, 2**32 - 1),
        rounds=st.integers(1, 6),
    )
    def test_engines_agree_on_duplicating_schedules(self, shape, seed, rounds):
        d, g = shape
        network = POPSNetwork(d, g)
        rng = random.Random(seed)
        schedule, packets, holders = build_collective_workload(network, rng, rounds)

        reference = POPSSimulator(network).run(schedule, packets)
        collective = run_copy_counts(network)(schedule, packets)
        batched = POPSSimulator(network, backend="batched").run(schedule, packets)

        expected = buffers_as_multisets(reference)
        assert expected == buffers_as_multisets(collective)
        assert expected == buffers_as_multisets(batched)
        assert_same_traces(reference, collective)
        assert delivery_verdict(reference, packets) == delivery_verdict(
            collective, packets
        )
        # The tracked holder counts double-check the generator itself.
        for k, counts in holders.items():
            for proc, copies in counts.items():
                held = [p for p in reference.buffers[proc] if p == packets[k]]
                assert len(held) == copies

    @settings(max_examples=30, deadline=None)
    @given(
        shape=network_shapes,
        seed=st.integers(0, 2**32 - 1),
        rounds=st.integers(1, 5),
    )
    def test_trace_statistics_match_materialized(self, shape, seed, rounds):
        """Numpy-reduction statistics (fan-out included) equal the dict trace's."""
        d, g = shape
        network = POPSNetwork(d, g)
        rng = random.Random(seed)
        schedule, packets, _ = build_collective_workload(network, rng, rounds)
        compiled = run_copy_counts(network)(schedule, packets).trace
        assert isinstance(compiled, CompiledTrace)
        materialized = compiled.materialize()
        assert compiled.n_slots == materialized.n_slots
        assert compiled.total_packets_moved == materialized.total_packets_moved
        assert compiled.total_packets_received == materialized.total_packets_received
        assert (
            compiled.packets_received_per_slot()
            == materialized.packets_received_per_slot()
        )
        assert compiled.receiver_usage() == materialized.receiver_usage()
        assert compiled.mean_delivery_fanout() == materialized.mean_delivery_fanout()
        assert compiled.coupler_usage() == materialized.coupler_usage()

    @settings(max_examples=30, deadline=None)
    @given(shape=network_shapes, seed=st.integers(0, 2**32 - 1))
    def test_unheld_error_slot_offender_and_message_agree(self, shape, seed):
        """Sending a packet nobody holds fails identically on both engines."""
        d, g = shape
        network = POPSNetwork(d, g)
        rng = random.Random(seed)
        schedule, packets, holders = build_collective_workload(network, rng, 3)
        # Find a (packet, processor) pair with zero copies and forge a send.
        offender = None
        for k in range(network.n):
            for proc in network.processors():
                if holders[k][proc] == 0:
                    offender = (k, proc)
                    break
            if offender:
                break
        if offender is None:
            return  # every processor holds every packet; nothing to forge
        k, proc = offender
        slot = schedule.new_slot()
        coupler = network.coupler(0, network.group_of(proc))
        slot.add_transmission(proc, coupler, packets[k], consume=False)

        outcomes = []
        for runner in (
            POPSSimulator(network).run,
            run_copy_counts(network),
            POPSSimulator(network, backend="batched").run,
        ):
            with pytest.raises(SimulationError) as exc_info:
                runner(schedule, packets)
            outcomes.append(str(exc_info.value))
        assert len(set(outcomes)) == 1
        assert f"slot {schedule.n_slots - 1}:" in outcomes[0]
        assert "does not hold" in outcomes[0]

    @settings(max_examples=20, deadline=None)
    @given(shape=network_shapes, seed=st.integers(0, 2**32 - 1))
    def test_idle_read_parity(self, shape, seed):
        """A read of an undriven coupler raises identically on both
        engines."""
        d, g = shape
        network = POPSNetwork(d, g)
        rng = random.Random(seed)
        schedule, packets, _ = build_collective_workload(network, rng, 2)
        reader = rng.randrange(network.n)
        slot = schedule.new_slot()
        slot.add_reception(
            reader, network.coupler(network.group_of(reader), rng.randrange(g))
        )

        errors = []
        for runner in (POPSSimulator(network).run, run_copy_counts(network)):
            with pytest.raises(SimulationError) as exc_info:
                runner(schedule, packets)
            errors.append(str(exc_info.value))
        assert errors[0] == errors[1]
        assert "reads idle" in errors[0]

    @settings(max_examples=20, deadline=None)
    @given(shape=network_shapes, seed=st.integers(0, 2**32 - 1))
    def test_consuming_permutations_also_run_on_the_collective_engine(
        self, shape, seed
    ):
        """The copy-count model subsumes the consuming model: routed
        permutations produce reference-identical results on it too."""
        d, g = shape
        network = POPSNetwork(d, g)
        pi = random_permutation(network.n, random.Random(seed))
        plan = PermutationRouter(network).route(pi)
        reference = POPSSimulator(network).run(plan.schedule, plan.packets)
        collective = run_copy_counts(network)(plan.schedule, plan.packets)
        assert buffers_as_multisets(reference) == buffers_as_multisets(collective)
        assert_same_traces(reference, collective)
        collective.verify_permutation_delivery(plan.packets)


@pytest.fixture
def dispatch(monkeypatch):
    """Counts ``lower_schedule`` calls and records which state model ran."""
    calls = {"lowerings": 0, "ran": []}
    real_lower = engine_module.lower_schedule

    def counting_lower(*args, **kwargs):
        calls["lowerings"] += 1
        return real_lower(*args, **kwargs)

    monkeypatch.setattr(engine_module, "lower_schedule", counting_lower)
    for owner, name, model in (
        (BatchedSimulator, "execute_batch", "flat"),
        (CollectiveSimulator, "execute", "copy-count"),
        (POPSSimulator, "run_reference", "reference"),
    ):
        def recording(*args, _real=getattr(owner, name), _model=model, **kwargs):
            calls["ran"].append(_model)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
    return calls


class TestBatchedDispatch:
    """`batched` lowers once, then runs flat-location, copy-count or reference."""

    @pytest.fixture
    def net(self) -> POPSNetwork:
        return POPSNetwork(2, 3)

    def test_routed_permutation_runs_flat(self, net, dispatch):
        pi = random_permutation(net.n, random.Random(3))
        plan = PermutationRouter(net).route(pi)
        result = POPSSimulator(net, backend="batched").run(plan.schedule, plan.packets)
        result.verify_permutation_delivery(plan.packets)
        assert dispatch == {"lowerings": 1, "ran": ["flat"]}

    def test_broadcast_runs_on_copy_counts(self, net, dispatch):
        """Acceptance criterion: pure broadcast/collective schedules never
        reach the reference simulator on the batched engine."""
        schedule, packet = one_to_all_broadcast(net, speaker=2, payload="y")
        result = POPSSimulator(net, backend="batched").run(schedule, [packet])
        assert all(result.packets_at(p) for p in net.processors())
        assert result.packets_at(5)[0].payload == "y"
        assert dispatch == {"lowerings": 1, "ran": ["copy-count"]}

    def test_consuming_multi_reader_runs_on_copy_counts(self, net, dispatch):
        """Every send consumes, but one coupler is read twice: no flat state."""
        packet = Packet(0, 4)
        schedule = RoutingSchedule(network=net)
        slot = schedule.new_slot()
        slot.add_transmission(0, net.coupler(2, 0), packet)
        slot.add_reception(4, net.coupler(2, 0))
        slot.add_reception(5, net.coupler(2, 0))
        result = POPSSimulator(net, backend="batched").run(schedule, [packet])
        assert dispatch == {"lowerings": 1, "ran": ["copy-count"]}
        reference = POPSSimulator(net).run(schedule, [packet])
        assert buffers_as_multisets(result) == buffers_as_multisets(reference)
        assert result.packets_at(4) == result.packets_at(5) == [packet]

    def test_duplicate_copies_at_source_run_on_copy_counts(self, net, dispatch):
        """Consuming sends, one read each, but a packet starts as two
        value-equal copies at its source: two initial-holder pairs."""
        packet = Packet(0, 4, payload="p")
        packets = [packet, Packet(0, 4, payload="p")]
        schedule = RoutingSchedule(network=net)
        slot = schedule.new_slot()
        slot.add_transmission(0, net.coupler(2, 0), packet)
        slot.add_reception(4, net.coupler(2, 0))
        result = POPSSimulator(net, backend="batched").run(schedule, packets)
        assert dispatch == {"lowerings": 1, "ran": ["copy-count"]}
        reference = POPSSimulator(net).run(schedule, packets)
        assert buffers_as_multisets(result) == buffers_as_multisets(reference)
        assert result.packets_at(0) == result.packets_at(4) == [packet]

    def test_budget_overflow_falls_back_to_reference(self, net, dispatch, monkeypatch):
        """Past the copy-count budget the batched engine lands on the
        reference path, still after a single lowering."""
        monkeypatch.setattr(ce, "DEFAULT_MAX_STATE_BYTES", 1)
        schedule, packet = one_to_all_broadcast(net, speaker=0, payload="z")
        result = POPSSimulator(net, backend="batched").run(schedule, [packet])
        assert result.packets_at(4)[0].payload == "z"
        assert dispatch == {"lowerings": 1, "ran": ["reference"]}

    def test_oversized_state_raises_unsupported(self, net, monkeypatch):
        monkeypatch.setattr(ce, "DEFAULT_MAX_STATE_BYTES", 1)
        schedule, packet = one_to_all_broadcast(net, speaker=0)
        with pytest.raises(UnsupportedScheduleError, match="copy-count state"):
            compile_collective_schedule(net, schedule, [packet])

    def test_payload_divergent_copies_fall_back_to_reference(self, dispatch):
        """Value-equal packets with different payloads cannot be collapsed
        into one universe entry: the lowering bows out and the batched engine
        lands on the reference, which tracks each buffered instance — so both
        payloads are delivered."""
        net = POPSNetwork(2, 2)
        copies = [Packet(0, 2, payload="A"), Packet(0, 2, payload="B")]
        schedule = RoutingSchedule(network=net)
        coupler = net.coupler(1, 0)
        for _ in range(2):
            slot = schedule.new_slot()
            slot.add_transmission(0, coupler, Packet(0, 2))
            slot.add_reception(2, coupler)

        result = POPSSimulator(net, backend="batched").run(schedule, copies)
        assert sorted(q.payload for q in result.packets_at(2)) == ["A", "B"]
        assert dispatch == {"lowerings": 1, "ran": ["reference"]}
        with pytest.raises(UnsupportedScheduleError, match="different\\s+payloads"):
            compile_collective_schedule(net, schedule, copies)
        expected = POPSSimulator(net).run(schedule, copies)
        assert sorted(p.payload for p in expected.packets_at(2)) == ["A", "B"]


class TestOneLowering:
    """The one packet-universe rule and the flat fold's three conditions."""

    def test_distinct_packets_are_the_universe_as_given(self):
        network = POPSNetwork(3, 3)
        plan = PermutationRouter(network).route(
            random_permutation(network.n, random.Random(5))
        )
        lowered = lower_schedule(network, plan.schedule, plan.packets)
        assert all(a is b for a, b in zip(lowered.packets, plan.packets))
        assert lowered.initial_hold_packet.tolist() == list(range(network.n))

    def test_value_equal_copies_share_one_entry(self):
        network = POPSNetwork(2, 2)
        copies = [Packet(0, 2, payload="x"), Packet(0, 2, payload="x")]
        lowered = lower_schedule(network, RoutingSchedule(network=network), copies)
        assert lowered.u_size == 1
        assert lowered.initial_hold_packet.tolist() == [0, 0]
        assert lowered.initial_hold_proc.tolist() == [0, 0]

    @pytest.mark.parametrize(
        "shape, reason",
        [
            ("broadcast", "non-consuming"),
            ("multi-reader", "read by several receivers"),
            ("two-holders", "more than one holder"),
        ],
    )
    def test_flat_fold_names_the_duplication(self, shape, reason):
        net = POPSNetwork(2, 3)
        packet = Packet(0, 4)
        schedule = RoutingSchedule(network=net)
        slot = schedule.new_slot()
        slot.add_transmission(0, net.coupler(2, 0), packet, consume=shape != "broadcast")
        slot.add_reception(4, net.coupler(2, 0))
        if shape == "multi-reader":
            slot.add_reception(5, net.coupler(2, 0))
        packets = [packet, Packet(0, 4)] if shape == "two-holders" else [packet]
        lowered = lower_schedule(net, schedule, packets)
        with pytest.raises(UnsupportedScheduleError, match=reason):
            fold_locations(lowered)
        assert isinstance(fold_copy_counts(lowered), CollectiveCompiledSchedule)


class TestCollectiveCaching:
    def workload(self):
        network = POPSNetwork(3, 3)
        schedule, packet = one_to_all_broadcast(network, speaker=4)
        return network, schedule, [packet]

    def test_hit_returns_identical_compiled_schedule(self):
        network, schedule, packets = self.workload()
        cache = ScheduleCache()
        key = ("broadcast", 3, 3, 4)
        first = compile_state(network, schedule, packets, cache_key=key, cache=cache)
        second = compile_state(network, schedule, packets, cache_key=key, cache=cache)
        assert isinstance(first, CollectiveCompiledSchedule)
        assert second is first
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_copy_count_entry_is_never_returned_as_flat(self):
        """A key holding a copy-count entry makes the flat compile refuse,
        even for a schedule the flat state could hold."""
        network, schedule, packets = self.workload()
        cache = ScheduleCache()
        key = ("shared", 3, 3)
        compile_state(network, schedule, packets, cache_key=key, cache=cache)
        plan = PermutationRouter(network).route(
            random_permutation(network.n, random.Random(7))
        )
        with pytest.raises(UnsupportedScheduleError, match="flat location array"):
            BatchedSimulator(network).compile(
                plan.schedule, plan.packets, cache_key=key, cache=cache
            )
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_no_key_bypasses_cache(self):
        network, schedule, packets = self.workload()
        cache = ScheduleCache()
        a = compile_state(network, schedule, packets, cache=cache)
        b = compile_state(network, schedule, packets, cache=cache)
        assert a is not b
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_compiled_schedule_is_reusable(self):
        network, schedule, packets = self.workload()
        engine = CollectiveSimulator(network)
        compiled = engine.compile(schedule, packets)
        first = engine.execute(compiled)
        second = engine.execute(compiled)
        assert (first == second).all()
        assert (compiled.initial_count.sum(axis=1) == 1).all()


class TestSessionIntegration:
    def test_session_simulate_batched_on_broadcast(self):
        from repro.api import RunConfig, Session
        from repro.pops.trace import SimulationTrace

        network = POPSNetwork(4, 4)
        schedule, packet = one_to_all_broadcast(network, speaker=3, payload="s")
        session = Session(RunConfig(sim_backend="batched"))
        result = session.simulate(schedule, [packet], cache_key=("b", 4, 4, 3))
        assert isinstance(result.trace, CompiledTrace)
        assert all(result.packets_at(p) for p in network.processors())
        # The compiled broadcast is memoised in the session cache.
        session.simulate(schedule, [packet], cache_key=("b", 4, 4, 3))
        assert session.cache.stats()["hits"] == 1

        materialized = result.trace.materialize()
        assert isinstance(materialized, SimulationTrace)
        reference = Session(RunConfig(sim_backend="reference")).simulate(
            schedule, [packet]
        )
        assert materialized.n_slots == reference.trace.n_slots
        assert materialized.coupler_usage() == reference.trace.coupler_usage()
        assert materialized.receiver_usage() == reference.trace.receiver_usage()

    def test_collective_engine_has_no_engine_name(self):
        # The collective engine is reached through ``batched``, which hands
        # it every duplicating schedule.
        from repro.api import RunConfig
        from repro.api.registry import SIM_ENGINES
        from repro.exceptions import ConfigurationError

        assert SIM_ENGINES.names() == ("reference", "batched")
        assert POPSSimulator.BACKENDS == SIM_ENGINES.names()
        with pytest.raises(ConfigurationError, match="batched-collective"):
            RunConfig(sim_backend="batched-collective")

