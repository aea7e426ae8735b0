"""Tests for the compiled-trace pipeline: CompiledTrace, the schedule cache,
and trial-sharded sweeps.

Three contracts are pinned here:

* ``CompiledTrace``'s numpy-reduction statistics equal the materialized
  ``SimulationTrace`` statistics (and the reference simulator's trace) on
  random routed schedules — property-tested with hypothesis.
* The compiled-schedule cache changes nothing observable: a keyed compile
  hits or misses with counters that actually count, and routing (which
  never consults it) gives identical metrics on every repeat.
* A trial-sharded ``Session.sweep`` reproduces the unsharded sweep
  bit-for-bit given the same seed.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import RunConfig, Session
from repro.pops.engine import BatchedSimulator, ScheduleCache
from repro.pops.simulator import POPSSimulator
from repro.pops.topology import POPSNetwork
from repro.pops.trace import CompiledTrace, SimulationTrace
from repro.routing.permutation_router import PermutationRouter
from repro.utils.permutations import random_permutation


def sweep(configs, **config_fields):
    """A Theorem 2 sweep through a fresh session."""
    return Session(RunConfig(**config_fields)).sweep(configs)

network_shapes = st.tuples(
    st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5)
)


def routed_compiled_trace(d: int, g: int, seed: int):
    """Route a random permutation and return (network, result-with-CompiledTrace)."""
    network = POPSNetwork(d, g)
    pi = random_permutation(network.n, random.Random(seed))
    plan = PermutationRouter(network).route(pi)
    result = POPSSimulator(network, backend="batched").run(plan.schedule, plan.packets)
    return network, plan, result


class TestCompiledTraceStatistics:
    @settings(max_examples=40, deadline=None)
    @given(shape=network_shapes, seed=st.integers(0, 2**32 - 1))
    def test_reductions_match_materialized_trace(self, shape, seed):
        """Every numpy-reduction statistic equals its dict-based counterpart."""
        d, g = shape
        network, _, result = routed_compiled_trace(d, g, seed)
        compiled = result.trace
        assert isinstance(compiled, CompiledTrace)
        materialized = compiled.materialize()
        assert isinstance(materialized, SimulationTrace)

        assert compiled.n_slots == materialized.n_slots
        assert compiled.total_packets_moved == materialized.total_packets_moved
        assert compiled.coupler_usage() == materialized.coupler_usage()
        assert compiled.max_coupler_usage() == materialized.max_coupler_usage()
        assert (
            compiled.packets_moved_per_slot()
            == materialized.packets_moved_per_slot()
        )
        nc = network.n_couplers
        assert compiled.mean_coupler_utilisation(nc) == materialized.mean_coupler_utilisation(nc)
        for s, slot in enumerate(materialized.slots):
            assert compiled.packets_moved(s) == slot.packets_moved
            assert compiled.packets_received(s) == slot.packets_received
        assert compiled.packets_received_per_slot() == [
            slot.packets_received for slot in materialized.slots
        ]
        assert compiled.total_packets_received == sum(
            slot.packets_received for slot in materialized.slots
        )

    @settings(max_examples=20, deadline=None)
    @given(shape=network_shapes, seed=st.integers(0, 2**32 - 1))
    def test_reductions_match_reference_simulator_trace(self, shape, seed):
        """The compiled trace agrees with the trace the reference simulator records."""
        d, g = shape
        network, plan, result = routed_compiled_trace(d, g, seed)
        reference = POPSSimulator(network).run(plan.schedule, plan.packets)
        compiled = result.trace
        assert compiled.n_slots == reference.trace.n_slots
        assert compiled.total_packets_moved == reference.trace.total_packets_moved
        assert compiled.coupler_usage() == reference.trace.coupler_usage()
        assert compiled.max_coupler_usage() == reference.trace.max_coupler_usage()
        assert (
            compiled.packets_moved_per_slot()
            == reference.trace.packets_moved_per_slot()
        )

    def test_batched_results_are_comparable(self):
        """Equality on results (and traces) must not trip numpy's ambiguity."""
        _, _, first = routed_compiled_trace(3, 3, seed=7)
        _, _, second = routed_compiled_trace(3, 3, seed=7)
        _, _, other = routed_compiled_trace(3, 3, seed=8)
        assert first.trace == second.trace
        assert first == second
        assert first.trace != other.trace
        assert first.trace != SimulationTrace()

    def test_empty_trace_statistics(self):
        network = POPSNetwork(2, 2)
        from repro.pops.schedule import RoutingSchedule

        schedule = RoutingSchedule(network=network)
        result = POPSSimulator(network, backend="batched").run(schedule, [])
        compiled = result.trace
        assert compiled.n_slots == 0
        assert compiled.total_packets_moved == 0
        assert compiled.coupler_usage() == {}
        assert compiled.max_coupler_usage() == 0
        assert compiled.mean_coupler_utilisation(network.n_couplers) == 0.0


class TestScheduleCache:
    def fresh_workload(self, seed: int = 17):
        network = POPSNetwork(4, 4)
        pi = random_permutation(network.n, random.Random(seed))
        plan = PermutationRouter(network).route(pi)
        return network, pi, plan

    def test_hit_returns_identical_compiled_schedule(self):
        network, pi, plan = self.fresh_workload()
        cache = ScheduleCache()
        engine = BatchedSimulator(network)
        key = ("konig", 4, 4, tuple(pi))
        first = engine.compile(plan.schedule, plan.packets, cache_key=key, cache=cache)
        second = engine.compile(plan.schedule, plan.packets, cache_key=key, cache=cache)
        assert second is first
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_fresh_cache_stats_have_three_keys(self):
        assert ScheduleCache().stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_get_counts_misses_then_hits_after_put(self):
        network, _, plan = self.fresh_workload()
        compiled = BatchedSimulator(network).compile(plan.schedule, plan.packets)
        cache = ScheduleCache()
        assert cache.get("k") is None
        assert cache.stats() == {"hits": 0, "misses": 1, "entries": 0}
        cache.put("k", compiled)
        assert cache.get("k") is compiled
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}
        assert cache.total_bytes == compiled.nbytes

    def test_cached_plan_executes_identically(self):
        network, _, plan = self.fresh_workload(seed=7)
        engine = BatchedSimulator(network)
        cache = ScheduleCache()
        engine.compile(plan.schedule, plan.packets, cache_key="k", cache=cache)
        cached = engine.compile(plan.schedule, plan.packets, cache_key="k", cache=cache)
        fresh = engine.compile(plan.schedule, plan.packets)
        assert cache.stats()["hits"] == 1
        loc = engine.execute(cached)
        assert (loc == engine.execute(fresh)).all()
        engine.verify_locations(cached, loc)

    def test_no_key_no_cache(self):
        network, _, plan = self.fresh_workload()
        cache = ScheduleCache()
        engine = BatchedSimulator(network)
        a = engine.compile(plan.schedule, plan.packets, cache=cache)
        b = engine.compile(plan.schedule, plan.packets, cache=cache)
        assert a is not b
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_eviction_is_bounded(self):
        network, pi, plan = self.fresh_workload()
        cache = ScheduleCache(max_entries=2)
        engine = BatchedSimulator(network)
        for k in range(3):
            engine.compile(plan.schedule, plan.packets, cache_key=k, cache=cache)
        assert len(cache) == 2
        assert cache.get(0) is None  # oldest entry evicted
        assert cache.get(2) is not None

    def test_eviction_is_byte_bounded(self):
        network, _, plan = self.fresh_workload()
        engine = BatchedSimulator(network)
        one = engine.compile(plan.schedule, plan.packets)
        cache = ScheduleCache(max_entries=100, max_bytes=one.nbytes * 2)
        for k in range(3):
            engine.compile(plan.schedule, plan.packets, cache_key=k, cache=cache)
        assert len(cache) == 2
        assert cache.total_bytes <= one.nbytes * 2

    def test_oversized_schedule_not_cached(self):
        network, _, plan = self.fresh_workload()
        engine = BatchedSimulator(network)
        cache = ScheduleCache(max_entries=100, max_bytes=1)
        a = engine.compile(plan.schedule, plan.packets, cache_key="k", cache=cache)
        b = engine.compile(plan.schedule, plan.packets, cache_key="k", cache=cache)
        assert a is not b  # never stored, recompiled each time
        assert len(cache) == 0 and cache.total_bytes == 0
        # ``stats()`` always has exactly the three counter keys.
        assert cache.stats() == {"hits": 0, "misses": 2, "entries": 0}

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            ScheduleCache(max_entries=0)
        with pytest.raises(ValueError):
            ScheduleCache(max_bytes=0)

    def test_repeated_route_matches_reference(self):
        network, pi, _ = self.fresh_workload(seed=23)
        session = Session(RunConfig(sim_backend="batched"))
        first = session.route(pi, network=network)
        repeat = session.route(pi, network=network)
        reference = Session(
            RunConfig(router_backend="konig", sim_backend="reference")
        ).route(pi, network=network)
        assert first == repeat == reference

    def test_reference_backend_never_touches_cache(self):
        network, pi, _ = self.fresh_workload(seed=31)
        session = Session(RunConfig(router_backend="konig", sim_backend="reference"))
        session.route(pi, network=network)
        assert session.cache.stats() == {"hits": 0, "misses": 0, "entries": 0}


class TestShardedSweeps:
    CONFIGS = ((4, 4), (8, 4))

    def test_sharded_matches_unsharded_bit_for_bit(self):
        unsharded = sweep(self.CONFIGS, trials=5, seed=11, workers=0)
        for shard in (1, 2, 5, 7):
            sharded = sweep(
                self.CONFIGS, trials=5, seed=11, workers=0, shard_trials=shard
            )
            assert sharded.rows == unsharded.rows
            assert sharded.all_pass

    def test_sharded_matches_with_worker_processes(self):
        """Fanning shards across processes (when available) changes nothing."""
        serial = sweep(((4, 4),), trials=4, seed=13, workers=0, shard_trials=2)
        fanned = sweep(((4, 4),), trials=4, seed=13, workers=2, shard_trials=2)
        assert fanned.rows == serial.rows

    def test_sweep_matches_e1_rows(self):
        """E1p (sharded or not) reproduces E1's rows for the same seed."""
        e1 = Session(
            RunConfig(trials=3, seed=19, sim_backend="batched")
        ).experiment("E1", configs=self.CONFIGS)
        e1p = sweep(self.CONFIGS, trials=3, seed=19, workers=0, shard_trials=2)
        assert e1p.rows == e1.rows

    def test_shard_note_records_shard_size(self):
        result = sweep(((2, 2),), trials=4, seed=3, workers=0, shard_trials=3)
        assert result.notes["trials per shard"] == 3

    def test_invalid_shard_size_rejected(self):
        with pytest.raises(ValueError):
            sweep(((2, 2),), trials=2, seed=3, workers=0, shard_trials=0)

    def test_zero_trials_rejected_cleanly(self):
        with pytest.raises(ValueError, match="trials"):
            sweep(((2, 2),), trials=0, seed=3, workers=0)
        with pytest.raises(ValueError, match="trials"):
            Session(RunConfig(trials=1)).experiment("E1", trials=0)
