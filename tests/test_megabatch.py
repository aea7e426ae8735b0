"""The megabatched route→simulate pipeline: ``(B, n)`` stack parity.

Pins the ISSUE 6 acceptance criteria:

* ``route_compiled_batch()`` / ``execute_batch()`` are bit-identical, element
  by element (including dtypes), to the per-trial kernels — across router
  backends (array backends take the batched array pipeline, others stack
  object-level plans), batch sizes B ∈ {1, 2, 7, 64}, and n up to 1024;
* ``Session.route``, the rows of ``route_batch()`` and the object arbiter
  return equal metrics, field types included, on every shape class;
* the cache holds one batch-level entry per stack, under a key namespace
  disjoint from the per-permutation keys, and a hit skips routing entirely;
* sharded sweeps merge deterministically: shard size and engine choice never
  change the report rows;
* the family routers' ``route_compiled()`` is bit-identical to
  compile-after-route.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import (
    RoutingMetrics,
    routing_cache_key,
    routing_cache_key_batch,
)
from repro.api import RunConfig, Session
from repro.graph.array_coloring import ARRAY_COLORING_KERNELS
from repro.pops.engine import (
    BatchedSimulator,
    CompiledSchedule,
    ScheduleCache,
    compile_schedule,
)
from repro.pops.packet import Packet
from repro.pops.topology import POPSNetwork
from repro.routing.baselines.blocked import BlockedPermutationRouter
from repro.routing.baselines.direct import DirectRouter
from repro.routing.one_slot import OneSlotRouter, is_one_slot_routable
from repro.routing.permutation_router import PermutationRouter
from repro.utils.permutations import random_permutation
from repro.utils.validation import check_permutation_stack

ALL_SHAPES = [(1, 6), (2, 8), (4, 4), (3, 7), (8, 4), (9, 3), (7, 5), (5, 1)]
ARRAY_BACKENDS = sorted(ARRAY_COLORING_KERNELS)

ARRAY_FIELDS = [
    field.name
    for field in dataclasses.fields(CompiledSchedule)
    if field.name not in ("network", "packets", "n_slots")
]


def assert_bit_identical(a: CompiledSchedule, b: CompiledSchedule) -> None:
    assert a.network == b.network
    assert a.n_slots == b.n_slots
    assert a.packets == b.packets
    for name in ARRAY_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


def permutation_stack(network: POPSNetwork, rng, n_batch: int) -> np.ndarray:
    return np.stack(
        [
            np.asarray(random_permutation(network.n, rng), dtype=np.int64)
            for _ in range(n_batch)
        ]
    )


class TestBatchedRoutingBitIdentity:
    @pytest.mark.parametrize(
        "backend", ["konig", "euler", "konig-array", "euler-array"]
    )
    @pytest.mark.parametrize("d,g", ALL_SHAPES, ids=lambda s: str(s))
    def test_elements_match_per_trial_route_compiled(self, d, g, backend, rng):
        network = POPSNetwork(d, g)
        router = PermutationRouter(network, backend=backend)
        for n_batch in (1, 2, 7):
            pis = permutation_stack(network, rng, n_batch)
            batch = router.route_compiled_batch(pis)
            assert batch.n_batch == n_batch
            for b in range(n_batch):
                assert_bit_identical(
                    router.route_compiled(pis[b].tolist()), batch.element(b)
                )

    @pytest.mark.parametrize("d,g", ALL_SHAPES, ids=lambda s: str(s))
    def test_execute_batch_matches_per_element_execution(self, d, g, rng):
        network = POPSNetwork(d, g)
        router = PermutationRouter(network, backend="euler-array")
        pis = permutation_stack(network, rng, 5)
        batch = router.route_compiled_batch(pis)
        engine = BatchedSimulator(network)
        loc = engine.execute_batch(batch)
        engine.verify_locations_batch(batch, loc)
        for b in range(batch.n_batch):
            single = engine.execute(batch.element(b))
            assert loc[b].dtype == single.dtype
            assert np.array_equal(loc[b], single)

    @pytest.mark.parametrize("d,g", ALL_SHAPES, ids=lambda s: str(s))
    def test_compiled_batch_trace_matches_per_element_traces(self, d, g, rng):
        network = POPSNetwork(d, g)
        router = PermutationRouter(network, backend="konig-array")
        pis = permutation_stack(network, rng, 4)
        batch = router.route_compiled_batch(pis)
        engine = BatchedSimulator(network)
        trace = engine.compiled_trace_batch(batch)
        usage = trace.coupler_usage_counts()
        peak = trace.max_coupler_usage()
        for b in range(batch.n_batch):
            element = batch.element(b)
            single = engine.compiled_trace(element)
            assert trace.n_slots == single.n_slots
            assert trace.total_packets_moved == single.total_packets_moved
            assert trace.total_packets_received == single.total_packets_received
            assert trace.packets_moved_per_slot() == single.packets_moved_per_slot()
            assert trace.mean_coupler_utilisation(
                network.n_couplers
            ) == single.mean_coupler_utilisation(network.n_couplers)
            assert np.array_equal(
                usage[b], single.coupler_usage_counts()
            )
            assert peak[b] == single.max_coupler_usage()

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_stacks(self, data):
        d = data.draw(st.integers(min_value=1, max_value=6), label="d")
        g = data.draw(st.integers(min_value=1, max_value=6), label="g")
        n_batch = data.draw(st.integers(min_value=1, max_value=4), label="B")
        network = POPSNetwork(d, g)
        pis = np.stack(
            [
                np.asarray(
                    data.draw(st.permutations(range(network.n)), label=f"pi{b}"),
                    dtype=np.int64,
                )
                for b in range(n_batch)
            ]
        )
        backend = data.draw(st.sampled_from(ARRAY_BACKENDS), label="backend")
        router = PermutationRouter(network, backend=backend)
        batch = router.route_compiled_batch(pis)
        engine = BatchedSimulator(network)
        engine.verify_locations_batch(batch, engine.execute_batch(batch))
        for b in range(n_batch):
            assert_bit_identical(
                router.route_compiled(pis[b].tolist()), batch.element(b)
            )

    def test_large_stack_at_n_1024(self, rng):
        network = POPSNetwork(32, 32)
        router = PermutationRouter(network, backend="euler-array")
        pis = permutation_stack(network, rng, 64)
        batch = router.route_compiled_batch(pis)
        assert batch.n_batch == 64
        engine = BatchedSimulator(network)
        engine.verify_locations_batch(batch, engine.execute_batch(batch))
        for b in (0, 17, 63):
            assert_bit_identical(
                router.route_compiled(pis[b].tolist()), batch.element(b)
            )

    def test_rejects_malformed_stacks(self):
        network = POPSNetwork(2, 3)
        router = PermutationRouter(network, backend="euler-array")
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError, match="two-dimensional"):
            router.route_compiled_batch(np.arange(6))
        with pytest.raises(ValidationError, match="repeats the image"):
            router.route_compiled_batch(np.zeros((2, 6), dtype=np.int64))

    def test_stack_validation_matches_single_path_messages(self):
        from repro.exceptions import ValidationError

        good = np.arange(6, dtype=np.int64)
        bad = np.array([0, 1, 2, 3, 4, 4], dtype=np.int64)
        try:
            from repro.utils.validation import check_permutation_array

            check_permutation_array(bad, 6)
        except ValidationError as single:
            with pytest.raises(ValidationError, match=str(single).split(":")[0]):
                check_permutation_stack(np.stack([good, bad]), 6)


class TestSessionRouteBatch:
    @pytest.mark.parametrize("sim_backend", ["reference", "batched", "auto"])
    def test_metrics_identical_to_per_trial_route(self, network, rng, sim_backend):
        pis = permutation_stack(network, rng, 4)
        batched = Session(
            RunConfig(router_backend="euler-array", sim_backend=sim_backend)
        ).route_batch(pis, network=network)
        serial_session = Session(
            RunConfig(router_backend="euler-array", sim_backend=sim_backend)
        )
        serial = [
            serial_session.route(pis[b].tolist(), network=network)
            for b in range(pis.shape[0])
        ]
        assert batched == serial
        for fast, slow in zip(batched, serial):
            for field in dataclasses.fields(fast):
                assert type(getattr(fast, field.name)) is type(
                    getattr(slow, field.name)
                ), field.name

    def test_route_batch_requires_network_arguments(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="route_batch"):
            Session().route_batch(np.zeros((1, 4), dtype=np.int64))


class TestBatchCache:
    def test_hit_skips_routing_and_returns_same_object(self, rng):
        network = POPSNetwork(4, 4)
        pis = permutation_stack(network, rng, 3)
        cache = ScheduleCache()
        router = PermutationRouter(network, backend="euler-array")
        key = routing_cache_key_batch("euler-array", network, pis)
        first = router.route_compiled_batch(pis, cache_key=key, cache=cache)
        assert cache.stats() == {"hits": 0, "misses": 1, "entries": 1}

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("cache hit must not re-route")

        router._route_compiled_batch_uncached = boom
        second = router.route_compiled_batch(pis, cache_key=key, cache=cache)
        assert second is first
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_batch_keys_are_namespaced_away_from_single_keys(self, rng):
        # A (1, n) stack and its (n,) row have identical bytes; the key must
        # still differ so a CompiledScheduleBatch is never returned where a
        # CompiledSchedule is expected.
        network = POPSNetwork(2, 8)
        pi = np.asarray(random_permutation(network.n, rng), dtype=np.int64)
        single = routing_cache_key("euler-array", network, pi)
        batch = routing_cache_key_batch("euler-array", network, pi[None, :])
        assert single != batch

    def test_batch_keys_cover_membership_and_order(self, rng):
        network = POPSNetwork(2, 8)
        pis = permutation_stack(network, rng, 2)
        key = routing_cache_key_batch("euler-array", network, pis)
        assert key == routing_cache_key_batch("euler-array", network, pis.copy())
        assert key != routing_cache_key_batch("euler-array", network, pis[::-1])
        assert key != routing_cache_key_batch("euler-array", network, pis[:1])
        assert key != routing_cache_key_batch("konig-array", network, pis)

    def test_session_sweep_uses_one_entry_per_batch(self, rng):
        session = Session(
            RunConfig(trials=5, seed=13, workers=0, cache_stats=True)
        )
        first = session.sweep(((4, 4),))
        assert first.notes["schedule cache"] == "0 hits / 1 misses"
        second = session.sweep(((4, 4),))
        assert second.notes["schedule cache"] == "1 hits / 0 misses"
        assert second.rows == first.rows


class TestOnePipelineDifferential:
    """``Session.route``, the rows of ``route_batch`` and the object arbiter agree.

    ``Session.route`` is the ``(1, n)`` case of the batch pipeline; the
    ``euler`` router on the ``reference`` simulator shares no kernel with it.
    ``d < g`` stacks route row by row, because the padded batch plan builders
    lose to per-row routing there.
    """

    #: d = 1, d < g, d = g and d > g.
    SHAPES = [(1, 6), (2, 8), (3, 7), (4, 4), (8, 4), (9, 3)]

    @pytest.mark.parametrize("d,g", SHAPES, ids=lambda s: str(s))
    def test_entry_points_return_equal_metrics(self, d, g, rng, monkeypatch):
        network = POPSNetwork(d, g)
        pis = permutation_stack(network, rng, 4)
        rows_routed = []
        original = PermutationRouter.route_compiled_batch

        def spy(self, stack, **kwargs):
            rows_routed.append(len(stack))
            return original(self, stack, **kwargs)

        monkeypatch.setattr(PermutationRouter, "route_compiled_batch", spy)
        fast = Session()
        rows = fast.route_batch(pis, network=network)
        assert rows_routed == ([1] * len(pis) if d < g else [len(pis)])
        singles = [fast.route(pi, network=network) for pi in pis]
        arbiter = Session(RunConfig(router_backend="euler", sim_backend="reference"))
        expected = [arbiter.route(pi.tolist(), network=network) for pi in pis]
        assert rows == singles == expected
        for triple in zip(rows, singles, expected):
            for field in dataclasses.fields(RoutingMetrics):
                types = {type(getattr(metrics, field.name)) for metrics in triple}
                assert len(types) == 1, (field.name, types)


class TestShardMergeDeterminism:
    CONFIGS = ((2, 4), (4, 4), (6, 2))

    def _sweep(self, **overrides):
        config = dict(trials=6, seed=29, workers=0)
        config.update(overrides)
        return Session(RunConfig(**config)).sweep(self.CONFIGS)

    def test_shard_size_never_changes_the_rows(self):
        unsharded = self._sweep()
        for shard_trials in (1, 2, 4, 6):
            assert self._sweep(shard_trials=shard_trials).rows == unsharded.rows

    def test_engine_choice_never_changes_the_rows(self):
        batched = self._sweep(sim_backend="batched")
        reference = self._sweep(sim_backend="reference")
        assert batched.rows == reference.rows

    def test_e1_serial_equals_e1p_sharded(self):
        serial = Session(
            RunConfig(trials=4, seed=47, sim_backend="batched")
        ).experiment("E1", configs=self.CONFIGS)
        sharded = Session(
            RunConfig(trials=4, seed=47, workers=0, shard_trials=3)
        ).sweep(self.CONFIGS)
        assert sharded.rows == serial.rows


class TestFamilyRouterCompiledParity:
    def test_one_slot_router(self, rng):
        network = POPSNetwork(2, 8)
        router = OneSlotRouter(network)
        pis = [list(range(network.n))]
        while len(pis) < 4:
            pi = random_permutation(network.n, rng)
            if is_one_slot_routable(network, pi):
                pis.append(pi)
        for pi in pis:
            packets = [
                Packet(source=i, destination=pi[i]) for i in range(network.n)
            ]
            reference = compile_schedule(network, router.route(pi), packets)
            assert_bit_identical(reference, router.route_compiled(pi))

    def test_one_slot_router_rejects_with_reference_message(self, rng):
        from repro.exceptions import NotRoutableInOneSlotError

        network = POPSNetwork(4, 4)
        router = OneSlotRouter(network)
        while True:
            pi = random_permutation(network.n, rng)
            if not is_one_slot_routable(network, pi):
                break
        with pytest.raises(
            NotRoutableInOneSlotError, match="common destination group"
        ):
            router.route_compiled(pi)

    @pytest.mark.parametrize("d,g", ALL_SHAPES, ids=lambda s: str(s))
    def test_direct_router(self, d, g, rng):
        network = POPSNetwork(d, g)
        router = DirectRouter(network)
        pis = [list(range(network.n))] + [
            random_permutation(network.n, rng) for _ in range(3)
        ]
        for pi in pis:
            packets = [
                Packet(source=i, destination=pi[i]) for i in range(network.n)
            ]
            reference = compile_schedule(network, router.route(pi), packets)
            compiled = router.route_compiled(pi)
            assert_bit_identical(reference, compiled)
            assert compiled.n_slots == router.slots_required(pi)

    @pytest.mark.parametrize("d,g", ALL_SHAPES, ids=lambda s: str(s))
    def test_blocked_router(self, d, g, rng):
        from repro.patterns.generators import PermutationGenerator

        network = POPSNetwork(d, g)
        router = BlockedPermutationRouter(network)
        generator = PermutationGenerator(network, 0xC0FFEE)
        for _ in range(3):
            pi = generator.group_blocked()
            packets = [
                Packet(source=i, destination=pi[i]) for i in range(network.n)
            ]
            reference = compile_schedule(network, router.route(pi), packets)
            assert_bit_identical(reference, router.route_compiled(pi))

    def test_blocked_router_rejects_with_reference_message(self, rng):
        from repro.exceptions import RoutingError

        network = POPSNetwork(4, 4)
        router = BlockedPermutationRouter(network)
        while True:
            pi = random_permutation(network.n, rng)
            if not router.can_route(pi):
                break
        with pytest.raises(RoutingError, match="group-blocked"):
            router.route_compiled(pi)
