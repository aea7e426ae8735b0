"""The megabatched route→simulate pipeline: ``(B, n)`` stack parity.

Pins the ISSUE 6 acceptance criteria:

* ``route_compiled_batch()`` / ``execute_batch()`` are bit-identical, element
  by element (including dtypes), to the per-trial kernels — across the array
  router backends, batch sizes B ∈ {1, 2, 7, 64}, n up to 1024, and stacks
  the colouring kernel takes in several row slices;
* ``Session.route``, the rows of ``route_batch()`` and the object arbiter
  return equal metrics, field types included, on every shape class; a daemon
  round trip and an empty-spec ``route_degraded`` agree with them on slots,
  Theorem 2 bound and couplers used;
* sharded sweeps merge deterministically: shard size and engine choice never
  change the report rows;
* an empty ``(0, n)`` stack routes to ``[]`` on every engine and shape.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import RoutingMetrics
from repro.api import RunConfig, Session
from repro.faults import FaultSpec
from repro.graph.array_coloring import ARRAY_COLORING_STACK_KERNELS
from repro.pops.engine import BatchedSimulator, CompiledScheduleBatch
from repro.pops.topology import POPSNetwork
from repro.routing.permutation_router import PermutationRouter
from repro.serve import ServeClient, ServeDaemon
from repro.utils.permutations import random_permutation
from repro.utils.validation import check_permutation_stack

ALL_SHAPES = [(1, 6), (2, 8), (4, 4), (3, 7), (8, 4), (9, 3), (7, 5), (5, 1)]
ARRAY_BACKENDS = sorted(ARRAY_COLORING_STACK_KERNELS)
OBJECT_BACKENDS = ["euler", "konig"]

ARRAY_FIELDS = [
    field.name
    for field in dataclasses.fields(CompiledScheduleBatch)
    if field.name not in ("network", "n_batch", "n_slots")
]


def assert_bit_identical(a: CompiledScheduleBatch, b: CompiledScheduleBatch) -> None:
    """Two one-row batches hold the same schedule, whichever universe each keeps."""
    assert a.network == b.network
    assert a.n_batch == b.n_batch == 1
    assert a.n_slots == b.n_slots
    assert a.universe(0) == b.universe(0)
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
    @pytest.mark.parametrize("backend", ARRAY_BACKENDS)
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

    @pytest.mark.parametrize("backend", OBJECT_BACKENDS)
    @pytest.mark.parametrize("d,g", ALL_SHAPES, ids=lambda s: str(s))
    def test_object_backend_stack_matches_reference_rows(self, d, g, backend, rng):
        # An object backend has no stack kernel, yet ``route_batch`` on
        # ``batched`` routes the whole stack on the batch pipeline; its rows
        # equal the reference simulator's rows on the object pipeline.
        network = POPSNetwork(d, g)
        on_batched = Session(RunConfig(router_backend=backend, sim_backend="batched"))
        on_reference = Session(
            RunConfig(router_backend=backend, sim_backend="reference")
        )
        for n_batch in (1, 3):
            pis = permutation_stack(network, rng, n_batch)
            rows = on_batched.route_batch(pis, network=network)
            expected = [on_reference.route(pi, network=network) for pi in pis]
            assert rows == expected
            for pair in zip(rows, expected):
                for field in dataclasses.fields(RoutingMetrics):
                    types = {type(getattr(metrics, field.name)) for metrics in pair}
                    assert len(types) == 1, (field.name, types)

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

    @pytest.mark.parametrize("backend", ARRAY_BACKENDS)
    def test_kernel_row_slices_are_bit_identical(self, backend, rng, monkeypatch):
        # 12×64 pads (12 ∤ 64): m = 64·(2·64 − 12) = 7424 instances a row, so
        # the 2**14-instance tile holds 2 rows and a B = 3 stack is coloured
        # in two kernel calls.  The spy only observes the calls.
        from repro.routing.fair_distribution import (
            KERNEL_TILE_INSTANCES,
            coloring_instance_count,
        )

        assert KERNEL_TILE_INSTANCES // coloring_instance_count(64, 12, 64) == 2
        network = POPSNetwork(12, 64)
        pis = permutation_stack(network, rng, 3)
        kernel = ARRAY_COLORING_STACK_KERNELS[backend]
        rows_per_call = []

        def spy(left, *args):
            rows_per_call.append(left.shape[0])
            return kernel(left, *args)

        monkeypatch.setitem(ARRAY_COLORING_STACK_KERNELS, backend, spy)
        router = PermutationRouter(network, backend=backend)
        batch = router.route_compiled_batch(pis)
        assert rows_per_call == [2, 1]
        for b in range(pis.shape[0]):
            assert_bit_identical(router.route_compiled(pis[b]), batch.element(b))
        assert rows_per_call == [2, 1, 1, 1, 1]

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
    @pytest.mark.parametrize(
        "sim_backend", ["reference", "batched"]
    )
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

    #: d = 1, d < g, d = g and d > g.
    EMPTY_SHAPES = [(1, 6), (2, 8), (4, 4), (8, 4)]

    @pytest.mark.parametrize(
        "router_backend,sim_backend",
        [("euler-array", "batched"), ("konig", "batched"), ("euler", "reference")],
    )
    @pytest.mark.parametrize("d,g", EMPTY_SHAPES, ids=lambda s: str(s))
    def test_empty_stack_routes_to_empty_list(
        self, d, g, router_backend, sim_backend
    ):
        session = Session(
            RunConfig(router_backend=router_backend, sim_backend=sim_backend)
        )
        empty = np.zeros((0, d * g), dtype=np.int64)
        assert session.route_batch(empty, d=d, g=g) == []
        assert session.cache_stats() == {"hits": 0, "misses": 0, "entries": 0}


class TestOnePipelineDifferential:
    """``Session.route``, the rows of ``route_batch`` and the object arbiter agree.

    ``Session.route`` is the ``(1, n)`` case of the batch pipeline; the
    ``euler`` router on the ``reference`` simulator shares no kernel with it.
    The default ``euler-array`` + ``batched`` pair routes every stack whole,
    in one ``route_compiled_batch`` call, at every shape: the only size rule
    is the colouring kernel's row tile inside the fair-distribution solver.
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
        assert rows_routed == [len(pis)]
        singles = [fast.route(pi, network=network) for pi in pis]
        arbiter = Session(RunConfig(router_backend="euler", sim_backend="reference"))
        expected = [arbiter.route(pi.tolist(), network=network) for pi in pis]
        assert rows == singles == expected
        for triple in zip(rows, singles, expected):
            for field in dataclasses.fields(RoutingMetrics):
                types = {type(getattr(metrics, field.name)) for metrics in triple}
                assert len(types) == 1, (field.name, types)

    @pytest.fixture(scope="class")
    def daemon(self):
        with ServeDaemon() as daemon:
            yield daemon

    @pytest.mark.parametrize("d,g", SHAPES, ids=lambda s: str(s))
    def test_every_entry_point_agrees_on_slots_bound_and_couplers(
        self, d, g, rng, daemon
    ):
        """``route``, a ``route_batch`` row, a daemon round trip and an
        empty-spec ``route_degraded`` report the same slots, Theorem 2 bound
        and couplers used for one permutation."""
        network = POPSNetwork(d, g)
        session = Session()
        pis = permutation_stack(network, rng, 2)
        rows = session.route_batch(pis, network=network)
        with ServeClient(*daemon.address) as client:
            for pi, row in zip(pis, rows):
                single = session.route(pi, network=network)
                served = client.route(pi, d=d, g=g).metrics
                assert single == row == served
                report = session.route_degraded(pi, network=network, faults=FaultSpec())
                assert report.delivered and not report.fault_triggered
                assert (
                    report.total_slots,
                    report.theorem2_bound,
                    report.packets_moved,
                ) == (single.slots, single.theorem2_bound, single.couplers_used_total)


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
