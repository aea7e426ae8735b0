"""The array-native routing front end: ``route_compiled`` parity.

Pins the ISSUE 5 acceptance criteria:

* ``route_compiled()`` and the rows of ``route_compiled_batch()`` are
  bit-identical to compile-after-route for every router backend: a backend
  decides only the colouring, so the object backends (and one registered at
  runtime) plan on the batch pipeline too, while an unregistered name still
  raises a structured error;
* array-backend plans are equivalent to reference-backend plans — same slot
  counts, Theorem 2 bound exact, packets verifiably delivered — on every
  routing regime including hypothesis-generated permutations;
* the ``Session`` fast path returns metrics identical to the object
  pipeline.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunConfig, Session
from repro.api.registry import ROUTER_BACKENDS
from repro.exceptions import ConfigurationError, EdgeColoringError, ValidationError
from repro.faults import FaultSpec, route_with_recovery
from repro.graph.array_coloring import ARRAY_COLORING_STACK_KERNELS
from repro.graph.edge_coloring import konig_edge_coloring
from repro.pops.engine import BatchedSimulator, CompiledScheduleBatch, compile_schedule
from repro.pops.simulator import POPSSimulator
from repro.pops.topology import POPSNetwork
from repro.routing.permutation_router import (
    PermutationRouter,
    route_template,
    theorem2_slot_bound,
)
from repro.utils.permutations import random_permutation

ALL_SHAPES = [(1, 1), (1, 6), (2, 8), (4, 4), (3, 7), (8, 4), (9, 3), (7, 5), (5, 1), (6, 4)]
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


class TestBitIdenticalToCompileAfterRoute:
    @pytest.mark.parametrize("backend", ARRAY_BACKENDS)
    @pytest.mark.parametrize("d,g", ALL_SHAPES, ids=lambda s: str(s))
    def test_route_compiled_equals_lowered_plan(self, d, g, backend, rng):
        network = POPSNetwork(d, g)
        router = PermutationRouter(network, backend=backend)
        for _ in range(2):
            pi = random_permutation(network.n, rng)
            plan = router.route(pi)
            reference = compile_schedule(network, plan.schedule, plan.packets)
            assert_bit_identical(reference, router.route_compiled(pi))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_permutations(self, data):
        d = data.draw(st.integers(min_value=1, max_value=6), label="d")
        g = data.draw(st.integers(min_value=1, max_value=6), label="g")
        network = POPSNetwork(d, g)
        pi = list(data.draw(st.permutations(range(network.n)), label="pi"))
        backend = data.draw(st.sampled_from(ARRAY_BACKENDS), label="backend")
        router = PermutationRouter(network, backend=backend)
        plan = router.route(pi)
        reference = compile_schedule(network, plan.schedule, plan.packets)
        compiled = router.route_compiled(pi)
        assert_bit_identical(reference, compiled)
        # Plan parity with the reference backend: same slot count (both the
        # exact Theorem 2 bound) and a verified delivery verdict.
        reference_plan = PermutationRouter(network, backend="konig").route(pi)
        assert compiled.n_slots == reference_plan.n_slots
        assert compiled.n_slots == theorem2_slot_bound(d, g)
        engine = BatchedSimulator(network)
        engine.verify_locations(compiled, engine.execute(compiled))


class TestObjectBackendsOnTheBatchedEngine:
    """The object backends have no array colouring kernel, yet plan on the
    batch pipeline: the fair-distribution solver solves each row with
    ``solve``, and the plan builders emit the same batch ``compile_schedule``
    lowers from the object route."""

    #: d = 1, d < g, d = g and d > g, plus a padded d < g shape.
    SHAPES = [(1, 6), (2, 8), (4, 4), (8, 4), (3, 7)]

    @pytest.mark.parametrize("backend", OBJECT_BACKENDS)
    @pytest.mark.parametrize("d,g", SHAPES, ids=lambda s: str(s))
    def test_stack_rows_equal_lowered_object_route(self, d, g, backend, rng):
        network = POPSNetwork(d, g)
        router = PermutationRouter(network, backend=backend)
        pis = np.stack([random_permutation(network.n, rng) for _ in range(3)])
        batch = router.route_compiled_batch(pis)
        assert batch.n_batch == 3
        for b, pi in enumerate(pis.tolist()):
            plan = router.route(pi)
            assert_bit_identical(
                compile_schedule(network, plan.schedule, plan.packets), batch.element(b)
            )

    @pytest.mark.parametrize("backend", sorted(ROUTER_BACKENDS.names()))
    @pytest.mark.parametrize("d,g", SHAPES, ids=lambda s: str(s))
    def test_empty_stack_plans_for_every_backend(self, d, g, backend):
        network = POPSNetwork(d, g)
        empty = np.zeros((0, network.n), dtype=np.int64)
        batch = PermutationRouter(network, backend=backend).route_compiled_batch(empty)
        assert batch.n_batch == 0
        assert batch.n_slots == theorem2_slot_bound(d, g)

    def test_backend_registered_after_template_routes_through_session(self, rng):
        # The shape's route template is cached before the backend exists; a
        # backend with no stack kernel gets its router on use, so the alias
        # routes on ``batched`` with konig's metrics.
        network = POPSNetwork(4, 4)
        route_template(4, 4)
        pis = np.stack([random_permutation(network.n, rng) for _ in range(2)])
        ROUTER_BACKENDS.register("konig-alias", konig_edge_coloring)
        try:
            alias = Session(RunConfig(router_backend="konig-alias", sim_backend="batched"))
            konig = Session(RunConfig(router_backend="konig", sim_backend="batched"))
            assert alias.route_batch(pis, network=network) == konig.route_batch(
                pis, network=network
            )
            assert alias.route(pis[0], network=network) == konig.route(
                pis[0], network=network
            )
        finally:
            ROUTER_BACKENDS.unregister("konig-alias")

    def test_unregistered_backend_raises_structured_error(self, rng):
        network = POPSNetwork(4, 4)
        pi = random_permutation(network.n, rng)
        with pytest.raises(ConfigurationError, match="unknown router backend 'nope'"):
            RunConfig(router_backend="nope")
        with pytest.raises(EdgeColoringError, match="unknown edge-colouring backend 'nope'"):
            PermutationRouter(network, backend="nope").route_compiled_batch([pi])
        with pytest.raises(EdgeColoringError, match="unknown edge-colouring backend 'nope'"):
            route_with_recovery(network, pi, FaultSpec(), router_backend="nope")

    @pytest.mark.parametrize("backend", OBJECT_BACKENDS)
    @pytest.mark.parametrize("d,g", ALL_SHAPES, ids=lambda s: str(s))
    def test_lowered_plan_delivers_and_metrics_match_reference(
        self, d, g, backend, rng
    ):
        network = POPSNetwork(d, g)
        router = PermutationRouter(network, backend=backend)
        engine = BatchedSimulator(network)
        on_batched = Session(RunConfig(router_backend=backend, sim_backend="batched"))
        on_reference = Session(
            RunConfig(router_backend=backend, sim_backend="reference")
        )
        for _ in range(2):
            pi = random_permutation(network.n, rng)
            plan = router.route(pi)
            compiled = compile_schedule(network, plan.schedule, plan.packets)
            assert compiled.n_slots == plan.n_slots == theorem2_slot_bound(d, g)
            engine.verify_locations(compiled, engine.execute(compiled))
            expected = on_reference.route(pi, network=network)
            got = on_batched.route(pi, network=network)
            assert got == expected
            for field in dataclasses.fields(got):
                assert type(getattr(got, field.name)) is type(
                    getattr(expected, field.name)
                ), field.name


class TestPlanEquivalenceAcrossBackends:
    @pytest.mark.parametrize("backend", ARRAY_BACKENDS)
    def test_same_slot_count_and_bound_as_reference_backend(
        self, network, backend, rng
    ):
        pi = random_permutation(network.n, rng)
        reference_plan = PermutationRouter(network, backend="konig").route(pi)
        compiled = PermutationRouter(network, backend=backend).route_compiled(pi)
        assert compiled.n_slots == reference_plan.n_slots
        assert compiled.n_slots == theorem2_slot_bound(network.d, network.g)

    @pytest.mark.parametrize("backend", ARRAY_BACKENDS)
    def test_array_plan_delivers_on_both_engines(self, network, backend, rng):
        pi = random_permutation(network.n, rng)
        router = PermutationRouter(network, backend=backend)
        # Compiled arrays on the batched engine.
        compiled = router.route_compiled(pi)
        engine = BatchedSimulator(network)
        engine.verify_locations(compiled, engine.execute(compiled))
        # The equivalent object plan on the reference simulator.
        plan = router.route(pi)
        POPSSimulator(network).route_and_verify(plan.schedule, plan.packets)

    @pytest.mark.parametrize("backend", sorted(ROUTER_BACKENDS.names()))
    def test_metrics_identical_to_reference_pipeline(self, network, backend, rng):
        # No metric depends on the colouring backend (Theorem 2 fixes the
        # slots by (d, g)), which is why the serve daemon routes every
        # request with its one configured backend.
        pi = random_permutation(network.n, rng)
        reference = Session(
            RunConfig(router_backend="konig", sim_backend="reference")
        ).route(pi, network=network)
        fast = Session(
            RunConfig(router_backend=backend, sim_backend="batched")
        ).route(pi, network=network)
        assert fast == reference


class TestValidation:
    def test_invalid_permutation_rejected(self):
        router = PermutationRouter(POPSNetwork(2, 2), backend="euler-array")
        with pytest.raises(ValidationError):
            router.route_compiled([0, 1, 2])  # wrong length
        with pytest.raises(ValidationError):
            router.route_compiled([0, 0, 1, 1])  # repeated image
        with pytest.raises(ValidationError):
            router.route_compiled([0, 1, 2, 7])  # out of range

    def test_verify_false_still_produces_identical_plan(self, rng):
        network = POPSNetwork(4, 4)
        pi = random_permutation(network.n, rng)
        verified = PermutationRouter(network, backend="euler-array")
        unverified = PermutationRouter(network, backend="euler-array", verify=False)
        assert_bit_identical(
            verified.route_compiled(pi), unverified.route_compiled(pi)
        )
