"""The array-native routing front end: ``route_compiled`` parity.

Pins the ISSUE 5 acceptance criteria:

* ``route_compiled()`` is bit-identical to compile-after-route for every
  array router backend, and raises ``ConfigurationError`` for the object
  backends, which route only through ``route()``;
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
from repro.exceptions import ConfigurationError, ValidationError
from repro.graph.array_coloring import ARRAY_COLORING_STACK_KERNELS
from repro.pops.engine import BatchedSimulator, CompiledSchedule, compile_schedule
from repro.pops.simulator import POPSSimulator
from repro.pops.topology import POPSNetwork
from repro.routing.permutation_router import PermutationRouter, theorem2_slot_bound
from repro.utils.permutations import random_permutation

ALL_SHAPES = [(1, 1), (1, 6), (2, 8), (4, 4), (3, 7), (8, 4), (9, 3), (7, 5), (5, 1), (6, 4)]
ARRAY_BACKENDS = sorted(ARRAY_COLORING_STACK_KERNELS)
OBJECT_BACKENDS = ["euler", "konig"]

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
    """The object backends have no array colouring kernel: their plans reach
    the batched engine only lowered by ``compile_schedule``, and a session
    pairing them with ``batched`` routes through the row-by-row arbiter."""

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

    @pytest.mark.parametrize("backend", ARRAY_BACKENDS)
    def test_metrics_identical_to_reference_pipeline(self, network, backend, rng):
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

    @pytest.mark.parametrize("backend", ["konig", "euler"])
    @pytest.mark.parametrize("d,g", [(1, 6), (3, 3)], ids=lambda s: str(s))
    def test_non_array_backend_raises_configuration_error(self, d, g, backend, rng):
        network = POPSNetwork(d, g)
        pi = random_permutation(network.n, rng)
        router = PermutationRouter(network, backend=backend)
        with pytest.raises(ConfigurationError, match="no array colouring kernel"):
            router.route_compiled(pi)
        with pytest.raises(ConfigurationError, match="no array colouring kernel"):
            router.route_compiled_batch([pi])
        # The object pipeline still routes it.
        assert router.route(pi).meets_theorem2_bound

    def test_verify_false_still_produces_identical_plan(self, rng):
        network = POPSNetwork(4, 4)
        pi = random_permutation(network.n, rng)
        verified = PermutationRouter(network, backend="euler-array")
        unverified = PermutationRouter(network, backend="euler-array", verify=False)
        assert_bit_identical(
            verified.route_compiled(pi), unverified.route_compiled(pi)
        )
