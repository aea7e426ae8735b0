"""Unit and property-based tests for repro.routing.fair_distribution (Theorem 1)."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunConfig, Session
from repro.exceptions import (
    FairnessViolationError,
    ImproperListSystemError,
    ValidationError,
)
from repro.patterns.families import figure3_permutation
from repro.pops.topology import POPSNetwork
from repro.routing.fair_distribution import (
    FairDistribution,
    FairDistributionSolver,
    coloring_instance_count,
    verify_fair_distribution,
    verify_fair_distribution_stack,
)
from repro.routing.list_system import ListSystem
from repro.utils.permutations import random_permutation

BACKENDS = ["konig", "euler"]
ARRAY_BACKENDS = ["konig-array", "euler-array"]

#: Every routing shape the pad-free construction serves at d < g: 2 <= d < g,
#: d | g, n = d·g <= 256.
PAD_FREE_SHAPES = [
    (d, g) for d in range(2, 17) for g in range(d + 1, 129)
    if g % d == 0 and d * g <= 256
]

#: General proper list systems (n1, Δ1, n2) with n1 != n2 and Δ1 | n2.
GENERAL_PAD_FREE = [(6, 2, 4), (12, 3, 9), (10, 2, 4), (8, 4, 8), (9, 3, 3), (6, 3, 6)]


class TestSolverBasics:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_figure3_example(self, backend):
        system = ListSystem.from_permutation(figure3_permutation(), 3, 3)
        distribution = FairDistributionSolver(backend=backend).solve(system)
        distribution.verify()

    def test_rejects_improper_system(self):
        system = ListSystem.from_lists(2, 2, [[0, 0], [0, 1]])
        with pytest.raises(ImproperListSystemError):
            FairDistributionSolver().solve(system)

    def test_verify_flag_skips_checks_but_still_fair(self):
        system = ListSystem.from_permutation(figure3_permutation(), 3, 3)
        distribution = FairDistributionSolver(verify=False).solve(system)
        # Even without internal verification the result must be fair.
        verify_fair_distribution(system, distribution.assignment)

    def test_callable_interface(self):
        system = ListSystem.from_permutation(figure3_permutation(), 3, 3)
        distribution = FairDistributionSolver().solve(system)
        assert distribution(0, 0) == distribution.assignment[0][0]

    def test_targets_of_source_and_pairs_of_target_consistent(self):
        system = ListSystem.from_permutation(figure3_permutation(), 3, 3)
        distribution = FairDistributionSolver().solve(system)
        for source in range(system.n_sources):
            for index, target in enumerate(distribution.targets_of_source(source)):
                assert (source, index) in distribution.pairs_of_target(target)


class TestFairnessConditions:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("d,g", [(2, 4), (4, 4), (3, 3), (8, 4), (9, 3), (7, 5), (5, 7), (6, 1)])
    def test_random_permutations_give_fair_distributions(self, d, g, backend, rng):
        for _ in range(3):
            pi = random_permutation(d * g, rng)
            system = ListSystem.from_permutation(pi, d, g)
            distribution = FairDistributionSolver(backend=backend).solve(system)
            # verify() checks conditions (1)-(3) of the definition.
            distribution.verify()

    def test_condition1_every_source_gets_distinct_targets(self, rng):
        system = ListSystem.from_permutation(random_permutation(16, rng), 4, 4)
        distribution = FairDistributionSolver().solve(system)
        for source in range(4):
            targets = distribution.targets_of_source(source)
            assert len(set(targets)) == system.delta1

    def test_condition2_every_target_gets_delta2_pairs(self, rng):
        system = ListSystem.from_permutation(random_permutation(16, rng), 4, 4)
        distribution = FairDistributionSolver().solve(system)
        for target in range(system.n_targets):
            assert len(distribution.pairs_of_target(target)) == system.delta2

    def test_condition3_same_list_value_distinct_targets(self, rng):
        system = ListSystem.from_permutation(random_permutation(24, rng), 8, 3)
        distribution = FairDistributionSolver().solve(system)
        seen: dict[int, set[int]] = {}
        for source in range(system.n_sources):
            for index in range(system.delta1):
                value = system.lists[source][index]
                target = distribution(source, index)
                assert target not in seen.setdefault(value, set())
                seen[value].add(target)


class TestVerifyFairDistribution:
    def _system(self) -> ListSystem:
        return ListSystem.from_lists(2, 2, [[0, 1], [1, 0]])

    def test_accepts_valid_assignment(self):
        # Lists are [[0, 1], [1, 0]]: the two occurrences of value 0 are at
        # (0,0) and (1,1); assigning them targets 0 and 1 keeps condition 3.
        verify_fair_distribution(self._system(), [[0, 1], [0, 1]])

    def test_rejects_wrong_row_count(self):
        with pytest.raises(FairnessViolationError):
            verify_fair_distribution(self._system(), [[0, 1]])

    def test_rejects_wrong_row_length(self):
        with pytest.raises(FairnessViolationError):
            verify_fair_distribution(self._system(), [[0], [1]])

    def test_rejects_repeated_target_per_source(self):
        with pytest.raises(FairnessViolationError, match="reuses"):
            verify_fair_distribution(self._system(), [[0, 0], [1, 1]])

    def test_rejects_unbalanced_targets(self):
        # With n2 = 4 targets and Δ2 = 1, every target must be used exactly once;
        # the assignment below uses target 1 twice and target 3 never.
        system = ListSystem.from_lists(2, 4, [[0, 1], [1, 0]])
        with pytest.raises(FairnessViolationError, match="assigned"):
            verify_fair_distribution(system, [[0, 1], [2, 1]])

    def test_accepts_alternative_fair_assignment(self):
        # Fairness does not pin down a unique assignment; this hand-written one
        # also satisfies all three conditions for the 2x2 system.
        verify_fair_distribution(self._system(), [[1, 0], [1, 0]])

    def test_rejects_swapped_assignment_violating_condition3(self):
        # The "natural" diagonal assignment reuses target 0 for both copies of
        # list value 0, breaking condition 3.
        with pytest.raises(FairnessViolationError, match="list value"):
            verify_fair_distribution(self._system(), [[0, 1], [1, 0]])

    def test_rejects_out_of_range_target(self):
        with pytest.raises(FairnessViolationError, match="outside"):
            verify_fair_distribution(self._system(), [[0, 2], [1, 0]])

    def test_rejects_condition3_violation(self):
        # Both occurrences of list value 0 get target 0.
        system = ListSystem.from_lists(2, 2, [[0, 1], [0, 1]])
        with pytest.raises(FairnessViolationError, match="list value"):
            verify_fair_distribution(system, [[0, 1], [0, 1]])


class TestPropertyBased:
    @given(
        d=st.integers(min_value=2, max_value=6),
        g=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
        backend=st.sampled_from(BACKENDS),
    )
    @settings(max_examples=40, deadline=None)
    def test_theorem1_holds_for_random_permutations(self, d, g, seed, backend):
        """Theorem 1: every proper list system (here: from a permutation) admits a
        fair distribution, and the solver finds one."""
        pi = random_permutation(d * g, random.Random(seed))
        system = ListSystem.from_permutation(pi, d, g)
        assert system.is_proper()
        distribution = FairDistributionSolver(backend=backend).solve(system)
        distribution.verify()
        assert isinstance(distribution, FairDistribution)


def random_proper_lists(n_sources: int, delta1: int, rng: np.random.Generator):
    """Lists of a random proper system: every source appears Δ1 times."""
    pool = np.repeat(np.arange(n_sources, dtype=np.int64), delta1)
    return rng.permutation(pool).reshape(n_sources, delta1)


class TestPadFreeConstruction:
    """Δ1 | n2: the core is coloured unpadded.

    Validity is judged by the object :func:`verify_fair_distribution` alone,
    never by the solver's own verification.
    """

    @pytest.mark.parametrize("d,g", PAD_FREE_SHAPES, ids=lambda s: str(s))
    @given(data=st.data())
    @settings(max_examples=2, deadline=None)
    def test_routing_shapes(self, d, g, data):
        pi = data.draw(st.permutations(range(d * g)), label="pi")
        system = ListSystem.from_permutation(pi, d, g)
        lists = np.array([system.lists], dtype=np.int64)
        for backend in ARRAY_BACKENDS:
            solver = FairDistributionSolver(backend=backend, verify=False)
            (row,) = solver.solve_array_batch(lists, system.n_targets)
            verify_fair_distribution(system, row.tolist())
        metrics = Session(RunConfig()).route(pi, network=POPSNetwork(d, g))
        assert metrics.slots == 2

    @pytest.mark.parametrize("n1,delta1,n2", GENERAL_PAD_FREE)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_general_list_systems(self, n1, delta1, n2, seed):
        rng = np.random.default_rng(seed)
        lists = np.stack([random_proper_lists(n1, delta1, rng) for _ in range(3)])
        systems = [ListSystem.from_lists(n1, n2, row.tolist()) for row in lists]
        for backend in BACKENDS:
            solver = FairDistributionSolver(backend=backend, verify=False)
            for system in systems:
                verify_fair_distribution(system, solver.solve(system).assignment)
        for backend in ARRAY_BACKENDS:
            solver = FairDistributionSolver(backend=backend, verify=False)
            assignment = solver.solve_array_batch(lists, n2)
            for system, row in zip(systems, assignment):
                verify_fair_distribution(system, row.tolist())
                assert row.tolist() == [
                    list(entry) for entry in solver.solve(system).assignment
                ]


class TestColoringInstanceCount:
    """The per-system instance count behind the kernel tile and the daemon's
    work bound equals the edge count of the graph Theorem 1 colours."""

    @pytest.mark.parametrize(
        "d,g", [(4, 4), (8, 4), (2, 8), (3, 7), (12, 64), (6, 10)],
        ids=lambda s: str(s),
    )
    def test_matches_the_coloured_graph(self, d, g, rng):
        from repro.graph.regularize import pad_to_regular

        system = ListSystem.from_permutation(random_permutation(d * g, rng), d, g)
        core = system.to_multigraph()
        n2 = system.n_targets
        graph = core if n2 % d == 0 else pad_to_regular(core, n2).graph
        assert coloring_instance_count(g, d, n2) == graph.n_edges

    def test_pad_free_shapes_colour_n_instances(self):
        for d, g in [(32, 32), (64, 16), (16, 64), (4, 256), (1, 8)]:
            assert coloring_instance_count(g, d, max(d, g)) == d * g
        # The padded shape the serve daemon refuses: 8.4 M instances.
        assert coloring_instance_count(2048, 3, 2048) == 2048 * (2 * 2048 - 3)


class TestSolveArrayBatchBoundary:
    """Malformed input to ``solve_array_batch`` raises ``ValidationError``,
    with :meth:`ListSystem.from_lists`'s checks."""

    @pytest.mark.parametrize(
        "lists,n_targets,match",
        [
            ([[[0.5, 1], [0, 1]]], 2, "not integer-valued"),
            ([[[0.0, 1.0], [1.0, 0.0]]], 2, "not integer-valued"),
            ([[[True, False], [False, True]]], 2, "not integer-valued"),
            ([[0, 1], [1, 0]], 2, "three-dimensional"),
            ([[[[0, 1], [1, 0]]]], 2, "three-dimensional"),
            ([[[0, -1], [1, 0]]], 2, r"list entry -1 of source 0 is not in S"),
            ([[[0, 1], [2, 0]]], 2, r"list entry 2 of source 1 is not in S"),
            ([[[0, 1], [1, 0]]], 0, "n_targets must be positive"),
            ([[[0, 1], [1, 0]]], 2.0, "n_targets must be an integer"),
            (np.zeros((1, 2, 0), dtype=np.int64), 2, "lists must be non-empty"),
            (np.zeros((1, 0, 2), dtype=np.int64), 2, "n_sources must be positive"),
            ([[[0, 1, 2], [1, 2, 0], [2, 0, 1]]], 2, r"Δ1=3 exceeds .* n2=2"),
        ],
        ids=[
            "fractional", "float", "bool", "two-d", "four-d", "negative-entry",
            "entry-too-large", "zero-targets", "float-targets", "zero-delta1",
            "zero-sources", "delta1-above-n2",
        ],
    )
    def test_rejects_malformed_input(self, lists, n_targets, match):
        solver = FairDistributionSolver(backend="euler-array")
        with pytest.raises(ValidationError, match=match):
            solver.solve_array_batch(lists, n_targets)

    @pytest.mark.parametrize("backend", ARRAY_BACKENDS)
    @pytest.mark.parametrize("n1,delta1,n2", [(4, 2, 4), (3, 2, 3), (4, 3, 6)])
    def test_empty_stack_returns_empty_assignment(self, backend, n1, delta1, n2):
        lists = np.zeros((0, n1, delta1), dtype=np.int64)
        assignment = FairDistributionSolver(backend=backend).solve_array_batch(
            lists, n2
        )
        assert assignment.shape == (0, n1, delta1)
        assert assignment.dtype == np.int64
        verify_fair_distribution_stack(lists, assignment, n2)

    def test_improper_stack_still_raises_improper(self):
        with pytest.raises(ImproperListSystemError):
            FairDistributionSolver(backend="euler-array").solve_array_batch(
                [[[0, 0], [0, 1]]], 2
            )
