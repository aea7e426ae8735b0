"""Parity suite for the array-native graph kernels.

Pins the ``konig-array`` / ``euler-array`` colouring backends to the
reference backends on generated regular multigraphs (proper colourings, same
colour count), the numpy Hopcroft–Karp to the list implementation (same
cardinality), and the rows of the batched array fair-distribution pipeline
to the object solver (bit-identical assignments per array backend, which
needs the inline array padding to match the object padding; a backend with
no stack kernel solves each row with the object solver itself).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EdgeColoringError, GraphError
from repro.graph.array_coloring import (
    ARRAY_COLORING_STACK_KERNELS,
    coloring_from_instances,
    euler_array_colors,
    konig_array_colors,
    verify_instance_coloring_stack,
)
from repro.graph.array_multigraph import ArrayMultigraph
from repro.graph.edge_coloring import (
    COLORING_BACKENDS,
    edge_color,
    verify_edge_coloring,
)
from repro.graph.matching import hopcroft_karp, hopcroft_karp_csr
from repro.graph.multigraph import BipartiteMultigraph
from repro.routing.fair_distribution import (
    FairDistributionSolver,
    verify_fair_distribution,
    verify_fair_distribution_stack,
)
from repro.routing.list_system import ListSystem
from repro.utils.permutations import random_permutation

ALL_BACKENDS = sorted(COLORING_BACKENDS)
ARRAY_BACKENDS = sorted(ARRAY_COLORING_STACK_KERNELS)
OBJECT_BACKENDS = ["euler", "konig"]


def regular_multigraph(n_vertices: int, permutations: list[list[int]]) -> BipartiteMultigraph:
    """Union of permutation matchings: a len(permutations)-regular multigraph."""
    graph = BipartiteMultigraph(n_vertices, n_vertices)
    for permutation in permutations:
        for left, right in enumerate(permutation):
            graph.add_edge(left, right)
    return graph


@st.composite
def regular_multigraphs(draw, max_vertices: int = 6, max_degree: int = 32):
    """A regular bipartite multigraph built from stacked random matchings."""
    n_vertices = draw(st.integers(min_value=1, max_value=max_vertices))
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    permutations = draw(
        st.lists(
            st.permutations(range(n_vertices)),
            min_size=degree,
            max_size=degree,
        )
    )
    return regular_multigraph(n_vertices, [list(p) for p in permutations])


class TestArrayMultigraph:
    def test_round_trip_and_canonical_form(self, rng):
        for _ in range(10):
            n = rng.randint(1, 6)
            degree = rng.randint(1, 8)
            graph = regular_multigraph(
                n, [random_permutation(n, rng) for _ in range(degree)]
            )
            array_graph = ArrayMultigraph.from_bipartite(graph)
            assert [
                (left, right, mult)
                for left, right, mult in zip(
                    array_graph.left.tolist(),
                    array_graph.right.tolist(),
                    array_graph.mult.tolist(),
                )
            ] == sorted(graph.edges_with_multiplicity())
            assert array_graph.n_edges == graph.n_edges
            assert array_graph.regular_degree() == degree
            # Canonical ordering: distinct edges ascending, multiplicities positive.
            keys = array_graph.left * n + array_graph.right
            assert (np.diff(keys) > 0).all()
            assert (array_graph.mult >= 1).all()

    def test_from_instances_accumulates_multiplicity(self):
        graph = ArrayMultigraph.from_instances(
            2, 2, np.array([0, 0, 1, 0]), np.array([1, 1, 0, 0])
        )
        assert graph.n_edges == 4
        assert graph.left.tolist() == [0, 0, 1]
        assert graph.right.tolist() == [0, 1, 0]
        assert graph.mult.tolist() == [1, 2, 1]

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphError):
            ArrayMultigraph.from_instances(2, 2, np.array([2]), np.array([0]))

    def test_instance_expansion_matches_multiset(self, rng):
        graph = regular_multigraph(4, [random_permutation(4, rng) for _ in range(5)])
        array_graph = ArrayMultigraph.from_bipartite(graph)
        left, right = array_graph.instances()
        expanded = sorted(zip(left.tolist(), right.tolist()))
        assert expanded == sorted(graph.edge_instances())


class TestHopcroftKarpCsr:
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=7), max_size=8),
            min_size=0,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_list_implementation_cardinality(self, rows):
        adjacency = [sorted(set(row)) for row in rows]
        n_right = 8
        indptr = np.concatenate(
            ([0], np.cumsum([len(row) for row in adjacency]))
        ).astype(np.int64)
        indices = np.array(
            [right for row in adjacency for right in row], dtype=np.int64
        )
        match_left = hopcroft_karp_csr(indptr, indices, n_right)
        reference = hopcroft_karp(adjacency, n_right)
        assert int((match_left >= 0).sum()) == len(reference)
        # Every reported pair is a real edge and rights are distinct.
        matched = [
            (left, int(right))
            for left, right in enumerate(match_left.tolist())
            if right >= 0
        ]
        assert all(right in adjacency[left] for left, right in matched)
        rights = [right for _, right in matched]
        assert len(set(rights)) == len(rights)

    def test_large_graph_takes_vectorized_path(self, rng):
        # Above the small-graph threshold: a 64-regular support on 64 vertices.
        n = 64
        graph = regular_multigraph(n, [random_permutation(n, rng) for _ in range(64)])
        array_graph = ArrayMultigraph.from_bipartite(graph)
        counts = np.bincount(array_graph.left, minlength=n)
        indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        match_left = hopcroft_karp_csr(indptr, array_graph.right, n)
        assert (match_left >= 0).all()

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=7), max_size=8),
            min_size=0,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_vectorized_path_parity(self, rows):
        # Force the greedy-seed + layered-BFS + iterative-DFS path on the
        # same generated graphs the small-path test uses, by dropping the
        # delegation threshold to zero.
        import repro.graph.matching as matching

        adjacency = [sorted(set(row)) for row in rows]
        n_right = 8
        indptr = np.concatenate(
            ([0], np.cumsum([len(row) for row in adjacency]))
        ).astype(np.int64)
        indices = np.array(
            [right for row in adjacency for right in row], dtype=np.int64
        )
        original = matching._SMALL_GRAPH_EDGES
        matching._SMALL_GRAPH_EDGES = -1
        try:
            match_left = hopcroft_karp_csr(indptr, indices, n_right)
        finally:
            matching._SMALL_GRAPH_EDGES = original
        reference = hopcroft_karp(adjacency, n_right)
        assert int((match_left >= 0).sum()) == len(reference)
        matched = [
            (left, int(right))
            for left, right in enumerate(match_left.tolist())
            if right >= 0
        ]
        assert all(right in adjacency[left] for left, right in matched)
        rights = [right for _, right in matched]
        assert len(set(rights)) == len(rights)

    def test_vectorized_path_long_augmenting_chain(self):
        # A chain graph whose single augmenting path visits ~4000 vertices:
        # the greedy seed mismatches the chain end, and the iterative DFS
        # must walk the whole path without hitting the recursion limit.
        n = 4000
        rows = [[0]] + [[i - 1, i] for i in range(1, n)]
        indptr = np.concatenate(
            ([0], np.cumsum([len(row) for row in rows]))
        ).astype(np.int64)
        indices = np.array([r for row in rows for r in row], dtype=np.int64)
        match_left = hopcroft_karp_csr(indptr, indices, n)
        assert (match_left >= 0).all()


class TestColoringBackendParity:
    @given(graph=regular_multigraphs(), backend=st.sampled_from(ALL_BACKENDS))
    @settings(max_examples=80, deadline=None)
    def test_all_backends_produce_proper_colorings(self, graph, backend):
        coloring = edge_color(graph, backend=backend)
        verify_edge_coloring(graph, coloring)
        assert coloring.n_colors == graph.regular_degree()
        assert coloring.n_edges == graph.n_edges

    @given(graph=regular_multigraphs(max_vertices=5, max_degree=16))
    @settings(max_examples=40, deadline=None)
    def test_kernels_agree_with_wrappers(self, graph):
        array_graph = ArrayMultigraph.from_bipartite(graph)
        for kernel, backend in (
            (konig_array_colors, "konig-array"),
            (euler_array_colors, "euler-array"),
        ):
            colors = kernel(array_graph)
            left, right = array_graph.instances()
            verify_instance_coloring_stack(
                left[None], right[None], graph.n_left, graph.n_right, colors[None]
            )
            rebuilt = coloring_from_instances(array_graph, colors)
            verify_edge_coloring(graph, rebuilt)
            via_backend = edge_color(graph, backend=backend)
            assert rebuilt.classes == via_backend.classes

    def test_power_of_two_degrees_up_to_32(self, rng):
        for degree in (1, 2, 4, 8, 16, 32):
            graph = regular_multigraph(
                4, [random_permutation(4, rng) for _ in range(degree)]
            )
            for backend in ARRAY_BACKENDS:
                coloring = edge_color(graph, backend=backend)
                verify_edge_coloring(graph, coloring)
                assert coloring.n_colors == degree

    def test_verify_instance_coloring_catches_clash(self):
        left = np.array([[0, 0, 1, 1]] * 2)
        right = np.array([[0, 1, 0, 1]] * 2)
        good = np.array([0, 1, 1, 0])
        bad = np.zeros(4, dtype=np.int64)  # one colour reuses every vertex
        verify_instance_coloring_stack(left, right, 2, 2, np.stack([good, good]))
        # The row-major first offender is reported, even past a clean row.
        with pytest.raises(EdgeColoringError, match="colour 0 uses left vertex 0"):
            verify_instance_coloring_stack(left, right, 2, 2, np.stack([good, bad]))


class TestArrayFairDistribution:
    """Rows of ``solve_array_batch`` equal the object solver's assignments.

    The grid covers both constructions.  ``d ≥ g`` and ``d | g`` shapes
    (``(2, 4)``, ``(2, 8)``, ``(4, 4)``, ``(8, 4)``, ...) colour the unpadded
    core.  Shapes with ``d ∤ g`` need padding vertices on both sides
    (``(3, 7)``, ``(4, 6)``, ``(5, 7)``, ``(6, 9)``, ``(4, 10)``): equality
    there requires the inline array padding (``biregular_pad_arrays``) to
    reproduce ``pad_to_regular``'s edge multiset exactly.
    """

    @pytest.mark.parametrize("backend", ARRAY_BACKENDS)
    @pytest.mark.parametrize(
        "d,g",
        [
            (2, 4), (4, 4), (3, 3), (8, 4), (9, 3), (7, 5), (5, 7), (6, 1),
            (32, 2), (3, 7), (2, 8), (4, 6), (6, 9), (4, 10),
        ],
    )
    def test_batch_rows_identical_to_object_solver(self, d, g, backend, rng):
        systems = [
            ListSystem.from_permutation(random_permutation(d * g, rng), d, g)
            for _ in range(3)
        ]
        n_targets = systems[0].n_targets
        lists = np.array([system.lists for system in systems], dtype=np.int64)
        solver = FairDistributionSolver(backend=backend)
        assignment = solver.solve_array_batch(lists, n_targets)
        assert assignment.shape == lists.shape
        verify_fair_distribution_stack(lists, assignment, n_targets)
        for system, row in zip(systems, assignment):
            object_assignment = solver.solve(system).assignment
            assert row.tolist() == [list(entry) for entry in object_assignment]
            verify_fair_distribution(system, row.tolist())

    @pytest.mark.parametrize("backend", OBJECT_BACKENDS)
    @pytest.mark.parametrize("d,g", [(2, 4), (4, 4), (8, 4), (3, 7), (6, 1)])
    def test_object_backend_rows_equal_solve(self, d, g, backend, rng):
        # A backend without a stack kernel solves each row with ``solve``:
        # the stack is the object assignments, as int64.
        systems = [
            ListSystem.from_permutation(random_permutation(d * g, rng), d, g)
            for _ in range(3)
        ]
        lists = np.array([system.lists for system in systems], dtype=np.int64)
        solver = FairDistributionSolver(backend=backend)
        assignment = solver.solve_array_batch(lists, systems[0].n_targets)
        assert assignment.dtype == np.int64
        assert assignment.tolist() == [
            [list(entry) for entry in solver.solve(system).assignment]
            for system in systems
        ]

    @pytest.mark.parametrize("backend", ALL_BACKENDS + ARRAY_BACKENDS)
    def test_empty_stack_solves_for_every_backend(self, backend):
        empty = np.zeros((0, 4, 2), dtype=np.int64)
        assignment = FairDistributionSolver(backend=backend).solve_array_batch(empty, 4)
        assert assignment.shape == (0, 4, 2)
