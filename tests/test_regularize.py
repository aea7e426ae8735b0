"""Unit tests for repro.graph.regularize (the Theorem 1 padding construction)."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError, NotRegularError
from repro.graph.multigraph import BipartiteMultigraph
import numpy as np

from repro.graph.regularize import biregular_pad_arrays, pad_to_regular


def regular_core(n: int, degree: int) -> BipartiteMultigraph:
    """A ``degree``-regular core built from cyclic shifts."""
    graph = BipartiteMultigraph(n, n)
    for shift in range(degree):
        for left in range(n):
            graph.add_edge(left, (left + shift) % n)
    return graph


def pad_degrees(left, right, n_new: int, n_existing: int):
    """``(left degrees, right degrees)`` of an edge-instance pad."""
    return (
        np.bincount(left, minlength=n_new).tolist(),
        np.bincount(right, minlength=n_existing).tolist(),
    )


class TestBiregularPad:
    def test_degrees(self):
        left, right = biregular_pad_arrays(2, 4, new_degree=4, existing_degree=2)
        assert pad_degrees(left, right, 2, 4) == ([4, 4], [2, 2, 2, 2])

    def test_total_edges(self):
        left, right = biregular_pad_arrays(3, 6, new_degree=4, existing_degree=2)
        assert left.size == right.size == 12

    def test_nonexistent_graph_raises(self):
        with pytest.raises(GraphError):
            biregular_pad_arrays(2, 3, new_degree=3, existing_degree=1)

    def test_multigraph_allowed_when_unavoidable(self):
        # 1 new vertex of degree 4 against 2 existing vertices of degree 2 each
        # forces parallel edges; the construction must still balance degrees.
        left, right = biregular_pad_arrays(1, 2, new_degree=4, existing_degree=2)
        assert pad_degrees(left, right, 1, 2) == ([4], [2, 2])


class TestPadToRegular:
    def test_requires_equal_sides(self):
        graph = BipartiteMultigraph(2, 3)
        with pytest.raises(NotRegularError):
            pad_to_regular(graph, 3)

    def test_requires_regular_core(self):
        graph = BipartiteMultigraph.from_edges(2, 2, [(0, 0), (0, 1), (1, 1)])
        with pytest.raises(NotRegularError):
            pad_to_regular(graph, 3)

    def test_target_below_core_degree_rejected(self):
        with pytest.raises(GraphError):
            pad_to_regular(regular_core(4, 3), 2)

    def test_non_divisible_target_rejected(self):
        # n1 * delta1 = 4 * 2 = 8; target 3 does not divide it.
        with pytest.raises(GraphError):
            pad_to_regular(regular_core(4, 2), 3)

    def test_no_padding_when_degree_matches(self):
        core = regular_core(4, 4)
        padded = pad_to_regular(core, 4)
        assert padded.graph == core
        assert padded.n_core_left == 4
        assert padded.target_degree == 4

    @pytest.mark.parametrize("n,delta1,n2", [(4, 2, 4), (6, 2, 3), (6, 3, 6), (8, 2, 8), (9, 3, 9)])
    def test_padded_graph_is_regular(self, n, delta1, n2):
        core = regular_core(n, delta1)
        padded = pad_to_regular(core, n2)
        assert padded.graph.is_regular()
        assert padded.graph.regular_degree() == n2

    def test_padded_size_matches_proof(self):
        # |V| = n1 - delta2 new vertices on each side.
        n, delta1, n2 = 6, 2, 4
        delta2 = n * delta1 // n2
        padded = pad_to_regular(regular_core(n, delta1), n2)
        assert padded.graph.n_left == n + (n - delta2)
        assert padded.graph.n_right == n + (n - delta2)

    def test_core_edges_preserved(self):
        core = regular_core(5, 2)
        padded = pad_to_regular(core, 5)
        for left, right, mult in core.edges_with_multiplicity():
            assert padded.graph.multiplicity(left, right) >= mult

    def test_is_core_edge(self):
        padded = pad_to_regular(regular_core(4, 2), 4)
        assert padded.is_core_edge(0, 0)
        assert not padded.is_core_edge(padded.graph.n_left - 1, 0)
        assert not padded.is_core_edge(0, padded.graph.n_right - 1)
