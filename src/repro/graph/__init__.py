"""Bipartite multigraph substrate.

This package implements the combinatorial machinery behind Theorem 1 of the
paper: bipartite multigraphs with multiplicity bookkeeping
(:mod:`~repro.graph.multigraph`) and as parallel integer arrays
(:mod:`~repro.graph.array_multigraph`), maximum/perfect matching
(:mod:`~repro.graph.matching`), Euler partitions and degree-halving splits
(:mod:`~repro.graph.euler`), the padding construction that turns the list
system graph into a regular bipartite multigraph
(:mod:`~repro.graph.regularize`), and proper edge colourings of regular
bipartite multigraphs via König's theorem — both the object backends
(:mod:`~repro.graph.edge_coloring`) and the vectorized array kernels
(:mod:`~repro.graph.array_coloring`).
"""

from repro.graph.multigraph import BipartiteMultigraph
from repro.graph.array_multigraph import ArrayMultigraph
from repro.graph.matching import (
    hopcroft_karp,
    hopcroft_karp_csr,
    maximum_matching,
    perfect_matching_regular,
)
from repro.graph.euler import euler_partition, euler_split
from repro.graph.regularize import (
    biregular_pad_arrays,
    pad_to_regular,
)
from repro.graph.edge_coloring import (
    EdgeColoring,
    konig_edge_coloring,
    euler_split_edge_coloring,
    edge_color,
    verify_edge_coloring,
)
from repro.graph.array_coloring import (
    euler_array_colors,
    konig_array_colors,
)
from repro.graph.degree_coloring import edge_color_bounded, embed_into_regular

__all__ = [
    "edge_color_bounded",
    "embed_into_regular",
    "ArrayMultigraph",
    "BipartiteMultigraph",
    "hopcroft_karp",
    "hopcroft_karp_csr",
    "maximum_matching",
    "perfect_matching_regular",
    "euler_partition",
    "euler_split",
    "biregular_pad_arrays",
    "pad_to_regular",
    "EdgeColoring",
    "konig_edge_coloring",
    "euler_split_edge_coloring",
    "konig_array_colors",
    "euler_array_colors",
    "edge_color",
    "verify_edge_coloring",
]
