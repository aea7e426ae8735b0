"""Bipartite multigraphs as parallel integer arrays.

:class:`~repro.graph.multigraph.BipartiteMultigraph` stores multiplicities in
a Python dict, which is convenient for the object-based algorithms but puts a
per-edge Python cost on every pass.  The routing fast path keeps the same
mathematical object — a bipartite multigraph with integer multiplicities — as
three parallel numpy arrays instead: ``left``/``right`` list the *distinct*
edges in canonical ``(left, right)`` lexicographic order and ``mult`` holds
their multiplicities.  Degrees are ``bincount``\\ s, regularity checks are
reductions, and the array colouring kernels in
:mod:`repro.graph.array_coloring` operate on the expanded instance arrays
directly.

The canonical ordering matters beyond aesthetics: the compiled routing front
end promises that the array pipeline and the object pipeline produce
*identical* fair distributions for the same backend, which holds because both
feed the colouring kernels the same canonical arrays —
:meth:`ArrayMultigraph.from_bipartite` and the scatter-built constructors
normalise to the same form.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphError, NotRegularError
from repro.graph.multigraph import BipartiteMultigraph
from repro.utils.validation import check_positive_int

__all__ = ["ArrayMultigraph"]


class ArrayMultigraph:
    """A bipartite multigraph held as parallel edge arrays.

    Attributes
    ----------
    n_left / n_right:
        Vertex-class sizes (identical namespaces to
        :class:`~repro.graph.multigraph.BipartiteMultigraph`).
    left / right / mult:
        Distinct edges in ascending ``(left, right)`` order with positive
        multiplicities, as ``int64`` arrays.  Treat them as immutable —
        algorithms copy what they mutate.
    """

    __slots__ = ("n_left", "n_right", "left", "right", "mult")

    def __init__(
        self,
        n_left: int,
        n_right: int,
        left: np.ndarray,
        right: np.ndarray,
        mult: np.ndarray,
    ):
        check_positive_int(n_left, "n_left")
        check_positive_int(n_right, "n_right")
        self.n_left = n_left
        self.n_right = n_right
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.mult = np.asarray(mult, dtype=np.int64)
        if not (self.left.size == self.right.size == self.mult.size):
            raise GraphError("left/right/mult arrays must have equal length")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_instances(
        cls, n_left: int, n_right: int, left: np.ndarray, right: np.ndarray
    ) -> "ArrayMultigraph":
        """Build from edge-instance arrays; repeated pairs accumulate multiplicity."""
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        if left.size and (
            left.min() < 0
            or left.max() >= n_left
            or right.min() < 0
            or right.max() >= n_right
        ):
            raise GraphError(
                f"edge endpoint outside [0, {n_left}) x [0, {n_right})"
            )
        key = left * np.int64(n_right) + right
        ukey, mult = np.unique(key, return_counts=True)
        return cls(
            n_left,
            n_right,
            ukey // n_right,
            ukey % n_right,
            mult.astype(np.int64),
        )

    @classmethod
    def from_bipartite(cls, graph: BipartiteMultigraph) -> "ArrayMultigraph":
        """Canonical array view of a dict-based multigraph."""
        items = graph.edges_with_multiplicity()
        pairs = np.array(
            [(left, right, mult) for left, right, mult in items], dtype=np.int64
        ).reshape(-1, 3)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        pairs = pairs[order]
        return cls(
            graph.n_left, graph.n_right, pairs[:, 0], pairs[:, 1], pairs[:, 2]
        )

    # -- accessors ---------------------------------------------------------

    @property
    def n_edges(self) -> int:
        """Total edge instances (counting multiplicities)."""
        return int(self.mult.sum())

    def left_degrees(self) -> np.ndarray:
        """Degree vector (with multiplicity) of the left side."""
        return np.bincount(
            self.left, weights=self.mult, minlength=self.n_left
        ).astype(np.int64)

    def right_degrees(self) -> np.ndarray:
        """Degree vector (with multiplicity) of the right side."""
        return np.bincount(
            self.right, weights=self.mult, minlength=self.n_right
        ).astype(np.int64)

    def is_regular(self) -> bool:
        """True iff every vertex on both sides has the same degree."""
        left_deg = self.left_degrees()
        right_deg = self.right_degrees()
        degree = left_deg[0] if left_deg.size else 0
        return bool((left_deg == degree).all() and (right_deg == degree).all())

    def regular_degree(self) -> int:
        """Common degree of a regular multigraph; raises otherwise."""
        left_deg = self.left_degrees()
        right_deg = self.right_degrees()
        if not self.is_regular():
            raise NotRegularError(
                "graph is not regular: left degrees "
                f"{sorted(set(left_deg.tolist()))}, right degrees "
                f"{sorted(set(right_deg.tolist()))}"
            )
        return int(left_deg[0])

    def instances(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge instances in canonical order (copies of an edge consecutive)."""
        return np.repeat(self.left, self.mult), np.repeat(self.right, self.mult)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArrayMultigraph):
            return NotImplemented
        return (
            self.n_left == other.n_left
            and self.n_right == other.n_right
            and np.array_equal(self.left, other.left)
            and np.array_equal(self.right, other.right)
            and np.array_equal(self.mult, other.mult)
        )

    def __repr__(self) -> str:
        return (
            f"ArrayMultigraph(n_left={self.n_left}, n_right={self.n_right}, "
            f"edges={self.n_edges})"
        )
