"""Padding constructions that make bipartite multigraphs regular.

Theorem 1 of the paper colours the list-system graph ``G = (S, S'; E)`` (every
vertex of degree ``Δ1``) with ``n2 >= Δ1`` colours such that every colour class
has exactly ``Δ2 = n1 Δ1 / n2`` edges.  The proof pads ``G`` with

* a set ``V`` of ``n1 - Δ2`` new left vertices joined to ``S'`` by an
  ``(n2, n2 - Δ1)``-biregular graph ``H1``, and
* a mirrored set ``V'`` of new right vertices joined to ``S`` by an
  ``(n2, n2 - Δ1)``-biregular graph ``H2``,

so that the padded graph is ``n2``-regular and König's theorem applies.  This
module provides those constructions.

The fair-distribution solver (:mod:`repro.routing.fair_distribution`) pads
only when ``Δ1`` does not divide ``n2`` (e.g. routing 12×64 or 3×7).  When
``Δ1 | n2`` it colours the unpadded ``Δ1``-regular core with ``Δ1`` colours
and spreads each colour class over ``n2 / Δ1`` targets instead, which avoids
colouring the ``n2 / Δ1``-fold larger padded graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import GraphError, NotRegularError
from repro.graph.multigraph import BipartiteMultigraph
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = [
    "biregular_pad_arrays",
    "pad_to_regular",
    "PaddedGraph",
]


def biregular_pad_arrays(
    n_new: int, n_existing: int, new_degree: int, existing_degree: int
) -> tuple[np.ndarray, np.ndarray]:
    """Construct an ``(new_degree, existing_degree)``-biregular bipartite multigraph.

    Returns the ``(left, right)`` edge-instance arrays of a multigraph with
    ``n_new`` left vertices of degree ``new_degree`` and ``n_existing`` right
    vertices of degree ``existing_degree``.  Such a graph exists iff
    ``n_new * new_degree == n_existing * existing_degree``.  The left endpoint
    sequence repeats vertex ``i`` ``new_degree`` times (blocks) and the right
    one walks the existing vertices round-robin; zipping them spreads the
    multiplicities as evenly as possible (a multigraph suffices for the König
    argument).  When the block structure and the modulus interact badly the
    round-robin side is unbalanced, and the endpoint multisets are paired in
    sorted order instead.  Both :func:`pad_to_regular` and the array
    fair-distribution pipeline (:meth:`repro.routing.fair_distribution.
    FairDistributionSolver.solve_array_batch`, which pads inline) use this
    one construction, so their padded graphs hold the same edges.
    """
    check_positive_int(n_new, "n_new")
    check_positive_int(n_existing, "n_existing")
    check_non_negative_int(new_degree, "new_degree")
    check_non_negative_int(existing_degree, "existing_degree")
    if n_new * new_degree != n_existing * existing_degree:
        raise GraphError(
            "biregular graph does not exist: "
            f"{n_new} * {new_degree} != {n_existing} * {existing_degree}"
        )
    if new_degree == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    slots = np.arange(n_new * new_degree, dtype=np.int64)
    left = slots // new_degree
    right = slots % n_existing
    right_degrees = np.bincount(right, minlength=n_existing)
    if not (right_degrees == existing_degree).all():
        left = np.repeat(np.arange(n_new, dtype=np.int64), new_degree)
        right = np.repeat(np.arange(n_existing, dtype=np.int64), existing_degree)
    return left, right


@dataclass(frozen=True)
class PaddedGraph:
    """Result of :func:`pad_to_regular`.

    Attributes
    ----------
    graph:
        The padded ``target_degree``-regular bipartite multigraph.  Left
        vertices ``0 .. n_core_left-1`` and right vertices ``0 .. n_core_right-1``
        are the original ("core") vertices; any further vertices are padding.
    n_core_left, n_core_right:
        Sizes of the original vertex classes.
    target_degree:
        The regular degree of the padded graph.
    """

    graph: BipartiteMultigraph
    n_core_left: int
    n_core_right: int
    target_degree: int

    def is_core_edge(self, left: int, right: int) -> bool:
        """True iff both endpoints belong to the original (un-padded) graph."""
        return left < self.n_core_left and right < self.n_core_right


def pad_to_regular(core: BipartiteMultigraph, target_degree: int) -> PaddedGraph:
    """Pad ``core`` (a ``Δ1``-regular bipartite multigraph on equal-sized sides)
    to a ``target_degree``-regular multigraph following the Theorem 1 proof.

    Parameters
    ----------
    core:
        The list-system graph ``G = (S, S'; E)``; it must be regular (every
        vertex of degree ``Δ1``) with ``n_left == n_right == n1``.
    target_degree:
        The number of colours ``n2``; must satisfy ``target_degree >= Δ1`` and
        ``target_degree | n1 * Δ1``.

    Returns
    -------
    PaddedGraph
        The padded regular multigraph together with the bookkeeping needed to
        recognise core edges when reading colour classes back.
    """
    if core.n_left != core.n_right:
        raise NotRegularError(
            "pad_to_regular expects equal-sized sides, got "
            f"{core.n_left} and {core.n_right}"
        )
    n1 = core.n_left
    delta1 = core.regular_degree()
    n2 = check_positive_int(target_degree, "target_degree")
    if n2 < delta1:
        raise GraphError(
            f"target degree {n2} is smaller than the core degree {delta1}"
        )
    if (n1 * delta1) % n2 != 0:
        raise GraphError(
            f"target degree {n2} does not divide n1*Δ1 = {n1 * delta1}; "
            "the list system is not proper"
        )
    delta2 = (n1 * delta1) // n2
    n_pad = n1 - delta2
    pad_degree = n2 - delta1

    if pad_degree == 0:
        # Already n2-regular (n2 == Δ1 forces Δ2 == n1, so n_pad == 0 too).
        return PaddedGraph(core.copy(), n1, n1, n2)

    padded = BipartiteMultigraph(n1 + n_pad, n1 + n_pad)
    for left, right, mult in core.edges_with_multiplicity():
        padded.add_edge(left, right, mult)

    # H1 joins the new left vertices V (degree n2 each) to the original right
    # side S' (degree n2 - Δ1 each); H2 mirrors it on the other side.
    new, existing = biregular_pad_arrays(n_pad, n1, n2, pad_degree)
    h1 = list(zip((n1 + new).tolist(), existing.tolist()))
    for left, right in h1:
        padded.add_edge(left, right)
    for left, right in h1:
        padded.add_edge(right, left)

    if not padded.is_regular() or padded.regular_degree() != n2:
        raise GraphError("padding failed to produce an n2-regular multigraph")
    return PaddedGraph(padded, n1, n1, n2)
