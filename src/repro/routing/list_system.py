"""List systems (Section 3.1 of the paper).

A *list system* is a triple ``(S, T, L)`` where ``S`` is a set of ``n1`` source
nodes, ``T`` a set of ``n2`` target nodes, and ``L`` assigns to every source a
list of ``Δ1 <= n2`` (not necessarily distinct) elements of ``S``.  It is
*proper* when ``n2`` divides ``n1 * Δ1`` and every element of ``S`` appears
exactly ``Δ1`` times across all lists.

For permutation routing on POPS(d, g) the list system is built from the
permutation ``π``: sources are the ``g`` groups, the list of group ``h``
contains the destination groups of the ``d`` packets originating in group
``h`` (``L(h, i) = group(π(i + h·d))``), and the target set is ``N_g`` when
``d <= g`` and ``N_d`` when ``d > g``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ImproperListSystemError, ValidationError
from repro.graph.multigraph import BipartiteMultigraph
from repro.utils.validation import check_permutation, check_positive_int

__all__ = [
    "ListSystem",
    "destination_group_lists_stack",
    "check_proper_lists_stack",
]


def destination_group_lists_stack(images: np.ndarray, d: int, g: int) -> np.ndarray:
    """The Theorem 2 list systems of a permutation stack, as ``(B, g, d)``.

    Row ``b`` holds the lists of :meth:`ListSystem.from_permutation` for
    ``images[b]`` — ``L(h, i) = group(π(i + h·d))`` — without per-entry
    Python objects.  ``images`` must already be a validated ``(B, d·g)``
    permutation stack.
    """
    return images.reshape(-1, g, d) // d


def check_proper_lists_stack(lists: np.ndarray, n_targets: int) -> None:
    """Vectorized :meth:`ListSystem.check_proper` over a ``(B, n1, Δ1)`` stack.

    Entries are source indices; raises :class:`ImproperListSystemError` with
    the object-path message for the row-major first violation.
    """
    batch, n_sources, delta1 = lists.shape
    if (n_sources * delta1) % n_targets != 0:
        raise ImproperListSystemError(
            f"n2={n_targets} does not divide n1*Δ1={n_sources * delta1}"
        )
    flat = lists.reshape(batch, n_sources * delta1)
    occurrences = np.bincount(
        (flat + np.arange(0, batch * n_sources, n_sources, dtype=np.int64)[:, None]).ravel(),
        minlength=batch * n_sources,
    ).reshape(batch, n_sources)
    bad = occurrences != delta1
    if bad.any():
        b, element = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise ImproperListSystemError(
            f"element {int(element)} appears {int(occurrences[b, element])} times "
            f"across all lists, expected Δ1={delta1}"
        )


@dataclass(frozen=True)
class ListSystem:
    """A list system ``(S, T, L)`` with ``S = {0..n_sources-1}``,
    ``T = {0..n_targets-1}`` and ``L`` given row-wise.

    Attributes
    ----------
    n_sources:
        ``n1 = |S|``.
    n_targets:
        ``n2 = |T|``.
    lists:
        ``lists[s]`` is the list ``L_s`` of length ``Δ1`` whose entries are
        elements of ``S`` (NOT of ``T`` — see the paper's definition).
    """

    n_sources: int
    n_targets: int
    lists: tuple[tuple[int, ...], ...]

    # -- constructors -------------------------------------------------------------

    @classmethod
    def from_lists(
        cls, n_sources: int, n_targets: int, lists: Sequence[Sequence[int]]
    ) -> "ListSystem":
        """Build and validate a list system from per-source lists."""
        check_positive_int(n_sources, "n_sources")
        check_positive_int(n_targets, "n_targets")
        if len(lists) != n_sources:
            raise ValidationError(
                f"expected {n_sources} lists, got {len(lists)}"
            )
        lengths = {len(row) for row in lists}
        if len(lengths) != 1:
            raise ValidationError(f"all lists must have the same length, got {lengths}")
        (delta1,) = lengths
        if delta1 == 0:
            raise ValidationError("lists must be non-empty")
        if delta1 > n_targets:
            raise ValidationError(
                f"list length Δ1={delta1} exceeds the number of targets n2={n_targets}"
            )
        frozen = []
        for source, row in enumerate(lists):
            entries = []
            for value in row:
                if not (0 <= int(value) < n_sources):
                    raise ValidationError(
                        f"list entry {value} of source {source} is not in S = [0, {n_sources})"
                    )
                entries.append(int(value))
            frozen.append(tuple(entries))
        return cls(n_sources=n_sources, n_targets=n_targets, lists=tuple(frozen))

    @classmethod
    def from_permutation(cls, pi: Sequence[int], d: int, g: int) -> "ListSystem":
        """Build the list system of Theorem 2 for permutation ``pi`` on POPS(d, g).

        ``L(h, i) = group(π(i + h·d))`` for ``h ∈ N_g`` and ``i ∈ N_d``; the
        target set is ``N_g`` when ``d <= g`` (two-slot case) and ``N_d`` when
        ``d > g`` (``2⌈d/g⌉``-slot case), exactly as the proof of Theorem 2
        chooses it.
        """
        check_positive_int(d, "d")
        check_positive_int(g, "g")
        images = check_permutation(pi, d * g)
        lists = [
            [images[i + h * d] // d for i in range(d)] for h in range(g)
        ]
        n_targets = g if d <= g else d
        return cls.from_lists(n_sources=g, n_targets=n_targets, lists=lists)

    # -- scalar properties --------------------------------------------------------

    @property
    def delta1(self) -> int:
        """Common list length ``Δ1``."""
        return len(self.lists[0])

    @property
    def delta2(self) -> int:
        """``Δ2 = n1 Δ1 / n2`` (only meaningful for proper list systems)."""
        return (self.n_sources * self.delta1) // self.n_targets

    def occurrence_count(self, element: int) -> int:
        """Total number of occurrences of ``element`` across every list
        (the paper's ``Σ_s l(s, element)``)."""
        return sum(row.count(element) for row in self.lists)

    def multiplicity(self, source: int, element: int) -> int:
        """``l(source, element)``: occurrences of ``element`` in list ``L_source``."""
        return self.lists[source].count(element)

    # -- properness -----------------------------------------------------------------

    def is_proper(self) -> bool:
        """True iff the list system is proper (Theorem 1's hypothesis)."""
        if (self.n_sources * self.delta1) % self.n_targets != 0:
            return False
        return all(
            self.occurrence_count(element) == self.delta1
            for element in range(self.n_sources)
        )

    def check_proper(self) -> None:
        """Raise :class:`ImproperListSystemError` unless the system is proper."""
        if (self.n_sources * self.delta1) % self.n_targets != 0:
            raise ImproperListSystemError(
                f"n2={self.n_targets} does not divide n1*Δ1={self.n_sources * self.delta1}"
            )
        for element in range(self.n_sources):
            occurrences = self.occurrence_count(element)
            if occurrences != self.delta1:
                raise ImproperListSystemError(
                    f"element {element} appears {occurrences} times across all lists, "
                    f"expected Δ1={self.delta1}"
                )

    # -- graph view -------------------------------------------------------------------

    def to_multigraph(self) -> BipartiteMultigraph:
        """The bipartite multigraph ``G = (S, S'; E)`` of Theorem 1's proof:
        ``l(s, s')`` parallel edges between left vertex ``s`` and right vertex ``s'``."""
        graph = BipartiteMultigraph(self.n_sources, self.n_sources)
        for source, row in enumerate(self.lists):
            for element in row:
                graph.add_edge(source, element)
        return graph

    def __repr__(self) -> str:
        return (
            f"ListSystem(n1={self.n_sources}, n2={self.n_targets}, Δ1={self.delta1})"
        )
