"""Fair distributions (Theorem 1).

Given a proper list system ``(S, T, L)``, a *fair distribution* is an
assignment ``f : S × N_Δ1 -> T`` such that

1. for every source ``s`` the ``Δ1`` values ``f(s, ·)`` are all distinct;
2. every target ``t`` is assigned to exactly ``Δ2 = n1 Δ1 / n2`` pairs;
3. pairs whose list entries coincide (``L(s1, i1) = L(s2, i2)``) receive
   distinct targets.

Theorem 1 proves every proper list system admits one, constructively: build
the bipartite multigraph ``G = (S, S'; E)`` with ``l(s, s')`` parallel edges,
pad it to an ``n2``-regular multigraph with the biregular graphs ``H1``/``H2``
of the proof, 1-factorise the padded graph with König's theorem, and read the
colour of each core edge back as the assigned target.  This module implements
exactly that pipeline on top of :mod:`repro.graph`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import EdgeColoringError, FairnessViolationError, GraphError
from repro.graph.edge_coloring import edge_color, verify_edge_coloring
from repro.graph.regularize import biregular_pad_arrays, pad_to_regular
from repro.routing.list_system import ListSystem, check_proper_lists_stack
from repro.utils.arrayops import shrink_sort_key

__all__ = [
    "FairDistribution",
    "FairDistributionSolver",
    "verify_fair_distribution",
    "verify_fair_distribution_stack",
]


@dataclass(frozen=True)
class FairDistribution:
    """A fair distribution ``f`` for a list system.

    ``assignment[s][i]`` is the target ``f(s, i)`` assigned to the ``i``-th
    entry of source ``s``'s list.
    """

    system: ListSystem
    assignment: tuple[tuple[int, ...], ...]

    def __call__(self, source: int, index: int) -> int:
        """Return ``f(source, index)``."""
        return self.assignment[source][index]

    def targets_of_source(self, source: int) -> tuple[int, ...]:
        """All targets assigned to ``source``'s list entries, in list order."""
        return self.assignment[source]

    def pairs_of_target(self, target: int) -> list[tuple[int, int]]:
        """All pairs ``(source, index)`` assigned to ``target``."""
        return [
            (source, index)
            for source, row in enumerate(self.assignment)
            for index, value in enumerate(row)
            if value == target
        ]

    def verify(self) -> None:
        """Check conditions (1)–(3) of the definition; raise on violation."""
        verify_fair_distribution(self.system, self.assignment)


def verify_fair_distribution(
    system: ListSystem, assignment: tuple[tuple[int, ...], ...] | list[list[int]]
) -> None:
    """Verify that ``assignment`` is a fair distribution for ``system``.

    Raises
    ------
    FairnessViolationError
        If any of the three defining conditions fails.
    """
    delta1 = system.delta1
    delta2 = system.delta2
    if len(assignment) != system.n_sources:
        raise FairnessViolationError(
            f"assignment has {len(assignment)} rows, expected {system.n_sources}"
        )

    target_load: dict[int, int] = {t: 0 for t in range(system.n_targets)}
    targets_by_list_value: dict[int, set[int]] = {}

    for source, row in enumerate(assignment):
        if len(row) != delta1:
            raise FairnessViolationError(
                f"source {source} has {len(row)} assigned targets, expected Δ1={delta1}"
            )
        values = list(row)
        for target in values:
            if not (0 <= target < system.n_targets):
                raise FairnessViolationError(
                    f"target {target} of source {source} outside T = [0, {system.n_targets})"
                )
            target_load[target] += 1
        # Condition (1): all Δ1 targets of a source are distinct.
        if len(set(values)) != delta1:
            raise FairnessViolationError(
                f"source {source} reuses a target: {values}"
            )
        # Condition (3): pairs sharing the same list VALUE get distinct targets.
        for index, target in enumerate(values):
            entry_value = system.lists[source][index]
            seen = targets_by_list_value.setdefault(entry_value, set())
            if target in seen:
                raise FairnessViolationError(
                    f"two pairs with list value {entry_value} share target {target}"
                )
            seen.add(target)

    # Condition (2): every target carries exactly Δ2 pairs.
    for target, load in target_load.items():
        if load != delta2:
            raise FairnessViolationError(
                f"target {target} is assigned {load} pairs, expected Δ2={delta2}"
            )


def verify_fair_distribution_stack(
    lists: np.ndarray, assignment: np.ndarray, n_targets: int
) -> None:
    """Vectorized :func:`verify_fair_distribution` over ``(B, n1, Δ1)`` stacks.

    ``lists`` and ``assignment`` are the list and target stacks, one system
    per row; conditions (1)–(3) are verified with sorted-key passes and
    ``bincount``.

    Raises
    ------
    FairnessViolationError
        On the row-major first violation, with
        :func:`verify_fair_distribution`'s message.
    """
    batch, n_sources, delta1 = assignment.shape
    delta2 = (n_sources * delta1) // n_targets
    if lists.shape != assignment.shape:
        raise FairnessViolationError(
            f"assignment has shape {assignment.shape}, expected {lists.shape}"
        )
    out_of_range = (assignment < 0) | (assignment >= n_targets)
    if out_of_range.any():
        flat = out_of_range.reshape(batch, n_sources * delta1)
        b, bad = np.unravel_index(int(np.argmax(flat)), flat.shape)
        raise FairnessViolationError(
            f"target {int(assignment.reshape(batch, -1)[b, bad])} of source "
            f"{int(bad) // delta1} outside T = [0, {n_targets})"
        )
    # Condition (1): all Δ1 targets of a source are distinct.
    row_sorted = np.sort(shrink_sort_key(assignment, n_targets - 1), axis=2)
    repeats = (row_sorted[:, :, 1:] == row_sorted[:, :, :-1]).any(axis=2)
    if repeats.any():
        b, source = np.unravel_index(int(np.argmax(repeats)), repeats.shape)
        raise FairnessViolationError(
            f"source {int(source)} reuses a target: "
            f"{assignment[b, source].tolist()}"
        )
    # Condition (3): pairs sharing the same list value get distinct targets.
    pair_key = np.sort(
        shrink_sort_key(
            lists.reshape(batch, -1) * np.int64(n_targets)
            + assignment.reshape(batch, -1),
            n_targets * n_targets - 1,
        ),
        axis=1,
    )
    clash = pair_key[:, 1:] == pair_key[:, :-1]
    if clash.any():
        b, i = np.unravel_index(int(np.argmax(clash)), clash.shape)
        key = int(pair_key[b, i])
        raise FairnessViolationError(
            f"two pairs with list value {key // n_targets} share target "
            f"{key % n_targets}"
        )
    # Condition (2): every target carries exactly Δ2 pairs.
    load = np.bincount(
        (
            assignment.reshape(batch, -1)
            + np.arange(batch, dtype=np.int64)[:, None] * n_targets
        ).ravel(),
        minlength=batch * n_targets,
    ).reshape(batch, n_targets)
    unbalanced = load != delta2
    if unbalanced.any():
        b, target = np.unravel_index(int(np.argmax(unbalanced)), unbalanced.shape)
        raise FairnessViolationError(
            f"target {int(target)} is assigned {int(load[b, target])} pairs, "
            f"expected Δ2={delta2}"
        )


class FairDistributionSolver:
    """Computes fair distributions by the constructive proof of Theorem 1.

    Parameters
    ----------
    backend:
        Edge-colouring backend, ``"konig"`` (default) or ``"euler"``; see
        :mod:`repro.graph.edge_coloring`.
    verify:
        When ``True`` (default) both the intermediate edge colouring and the
        final assignment are checked against their definitions.  Disable only
        in tight benchmarking loops.
    """

    def __init__(self, backend: str = "konig", verify: bool = True):
        self.backend = backend
        self.verify = verify

    def solve(self, system: ListSystem) -> FairDistribution:
        """Compute a fair distribution for ``system``.

        Raises
        ------
        ImproperListSystemError
            If the list system is not proper.
        FairnessViolationError
            If verification is enabled and the produced assignment is not fair
            (this indicates an internal bug and should never happen).
        """
        system.check_proper()
        n2 = system.n_targets

        core = system.to_multigraph()
        padded = pad_to_regular(core, n2)
        coloring = edge_color(padded.graph, backend=self.backend)
        if self.verify:
            verify_edge_coloring(padded.graph, coloring)

        # Read back: for each core edge copy, its colour is the assigned target.
        # Parallel copies of the same (s, s') edge are distributed over the list
        # positions holding that value in ascending position order.
        colors_of_edge: dict[tuple[int, int], list[int]] = {}
        for color, edges in enumerate(coloring.classes):
            for left, right in edges:
                if padded.is_core_edge(left, right):
                    colors_of_edge.setdefault((left, right), []).append(color)

        assignment: list[list[int]] = []
        for source, row in enumerate(system.lists):
            row_assignment = [-1] * len(row)
            cursor: dict[int, int] = {}
            for index, value in enumerate(row):
                colors = colors_of_edge.get((source, value), [])
                position = cursor.get(value, 0)
                if position >= len(colors):
                    raise FairnessViolationError(
                        "internal error: fewer coloured copies of edge "
                        f"({source}, {value}) than list occurrences"
                    )
                row_assignment[index] = colors[position]
                cursor[value] = position + 1
            assignment.append(row_assignment)

        distribution = FairDistribution(
            system=system,
            assignment=tuple(tuple(row) for row in assignment),
        )
        if self.verify:
            distribution.verify()
        return distribution

    def solve_array_batch(self, lists: np.ndarray, n_targets: int) -> np.ndarray:
        """Array-native fair distributions: ``(B, n1, Δ1)`` lists in, targets out.

        The whole Theorem 1 pipeline for a batch of list systems in one call,
        without Python object structures.  The padding construction is
        permutation-independent, so ``H1``/``H2`` are built once
        (:func:`~repro.graph.regularize.biregular_pad_arrays`) and broadcast;
        the canonical instance stacks are produced by a single row-wise sort
        of composite ``left·nv + right`` keys (the sort *is*
        :meth:`~repro.graph.array_multigraph.ArrayMultigraph.from_instances`'s
        canonical expansion); colouring runs through the backend's stack
        kernel; and the colours are read back into the ``(B, n1, Δ1)``
        assignment with two row-wise sorts.  For a given array backend, row
        ``b`` is *identical* to :meth:`solve` on the equivalent
        :class:`~repro.routing.list_system.ListSystem`: both pipelines hand
        the same canonical arrays to the same deterministic kernel and read
        colours back per edge in ascending order.

        Raises
        ------
        EdgeColoringError
            If the configured backend has no array kernel (only
            ``"konig-array"`` / ``"euler-array"`` qualify).
        ImproperListSystemError / FairnessViolationError
            As :meth:`solve`.
        """
        from repro.graph.array_coloring import (
            ARRAY_COLORING_STACK_KERNELS,
            verify_instance_coloring_stack,
        )

        kernel = ARRAY_COLORING_STACK_KERNELS.get(self.backend)
        if kernel is None:
            raise EdgeColoringError(
                f"backend {self.backend!r} has no array colouring kernel; "
                f"available: {sorted(ARRAY_COLORING_STACK_KERNELS)}"
            )
        lists = np.asarray(lists, dtype=np.int64)
        batch, n_sources, delta1 = lists.shape
        check_proper_lists_stack(lists, n_targets)

        # Padding parameters and the H1/H2 biregular graphs depend only on
        # (n1, Δ1, n2) — shared across the batch.  Validation mirrors
        # pad_to_regular message for message.
        n1, n2 = n_sources, n_targets
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
        m_core = n1 * delta1
        core_left = np.repeat(np.arange(n1, dtype=np.int64), delta1)
        core_right = lists.reshape(batch, m_core)

        if n_pad == 0 or pad_degree == 0:
            if delta1 != n2:
                raise GraphError(
                    "inconsistent padding parameters: no padding vertices "
                    f"required but core degree {delta1} != target {n2}"
                )
            nv = n1
            key = core_left[None, :] * np.int64(nv) + core_right
        else:
            pad_left, pad_right = biregular_pad_arrays(n_pad, n1, n2, pad_degree)
            nv = n1 + n_pad
            pad_key = np.concatenate(
                (
                    (n1 + pad_left) * np.int64(nv) + pad_right,
                    pad_right * np.int64(nv) + (n1 + pad_left),
                )
            )
            key = np.concatenate(
                (
                    core_left[None, :] * np.int64(nv) + core_right,
                    np.broadcast_to(pad_key, (batch, pad_key.size)),
                ),
                axis=1,
            )
        # Row-wise canonicalization: sorting the composite keys IS the
        # canonical instance expansion of ArrayMultigraph.from_instances.
        sorted_key = np.sort(shrink_sort_key(key, nv * nv - 1), axis=1)
        instance_left = sorted_key // nv
        instance_right = sorted_key % nv
        left_degrees = np.bincount(
            (instance_left + np.arange(batch, dtype=np.int64)[:, None] * nv).ravel(),
            minlength=batch * nv,
        )
        right_degrees = np.bincount(
            (instance_right + np.arange(batch, dtype=np.int64)[:, None] * nv).ravel(),
            minlength=batch * nv,
        )
        if not ((left_degrees == n2).all() and (right_degrees == n2).all()):
            raise GraphError("padding failed to produce an n2-regular multigraph")

        colors = kernel(instance_left, instance_right, nv, nv, n2)
        if self.verify:
            verify_instance_coloring_stack(
                instance_left, instance_right, nv, nv, colors
            )

        # Read back, row-wise: core instances carry the assigned targets,
        # pairing (source, value, ascending colour) with (source, value,
        # ascending position) — the object readback of solve — by two sorts
        # along axis 1.
        core_mask = (instance_left < n1) & (instance_right < n1)
        core_key = (
            instance_left[core_mask] * np.int64(n1) + instance_right[core_mask]
        ).reshape(batch, m_core)
        core_colors = colors[core_mask].reshape(batch, m_core)
        instance_order = np.lexsort(
            (
                shrink_sort_key(core_colors, n2 - 1),
                shrink_sort_key(core_key, n1 * n1 - 1),
            ),
            axis=-1,
        )
        position_key = core_left * np.int64(n1)
        position_key = position_key[None, :] + core_right
        position_order = np.argsort(
            shrink_sort_key(position_key, (n1 - 1) * n1 + n2 - 1),
            axis=1,
            kind="stable",
        )
        assignment = np.empty((batch, m_core), dtype=np.int64)
        np.put_along_axis(
            assignment,
            position_order,
            np.take_along_axis(core_colors, instance_order, axis=1),
            axis=1,
        )
        assignment = assignment.reshape(batch, n_sources, delta1)
        if self.verify:
            verify_fair_distribution_stack(lists, assignment, n_targets)
        return assignment
