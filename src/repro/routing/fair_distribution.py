"""Fair distributions (Theorem 1).

Given a proper list system ``(S, T, L)``, a *fair distribution* is an
assignment ``f : S × N_Δ1 -> T`` such that

1. for every source ``s`` the ``Δ1`` values ``f(s, ·)`` are all distinct;
2. every target ``t`` is assigned to exactly ``Δ2 = n1 Δ1 / n2`` pairs;
3. pairs whose list entries coincide (``L(s1, i1) = L(s2, i2)``) receive
   distinct targets.

Theorem 1 proves every proper list system admits one, constructively, from
the bipartite multigraph ``G = (S, S'; E)`` with ``l(s, s')`` parallel edges.
``G`` is ``Δ1``-regular.  This module runs one of two constructions, chosen
by the shape alone:

``Δ1`` divides ``n2`` (pad-free)
    1-factorise ``G`` itself with ``Δ1`` colours and set
    ``f(s, i) = colour(s, i) · k + s // Δ2`` with ``k = n2 / Δ1``.  Each
    colour class is a perfect matching over all ``n1 = k·Δ2`` sources, so it
    cuts into ``k`` runs of ``Δ2`` consecutive sources, and run ``r`` of
    colour ``c`` becomes target ``c·k + r``.  Conditions (1) and (3) hold
    because the edges at any left or right vertex carry distinct colours and
    ``c·k + r`` (with ``r < k``) is injective in ``c``, and
    condition (2) because target ``c·k + r`` receives exactly the ``Δ2``
    sources of its run — the equal-class case of de Werra's equitable
    edge-colouring theorem.  ``Δ1 = n2`` is its ``k = 1`` case: the colour
    is the target.  In Theorem 2 routing this covers every ``d ≥ g`` shape
    and every ``d < g`` shape with ``d | g``, all power-of-two shapes
    included.

``Δ1`` does not divide ``n2`` (padded, the proof's construction)
    Pad ``G`` to an ``n2``-regular multigraph with the biregular graphs
    ``H1``/``H2`` of the proof (:mod:`repro.graph.regularize`), 1-factorise
    the padded graph with König's theorem, and read the colour of each core
    edge back as the assigned target.  Routing reaches it only at
    ``d < g`` with ``d ∤ g`` (e.g. 12×64, 3×7).

Both solver entry points (:meth:`FairDistributionSolver.solve` and
:meth:`FairDistributionSolver.solve_array_batch`) pick the same construction,
so their outputs stay identical per backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import (
    FairnessViolationError,
    GraphError,
    ValidationError,
)
from repro.graph.edge_coloring import edge_color, verify_edge_coloring
from repro.graph.regularize import biregular_pad_arrays, pad_to_regular
from repro.routing.list_system import ListSystem, check_proper_lists_stack
from repro.utils.arrayops import first_repeat, read_only, shape_cache, shrink_sort_key
from repro.utils.validation import check_integer_array, check_positive_int

__all__ = [
    "FairDistribution",
    "FairDistributionSolver",
    "coloring_instance_count",
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
    per row; list entries must be sources in ``[0, n1)``.  Conditions (1) and
    (3) are one duplicate count (:func:`~repro.utils.arrayops.first_repeat`)
    over ``(source, target)`` then ``(list value, target)`` keys, condition
    (2) a ``bincount`` of the targets.

    Raises
    ------
    ValidationError
        If a list entry is not a source, with :func:`_check_list_stack`'s
        message.
    FairnessViolationError
        On the row-major first violation, with
        :func:`verify_fair_distribution`'s message.
    """
    if lists.shape != assignment.shape:
        raise FairnessViolationError(
            f"assignment has shape {assignment.shape}, expected {lists.shape}"
        )
    batch, n_sources, delta1 = assignment.shape
    delta2 = (n_sources * delta1) // n_targets
    if batch == 0:
        return
    _check_list_entries(lists, n_sources)
    if assignment.min() < 0 or assignment.max() >= n_targets:
        out_of_range = (assignment < 0) | (assignment >= n_targets)
        flat = out_of_range.reshape(batch, n_sources * delta1)
        b, bad = np.unravel_index(int(np.argmax(flat)), flat.shape)
        raise FairnessViolationError(
            f"target {int(assignment.reshape(batch, -1)[b, bad])} of source "
            f"{int(bad) // delta1} outside T = [0, {n_targets})"
        )
    # Condition (1) keys s·n2 + t for every row, then condition (3) keys
    # v·n2 + t for every row.
    repeat = first_repeat(
        np.concatenate(
            (
                (
                    assignment
                    + np.arange(0, n_sources * n_targets, n_targets, dtype=np.int64)[:, None]
                ).reshape(batch, -1),
                (lists * np.int64(n_targets) + assignment).reshape(batch, -1),
            )
        ),
        n_sources * n_targets,
    )
    if repeat is not None and repeat[0] < batch:
        # Condition (1): all Δ1 targets of a source are distinct.
        b, source = repeat[0], repeat[1] // n_targets
        raise FairnessViolationError(
            f"source {source} reuses a target: {assignment[b, source].tolist()}"
        )
    if repeat is not None:
        # Condition (3): pairs sharing the same list value get distinct targets.
        raise FairnessViolationError(
            f"two pairs with list value {repeat[1] // n_targets} share target "
            f"{repeat[1] % n_targets}"
        )
    # Condition (2): every target carries exactly Δ2 pairs.
    load = np.bincount(
        (
            assignment.reshape(batch, -1)
            + np.arange(0, batch * n_targets, n_targets, dtype=np.int64)[:, None]
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


#: Most edge instances handed to one colouring-kernel call; larger stacks are
#: coloured in row slices, because the kernel's flat union outgrows the cache.
#: A B = 64 stack at 12×64 (padded) took 6.6–7.2 ms per route coloured whole,
#: 5.8 ms routed row by row and 3.0–3.4 ms in slices of this size (2-core
#: x86-64 VM).
KERNEL_TILE_INSTANCES = 2**14


def coloring_instance_count(n_sources: int, delta1: int, n_targets: int) -> int:
    """Edge instances Theorem 1 colours for one ``(n1, Δ1, n2)`` list system.

    ``n1·Δ1`` when ``Δ1`` divides ``n2`` (the core itself), else
    ``n2·(2·n1 − Δ2)``: the padded graph is ``n2``-regular with
    ``2·n1 − Δ2`` vertices a side.  In Theorem 2 routing on POPS(d, g) the
    list system is ``(g, d, max(d, g))``.
    """
    if n_targets % delta1 == 0:
        return n_sources * delta1
    return n_targets * (2 * n_sources - n_sources * delta1 // n_targets)


def _check_list_stack(lists, n_targets: int) -> np.ndarray:
    """Validate a ``(B, n1, Δ1)`` list stack; returns it as ``int64``.

    The array twin of :meth:`ListSystem.from_lists`'s checks, message for
    message: ``n_targets`` a positive integer, integer-typed entries in a
    3-d stack, non-empty lists no longer than ``n2`` and every entry a
    source in ``[0, n1)``.
    """
    check_positive_int(n_targets, "n_targets")
    lists = check_integer_array(lists, "list stack")
    if lists.ndim != 3:
        raise ValidationError(
            f"list stack must be three-dimensional (B, n1, Δ1), got shape "
            f"{lists.shape}"
        )
    _, n_sources, delta1 = lists.shape
    check_positive_int(n_sources, "n_sources")
    if delta1 == 0:
        raise ValidationError("lists must be non-empty")
    if delta1 > n_targets:
        raise ValidationError(
            f"list length Δ1={delta1} exceeds the number of targets n2={n_targets}"
        )
    _check_list_entries(lists, n_sources)
    return lists


def _check_list_entries(lists: np.ndarray, n_sources: int) -> None:
    """Raise :class:`ValidationError` on the row-major first list entry outside ``[0, n1)``."""
    if lists.size and (lists.min() < 0 or lists.max() >= n_sources):
        outside = (lists < 0) | (lists >= n_sources)
        b, source, index = np.unravel_index(int(np.argmax(outside)), lists.shape)
        raise ValidationError(
            f"list entry {int(lists[b, source, index])} of source {int(source)} "
            f"is not in S = [0, {n_sources})"
        )


@dataclass(frozen=True, eq=False)
class ListSystemTemplate:
    """The permutation-independent arrays of one ``(n1, Δ1, n2)`` solve.

    ``left_key`` is the canonical left half ``s·nv`` of every core instance's
    composite key (``nv`` vertices a side, ``n1`` when pad-free);
    ``pad_key`` holds the padding instances' keys (``None`` when pad-free);
    ``run`` is the ``(n1, 1)`` column ``s // Δ2`` added to ``c·k`` when
    ``k = n2/Δ1 > 1`` (else ``None``); ``tile_rows`` is the number of rows
    per colouring-kernel call.  Arrays are read-only.
    """

    n_vertices: int
    degree: int
    m_core: int
    tile_rows: int
    left_key: np.ndarray
    pad_key: np.ndarray | None
    run: np.ndarray | None


@shape_cache(maxsize=32, max_bytes=1 << 20)
def list_system_template(n_sources: int, delta1: int, n_targets: int) -> ListSystemTemplate:
    """The cached :class:`ListSystemTemplate` of a ``(n1, Δ1, n2)`` list system.

    Everything :meth:`FairDistributionSolver.solve_array_batch` needs that
    does not depend on the lists; the cache keeps at most 32 shapes and
    1 MiB of arrays.
    """
    n1, n2 = n_sources, n_targets
    m_core = n1 * delta1
    core_left = np.repeat(np.arange(n1, dtype=np.int64), delta1)
    pad_key = run = None
    if n2 % delta1 == 0:
        nv, degree = n1, delta1
        if delta1 != n2:
            run = (np.arange(n1, dtype=np.int64) // (m_core // n2))[:, None]
    else:
        # Δ1 ∤ n2 implies Δ1 < n2 and Δ2 < n1, so both padding sides are
        # non-empty.
        n_pad = n1 - m_core // n2
        pad_left, pad_right = biregular_pad_arrays(n_pad, n1, n2, n2 - delta1)
        nv, degree = n1 + n_pad, n2
        pad_key = np.concatenate(
            (
                (n1 + pad_left) * np.int64(nv) + pad_right,
                pad_right * np.int64(nv) + (n1 + pad_left),
            )
        )
    return ListSystemTemplate(
        n_vertices=nv,
        degree=degree,
        m_core=m_core,
        tile_rows=max(
            1, KERNEL_TILE_INSTANCES // coloring_instance_count(n1, delta1, n2)
        ),
        left_key=read_only(core_left * np.int64(nv)),
        pad_key=None if pad_key is None else read_only(pad_key),
        run=None if run is None else read_only(run),
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

        When ``Δ1`` divides ``n2`` the ``Δ1``-regular core is coloured with
        ``Δ1`` colours and colour ``c`` of source ``s`` maps to target
        ``c · (n2/Δ1) + s // Δ2`` (the module docstring proves it fair);
        otherwise the core is padded to an ``n2``-regular multigraph
        (:func:`~repro.graph.regularize.pad_to_regular`) whose ``n2``
        colours are the targets.

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
        delta1 = system.delta1

        core = system.to_multigraph()
        padded = None if n2 % delta1 == 0 else pad_to_regular(core, n2)
        graph = core if padded is None else padded.graph
        coloring = edge_color(graph, backend=self.backend)
        if self.verify:
            verify_edge_coloring(graph, coloring)

        # Read back: for each core edge copy, its colour names the assigned
        # target.  Parallel copies of the same (s, s') edge are distributed
        # over the list positions holding that value in ascending position
        # order.
        colors_of_edge: dict[tuple[int, int], list[int]] = {}
        for color, edges in enumerate(coloring.classes):
            for left, right in edges:
                if padded is None or padded.is_core_edge(left, right):
                    colors_of_edge.setdefault((left, right), []).append(color)

        # Pad-free with k = n2/Δ1 > 1: source s sits in run s // Δ2 of its
        # colour class, and run r of colour c is target c·k + r.
        k = n2 // delta1 if padded is None else 1
        assignment: list[list[int]] = []
        for source, row in enumerate(system.lists):
            run = source // system.delta2 if k > 1 else 0
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
                row_assignment[index] = colors[position] * k + run
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
        """Fair distributions of a list stack: ``(B, n1, Δ1)`` lists in, targets out.

        A backend with no stack kernel (``"konig"``, ``"euler"``, a plugin)
        solves each row with :meth:`solve`.  A kernel backend runs
        :meth:`solve`'s construction for the whole batch in one call,
        without Python object structures.  When ``Δ1`` divides ``n2`` the
        unpadded ``Δ1``-regular cores are coloured with ``Δ1`` colours and colour
        ``c`` of source ``s`` becomes target ``c · (n2/Δ1) + s // Δ2`` in
        one elementwise pass (skipped when ``Δ1 == n2``, where the colour is
        the target).  Otherwise the proof's padding applies: it is
        permutation-independent, so ``H1``/``H2`` are built once
        (:func:`~repro.graph.regularize.biregular_pad_arrays`) and
        broadcast, and the ``n2``-regular padded graphs are coloured.
        Either way the canonical instance stacks are produced by a single
        row-wise sort of composite ``left·nv + right`` keys (the sort *is*
        :meth:`~repro.graph.array_multigraph.ArrayMultigraph.from_instances`'s
        canonical expansion); colouring runs through the backend's stack
        kernel, one call per row slice of at most
        :data:`KERNEL_TILE_INSTANCES` instances (``max(1, 2**14 // m)``
        rows, ``m`` from :func:`coloring_instance_count`; a lone row that
        exceeds the tile is still one call); and the colours are read back
        into the ``(B, n1, Δ1)`` assignment with a row-wise sort of the
        instances by (pair, colour), the list positions in pair order, and
        one flat gather/scatter pair.  Pad-free, the canonicalising sort is
        a stable argsort whose order is also the positions' order.  The
        arrays that depend on the shape alone come from
        :func:`list_system_template`.  For a given backend, row ``b`` is
        *identical* to :meth:`solve` on the equivalent
        :class:`~repro.routing.list_system.ListSystem`: both pipelines hand
        the same canonical arrays to the same deterministic kernel and read
        colours back per edge in ascending order.

        An empty ``(0, n1, Δ1)`` stack returns an empty assignment.

        Raises
        ------
        ValidationError
            If ``lists`` is not a 3-d integer stack of non-empty lists no
            longer than ``n_targets`` with entries in ``[0, n1)``, or
            ``n_targets`` is not a positive integer — the checks of
            :meth:`ListSystem.from_lists`.
        ImproperListSystemError / FairnessViolationError / EdgeColoringError
            As :meth:`solve` (the last for an unregistered backend).
        """
        from repro.graph.array_coloring import (
            ARRAY_COLORING_STACK_KERNELS,
            verify_instance_coloring_stack,
        )

        lists = _check_list_stack(lists, n_targets)
        batch, n_sources, delta1 = lists.shape
        if batch == 0:
            return lists.copy()
        check_proper_lists_stack(lists, n_targets)
        kernel = ARRAY_COLORING_STACK_KERNELS.get(self.backend)
        if kernel is None:
            # No stack kernel: solve each row's list system on the object graph.
            rows = (ListSystem(n_sources, n_targets, tuple(map(tuple, row))) for row in lists.tolist())
            return np.array([self.solve(system).assignment for system in rows], dtype=np.int64)

        shape = list_system_template(n_sources, delta1, n_targets)
        nv, m_core = shape.n_vertices, shape.m_core
        core_right = lists.reshape(batch, m_core)
        core_key = shape.left_key + core_right
        row_offsets = np.arange(0, batch * m_core, m_core, dtype=np.int64)[:, None]
        if shape.pad_key is None:
            # Pad-free: colour the Δ1-regular core itself.  One stable argsort
            # of the composite ``left·nv + right`` keys canonicalises the
            # instances (the sort *is* ArrayMultigraph.from_instances's
            # canonical expansion) and, since a key names a (source, value)
            # pair, lists each pair's positions in ascending order for the
            # readback.
            position_order = np.argsort(
                shrink_sort_key(core_key, nv * nv - 1), axis=1, kind="stable"
            )
            position_order += row_offsets
            sorted_key = core_key.reshape(-1)[position_order]
            instance_left, instance_right = np.divmod(sorted_key, nv)
        else:
            # The proof's padding: H1/H2 depend only on (n1, Δ1, n2) and are
            # shared across the batch.
            key = np.concatenate(
                (core_key, np.broadcast_to(shape.pad_key, (batch, shape.pad_key.size))),
                axis=1,
            )
            sorted_key = np.sort(shrink_sort_key(key, nv * nv - 1), axis=1)
            instance_left, instance_right = np.divmod(sorted_key, nv)
            offsets = np.arange(batch, dtype=np.int64)[:, None] * nv
            left_degrees = np.bincount(
                (instance_left + offsets).ravel(), minlength=batch * nv
            )
            right_degrees = np.bincount(
                (instance_right + offsets).ravel(), minlength=batch * nv
            )
            if not ((left_degrees == n_targets).all() and (right_degrees == n_targets).all()):
                raise GraphError("padding failed to produce an n2-regular multigraph")

        # Rows are independent, so colouring in row slices is bit-identical.
        tile = shape.tile_rows
        parts = [
            kernel(
                instance_left[lo:lo + tile], instance_right[lo:lo + tile],
                nv, nv, shape.degree,
            )
            for lo in range(0, batch, tile)
        ]
        colors = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if self.verify:
            verify_instance_coloring_stack(
                instance_left, instance_right, nv, nv, colors
            )

        # Read back, row-wise: core instances carry the colours, pairing
        # (source, value, ascending colour) with (source, value, ascending
        # position) — the object readback of solve — by sorts along axis 1,
        # then one flat gather and one flat scatter (row offsets turn both
        # row-wise orderings into flat positions).
        if shape.pad_key is None:
            # Core keys are pair keys already: nv == n1.
            instance_key = sorted_key
        else:
            core_mask = (instance_left < n_sources) & (instance_right < n_sources)
            instance_key = (
                instance_left[core_mask] * np.int64(n_sources)
                + instance_right[core_mask]
            ).reshape(batch, m_core)
            colors = colors[core_mask].reshape(batch, m_core)
            position_order = np.argsort(
                shrink_sort_key(core_key, nv * nv - 1), axis=1, kind="stable"
            )
            position_order += row_offsets
        # Instance keys are sorted already, so a stable argsort of the
        # composite (pair, colour) key runs over presorted stretches.
        instance_order = (instance_key * np.int64(shape.degree) + colors).argsort(
            axis=1, kind="stable"
        )
        instance_order += row_offsets
        assignment = np.empty((batch, n_sources, delta1), dtype=np.int64)
        assignment.reshape(-1)[position_order] = colors.reshape(-1)[instance_order]
        if shape.run is not None:
            # Run r of colour c is target c·k + r, k = n2/Δ1, r = s // Δ2.
            assignment *= n_targets // delta1
            assignment += shape.run
        if self.verify:
            verify_fair_distribution_stack(lists, assignment, n_targets)
        return assignment
