"""Array-native edge-colouring kernels for regular bipartite multigraphs.

The object backends in :mod:`repro.graph.edge_coloring` walk Python dicts one
edge instance at a time; at routing scale (``n = d·g`` instances for a handful
of vertices) that per-instance interpreter cost dominates plan construction.
The kernels here keep the edge instances as parallel ``int64`` arrays end to
end and back the ``"konig-array"`` and ``"euler-array"`` router backends.

The routing pipeline colours ``(B, m)`` instance stacks, one row per
permutation, through :data:`ARRAY_COLORING_STACK_KERNELS`:

``konig_array_colors_stack``
    König's 1-factorisation by repeated perfect matching, row by row, with
    the matching computed by the numpy-backed :func:`repro.graph.matching.
    hopcroft_karp_csr` on the (small) support graph and all multiplicity
    bookkeeping done with ``bincount``/``searchsorted``.  Handles every
    regular degree.

``euler_array_colors_stack``
    The Gabow-style recursion made iterative and level-synchronous: even
    degrees are halved by a *vectorized* Euler split over the whole stack and
    odd degrees peel one perfect matching first.  A ``2^k``-regular graph —
    the common power-of-two ``d`` of the benchmarks — is coloured by ``k``
    splits with no matching call at all.

The vectorized Euler split replaces trail-walking with the classic parallel
formulation: pair consecutive edge instances at every (even-degree) vertex on
both sides; the union of the two pairings decomposes the instances into even
cycles, and a proper 2-colouring of those cycles — computed with pointer
doubling, no Python loop over edges — puts exactly half of every vertex's
instances in each half.

At routing scale a stack is often a single 1024-instance row, where each
numpy call's fixed cost outweighs its arithmetic.  The stack kernel therefore
works on flat native ``int64`` indices throughout: instances travel as flat
ids into the ``(B, m)`` colour stack, each level's row-wise orderings become
flat positions by adding a cached row-offset column, and pointer doubling
below ``2**13`` instances gathers with ``int64`` indices (numpy re-casts any
other index dtype on every gather).

The single-graph forms :func:`konig_array_colors` / :func:`euler_array_colors`
colour one :class:`~repro.graph.array_multigraph.ArrayMultigraph`; they back
the object-level wrappers registered in ``COLORING_BACKENDS``, which the
object pipeline (:meth:`repro.routing.fair_distribution.
FairDistributionSolver.solve`) calls.  Every kernel is a *deterministic* pure
function of the canonical instance arrays, which keeps the array pipeline
bit-identical to the object pipeline run with the same backend.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.api.registry import ROUTER_BACKENDS
from repro.exceptions import (
    EdgeColoringError,
    NoPerfectMatchingError,
    NotRegularError,
)
from repro.graph.array_multigraph import ArrayMultigraph
from repro.graph.edge_coloring import COLORING_BACKENDS, EdgeColoring
from repro.graph.matching import hopcroft_karp_csr
from repro.graph.multigraph import BipartiteMultigraph
from repro.utils.arrayops import first_repeat, read_only, shape_cache

_UINT8_MAX = int(np.iinfo(np.uint8).max)
_INT16_MAX = int(np.iinfo(np.int16).max)

__all__ = [
    "ARRAY_COLORING_STACK_KERNELS",
    "konig_array_colors",
    "euler_array_colors",
    "konig_array_colors_stack",
    "euler_array_colors_stack",
    "konig_array_edge_coloring",
    "euler_array_edge_coloring",
    "coloring_from_instances",
    "verify_instance_coloring_stack",
]


def _check_equal_sides(graph: ArrayMultigraph) -> None:
    if graph.n_left != graph.n_right:
        raise NotRegularError(
            f"regular bipartite multigraph must have equal sides, got "
            f"{graph.n_left} and {graph.n_right}"
        )


@shape_cache(maxsize=32, max_bytes=1 << 20)
def _cached_arange(size: int, dtype) -> np.ndarray:
    """Cached read-only ``arange(size, dtype=dtype)``.

    The stack kernel asks for the same few identities at every split level
    (:func:`_orbit_minima`'s, and the flat instance ids it starts from) with
    one set of sizes per problem, so a small cache removes the repeated
    allocations.  Callers only feed the arrays to allocating ufuncs and
    gathers.  The cache keeps at most 32 sizes and 1 MiB.
    """
    return read_only(np.arange(size, dtype=dtype))


def _orbit_minima(step: np.ndarray, limit: int) -> np.ndarray:
    """Minimum instance index over each orbit of the permutation ``step``.

    Pointer doubling; ``limit`` bounds the orbit sizes (extra iterations are
    idempotent, so any upper bound yields the exact minima).  Three tiers by
    the size ``m`` of ``step``, all exact:

    ``m < 2**13``
        Two gathers per iteration (representative and jump), both indexed by
        a native ``int64`` array: numpy re-casts any other index dtype on
        every fancy index, which costs more than the gather itself at this
        size, so a non-``int64`` ``step`` is converted once up front.
    ``2**13 <= m <= 2**16``
        ``(jump, representative)`` packed into one ``uint32`` word, so each
        iteration is a single gather plus elementwise word surgery.
    ``m > 2**16``
        The same packing in an ``int64`` word (``jump << 32 | rep``).
    """
    m = step.size
    if 1 << 13 <= m <= 1 << 16:
        # Both fields are instance indices < 2**16, so the packed arithmetic
        # is exact and the orbit minima are unchanged.  Below ~8k instances
        # the extra elementwise passes cost more than the saved gather.
        low = np.uint32(0xFFFF)
        if step.dtype != np.uint32:
            step = step.astype(np.uint32)
        representative = np.minimum(_cached_arange(m, np.uint32), step)
        # Gather indices stay int64: numpy re-casts non-native index arrays
        # on every fancy index, so a single explicit conversion per
        # iteration is cheaper than indexing with uint32 directly.
        fetched = step[step]
        packed = (fetched << np.uint32(16)) | representative
        jump = fetched.astype(np.int64)
        window = 2
        while window < limit:
            fetched = packed[jump]
            representative = np.minimum(representative, fetched & low)
            window *= 2
            if window < limit:
                packed = (fetched & ~low) | representative
                jump = (fetched >> np.uint32(16)).astype(np.int64)
        return representative
    step = step.astype(np.int64, copy=False)
    if m > 1 << 16:
        # The shifted fetch is already a valid index, so each iteration is
        # one gather plus elementwise word surgery.
        low = np.int64(0xFFFFFFFF)
        representative = np.minimum(_cached_arange(m, np.int64), step)
        jump = step[step]
        packed = (jump << np.int64(32)) | representative
        window = 2
        while window < limit:
            fetched = packed[jump]
            representative = np.minimum(representative, fetched & low)
            window *= 2
            if window < limit:
                packed = (fetched & ~low) | representative
                jump = fetched >> np.int64(32)
        return representative
    representative = np.minimum(_cached_arange(m, np.int64), step)
    jump = step[step]
    window = 2
    while window < limit:
        np.minimum(representative, representative[jump], out=representative)
        window *= 2
        if window < limit:
            jump = jump[jump]
    return representative


def _unique_edges(
    left: np.ndarray, right: np.ndarray, n_right: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted distinct-edge view of instance arrays.

    Returns ``(order, first_position, unique_key)`` where ``order`` stably
    sorts instances by ``(left, right)``, ``first_position`` indexes the
    first sorted instance of each distinct edge and ``unique_key`` is the
    sorted distinct ``left * n_right + right`` key array.
    """
    key = left * np.int64(n_right) + right
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    first = np.flatnonzero(
        np.concatenate(([True], sorted_key[1:] != sorted_key[:-1]))
    )
    return order, first, sorted_key[first]


def _perfect_matching_positions(
    unique_key: np.ndarray, n_left: int, n_right: int
) -> np.ndarray:
    """One perfect-matching edge per left vertex, as positions into the
    sorted distinct-edge key array ``unique_key`` (``left * n_right + right``).

    Raises :class:`NoPerfectMatchingError` when some left vertex stays
    unmatched (cannot happen for genuinely regular inputs).
    """
    unique_left = unique_key // n_right
    counts = np.bincount(unique_left, minlength=n_left)
    indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    match_left = hopcroft_karp_csr(indptr, unique_key % n_right, n_right)
    if (match_left < 0).any():
        matched = int((match_left >= 0).sum())
        raise NoPerfectMatchingError(
            f"expected a perfect matching of size {n_left}, found {matched}"
        )
    matched_key = np.arange(n_left, dtype=np.int64) * n_right + match_left
    return np.searchsorted(unique_key, matched_key)


def _peel_perfect_matching(
    left: np.ndarray, right: np.ndarray, n_left: int, n_right: int
) -> tuple[np.ndarray, np.ndarray]:
    """Extract one perfect matching from regular instance arrays.

    Returns ``(keep_mask, removed)``: ``removed`` holds one instance index
    per matched edge (the first copy, for determinism) and ``keep_mask``
    drops exactly those instances.
    """
    order, first, unique_key = _unique_edges(left, right, n_right)
    positions = _perfect_matching_positions(unique_key, n_left, n_right)
    removed = order[first[positions]]
    keep_mask = np.ones(left.size, dtype=bool)
    keep_mask[removed] = False
    return keep_mask, removed


def konig_array_colors(graph: ArrayMultigraph) -> np.ndarray:
    """König 1-factorisation; returns a colour per canonical edge instance.

    ``colors[i]`` is the colour of the ``i``-th instance of
    ``graph.instances()``; parallel copies of an edge receive their colours
    in ascending order, matching how the object pipeline reads colour
    classes back.
    """
    _check_equal_sides(graph)
    degree = graph.regular_degree()
    n_left, n_right = graph.n_left, graph.n_right
    if degree == 0:
        return np.zeros(0, dtype=np.int64)
    mult = graph.mult.copy()
    unique_key = graph.left * np.int64(n_right) + graph.right
    edge_record = np.empty(degree * n_left, dtype=np.int64)
    color_record = np.empty(degree * n_left, dtype=np.int64)
    for color in range(degree):
        live_index = np.flatnonzero(mult > 0)
        positions = _perfect_matching_positions(
            unique_key[live_index], n_left, n_right
        )
        edge_id = live_index[positions]
        mult[edge_id] -= 1
        segment = slice(color * n_left, (color + 1) * n_left)
        edge_record[segment] = edge_id
        color_record[segment] = color
    if (mult != 0).any():
        raise EdgeColoringError("König colouring left uncoloured edges behind")
    # Instances are canonical (copies of an edge consecutive) and each edge's
    # recorded colours appear in ascending round order, so a stable sort of
    # the records by edge id aligns them 1:1 with the instance expansion.
    return color_record[np.argsort(edge_record, kind="stable")]


def euler_array_colors(graph: ArrayMultigraph) -> np.ndarray:
    """Euler-split 1-factorisation; returns a colour per canonical instance.

    Iterative Gabow recursion over instance arrays: even degrees are halved
    by a vectorized Euler split (colour block split in two), odd degrees
    peel one perfect matching into the lowest colour of the block.  Unlike
    :func:`konig_array_colors`, parallel copies of an edge receive colours in
    split order, not ascending order — consumers that need ascending colours
    per edge sort afterwards, as the fair-distribution readback does.

    B=1 front of :func:`euler_array_colors_stack`; the stacked kernel is
    bit-identical per batch row, so a single graph routes through the same
    code the megabatch pipeline runs.
    """
    _check_equal_sides(graph)
    degree = graph.regular_degree()
    if graph.n_edges == 0:
        return np.empty(0, dtype=np.int64)
    left, right = graph.instances()
    return euler_array_colors_stack(
        left[None, :], right[None, :], graph.n_left, graph.n_right, degree
    )[0]


def _alternate_mask_stack(flat: np.ndarray, m: int) -> np.ndarray:
    """Proper 2-colouring of the union of two instance pairings.

    ``flat`` concatenates per-segment right-pairing orderings, already
    offset to flat instance positions, over segments of ``m`` instances;
    the left pairing is ``i ^ 1`` in every segment — globally too, since
    segment offsets are even.  The union decomposes the instances into even
    cycles alternating left and right pairings; orbits of the two-step map
    ``partner_right ∘ partner_left`` are the alternate instances of a cycle,
    found by pointer doubling (orbit minima), and the orbit holding the
    cycle's smallest instance goes first.  The flat disjoint union keeps
    cycles confined to their segment, orbit minima are offset-invariant
    within a segment, and the extra pointer-doubling iterations of the
    larger union are idempotent, so each segment's mask is bit-identical to
    a standalone call on that segment.

    The two-step walk ``step(i) = partner_right[i ^ 1]`` is scattered
    directly (no intermediate pairing array): consecutive order entries are
    right partners, so ``step[a ^ 1] = b`` and ``step[b ^ 1] = a`` for each
    ordered pair ``(a, b)``.  ``step`` is ``uint32`` exactly where
    :func:`_orbit_minima` packs it (``2**13 <= size <= 2**16``) and native
    ``int64`` elsewhere.

    Returns the mask of the even instances: entry ``i`` is ``True`` when
    instance ``2i`` goes second.  The odd instances need no entry: ``2i``
    and ``2i + 1`` sit in complementary orbits of the same cycle with
    distinct minima, so instance ``2i + 1`` goes second exactly when ``2i``
    goes first.
    """
    size = flat.size
    pairs = flat.reshape(-1, 2)
    step_dtype = np.uint32 if 1 << 13 <= size <= 1 << 16 else np.int64
    step = np.empty(size, dtype=step_dtype)
    step[(pairs ^ 1).reshape(size)] = pairs[:, ::-1].reshape(size)
    # Cycles are confined to a segment, so they have at most m instances and
    # the two-step orbits at most m // 2 — far below the flattened union.
    representative = _orbit_minima(step, min(max(2, m // 2), size)).reshape(-1, 2)
    return representative[:, 0] > representative[:, 1]


def euler_array_colors_stack(
    left: np.ndarray,
    right: np.ndarray,
    n_left: int,
    n_right: int,
    degree: int | None = None,
) -> np.ndarray:
    """Batched :func:`euler_array_colors` over ``(B, m)`` instance stacks.

    ``left`` / ``right`` hold the *canonical* (left-sorted) instance arrays
    of ``B`` regular bipartite multigraphs sharing the vertex sets and the
    regular degree.  Returns a ``(B, m)`` colour stack; row ``b`` is
    bit-identical to ``euler_array_colors`` on row ``b`` alone.

    The even-degree split is fully batched: the structural left pairing is
    shared, the right pairing is a row-wise stable argsort, and one
    pointer-doubling pass over the flattened disjoint union 2-colours every
    row's cycles at once.  Exactly half of each row survives either side of
    a split (vertex degrees halve row-wise), so the reorder keeps a dense
    stack.  Every instance travels as its flat ``int64`` id ``b·m + i`` into
    the colour stack, so the surviving segments write their colours with
    one flat scatter.  Odd degrees peel a perfect matching per row
    (matching is the one stage that does not batch).
    """
    left = np.asarray(left)
    right = np.asarray(right)
    batch, m = left.shape
    colors = np.empty((batch, m), dtype=np.int64)
    if m == 0:
        return colors
    if degree is None:
        degree = m // n_left
    # Right endpoints are < n_right; 8/16-bit working copies turn every
    # row-wise stable argsort below into a radix sort (an order-of-magnitude
    # faster).  Stable argsort yields the same ordering for any dtype holding
    # the same values, so colours are unchanged bit for bit.
    if n_right <= _UINT8_MAX:
        right = right.astype(np.uint8, copy=False)
    elif n_right <= _INT16_MAX:
        right = right.astype(np.int16, copy=False)
    else:
        right = right.astype(np.int64, copy=False)
    right = right.ravel()
    color_ids = colors.reshape(-1)
    ids = _cached_arange(batch * m, np.int64)
    # The split tree is processed level-synchronously: all 2^k subproblems of
    # depth k share one degree and one segment length, so each level is a
    # single batched pass over a ``(batch * n_seg, seg_len)`` view — the flat
    # union keeps its full ``batch * m`` size at every depth (one argsort,
    # one pointer-doubling pass, one reorder per level instead of one per
    # node).  Masks and peels are computed per segment exactly as the
    # node-at-a-time recursion would, so the colours are unchanged bit for
    # bit; only the call count drops.  The level sequence depends on the
    # shape alone (:func:`_split_plan`).
    levels, final_bases = _split_plan(batch, m, n_left, degree)
    for level in levels:
        view_r = right.reshape(level.rows, level.seg_len)
        if level.offsets is None:
            # Segments stay sorted by left endpoint through every reorder and
            # every vertex keeps exactly ``deg`` instances, so the left array
            # is the shared canonical expansion — no need to carry it.
            # Matching is the one stage that does not batch.
            view_i = ids.reshape(level.rows, level.seg_len)
            n_seg = level.bases.size
            keep = np.ones((level.rows, level.seg_len), dtype=bool)
            for r in range(level.rows):
                keep_r, removed_r = _peel_perfect_matching(
                    level.lefts, view_r[r], n_left, n_right
                )
                keep[r] = keep_r
                color_ids[view_i[r, removed_r]] = level.bases[r % n_seg]
            right = view_r[keep]
            ids = view_i[keep]
            continue
        # Row offsets turn each level's row-wise orderings into flat
        # positions; sorted-by-left segments make the left pairing
        # consecutive positions, handled implicitly by the mask kernel.
        order = view_r.argsort(axis=1, kind="stable")
        order += level.offsets
        even_second = _alternate_mask_stack(order.ravel(), level.seg_len).reshape(
            level.rows, -1
        )
        # The two child segments list each segment's first half (in order),
        # then its second half (in order).  Every left pair (2i, 2i + 1)
        # gives one instance to each half, so the first half is
        # 2i + even_second[i] over the segment's pairs and the second half
        # 2i + 1 - even_second[i]: the stable argsort of the mask, without
        # sorting.
        flat_pos = np.concatenate(
            (level.pair_starts + even_second, level.pair_ends - even_second), axis=1
        ).ravel()
        right = right[flat_pos]
        ids = ids[flat_pos]
    # Every surviving segment is one colour class.
    color_ids[ids.reshape(batch, final_bases.shape[0], -1)] = final_bases
    return colors


class _SplitLevel(NamedTuple):
    """One level of the Euler-split tree of :func:`euler_array_colors_stack`.

    An even level splits every segment: ``offsets`` is the ``(rows, 1)``
    column of flat row starts, and ``pair_starts`` / ``pair_ends`` are the
    ``(rows, seg_len // 2)`` flat positions ``2i`` / ``2i + 1`` of each
    row's left pairs.  An odd level (``offsets is None``) peels one perfect
    matching per segment: ``lefts`` is a segment's canonical left array and
    ``bases`` the colour each segment's matching takes.
    """

    rows: int
    seg_len: int
    offsets: np.ndarray | None = None
    pair_starts: np.ndarray | None = None
    pair_ends: np.ndarray | None = None
    lefts: np.ndarray | None = None
    bases: np.ndarray | None = None


@shape_cache(maxsize=64, max_bytes=4 << 20)
def _split_plan(
    batch: int, m: int, n_left: int, degree: int
) -> tuple[tuple[_SplitLevel, ...], np.ndarray]:
    """The levels of a ``(batch, m)`` Euler split and the final colour bases.

    Both depend on the stack's shape and degree alone: an odd degree peels
    a matching into the lowest colour of each segment's block, an even one
    splits each block in two.  The final bases are a ``(n_seg, 1)`` column,
    the colour of each surviving segment.  Arrays are read-only, about
    ``8·batch·m`` bytes per level; the cache keeps at most 64 shapes and
    4 MiB.
    """
    levels = []
    n_seg, seg_len, deg = 1, m, degree
    bases = np.zeros(1, dtype=np.int64)
    while deg > 1:
        rows = batch * n_seg
        if deg % 2:
            lefts = np.repeat(np.arange(n_left, dtype=np.int64), deg)
            levels.append(
                _SplitLevel(
                    rows, seg_len, lefts=read_only(lefts), bases=read_only(bases)
                )
            )
            seg_len -= n_left
            bases = bases + 1
            deg -= 1
            continue
        offsets = np.arange(0, rows * seg_len, seg_len, dtype=np.int64)[:, None]
        pair_starts = np.arange(0, rows * seg_len, 2, dtype=np.int64).reshape(rows, -1)
        levels.append(
            _SplitLevel(
                rows,
                seg_len,
                offsets=read_only(offsets),
                pair_starts=read_only(pair_starts),
                pair_ends=read_only(pair_starts + 1),
            )
        )
        half = deg // 2
        bases = np.add.outer(bases, (0, half)).ravel()
        n_seg *= 2
        seg_len //= 2
        deg = half
    return tuple(levels), read_only(bases[:, None].copy())


def konig_array_colors_stack(
    left: np.ndarray,
    right: np.ndarray,
    n_left: int,
    n_right: int,
    degree: int | None = None,
) -> np.ndarray:
    """Batched König kernel: a vectorized-per-row loop over the stack.

    König's round structure is matching-bound, so the batch axis cannot be
    folded into the pointer-doubling trick; each row runs the (already
    array-native) single-graph kernel.  Shares the stack-kernel signature so
    the megabatch pipeline dispatches both backends uniformly.
    """
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    batch, m = left.shape
    colors = np.empty((batch, m), dtype=np.int64)
    for b in range(batch):
        graph = ArrayMultigraph.from_instances(n_left, n_right, left[b], right[b])
        colors[b] = konig_array_colors(graph)
    return colors


#: Colouring kernels over ``(B, m)`` canonical instance stacks, keyed by
#: router backend; the routing pipeline's one colouring entry point.
ARRAY_COLORING_STACK_KERNELS = {
    "konig-array": konig_array_colors_stack,
    "euler-array": euler_array_colors_stack,
}


def verify_instance_coloring_stack(
    left: np.ndarray,
    right: np.ndarray,
    n_left: int,
    n_right: int,
    colors: np.ndarray,
) -> None:
    """Vectorized properness check of ``(B, m)`` instance colouring stacks.

    The multiset condition of :func:`repro.graph.edge_coloring.
    verify_edge_coloring` holds by construction (colours annotate exactly the
    graphs' instances); what remains is properness — no colour repeats a
    vertex on either side, counted (:func:`~repro.utils.arrayops.
    first_repeat`) over ``(colour, vertex)`` keys of the colour range
    present.

    Raises
    ------
    EdgeColoringError
        If a vertex lies outside ``[0, n_left)`` or ``[0, n_right)``, or the
        colours span more values than a row has instances (no kernel
        colours that sparsely; an unassigned entry does), else on the
        row-major first violation of the left side, else of the right side,
        naming the smallest offending ``(colour, vertex)`` pair of its row.
    """
    if colors.shape != left.shape:
        raise EdgeColoringError(
            f"colouring annotates {colors.size} instances, graph has {left.size}"
        )
    if not colors.size:
        return
    for side, vertices, n_vertices in (("left", left, n_left), ("right", right, n_right)):
        if vertices.min() < 0 or vertices.max() >= n_vertices:
            outside = (vertices < 0) | (vertices >= n_vertices)
            vertex = int(vertices.reshape(-1)[np.argmax(outside)])
            raise EdgeColoringError(
                f"{side} vertex {vertex} is outside [0, {n_vertices})"
            )
    low, high = int(colors.min()), int(colors.max())
    span = high - low + 1
    if span > colors.shape[1]:
        raise EdgeColoringError(
            f"colours {low}..{high} span more values than the "
            f"{colors.shape[1]} instances of a row"
        )
    shifted = colors - low
    # Every row's left keys, then every row's right keys.
    repeat = first_repeat(
        np.concatenate((shifted * np.int64(n_left) + left, shifted * np.int64(n_right) + right)),
        span * max(n_left, n_right),
    )
    if repeat is not None:
        row, key = repeat
        side, n_vertices = ("left", n_left) if row < colors.shape[0] else ("right", n_right)
        raise EdgeColoringError(
            f"colour {key // n_vertices + low} uses {side} vertex "
            f"{key % n_vertices} more than once"
        )


def coloring_from_instances(
    graph: ArrayMultigraph, colors: np.ndarray
) -> EdgeColoring:
    """Package an instance colouring as an object-level :class:`EdgeColoring`.

    Colour classes come out sorted by left vertex, the same normal form the
    ``"konig"`` backend produces.
    """
    degree = graph.regular_degree()
    left, right = graph.instances()
    order = np.lexsort((left, colors))
    counts = np.bincount(colors, minlength=degree)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    pairs = list(zip(left[order].tolist(), right[order].tolist()))
    classes = [
        pairs[bounds[color]:bounds[color + 1]] for color in range(degree)
    ]
    return EdgeColoring(n_colors=degree, classes=classes)


def konig_array_edge_coloring(graph: BipartiteMultigraph) -> EdgeColoring:
    """Array-kernel König colouring of a dict-based multigraph."""
    array_graph = ArrayMultigraph.from_bipartite(graph)
    return coloring_from_instances(array_graph, konig_array_colors(array_graph))


def euler_array_edge_coloring(graph: BipartiteMultigraph) -> EdgeColoring:
    """Array-kernel Euler-split colouring of a dict-based multigraph."""
    array_graph = ArrayMultigraph.from_bipartite(graph)
    return coloring_from_instances(array_graph, euler_array_colors(array_graph))


#: Object-level wrappers, keyed like COLORING_BACKENDS / ROUTER_BACKENDS.
_ARRAY_BACKENDS = {
    "konig-array": konig_array_edge_coloring,
    "euler-array": euler_array_edge_coloring,
}

for _name, _algorithm in _ARRAY_BACKENDS.items():
    COLORING_BACKENDS.setdefault(_name, _algorithm)
    if _name not in ROUTER_BACKENDS:
        ROUTER_BACKENDS.register(_name, _algorithm)
