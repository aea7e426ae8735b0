"""The universal permutation router (Theorem 2).

Given a POPS(d, g) network and a permutation ``π`` of its ``n = d·g``
processors, :class:`PermutationRouter` produces a
:class:`~repro.pops.schedule.RoutingSchedule` that delivers every packet using

* ``1`` slot when ``d = 1``;
* ``2`` slots when ``1 < d <= g``;
* ``2·⌈d/g⌉`` slots when ``d > g``

— exactly the bounds of Theorem 2.  The construction follows the paper's
proof: a proper list system is built from ``π`` (``L(h, i)`` is the destination
group of the ``i``-th packet of group ``h``), Theorem 1 yields a fair
distribution ``f`` (computed by edge-colouring a regular bipartite multigraph,
see :mod:`repro.routing.fair_distribution`), and the schedule scatters packets
to the intermediate groups dictated by ``f`` before delivering them directly in
a conflict-free slot (Fact 1).  The schedule construction itself is shared with
the specialised routers and lives in :mod:`repro.routing.two_hop`.

Implementation note (``d > g`` case).  The paper indexes each round's packets
by their position inside the source group (``i ∈ [k·g, (k+1)·g)``), while this
implementation routes in round ``k`` the packets whose *fair-distribution
value* lies in ``[k·g, (k+1)·g)`` and uses intermediate group
``f(h, i) - k·g``.  Because ``f(h, ·)`` is injective (condition 1) the two
indexings differ only by a per-group reordering of rounds; the value-window
form makes every claimed property immediate: per round and per source group
the intermediate groups are distinct (no transmit conflicts), per round each
intermediate group receives at most ``g`` packets on distinct couplers
(conditions 1–2), and two packets sharing a destination group never share an
intermediate group within a round (condition 3), so the delivery slot is
conflict-free.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError, RoutingError
from repro.obs import get_tracer
from repro.pops.engine import BatchedSimulator
from repro.pops.lowering import PlanSkeleton, assemble_compiled_plan_batch
from repro.pops.packet import Packet
from repro.pops.schedule import RoutingSchedule
from repro.pops.topology import POPSNetwork
from repro.routing.fair_distribution import FairDistribution, FairDistributionSolver
from repro.routing.list_system import ListSystem, destination_group_lists_stack
from repro.routing.two_hop import build_theorem2_schedule
from repro.utils.arrayops import (
    first_repeat,
    read_only,
    repeat_rows,
    shape_cache,
    shrink_sort_key,
)
from repro.utils.validation import (
    check_permutation,
    check_permutation_array,
    check_permutation_stack,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pops.engine import CompiledScheduleBatch

__all__ = [
    "PermutationRouter",
    "RouteTemplate",
    "RoutingPlan",
    "route_template",
    "theorem2_slot_bound",
]


def theorem2_slot_bound(d: int, g: int) -> int:
    """The slot count Theorem 2 guarantees for POPS(d, g): 1 if d == 1 else 2⌈d/g⌉."""
    if d == 1:
        return 1
    return 2 * ((d + g - 1) // g)


@dataclass
class RoutingPlan:
    """A fully materialised routing of one permutation.

    Attributes
    ----------
    network:
        The target POPS network.
    permutation:
        The routed permutation in one-line notation.
    packets:
        One packet per processor ``i`` with destination ``π(i)``.
    schedule:
        The slot-by-slot schedule implementing the routing.
    fair_distribution:
        The Theorem 1 fair distribution used (``None`` for the trivial
        ``d = 1`` case).
    intermediate_assignment:
        Mapping ``source processor -> intermediate group`` used by the scatter
        slot of the packet's round (empty for ``d = 1``).
    """

    network: POPSNetwork
    permutation: list[int]
    packets: list[Packet]
    schedule: RoutingSchedule
    fair_distribution: FairDistribution | None = None
    intermediate_assignment: dict[int, int] = field(default_factory=dict)

    @property
    def n_slots(self) -> int:
        """Number of slots the plan uses."""
        return self.schedule.n_slots

    @property
    def meets_theorem2_bound(self) -> bool:
        """True iff the plan uses exactly the slot count promised by Theorem 2."""
        return self.n_slots == theorem2_slot_bound(self.network.d, self.network.g)


class PermutationRouter:
    """Routes arbitrary permutations on a POPS(d, g) network per Theorem 2.

    Parameters
    ----------
    network:
        The POPS network to route on.
    backend:
        Edge-colouring backend used by the fair-distribution solver
        (``"konig"`` or ``"euler"``).
    verify:
        Forwarded to :class:`FairDistributionSolver`; when ``True`` the fair
        distribution is re-checked against its definition.
    """

    def __init__(self, network: POPSNetwork, backend: str = "konig", verify: bool = True):
        self.network = network
        self.solver = FairDistributionSolver(backend=backend, verify=verify)

    # -- public API ----------------------------------------------------------------

    def route(self, pi: Sequence[int]) -> RoutingPlan:
        """Produce a routing plan delivering packet ``i`` to processor ``pi[i]``."""
        network = self.network
        images = check_permutation(pi, network.n)
        packets = [Packet(source=i, destination=images[i]) for i in range(network.n)]

        if network.d == 1:
            schedule = self._route_d_equals_1(packets)
            plan = RoutingPlan(network, images, packets, schedule)
        else:
            system = ListSystem.from_permutation(images, network.d, network.g)
            distribution = self.solver.solve(system)
            schedule, intermediates = build_theorem2_schedule(
                network,
                packets,
                distribution,
                description=f"theorem2 router (backend={self.solver.backend})",
            )
            plan = RoutingPlan(
                network=network,
                permutation=images,
                packets=packets,
                schedule=schedule,
                fair_distribution=distribution,
                intermediate_assignment=intermediates,
            )

        expected = theorem2_slot_bound(network.d, network.g)
        if plan.n_slots != expected:
            raise RoutingError(
                f"internal error: produced {plan.n_slots} slots, Theorem 2 promises {expected}"
            )
        return plan

    def slots_required(self) -> int:
        """Slot count Theorem 2 guarantees on this router's network."""
        return theorem2_slot_bound(self.network.d, self.network.g)

    def route_compiled(self, pi: Sequence[int]) -> CompiledScheduleBatch:
        """Route one permutation: :meth:`route_compiled_batch` of the ``(1, n)`` stack.

        Kept as a name the per-layer benchmark probe wraps; the program
        routes through :meth:`route_compiled_batch`.
        """
        images = check_permutation_array(pi, self.network.n)
        return self.route_compiled_batch(images[None, :], validate=False)

    def route_compiled_batch(
        self, pis, *, validate: bool = True
    ) -> CompiledScheduleBatch:
        """Route a ``(B, n)`` permutation stack to one compiled batch.

        The array-native fast path of :meth:`route`: one validation pass,
        one batched fair distribution on integer arrays
        (:meth:`~repro.routing.fair_distribution.FairDistributionSolver.
        solve_array_batch`), and the Theorem 2 scatter/deliver structure
        emitted directly as the per-slot arrays of a
        :class:`~repro.pops.engine.CompiledScheduleBatch` — no
        ``Transmission`` / ``Reception`` / ``SlotProgram`` objects and no
        lowering pass.  Per-call Python overhead is paid once for ``B``
        permutations instead of ``B`` times.  ``element(b)`` of the result is
        bit-identical to ``compile_schedule(network, plan.schedule,
        plan.packets)`` over this router's :meth:`route` plan of ``pis[b]``.
        ``validate=False`` skips the permutation-stack check for callers that
        already hold the validated int64 image stack.

        Raises
        ------
        ConfigurationError
            If the backend has no array colouring kernel (only
            ``"konig-array"`` / ``"euler-array"`` qualify); route object
            backends with :meth:`route`.
        """
        from repro.graph.array_coloring import ARRAY_COLORING_STACK_KERNELS

        if self.solver.backend not in ARRAY_COLORING_STACK_KERNELS:
            raise ConfigurationError(
                f"backend {self.solver.backend!r} has no array colouring kernel; "
                f"compiled routing needs one of {sorted(ARRAY_COLORING_STACK_KERNELS)}"
            )
        with get_tracer().span("route.plan", backend=self.solver.backend):
            return self._plan_batch(pis, validate=validate)

    # -- array-native plan construction --------------------------------------------

    def _plan_batch(
        self, pis, *, validate: bool = True
    ) -> CompiledScheduleBatch:
        network = self.network
        d, g = network.d, network.g
        images = (
            check_permutation_stack(pis, network.n)
            if validate
            else np.asarray(pis, dtype=np.int64)
        )

        if d == 1:
            compiled = _compile_d1_plan_batch(network, images)
        else:
            fair = self.solver.solve_array_batch(
                destination_group_lists_stack(images, d, g), g if d <= g else d
            )
            fair_value = fair.reshape(images.shape)
            if d <= g:
                compiled = _compile_two_slot_plan_batch(network, images, fair_value)
            else:
                compiled = _compile_round_plan_batch(network, images, fair_value)

        expected = theorem2_slot_bound(d, g)
        if compiled.n_slots != expected:
            raise RoutingError(
                f"internal error: produced {compiled.n_slots} slots, "
                f"Theorem 2 promises {expected}"
            )
        return compiled

    # -- case d == 1 --------------------------------------------------------------------

    def _route_d_equals_1(self, packets: list[Packet]) -> RoutingSchedule:
        """POPS(1, n) is a fully connected network: one direct slot suffices."""
        network = self.network
        schedule = RoutingSchedule(network=network, description="theorem2:d=1 direct")
        slot = schedule.new_slot()
        for packet in packets:
            source_group = network.group_of(packet.source)
            dest_group = network.group_of(packet.destination)
            coupler = network.coupler(dest_group, source_group)
            slot.add_transmission(packet.source, coupler, packet)
            slot.add_reception(packet.destination, coupler)
        return schedule


# -- per-shape route templates ------------------------------------------------------
#
# Routing a permutation on POPS(d, g) mixes two kinds of work.  The list system,
# its colouring, the fair distribution and the plan's planes depend on the
# permutation; the identity and group planes, the plan's slot structure, the
# d > g round layout and the router/engine pair depend on the shape alone.
# route_template builds the second kind once per shape, so a route at any batch
# size pays only for the first.  The fair-distribution solver and the colouring
# kernel keep their own shape arrays, keyed by their own shapes
# (list_system_template, the kernel's split plan), because they also serve list
# systems and graphs that are not routing instances.


@dataclass(frozen=True, eq=False)
class RouteTemplate:
    """Everything a Theorem 2 route on POPS(d, g) needs that ``π`` does not set.

    Arrays are read-only: every route shares them.

    Attributes
    ----------
    network / engine / routers:
        The network, the batched engine that executes its plans, and one
        :class:`PermutationRouter` per array colouring backend.
    source / source_group / group_start:
        ``arange(n)``, each processor's group ``i // d`` and its group's
        first processor ``(i // d)·d``.
    skeleton:
        The slot structure of the network's plans: one direct slot when
        ``d = 1``, scatter and delivery slots when ``d <= g``, and a
        scatter/delivery pair per round when ``d > g``.
    round_positions / round_planes:
        ``d > g`` only (else ``None``).  Round ``k`` of a plan moves sorted
        positions ``[lo_k, hi_k)`` twice, once per slot of the pair;
        ``round_positions`` lists, for each of the ``2n`` transmissions in
        slot order, the sorted position it moves.  ``round_planes`` is the
        ``(3, 2n)`` offset, ``plane · n``, of the per-processor plane
        (:data:`ROUND_PLANES`) that each transmission's sender, coupler and
        receiver come from.
    """

    network: POPSNetwork
    engine: BatchedSimulator
    routers: MappingProxyType
    source: np.ndarray
    source_group: np.ndarray
    group_start: np.ndarray
    skeleton: PlanSkeleton
    round_positions: np.ndarray | None = None
    round_planes: np.ndarray | None = None


#: The per-processor planes of a d > g plan, in the order
#: ``_compile_round_plan_batch`` stacks them.
ROUND_PLANES = ("source", "holder", "scatter coupler", "delivery coupler", "destination")


@shape_cache(maxsize=32, max_bytes=4 << 20)
def route_template(d: int, g: int) -> RouteTemplate:
    """The cached :class:`RouteTemplate` of POPS(d, g).

    32 to 96 bytes per processor (``d = 1`` to ``d > g``); the cache keeps
    at most 32 shapes and 4 MiB of arrays, so a shape of more than 44k to
    131k processors is built per route.
    """
    from repro.graph.array_coloring import ARRAY_COLORING_STACK_KERNELS

    network = POPSNetwork(d, g)
    n = network.n
    source = read_only(np.arange(n, dtype=np.int64))
    source_group = read_only(source // d)
    shared = (
        network,
        BatchedSimulator(network),
        MappingProxyType(
            {name: PermutationRouter(network, backend=name) for name in ARRAY_COLORING_STACK_KERNELS}
        ),
        source,
        source_group,
        read_only(source_group * d),
    )
    if d == 1:
        skeleton = PlanSkeleton.from_counts(network, [n], [n], source)
        return RouteTemplate(*shared, skeleton)
    if d <= g:
        skeleton = PlanSkeleton.from_counts(
            network, [n, n], [n, n], source, packets=np.concatenate((source, source))
        )
        return RouteTemplate(*shared, skeleton)
    # d > g: round k moves the g·min(g, d - k·g) packets whose fair value
    # lies in [k·g, (k+1)·g) — a scatter slot, then a delivery slot.
    counts = [g * min(g, d - k * g) for k in range((d + g - 1) // g)]
    starts = np.cumsum([0] + counts[:-1])
    positions = np.concatenate(
        [np.tile(np.arange(lo, lo + count), 2) for lo, count in zip(starts, counts)]
    )
    is_scatter = np.concatenate([np.repeat([True, False], count) for count in counts])
    # Sender: source in a scatter slot, holder in a delivery slot; coupler:
    # scatter or delivery coupler; receiver: holder or destination.
    planes = np.where(is_scatter, [[0], [2], [1]], [[1], [3], [4]])
    slot_counts = [count for count in counts for _ in range(2)]
    skeleton = PlanSkeleton.from_counts(network, slot_counts, slot_counts, source)
    return RouteTemplate(
        *shared,
        skeleton,
        round_positions=read_only(positions.astype(np.int64)),
        round_planes=read_only(planes * np.int64(n)),
    )


# -- batched plan builders ----------------------------------------------------------
#
# The Theorem 2 plan assembly from a fair-value plane.  All builders take (B, n)
# image stacks, validate vectorized with row-major first-offender reporting (the
# raised message is exactly what routing the offending element alone would
# raise), and emit one CompiledScheduleBatch over the shape's PlanSkeleton.
# Duplicate checks count keys (first_repeat): the first row holding a key twice,
# and its smallest such key, are the row-major first offender a sort of each
# row would have found.


def _compile_d1_plan_batch(
    network: POPSNetwork, images: np.ndarray
) -> CompiledScheduleBatch:
    """Batched d == 1 plan: POPS(1, n) is fully connected, one direct slot."""
    template = route_template(network.d, network.g)
    source_rows = repeat_rows(template.source, images.shape[0])
    return assemble_compiled_plan_batch(
        template.skeleton,
        images.shape[0],
        tx_sender=source_rows,
        tx_packet=source_rows,
        tx_coupler=images * network.g + template.source,
        del_receiver=images,
        del_packet=source_rows,
        pk_destination=images,
    )


def _compile_two_slot_plan_batch(
    network: POPSNetwork, images: np.ndarray, fair_value: np.ndarray
) -> CompiledScheduleBatch:
    """Batched twin of :func:`~repro.routing.two_hop.build_two_slot_schedule`.

    ``fair_value`` is the ``(B, n)`` plane of intermediate groups (the fair
    distribution flattened over processors).
    """
    d, g = network.d, network.g
    n = network.n
    n_batch = images.shape[0]
    template = route_template(d, g)
    source_rows = repeat_rows(template.source, n_batch)

    if fair_value.size and (fair_value.min() < 0 or fair_value.max() >= g):
        invalid = (fair_value < 0) | (fair_value >= g)
        b, p = np.unravel_index(int(np.argmax(invalid)), invalid.shape)
        raise RoutingError(
            f"fair value {int(fair_value[b, p])} for processor "
            f"{int(p)} is not a group"
        )
    arrivals = np.bincount(
        (fair_value + np.arange(0, n_batch * g, g, dtype=np.int64)[:, None]).ravel(),
        minlength=n_batch * g,
    ).reshape(n_batch, g)
    unbalanced = arrivals != d
    if unbalanced.any():
        b, j = np.unravel_index(int(np.argmax(unbalanced)), unbalanced.shape)
        raise RoutingError(
            f"intermediate group {int(j)} receives {int(arrivals[b, j])} packets, "
            f"expected exactly d={d} (fair-distribution condition 2 violated)"
        )
    # Scatter: processor (h, i) drives c(f(h, i), h); the receiver in group j
    # for the packet from group h is processor (j, rank of h), i.e. sorting
    # sources by (f, h) lines receivers up as 0..n-1 — per batch row.
    g2 = g * g
    scatter_coupler = fair_value * g + template.source_group
    scatter_order = shrink_sort_key(scatter_coupler, g2 - 1).argsort(
        axis=1, kind="stable"
    )
    # One flat index drives both the sorted-coupler gather and the holder
    # scatter (np.put cycles the identity row across the batch).
    flat_order = scatter_order + np.arange(0, n_batch * n, n, dtype=np.int64)[:, None]
    sorted_coupler = scatter_coupler.reshape(-1)[flat_order]
    duplicate = sorted_coupler[:, 1:] == sorted_coupler[:, :-1]
    if duplicate.any():
        b, p = np.unravel_index(int(np.argmax(duplicate)), duplicate.shape)
        j = int(sorted_coupler[b, p]) // g
        raise RoutingError(
            f"intermediate group {j} receives two packets from the "
            "same source group (fair-distribution condition 1 violated)"
        )
    holder = np.empty((n_batch, n), dtype=np.int64)
    np.put(holder, flat_order, template.source)

    # Deliver (Fact 1): the holder's group is the fair value.
    deliver_coupler = (images // d) * g + fair_value
    clash = first_repeat(deliver_coupler, g2)
    if clash is not None:
        key = clash[1]
        raise RoutingError(
            f"delivery slot needs coupler c({key // g}, {key % g}) twice; "
            "the packets were not fairly distributed after the scatter slot"
        )

    return assemble_compiled_plan_batch(
        template.skeleton,
        n_batch,
        tx_sender=np.concatenate((source_rows, holder), axis=1),
        tx_packet=repeat_rows(template.skeleton.packets, n_batch),
        tx_coupler=np.concatenate((scatter_coupler, deliver_coupler), axis=1),
        del_receiver=np.concatenate((source_rows, images), axis=1),
        del_packet=np.concatenate((scatter_order, source_rows), axis=1),
        pk_destination=images,
    )


def _compile_round_plan_batch(
    network: POPSNetwork, images: np.ndarray, fair_value: np.ndarray
) -> CompiledScheduleBatch:
    """Batched twin of :func:`~repro.routing.two_hop.build_round_schedule`.

    ``fair_value`` is the ``(B, n)`` plane of fair values in ``N_d``; round
    ``k`` moves the packets whose value lies in ``[k·g, (k+1)·g)``.
    """
    d, g = network.d, network.g
    n = network.n
    n_batch = images.shape[0]
    template = route_template(d, g)

    if fair_value.size and (fair_value.min() < 0 or fair_value.max() >= d):
        invalid = (fair_value < 0) | (fair_value >= d)
        b, p = np.unravel_index(int(np.argmax(invalid)), invalid.shape)
        raise RoutingError(
            f"fair value {int(fair_value[b, p])} for processor "
            f"{int(p)} is outside N_d"
        )
    repeat = first_repeat(template.group_start + fair_value, n)
    if repeat is not None:
        key = repeat[1]
        raise RoutingError(
            f"group {key // d} assigns fair value {key % d} twice "
            "(fair-distribution condition 1 violated)"
        )

    # Round k moves the packets with fair value in [k·g, (k+1)·g); the
    # within-round intermediate group is the value minus k·g.  Per processor:
    # its holder after the scatter, its scatter coupler c(ig, h) and its
    # delivery coupler c(dest group, ig), stacked with the source and the
    # destination as the ROUND_PLANES planes of one array.
    round_of, intermediate = np.divmod(fair_value, g)
    planes = np.empty((n_batch, len(ROUND_PLANES), n), dtype=np.int64)
    planes[:, 0] = template.source
    np.multiply(intermediate, d, out=planes[:, 1])
    planes[:, 1] += template.source_group
    np.multiply(intermediate, g, out=planes[:, 2])
    planes[:, 2] += template.source_group
    np.floor_divide(images, d, out=planes[:, 3])
    planes[:, 3] *= g
    planes[:, 3] += intermediate
    planes[:, 4] = images

    # Delivery couplers are per round: (round, coupler) keys.  The scatter
    # couplers need no check of their own: two packets of one source group
    # sharing a round and an intermediate group share their fair value,
    # which condition 1 above already rejects.
    n_rounds = (d + g - 1) // g
    g2 = g * g
    clash = first_repeat(planes[:, 3] + round_of * g2, n_rounds * g2)
    if clash is not None:
        key = clash[1] % g2
        raise RoutingError(
            f"delivery slot needs coupler c({key // g}, {key % g}) twice; "
            "the packets were not fairly distributed after the scatter slot"
        )

    # Within a round, packets go in processor order: a stable sort by round.
    # Transmission e of the plan moves the packet at sorted position
    # round_positions[e], and takes its sender, coupler and receiver from
    # the planes round_planes[:, e] names — one gather for all three.
    order = shrink_sort_key(round_of, n_rounds - 1).argsort(axis=1, kind="stable")
    members = order[:, template.round_positions]
    row_size = len(ROUND_PLANES) * n
    plane_starts = np.arange(0, n_batch * row_size, row_size, dtype=np.int64)[:, None]
    gathered = planes.reshape(-1)[
        members + (template.round_planes[:, None, :] + plane_starts)
    ]
    return assemble_compiled_plan_batch(
        template.skeleton,
        n_batch,
        tx_sender=gathered[0],
        tx_packet=members,
        tx_coupler=gathered[1],
        del_receiver=gathered[2],
        del_packet=members,
        pk_destination=images,
    )
