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
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError, RoutingError
from repro.obs import get_tracer
from repro.pops.packet import Packet
from repro.pops.schedule import RoutingSchedule
from repro.pops.topology import POPSNetwork
from repro.routing.fair_distribution import FairDistribution, FairDistributionSolver
from repro.routing.list_system import ListSystem, destination_group_lists_stack
from repro.routing.two_hop import build_theorem2_schedule
from repro.utils.arrayops import shrink_sort_key
from repro.utils.validation import (
    check_permutation,
    check_permutation_array,
    check_permutation_stack,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pops.engine import CompiledSchedule, CompiledScheduleBatch

__all__ = ["PermutationRouter", "RoutingPlan", "theorem2_slot_bound"]


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

    def route_compiled(self, pi: Sequence[int]) -> CompiledSchedule:
        """Route ``pi`` straight to compiled-schedule arrays.

        The array-native fast path of :meth:`route`, as the ``(1, n)`` row of
        :meth:`route_compiled_batch`: the fair distribution is solved on
        integer arrays (:meth:`~repro.routing.fair_distribution.
        FairDistributionSolver.solve_array_batch`) and the Theorem 2
        scatter/deliver structure is emitted directly as the per-slot arrays
        of a :class:`~repro.pops.engine.CompiledSchedule` — no
        ``Transmission`` / ``Reception`` / ``SlotProgram`` objects and no
        lowering pass.  The result is bit-identical to
        ``compile_schedule(network, plan.schedule, plan.packets)`` over this
        router's :meth:`route` plan.

        Raises
        ------
        ConfigurationError
            If the backend has no array colouring kernel (only
            ``"konig-array"`` / ``"euler-array"`` qualify); route object
            backends with :meth:`route`.
        """
        images = check_permutation_array(pi, self.network.n)
        return self.route_compiled_batch(images[None, :], validate=False).element(0)

    def route_compiled_batch(
        self, pis, *, validate: bool = True
    ) -> CompiledScheduleBatch:
        """Route a ``(B, n)`` permutation stack to one compiled batch.

        The megabatch pipeline: one validation pass, one batched fair
        distribution, one batched plan assembly — per-call Python overhead is
        paid once for ``B`` permutations instead of ``B`` times.
        ``element(b)`` of the result is bit-identical to
        ``route_compiled(pis[b])``.  ``validate=False`` skips the
        permutation-stack check for callers that already hold the validated
        int64 image stack.  Raises :class:`~repro.exceptions.
        ConfigurationError` for a backend without an array colouring kernel,
        as :meth:`route_compiled` does.
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


# -- batched plan builders ----------------------------------------------------------
#
# The Theorem 2 plan assembly from a fair-value plane.  All builders take (B, n)
# image stacks, validate vectorized with row-major first-offender reporting (the
# raised message is exactly what routing the offending element alone would
# raise), and emit one CompiledScheduleBatch over the shared CSR structure.


def _compile_d1_plan_batch(
    network: POPSNetwork, images: np.ndarray
) -> CompiledScheduleBatch:
    """Batched d == 1 plan: POPS(1, n) is fully connected, one direct slot."""
    from repro.pops.lowering import assemble_compiled_plan_batch

    g = network.g
    n = network.n
    src = np.arange(n, dtype=np.int64)
    dest = images
    return assemble_compiled_plan_batch(
        network,
        images.shape[0],
        tx_sender=src,
        tx_packet=src,
        tx_coupler=dest * g + src,
        tx_counts=[n],
        del_receiver=dest,
        del_packet=src,
        del_counts=[n],
        initial_loc=src,
        pk_destination=dest,
    )


def _compile_two_slot_plan_batch(
    network: POPSNetwork, images: np.ndarray, fair_value: np.ndarray
) -> CompiledScheduleBatch:
    """Batched twin of :func:`~repro.routing.two_hop.build_two_slot_schedule`.

    ``fair_value`` is the ``(B, n)`` plane of intermediate groups (the fair
    distribution flattened over processors).
    """
    from repro.pops.lowering import assemble_compiled_plan_batch

    d, g = network.d, network.g
    n = network.n
    n_batch = images.shape[0]
    src = np.arange(n, dtype=np.int64)
    source_group = src // d
    dest = images
    dest_group = dest // d

    invalid = (fair_value < 0) | (fair_value >= g)
    if invalid.any():
        b, p = np.unravel_index(int(np.argmax(invalid)), invalid.shape)
        raise RoutingError(
            f"fair value {int(fair_value[b, p])} for processor "
            f"{int(p)} is not a group"
        )
    offsets = (np.arange(n_batch, dtype=np.int64) * g)[:, None]
    arrivals = np.bincount(
        (fair_value + offsets).ravel(), minlength=n_batch * g
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
    scatter_coupler = fair_value * g + source_group
    scatter_order = np.argsort(
        shrink_sort_key(scatter_coupler, g * g - 1), axis=1, kind="stable"
    )
    # One flat index drives both the sorted-coupler gather and the holder
    # scatter (np.put cycles the identity row across the batch).
    flat_order = (
        scatter_order + (np.arange(n_batch, dtype=np.int64) * n)[:, None]
    ).ravel()
    sorted_coupler = scatter_coupler.ravel()[flat_order].reshape(n_batch, n)
    duplicate = sorted_coupler[:, 1:] == sorted_coupler[:, :-1]
    if duplicate.any():
        b, p = np.unravel_index(int(np.argmax(duplicate)), duplicate.shape)
        j = int(sorted_coupler[b, p]) // g
        raise RoutingError(
            f"intermediate group {j} receives two packets from the "
            "same source group (fair-distribution condition 1 violated)"
        )
    src_plane = np.broadcast_to(src, (n_batch, n))
    holder = np.empty((n_batch, n), dtype=np.int64)
    np.put(holder, flat_order, src)

    # Deliver (Fact 1): the holder's group is the fair value.
    deliver_coupler = dest_group * g + fair_value
    sorted_deliver = np.sort(shrink_sort_key(deliver_coupler, g * g - 1), axis=1)
    clash = sorted_deliver[:, 1:] == sorted_deliver[:, :-1]
    if clash.any():
        b, p = np.unravel_index(int(np.argmax(clash)), clash.shape)
        key = int(sorted_deliver[b, p])
        raise RoutingError(
            f"delivery slot needs coupler c({key // g}, {key % g}) twice; "
            "the packets were not fairly distributed after the scatter slot"
        )

    return assemble_compiled_plan_batch(
        network,
        n_batch,
        tx_sender=np.concatenate((src_plane, holder), axis=1),
        tx_packet=np.concatenate((src, src)),
        tx_coupler=np.concatenate((scatter_coupler, deliver_coupler), axis=1),
        tx_counts=[n, n],
        del_receiver=np.concatenate((src_plane, dest), axis=1),
        del_packet=np.concatenate((scatter_order, src_plane), axis=1),
        del_counts=[n, n],
        initial_loc=src,
        pk_destination=dest,
    )


def _compile_round_plan_batch(
    network: POPSNetwork, images: np.ndarray, fair_value: np.ndarray
) -> CompiledScheduleBatch:
    """Batched twin of :func:`~repro.routing.two_hop.build_round_schedule`.

    ``fair_value`` is the ``(B, n)`` plane of fair values in ``N_d``; round
    ``k`` moves the packets whose value lies in ``[k·g, (k+1)·g)``.
    """
    from repro.pops.lowering import assemble_compiled_plan_batch

    d, g = network.d, network.g
    n = network.n
    n_batch = images.shape[0]
    src = np.arange(n, dtype=np.int64)
    source_group = src // d
    dest = images
    dest_group = dest // d

    invalid = (fair_value < 0) | (fair_value >= d)
    if invalid.any():
        b, p = np.unravel_index(int(np.argmax(invalid)), invalid.shape)
        raise RoutingError(
            f"fair value {int(fair_value[b, p])} for processor "
            f"{int(p)} is outside N_d"
        )
    injective_key = np.sort(
        shrink_sort_key(source_group * d + fair_value, n - 1), axis=1
    )
    duplicate = injective_key[:, 1:] == injective_key[:, :-1]
    if duplicate.any():
        b, p = np.unravel_index(int(np.argmax(duplicate)), duplicate.shape)
        key = int(injective_key[b, p])
        raise RoutingError(
            f"group {key // d} assigns fair value {key % d} twice "
            "(fair-distribution condition 1 violated)"
        )

    # Round k moves the packets with fair value in [k·g, (k+1)·g); the
    # within-round intermediate group is the value minus k·g.
    round_of = fair_value // g
    intermediate = fair_value % g
    n_rounds = (d + g - 1) // g
    order = np.argsort(
        shrink_sort_key(round_of, n_rounds - 1), axis=1, kind="stable"
    )
    members = order  # src[order] == order because src is the identity
    # One flat gather index serves every member plane.
    flat_order = (
        order + (np.arange(n_batch, dtype=np.int64) * n)[:, None]
    ).ravel()
    member_ig = intermediate.ravel()[flat_order].reshape(n_batch, n)
    member_group = source_group[order]
    member_destg = dest_group.ravel()[flat_order].reshape(n_batch, n)
    holders = member_ig * d + member_group

    # The injectivity check above makes each group's fair values a bijection
    # onto N_d, so after the stable sort the round plane is the shared row
    # ``repeat(k, g * min(g, d - k*g))`` — no gather needed.
    counts = [g * min(g, d - k * g) for k in range(n_rounds)]
    member_round = np.repeat(np.arange(n_rounds, dtype=np.int64), counts)

    g2 = g * g
    scatter_coupler = member_ig * g + member_group
    scatter_key = member_round[None, :] * g2 + scatter_coupler
    sorted_scatter = np.sort(shrink_sort_key(scatter_key, n_rounds * g2 - 1), axis=1)
    clash = sorted_scatter[:, 1:] == sorted_scatter[:, :-1]
    if clash.any():
        b, p = np.unravel_index(int(np.argmax(clash)), clash.shape)
        key = int(sorted_scatter[b, p]) % g2
        raise RoutingError(
            f"two packets of one round share coupler c({key // g},{key % g}) "
            "(fair-distribution condition 2 violated)"
        )
    deliver_coupler = member_destg * g + member_ig
    deliver_key = member_round[None, :] * g2 + deliver_coupler
    sorted_deliver = np.sort(shrink_sort_key(deliver_key, n_rounds * g2 - 1), axis=1)
    clash = sorted_deliver[:, 1:] == sorted_deliver[:, :-1]
    if clash.any():
        b, p = np.unravel_index(int(np.argmax(clash)), clash.shape)
        key = int(sorted_deliver[b, p]) % g2
        raise RoutingError(
            f"delivery slot needs coupler c({key // g}, {key % g}) twice; "
            "the packets were not fairly distributed after the scatter slot"
        )

    bounds = np.concatenate(([0], np.cumsum(counts)))
    dest_of_members = dest.ravel()[flat_order].reshape(n_batch, n)
    tx_sender_parts: list[np.ndarray] = []
    tx_packet_parts: list[np.ndarray] = []
    tx_coupler_parts: list[np.ndarray] = []
    del_receiver_parts: list[np.ndarray] = []
    del_packet_parts: list[np.ndarray] = []
    slot_counts: list[int] = []
    for k in range(n_rounds):
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        tx_sender_parts += [members[:, lo:hi], holders[:, lo:hi]]
        tx_packet_parts += [members[:, lo:hi], members[:, lo:hi]]
        tx_coupler_parts += [scatter_coupler[:, lo:hi], deliver_coupler[:, lo:hi]]
        del_receiver_parts += [holders[:, lo:hi], dest_of_members[:, lo:hi]]
        del_packet_parts += [members[:, lo:hi], members[:, lo:hi]]
        slot_counts += [hi - lo, hi - lo]

    return assemble_compiled_plan_batch(
        network,
        n_batch,
        tx_sender=np.concatenate(tx_sender_parts, axis=1),
        tx_packet=np.concatenate(tx_packet_parts, axis=1),
        tx_coupler=np.concatenate(tx_coupler_parts, axis=1),
        tx_counts=slot_counts,
        del_receiver=np.concatenate(del_receiver_parts, axis=1),
        del_packet=np.concatenate(del_packet_parts, axis=1),
        del_counts=slot_counts,
        initial_loc=src,
        pk_destination=dest,
    )
