"""Shared schedule-lowering helpers for the compiled simulation engines.

Both compiled engines — the consuming-model :class:`~repro.pops.engine.
BatchedSimulator` and the duplicating-model :class:`~repro.pops.
collective_engine.CollectiveSimulator` — start from the same observation: the
*dataflow* of a POPS schedule is static.  Which coupler carries which packet,
which reception resolves to which delivery, and which sends are legal wiring
are all functions of the schedule alone.  This module owns that shared front
end: :func:`lower_schedule` flattens a :class:`~repro.pops.schedule.
RoutingSchedule` into CSR-style integer arrays (one segment per slot),
performs every static check vectorized (wiring, coupler conflicts, receiver
conflicts — reproducing ``schedule.validate()``'s exact exception on the slow
path), and joins receptions against coupler payloads to produce the per-slot
delivery and idle-read arrays.

What the engines layer on top differs: the batched engine folds the holder
state into a flat ``loc[packet]`` array (only when no packet is ever
duplicated), while the collective engine keeps a per-packet/per-processor
copy-count matrix.  Both fold the same :class:`LoweredSchedule`, so the
``batched`` engine lowers a schedule once and picks the state afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np

from repro.exceptions import SimulationError, UnsupportedScheduleError
from repro.pops.packet import Packet
from repro.pops.schedule import RoutingSchedule
from repro.pops.topology import POPSNetwork

__all__ = [
    "LoweredSchedule",
    "lower_schedule",
    "group_firsts",
    "assemble_compiled_plan_batch",
]


@dataclass
class LoweredSchedule:
    """A schedule flattened to integer arrays with its static dataflow solved.

    All arrays are concatenated over slots; ``*_ptr`` arrays hold the slot
    boundaries (``xs[ptr[s]:ptr[s + 1]]`` is slot ``s``'s segment).  Packet
    entries index into ``packets``; coupler ids encode
    ``Coupler(cid // g, cid % g)``.

    Attributes
    ----------
    network / packets / n_slots:
        The target network, the packet universe (initial packets plus any
        transmitted packet unknown to it, registered with no holder so the
        dynamic ownership check fails with the reference error), and the slot
        count.
    tx_sender / tx_packet / tx_consume / tx_slot / tx_ptr:
        Per-slot transmissions in schedule order, for the dynamic ownership
        check and the engines' consumed-packet derivations.
    pay_coupler / pay_packet / pay_ptr:
        Per-slot coupler payloads (first transmission per driven coupler, in
        schedule order) — the static part of the trace.
    del_receiver / del_packet / del_slot / del_ptr:
        Per-slot deliveries (receptions joined with payloads, idle reads
        dropped) in reception order.
    idle_receiver / idle_coupler:
        Per slot, the first reception of an idle coupler (``-1`` when none);
        strict runs abort there.
    initial_hold_packet / initial_hold_proc:
        Initial placement as parallel ``(packet index, processor)`` arrays,
        one entry per buffered copy.  Engines fold these into their own state
        representation (flat location array or copy-count matrix).
    pk_destination:
        Destination of every universe packet, for vectorized delivery checks.
    """

    network: POPSNetwork
    packets: list[Packet]
    n_slots: int
    tx_sender: np.ndarray
    tx_packet: np.ndarray
    tx_consume: np.ndarray
    tx_slot: np.ndarray
    tx_ptr: np.ndarray
    pay_coupler: np.ndarray
    pay_packet: np.ndarray
    pay_ptr: np.ndarray
    del_receiver: np.ndarray
    del_packet: np.ndarray
    del_slot: np.ndarray
    del_ptr: np.ndarray
    idle_receiver: np.ndarray
    idle_coupler: np.ndarray
    initial_hold_packet: np.ndarray
    initial_hold_proc: np.ndarray
    pk_destination: np.ndarray

    @property
    def u_size(self) -> int:
        """Size of the packet universe."""
        return len(self.packets)


def _int_fields(objs: list, attr: str, count: int) -> np.ndarray:
    """Extract an int attribute (dotted paths allowed) from every object.

    ``map(attrgetter(...))`` + ``np.fromiter`` keeps the whole extraction in
    C; on large schedules this flattening is the engine's dominant fixed
    cost, so it matters that no per-object Python bytecode runs here.
    """
    return np.fromiter(map(attrgetter(attr), objs), dtype=np.int64, count=count)


def group_firsts(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable group-by on integer keys.

    Returns ``(order, same, new_group)`` where ``order`` sorts ``keys``
    stably, ``same[i]`` marks ``keys[order][i + 1] == keys[order][i]``, and
    ``new_group`` flags the first (earliest, thanks to stability) element of
    each key group within the sorted view.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    same = sorted_keys[1:] == sorted_keys[:-1]
    new_group = np.empty(keys.size, dtype=bool)
    if keys.size:
        new_group[0] = True
        new_group[1:] = ~same
    return order, same, new_group


def _batch_plane(values: np.ndarray, n_batch: int, length: int) -> np.ndarray:
    """Normalise a plan array to a ``(B, L)`` int64 plane.

    A per-batch ``(B, L)`` int64 plane is returned as it is; a shared
    ``(L,)`` array is broadcast (zero-copy).  Either way the engine reads it
    row-wise.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.shape == (n_batch, length):
        return values
    return np.broadcast_to(values, (n_batch, length))


def assemble_compiled_plan_batch(
    network: POPSNetwork,
    n_batch: int,
    tx_sender: np.ndarray,
    tx_packet: np.ndarray,
    tx_coupler: np.ndarray,
    tx_counts: list[int],
    del_receiver: np.ndarray,
    del_packet: np.ndarray,
    del_counts: list[int],
    initial_loc: np.ndarray,
    pk_destination: np.ndarray,
):
    """Ingest ``B`` pre-compiled *conflict-free* routing plans sharing their
    CSR slot structure as one :class:`~repro.pops.engine.CompiledScheduleBatch`.

    The array-native router front end builds its per-slot transmission and
    delivery arrays directly from the permutations; for such plans the full
    lowering join is redundant structure-recovery: every driven coupler
    carries exactly one consuming transmission (payloads *are* the
    transmissions), every sent packet leaves its sender (consumed *are* the
    sent packets), and every reception reads a driven coupler (no idle
    reads).  This helper packages those arrays in the exact layout
    :func:`lower_schedule` + :func:`repro.pops.engine.compile_schedule`
    produce, so ``element(b)`` of the result is bit-identical to lowering
    the equivalent object schedule of row ``b``.

    The key invariant of Theorem 2 plans makes the batching exact, not
    approximate: for fixed ``(d, g)`` the slot segmentation (``tx_counts`` /
    ``del_counts``, the per-slot segment lengths of the concatenated arrays,
    and hence every ``*_ptr`` array) is identical across permutations — only
    the per-slot *contents* differ.  Each plan array may therefore be passed
    as a shared ``(L,)`` array (broadcast across the batch) or a per-batch
    ``(B, L)`` plane.
    """
    from repro.pops.engine import CompiledScheduleBatch

    n_slots = len(tx_counts)
    tx_ptr = np.concatenate(
        ([0], np.cumsum(np.asarray(tx_counts, dtype=np.int64)))
    )
    del_ptr = np.concatenate(
        ([0], np.cumsum(np.asarray(del_counts, dtype=np.int64)))
    )
    no_idle = np.full(n_slots, -1, dtype=np.int64)
    n_tx = int(tx_ptr[-1])
    n_del = int(del_ptr[-1])
    universe = int(np.asarray(pk_destination).shape[-1])
    tx_sender = _batch_plane(tx_sender, n_batch, n_tx)
    tx_packet = _batch_plane(tx_packet, n_batch, n_tx)
    tx_coupler = _batch_plane(tx_coupler, n_batch, n_tx)
    return CompiledScheduleBatch(
        network=network,
        n_batch=n_batch,
        n_slots=n_slots,
        tx_sender=tx_sender,
        tx_packet=tx_packet,
        tx_ptr=tx_ptr,
        pay_coupler=tx_coupler,
        pay_packet=tx_packet,
        pay_ptr=tx_ptr,
        del_receiver=_batch_plane(del_receiver, n_batch, n_del),
        del_packet=_batch_plane(del_packet, n_batch, n_del),
        del_ptr=del_ptr,
        con_packet=tx_packet,
        con_ptr=tx_ptr,
        idle_receiver=no_idle,
        idle_coupler=no_idle.copy(),
        initial_loc=_batch_plane(initial_loc, n_batch, universe),
        pk_destination=_batch_plane(pk_destination, n_batch, universe),
    )


def _same_payload(existing: Packet, packet: Packet) -> bool:
    """True iff two value-equal packets indisputably carry the same payload.

    ``Packet`` equality excludes payloads, so collapsing value-equal copies
    into one universe entry is only sound when their payloads agree — the
    engine delivers the universe instance, and a collapsed distinct payload
    would silently vanish.  Payloads are arbitrary objects (possibly
    unhashable, possibly with array-valued ``==``), so anything that is not
    provably equal counts as different and the caller falls back.
    """
    if existing.payload is packet.payload:
        return True
    try:
        return bool(existing.payload == packet.payload)
    except Exception:
        return False


def _packet_universe(
    network: POPSNetwork, packets: list[Packet]
) -> tuple[list[Packet], np.ndarray, np.ndarray, np.ndarray]:
    """The packet universe, the initial ``(packet, processor)`` pairs, and the
    destination of every universe packet.

    Every packet starts at its source.  Value-equal copies — the same
    ``(source, destination)`` given more than once, so the source holds it
    several times — share one universe entry and produce one pair per copy,
    provided they carry the same payload.  Copies of one value with
    *different* payloads cannot share an entry, so they raise
    :class:`UnsupportedScheduleError` and the schedule runs on the reference
    simulator, which tracks every buffered instance individually.  When no
    two ``(source, destination)`` pairs are equal, no two packets are
    value-equal, and the universe is the held packets themselves, found
    without hashing a ``Packet``.
    """
    held = list(packets)
    sources = _int_fields(held, "source", len(held))
    bad = np.flatnonzero((sources < 0) | (sources >= network.n))
    if bad.size:
        raise SimulationError(
            f"{held[int(bad[0])]!r} has source outside the network of size "
            f"{network.n}"
        )
    destinations = _int_fields(held, "destination", len(held))
    if _distinct_pairs(sources, destinations, network.n):
        return held, np.arange(len(held), dtype=np.int64), sources, destinations

    universe: list[Packet] = []
    index_of: dict[Packet, int] = {}
    hold_packet: list[int] = []
    for packet in held:
        idx = index_of.get(packet)
        if idx is None:
            idx = len(universe)
            index_of[packet] = idx
            universe.append(packet)
        elif not _same_payload(universe[idx], packet):
            raise UnsupportedScheduleError(
                f"value-equal copies of {packet!r} carry different "
                "payloads; use the reference simulator"
            )
        hold_packet.append(idx)
    return (
        universe,
        np.array(hold_packet, dtype=np.int64),
        sources,
        _int_fields(universe, "destination", len(universe)),
    )


def _distinct_pairs(sources: np.ndarray, destinations: np.ndarray, n: int) -> bool:
    """True iff all ``(source, destination)`` pairs lie in ``[0, n)²`` and
    no two are equal."""
    in_range = (sources >= 0) & (sources < n) & (destinations >= 0) & (destinations < n)
    if not bool(in_range.all()):
        return False
    keys = np.sort(sources * n + destinations)
    return not bool((keys[1:] == keys[:-1]).any())


def _resolve_packet_indices(
    network: POPSNetwork,
    universe: list[Packet],
    pk_destination: np.ndarray,
    schedule_packets: list[Packet],
) -> tuple[np.ndarray, list[Packet], np.ndarray, np.ndarray]:
    """Map every transmitted packet to its universe index by value.

    The fast path indexes the universe by packet *source* — valid whenever
    sources are unique, which covers every permutation-routing workload — and
    never hashes a ``Packet``.  Duplicated sources, or schedule packets absent
    from the universe, fall back to a dict keyed by packet value; unknown
    packets are registered with no holder so the dynamic ownership check
    fails at the right slot with the reference error message.

    Returns the index array plus the (possibly extended) universe, the count
    of appended packets, and the extended destination array.
    """
    n_tx = len(schedule_packets)
    u_size = len(universe)
    pk_source = _int_fields(universe, "source", u_size)
    sources_unique = bool(((pk_source >= 0) & (pk_source < network.n)).all())
    if sources_unique:
        src_to_idx = np.full(network.n, -1, dtype=np.int64)
        src_to_idx[pk_source] = np.arange(u_size, dtype=np.int64)
        # Scatter-then-gather equals arange iff no source was written twice.
        sources_unique = bool(
            (src_to_idx[pk_source] == np.arange(u_size, dtype=np.int64)).all()
        )
    if sources_unique and n_tx and u_size:
        t_src = _int_fields(schedule_packets, "source", n_tx)
        t_dst = _int_fields(schedule_packets, "destination", n_tx)
        in_range = (t_src >= 0) & (t_src < network.n)
        idx = np.where(in_range, src_to_idx[np.clip(t_src, 0, network.n - 1)], -1)
        known = (idx >= 0) & (pk_destination[np.maximum(idx, 0)] == t_dst)
        if known.all():
            return idx, universe, 0, pk_destination
    else:
        known = np.zeros(n_tx, dtype=bool)
        idx = np.full(n_tx, -1, dtype=np.int64)

    # Slow path: hash-based resolution (duplicate sources / unknown packets).
    index_of: dict[Packet, int] = {}
    for i, packet in enumerate(universe):
        index_of.setdefault(packet, i)
    for i in np.flatnonzero(~known):
        packet = schedule_packets[i]
        j = index_of.get(packet)
        if j is None:
            j = len(universe)
            index_of[packet] = j
            universe.append(packet)
        idx[i] = j
    n_extra = len(universe) - u_size
    if n_extra:
        pk_destination = np.concatenate(
            (
                pk_destination,
                np.array(
                    [p.destination for p in universe[u_size:]], dtype=np.int64
                ),
            )
        )
    return idx, universe, n_extra, pk_destination


def lower_schedule(
    network: POPSNetwork,
    schedule: RoutingSchedule,
    packets: list[Packet],
) -> LoweredSchedule:
    """Flatten ``schedule``, validate it statically, and solve its dataflow.

    Every packet starts at its source; value-equal copies share one universe
    entry with one initial-holder pair per copy (see
    :func:`_packet_universe`).

    Raises
    ------
    SimulationError
        (or a subclass) exactly as ``schedule.validate()`` would for static
        violations, at compile time rather than slot by slot.
    UnsupportedScheduleError
        If value-equal copies carry different payloads.
    """
    if schedule.network != network:
        raise SimulationError(
            f"schedule targets {schedule.network!r}, simulator holds {network!r}"
        )
    g = network.g
    g2 = g * g
    universe, hold_packet, hold_proc, pk_destination = _packet_universe(
        network, packets
    )

    # -- flatten to integer arrays (C-level attrgetter/fromiter extraction) ----
    all_tx = list(chain.from_iterable(slot.transmissions for slot in schedule.slots))
    all_rx = list(chain.from_iterable(slot.receptions for slot in schedule.slots))
    tx_counts = [len(slot.transmissions) for slot in schedule.slots]
    rx_counts = [len(slot.receptions) for slot in schedule.slots]
    tx_packet, universe, _, pk_destination = _resolve_packet_indices(
        network, universe, pk_destination, list(map(attrgetter("packet"), all_tx))
    )

    n_tx, n_rx = len(all_tx), len(all_rx)
    n_slots = len(schedule.slots)
    tx_sender = _int_fields(all_tx, "sender", n_tx)
    tx_consume = np.fromiter(
        map(attrgetter("consume"), all_tx), dtype=bool, count=n_tx
    )
    tx_dest = _int_fields(all_tx, "coupler.dest_group", n_tx)
    tx_src = _int_fields(all_tx, "coupler.source_group", n_tx)
    tx_ptr = np.concatenate(([0], np.cumsum(tx_counts, dtype=np.int64)))
    rx_receiver = _int_fields(all_rx, "receiver", n_rx)
    rx_dest = _int_fields(all_rx, "coupler.dest_group", n_rx)
    rx_src = _int_fields(all_rx, "coupler.source_group", n_rx)
    tx_slot = np.repeat(np.arange(n_slots, dtype=np.int64), tx_counts)
    rx_slot = np.repeat(np.arange(n_slots, dtype=np.int64), rx_counts)

    tx_coupler = tx_dest * g + tx_src
    rx_coupler = rx_dest * g + rx_src

    # One shared stable group-by over (slot, coupler): it powers both the
    # coupler-conflict checks and the payload dedup below.
    tx_key = tx_slot * g2 + tx_coupler
    c_order, c_same, c_new = group_firsts(tx_key)

    # -- static validation (vectorized; slow path reproduces the exact error) --
    n, d = network.n, network.d
    static_bad = False
    if n_tx:
        static_bad = (
            bool(((tx_sender < 0) | (tx_sender >= n)).any())
            or bool(
                ((tx_dest < 0) | (tx_dest >= g) | (tx_src < 0) | (tx_src >= g)).any()
            )
            or bool((tx_sender // d != tx_src).any())
            # Same coupler driven twice in a slot: sender and packet must agree.
            or bool((c_same & (tx_sender[c_order][1:] != tx_sender[c_order][:-1])).any())
            or bool((c_same & (tx_packet[c_order][1:] != tx_packet[c_order][:-1])).any())
        )
        if not static_bad:
            # One packet per sender per slot (broadcasting one packet through
            # several transmitters is legal, two different packets is not).
            s_order, s_same, _ = group_firsts(tx_slot * n + tx_sender)
            static_bad = bool(
                (s_same & (tx_packet[s_order][1:] != tx_packet[s_order][:-1])).any()
            )
    if not static_bad and n_rx:
        receiver_key = np.sort(rx_slot * n + rx_receiver)
        static_bad = (
            bool(((rx_receiver < 0) | (rx_receiver >= n)).any())
            or bool(
                ((rx_dest < 0) | (rx_dest >= g) | (rx_src < 0) | (rx_src >= g)).any()
            )
            or bool((rx_receiver // d != rx_dest).any())
            or bool((receiver_key[1:] == receiver_key[:-1]).any())
        )
    if static_bad:
        schedule.validate()  # raises the same exception the reference would
        raise SimulationError(
            "compiled lowering rejected the schedule but schedule.validate() "
            "accepted it; please report this divergence"
        )

    # -- static dataflow, fully vectorized across slots ------------------------
    # Payloads: first transmission per (slot, coupler), in schedule order.
    first_by_key = c_order[c_new]
    uniq_key = tx_key[c_order][c_new]
    first = np.sort(first_by_key)
    pay_coupler = tx_coupler[first]
    pay_packet = tx_packet[first]
    pay_counts = np.bincount(tx_slot[first], minlength=n_slots)

    # Deliveries: join receptions against payloads on the (slot, coupler) key.
    rx_key = rx_slot * g2 + rx_coupler
    pos = np.searchsorted(uniq_key, rx_key)
    live = np.zeros(n_rx, dtype=bool)
    in_bounds = pos < uniq_key.size
    live[in_bounds] = uniq_key[pos[in_bounds]] == rx_key[in_bounds]
    live_idx = np.flatnonzero(live)
    del_receiver = rx_receiver[live_idx]
    del_packet = tx_packet[first_by_key][pos[live_idx]]
    del_slot = rx_slot[live_idx]
    del_counts = np.bincount(del_slot, minlength=n_slots)

    # Idle reads: first reception of an undriven coupler per slot.
    idle_receiver = np.full(n_slots, -1, dtype=np.int64)
    idle_coupler = np.full(n_slots, -1, dtype=np.int64)
    idle_idx = np.flatnonzero(~live)
    if idle_idx.size:
        idle_slots, idle_first = np.unique(rx_slot[idle_idx], return_index=True)
        idle_receiver[idle_slots] = rx_receiver[idle_idx[idle_first]]
        idle_coupler[idle_slots] = rx_coupler[idle_idx[idle_first]]

    return LoweredSchedule(
        network=network,
        packets=universe,
        n_slots=n_slots,
        tx_sender=tx_sender,
        tx_packet=tx_packet,
        tx_consume=tx_consume,
        tx_slot=tx_slot,
        tx_ptr=tx_ptr,
        pay_coupler=pay_coupler,
        pay_packet=pay_packet,
        pay_ptr=np.concatenate(([0], np.cumsum(pay_counts, dtype=np.int64))),
        del_receiver=del_receiver,
        del_packet=del_packet,
        del_slot=del_slot,
        del_ptr=np.concatenate(([0], np.cumsum(del_counts, dtype=np.int64))),
        idle_receiver=idle_receiver,
        idle_coupler=idle_coupler,
        initial_hold_packet=hold_packet,
        initial_hold_proc=hold_proc,
        pk_destination=pk_destination,
    )
