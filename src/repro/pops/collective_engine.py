"""Vectorized execution of packet-duplicating (collective) schedules.

The batched engine (:mod:`repro.pops.engine`) tracks one location per packet
and therefore rejects exactly the schedules the collective algorithms in
:mod:`repro.algorithms` are made of: non-consuming (broadcast-style) sends and
couplers read by many processors in one slot, both of which *duplicate*
packets.  Before this module, those schedules fell back to the slow reference
:class:`~repro.pops.simulator.POPSSimulator`, capping the network sizes every
collective experiment could explore.

:class:`CollectiveSimulator` closes that gap.  Packet state is a
*multi-location* ownership structure: a dense per-packet × per-processor
copy-count matrix ``count[k, p]`` — how many copies of packet ``k`` processor
``p`` currently buffers.  The schedule still lowers once through the shared
front end in :mod:`repro.pops.lowering` (flattening, vectorized static
validation, reception/payload join), and each slot then executes as a handful
of numpy operations:

* a gather ``count[tx_packet, tx_sender] > 0`` for the dynamic send check
  (membership test over the holder sets);
* a scatter-subtract for consuming sends (one copy leaves the sender per
  distinct ``(sender, packet)`` pair, matching the reference's
  de-duplication);
* a scatter-add for deliveries (every live reception lands a copy, so one
  coupler fans out to arbitrarily many receivers in one step).

Copy counts — not mere membership bits — are tracked because the reference
simulator's buffers are multisets: a processor that receives the same packet
twice holds two copies, and parity (identical final buffers) requires
reproducing that.

Error parity follows the same contract as the batched engine: static
violations raise before execution with ``schedule.validate()``'s exact
exception, and the two dynamic errors — a sender not holding its packet, a
read of an idle coupler — raise at the same slot, for the same
offender, with the same message as the reference.

The dense count matrix needs ``universe × n`` cells.  For the collective
workloads this engine targets (broadcast trees, reductions, multi-reader
fan-outs) the universe is small and the matrix is tiny, but a degenerate
schedule could make it huge, so :func:`fold_copy_counts` refuses to allocate
beyond :data:`DEFAULT_MAX_STATE_BYTES` with
:class:`~repro.exceptions.UnsupportedScheduleError` — the ``batched`` engine
then falls back to the reference simulator instead of exhausting memory.

This module has no run layer of its own: ``POPSSimulator(backend="batched")``
lowers a schedule once, folds it into this engine's state when a flat
location array cannot hold it, and assembles the ``SimulationResult``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SimulationError, UnsupportedScheduleError
from repro.pops.lowering import LoweredSchedule, group_firsts, lower_schedule
from repro.pops.packet import Packet
from repro.pops.schedule import RoutingSchedule
from repro.pops.topology import Coupler, POPSNetwork
from repro.pops.trace import CompiledTrace

__all__ = [
    "CollectiveCompiledSchedule",
    "CollectiveSimulator",
    "compile_collective_schedule",
    "fold_copy_counts",
    "DEFAULT_MAX_STATE_BYTES",
]

#: Refuse to allocate a copy-count matrix larger than this (256 MiB).  Dense
#: state is the right trade for collective universes (few packets, many
#: holders); schedules whose universe × n product explodes past this budget
#: fall back to the reference simulator via UnsupportedScheduleError.  Read
#: at fold time, so tests can monkeypatch it.
DEFAULT_MAX_STATE_BYTES = 256 * 1024 * 1024


@dataclass
class CollectiveCompiledSchedule:
    """A duplicating schedule lowered to flat integer arrays.

    Layout mirrors one row of :class:`~repro.pops.engine.CompiledScheduleBatch`
    (CSR segments per slot over concatenated arrays) with two differences:
    consumed packets carry their sender (a copy leaves *that* processor, not
    "the" location), and the initial state is a copy-count matrix instead of
    a location array.

    Attributes
    ----------
    network / packets / n_slots:
        The target network, the packet universe the id arrays index into, and
        the slot count.
    tx_sender / tx_packet / tx_ptr:
        Per-slot transmissions, for the dynamic ownership check.
    pay_coupler / pay_packet / pay_ptr:
        Per-slot coupler payloads — the static part of the trace.
    del_receiver / del_packet / del_ptr:
        Per-slot deliveries in reception order (multi-reader couplers yield
        one delivery per reader).
    con_sender / con_packet / con_ptr:
        Per-slot consuming sends, de-duplicated per ``(sender, packet)``.
    idle_receiver / idle_coupler:
        Per slot, the first reception of an idle coupler (``-1`` when none).
    initial_count:
        ``(universe, n)`` int32 matrix of initial copies per processor.
    pk_destination:
        Destination of every universe packet.
    """

    network: POPSNetwork
    packets: list[Packet]
    n_slots: int
    tx_sender: np.ndarray
    tx_packet: np.ndarray
    tx_ptr: np.ndarray
    pay_coupler: np.ndarray
    pay_packet: np.ndarray
    pay_ptr: np.ndarray
    del_receiver: np.ndarray
    del_packet: np.ndarray
    del_ptr: np.ndarray
    con_sender: np.ndarray
    con_packet: np.ndarray
    con_ptr: np.ndarray
    idle_receiver: np.ndarray
    idle_coupler: np.ndarray
    initial_count: np.ndarray
    pk_destination: np.ndarray

    @property
    def n_transmissions(self) -> int:
        """Total transmissions across all slots."""
        return int(self.tx_sender.shape[0])

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the compiled arrays."""
        return sum(
            getattr(self, name).nbytes
            for name in (
                "tx_sender", "tx_packet", "tx_ptr",
                "pay_coupler", "pay_packet", "pay_ptr",
                "del_receiver", "del_packet", "del_ptr",
                "con_sender", "con_packet", "con_ptr",
                "idle_receiver", "idle_coupler",
                "initial_count", "pk_destination",
            )
        )


def compile_collective_schedule(
    network: POPSNetwork,
    schedule: RoutingSchedule,
    packets: list[Packet],
) -> CollectiveCompiledSchedule:
    """Lower a (possibly duplicating) schedule to integer arrays.

    Unlike :func:`repro.pops.engine.compile_schedule` this accepts every
    schedule shape the reference simulator accepts — non-consuming sends,
    multi-reader couplers, packets buffered at several processors — because
    the execution state is a copy-count matrix rather than a location array.

    Raises
    ------
    SimulationError
        (or a subclass) exactly as ``schedule.validate()`` would for static
        violations, at compile time rather than slot by slot.
    UnsupportedScheduleError
        If the copy-count matrix would exceed :data:`DEFAULT_MAX_STATE_BYTES`,
        or value-equal copies carry different payloads.
    """
    return fold_copy_counts(lower_schedule(network, schedule, packets))


def fold_copy_counts(lowered: LoweredSchedule) -> CollectiveCompiledSchedule:
    """Fold a lowered schedule into the copy-count state.

    Raises :class:`UnsupportedScheduleError` if the ``(universe, n)`` matrix
    would exceed :data:`DEFAULT_MAX_STATE_BYTES`.
    """
    u_size = lowered.u_size
    n_slots = lowered.n_slots
    n = lowered.network.n

    state_bytes = u_size * n * np.dtype(np.int32).itemsize
    if state_bytes > DEFAULT_MAX_STATE_BYTES:
        raise UnsupportedScheduleError(
            f"copy-count state for {u_size} packets x {n} processors needs "
            f"{state_bytes} bytes (budget {DEFAULT_MAX_STATE_BYTES}); "
            "use the reference simulator"
        )

    # Consuming sends, de-duplicated per (slot, sender, packet): the reference
    # resolves each transmission to the sender's buffered instance and removes
    # it once per slot, however many couplers it was driven through.
    con_idx = np.flatnonzero(lowered.tx_consume)
    key = (
        lowered.tx_slot[con_idx] * n + lowered.tx_sender[con_idx]
    ) * max(u_size, 1) + lowered.tx_packet[con_idx]
    k_order, _, k_new = group_firsts(key)
    con_first = con_idx[np.sort(k_order[k_new])]
    con_sender = lowered.tx_sender[con_first]
    con_packet = lowered.tx_packet[con_first]
    con_counts = np.bincount(lowered.tx_slot[con_first], minlength=n_slots)

    initial_count = np.zeros((u_size, n), dtype=np.int32)
    np.add.at(
        initial_count, (lowered.initial_hold_packet, lowered.initial_hold_proc), 1
    )

    return CollectiveCompiledSchedule(
        network=lowered.network,
        packets=lowered.packets,
        n_slots=n_slots,
        tx_sender=lowered.tx_sender,
        tx_packet=lowered.tx_packet,
        tx_ptr=lowered.tx_ptr,
        pay_coupler=lowered.pay_coupler,
        pay_packet=lowered.pay_packet,
        pay_ptr=lowered.pay_ptr,
        del_receiver=lowered.del_receiver,
        del_packet=lowered.del_packet,
        del_ptr=lowered.del_ptr,
        con_sender=con_sender,
        con_packet=con_packet,
        con_ptr=np.concatenate(([0], np.cumsum(con_counts, dtype=np.int64))),
        idle_receiver=lowered.idle_receiver,
        idle_coupler=lowered.idle_coupler,
        initial_count=initial_count,
        pk_destination=lowered.pk_destination,
    )


class CollectiveSimulator:
    """Vectorized multi-location executor, trace-equivalent to the reference.

    Same contract as :class:`~repro.pops.simulator.POPSSimulator`: a read of
    an idle coupler raises :class:`SimulationError`.

    Parameters
    ----------
    network:
        The POPS(d, g) network to simulate.
    """

    def __init__(self, network: POPSNetwork):
        self.network = network

    def compile(
        self, schedule: RoutingSchedule, packets: list[Packet]
    ) -> CollectiveCompiledSchedule:
        """Lower ``schedule`` once; the result can be executed repeatedly."""
        return compile_collective_schedule(self.network, schedule, packets)

    def execute(self, compiled: CollectiveCompiledSchedule) -> np.ndarray:
        """Run a compiled schedule, returning the final copy-count matrix."""
        count = compiled.initial_count.copy()
        packets = compiled.packets
        tx_ptr, del_ptr, con_ptr = compiled.tx_ptr, compiled.del_ptr, compiled.con_ptr
        for s in range(compiled.n_slots):
            senders = compiled.tx_sender[tx_ptr[s]:tx_ptr[s + 1]]
            sent = compiled.tx_packet[tx_ptr[s]:tx_ptr[s + 1]]
            held = count[sent, senders] > 0
            if not held.all():
                i = int(np.argmin(held))
                raise SimulationError(
                    f"slot {s}: processor {senders[i]} does not hold "
                    f"{packets[sent[i]]!r}"
                )
            if compiled.idle_receiver[s] >= 0:
                cid = int(compiled.idle_coupler[s])
                coupler = Coupler(cid // self.network.g, cid % self.network.g)
                raise SimulationError(
                    f"slot {s}: processor {compiled.idle_receiver[s]} reads "
                    f"idle {coupler!r}"
                )
            # Within a slot both index sets are duplicate-free ((sender,
            # packet) pairs de-duplicated at compile; receivers read at most
            # one coupler), so plain fancy-indexed updates are exact.
            count[
                compiled.con_packet[con_ptr[s]:con_ptr[s + 1]],
                compiled.con_sender[con_ptr[s]:con_ptr[s + 1]],
            ] -= 1
            count[
                compiled.del_packet[del_ptr[s]:del_ptr[s + 1]],
                compiled.del_receiver[del_ptr[s]:del_ptr[s + 1]],
            ] += 1
        return count

    def compiled_trace(self, compiled: CollectiveCompiledSchedule) -> CompiledTrace:
        """The (static) trace of a compiled schedule as a zero-copy array view."""
        return CompiledTrace(
            g=self.network.g,
            packets=compiled.packets,
            pay_coupler=compiled.pay_coupler,
            pay_packet=compiled.pay_packet,
            pay_ptr=compiled.pay_ptr,
            del_receiver=compiled.del_receiver,
            del_packet=compiled.del_packet,
            del_ptr=compiled.del_ptr,
        )

    def verify_full_coverage(
        self,
        compiled: CollectiveCompiledSchedule,
        count: np.ndarray,
        packets: list[Packet] | None = None,
    ) -> None:
        """Vectorized broadcast-delivery check: every processor holds a copy.

        The collective analogue of
        :meth:`repro.pops.engine.BatchedSimulator.verify_locations` — the
        delivery criterion for broadcast-style collectives is "every
        processor buffers at least one copy of every broadcast packet", and
        the copy-count matrix answers that as one reduction instead of a
        Python scan over all buffers.  ``packets`` restricts the check to a
        subset of the universe (default: all of it).

        Raises
        ------
        DeliveryError
            Naming the first packet/processor pair missing a copy.
        """
        from repro.exceptions import DeliveryError

        if packets is None:
            rows = count
            universe = compiled.packets
        else:
            index_of = {p: i for i, p in enumerate(compiled.packets)}
            rows = count[[index_of[p] for p in packets]]
            universe = packets
        missing = rows <= 0
        if bool(missing.any()):
            k, proc = (int(x[0]) for x in np.nonzero(missing))
            raise DeliveryError(
                f"{universe[k]!r} was not delivered to processor {proc}"
            )

    def buffers_from_counts(
        self, compiled: CollectiveCompiledSchedule, count: np.ndarray
    ) -> dict[int, list[Packet]]:
        """Reconstruct ``processor -> packets held`` from a copy-count matrix.

        Within a buffer, packets appear in universe order with their copy
        multiplicity (the reference simulator preserves arrival order instead;
        compare as multisets).
        """
        n = self.network.n
        buffers: dict[int, list[Packet]] = {p: [] for p in range(n)}
        # nonzero over the transpose walks processor-major (packets ascending
        # within each processor), so the buffers come out grouped without a
        # sort; the packet references are materialised in one C-level pass
        # through an object array instead of a Python append per copy.
        held_proc, held_packet = np.nonzero(count.T)
        copies = count[held_packet, held_proc]
        if bool((copies > 1).any()):
            held_packet = np.repeat(held_packet, copies)
            held_proc = np.repeat(held_proc, copies)
        pobj = np.empty(len(compiled.packets), dtype=object)
        pobj[:] = compiled.packets
        refs = pobj[held_packet].tolist()
        bounds = np.searchsorted(held_proc, np.arange(n + 1)).tolist()
        for proc in range(n):
            lo, hi = bounds[proc], bounds[proc + 1]
            if lo < hi:
                buffers[proc] = refs[lo:hi]
        return buffers
