"""Batched fast-path execution of routing schedules.

:class:`~repro.pops.simulator.POPSSimulator` executes one Python
``Transmission``/``Reception`` object at a time, which caps the network sizes
experiments can explore.  This module exploits a structural property of the
POPS slot model: the *dataflow* of a schedule is entirely static.  Which
coupler carries which packet, which reception resolves to which delivery, and
which packets leave their sender are all functions of the schedule alone — the
only thing that depends on execution state is whether each sender actually
holds the packet it drives.

:func:`compile_schedule` therefore lowers a
:class:`~repro.pops.schedule.RoutingSchedule` once into flat integer arrays
(CSR-style, one segment per slot) via the shared front end in
:mod:`repro.pops.lowering` — flattening, vectorized static validation
(wiring, coupler conflicts, receiver conflicts) and the reception/payload
join are common to all compiled engines — and :class:`BatchedSimulator`
executes a slot as three numpy operations: one comparison for the dynamic
buffer-ownership check and two scatters for the buffer commit.  Buffers are a
single packet-location array ``loc`` with ``loc[k]`` the processor currently
holding packet ``k`` (or ``-1`` when the packet was consumed without being
read).

The flat location array covers the consume-and-deliver model used by
permutation routing.  Schedules that *duplicate* packets — non-consuming
(broadcast-style) sends, a packet read by several processors in one slot, or
a packet starting at several holders — cannot be expressed in it.
:func:`compile_state` lowers a schedule once and folds it into whichever
state holds it: the flat array, else the copy-count matrix of
:class:`~repro.pops.collective_engine.CollectiveSimulator`;
``POPSSimulator(backend="batched")`` runs the result and falls back to the
reference implementation only when neither fits, so the switch is always safe
to flip.

Error parity with the reference simulator: static violations are raised before
execution (the reference calls ``schedule.validate()`` up front, and the
engine re-runs it on the slow path to reproduce the exact exception), and the
two dynamic errors — a sender not holding its packet, a read of an idle
coupler — are raised at the same slot, for the same offender, with the same
message.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np

from repro.exceptions import (
    SimulationError,
    UnsupportedScheduleError,
)
from repro.obs import get_tracer
from repro.obs.metrics import Counter
from repro.pops.collective_engine import CollectiveCompiledSchedule, fold_copy_counts
from repro.pops.lowering import LoweredSchedule, group_firsts, lower_schedule
from repro.pops.packet import Packet
from repro.pops.schedule import RoutingSchedule
from repro.pops.topology import Coupler, POPSNetwork
from repro.pops.trace import CompiledTrace, CompiledTraceBatch

__all__ = [
    "CompiledSchedule",
    "CompiledScheduleBatch",
    "BatchedSimulator",
    "ScheduleCache",
    "compile_schedule",
    "compile_state",
    "fold_locations",
    "schedule_cache",
]


@dataclass
class CompiledSchedule:
    """A routing schedule lowered to flat integer arrays.

    All arrays are concatenated over slots; ``*_ptr`` arrays hold the slot
    boundaries (``xs[ptr[s]:ptr[s + 1]]`` is slot ``s``'s segment), so one
    compiled schedule drives the whole run without touching Python objects.

    Attributes
    ----------
    network:
        The network the schedule targets.
    packets:
        The packet universe; array entries index into this list.
    tx_sender / tx_packet / tx_ptr:
        Per-slot transmissions, for the dynamic ownership check.
    pay_coupler / pay_packet / pay_ptr:
        Per-slot coupler payloads (first transmission per driven coupler, in
        schedule order) — the static part of the trace.
    del_receiver / del_packet / del_ptr:
        Per-slot deliveries (receptions joined with payloads, idle reads
        dropped) in reception order.
    con_packet / con_ptr:
        Per-slot packets consumed (each sent packet leaves its sender).
    idle_receiver / idle_coupler:
        Per slot, the first reception of an idle coupler (``-1`` when none);
        strict runs abort there.
    initial_loc:
        Starting processor of every packet in the universe (``-1``: nowhere).
    pk_destination:
        Destination of every packet, for vectorized delivery verification.
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
    con_packet: np.ndarray
    con_ptr: np.ndarray
    idle_receiver: np.ndarray
    idle_coupler: np.ndarray
    initial_loc: np.ndarray
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
                "con_packet", "con_ptr",
                "idle_receiver", "idle_coupler",
                "initial_loc", "pk_destination",
            )
        )


@dataclass
class CompiledScheduleBatch:
    """``B`` compiled schedules sharing one CSR slot structure.

    The megabatch layout: for a fixed POPS(d, g) every Theorem 2 plan has the
    *same* slot segmentation — identical ``*_ptr`` arrays, identical slot
    count — so a batch of plans is stored as shared structure arrays plus
    ``(B, ·)`` per-batch planes.  Planes may be broadcast views when a plan
    array is genuinely shared across the batch (e.g. ``initial_loc`` for
    permutation routing, where packet ``i`` always starts at processor ``i``).

    The packet universe is implicit — permutation-routing packets: universe
    entry ``i`` of element ``b`` is ``Packet(i, pk_destination[b, i])`` — so
    no per-element Python objects exist until :meth:`element` materializes
    one :class:`CompiledSchedule`.

    Attributes mirror :class:`CompiledSchedule`, with ``tx_sender``,
    ``tx_packet``, ``pay_coupler``, ``pay_packet``, ``del_receiver``,
    ``del_packet``, ``con_packet``, ``initial_loc`` and ``pk_destination``
    grown a leading batch axis and the ``*_ptr`` / idle arrays shared.
    """

    network: POPSNetwork
    n_batch: int
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
    con_packet: np.ndarray
    con_ptr: np.ndarray
    idle_receiver: np.ndarray
    idle_coupler: np.ndarray
    initial_loc: np.ndarray
    pk_destination: np.ndarray

    @property
    def u_size(self) -> int:
        """Size of each element's packet universe."""
        return int(self.pk_destination.shape[1])

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the batch arrays.

        Broadcast planes report their expanded size, over-counting the
        actual allocation — acceptable for cache accounting, which only
        needs an upper bound.
        """
        return sum(
            getattr(self, name).nbytes
            for name in (
                "tx_sender", "tx_packet", "tx_ptr",
                "pay_coupler", "pay_packet", "pay_ptr",
                "del_receiver", "del_packet", "del_ptr",
                "con_packet", "con_ptr",
                "idle_receiver", "idle_coupler",
                "initial_loc", "pk_destination",
            )
        )

    def element(self, b: int) -> CompiledSchedule:
        """Materialize element ``b`` as a standalone :class:`CompiledSchedule`.

        Plane rows are views (zero-copy); structure arrays are shared.  The
        result is bit-identical to compiling element ``b``'s plan alone.
        """
        destinations = self.pk_destination[b]
        packets = list(map(Packet, range(destinations.size), destinations.tolist()))
        return CompiledSchedule(
            network=self.network,
            packets=packets,
            n_slots=self.n_slots,
            tx_sender=self.tx_sender[b],
            tx_packet=self.tx_packet[b],
            tx_ptr=self.tx_ptr,
            pay_coupler=self.pay_coupler[b],
            pay_packet=self.pay_packet[b],
            pay_ptr=self.pay_ptr,
            del_receiver=self.del_receiver[b],
            del_packet=self.del_packet[b],
            del_ptr=self.del_ptr,
            con_packet=self.con_packet[b],
            con_ptr=self.con_ptr,
            idle_receiver=self.idle_receiver,
            idle_coupler=self.idle_coupler,
            initial_loc=self.initial_loc[b],
            pk_destination=destinations,
        )


#: Everything :class:`ScheduleCache` stores.
_Compiled = CompiledSchedule | CompiledScheduleBatch | CollectiveCompiledSchedule


class ScheduleCache:
    """Cache of compiled schedules keyed by caller-chosen keys.

    Lowering a schedule is the dominant fixed cost of the batched engine.
    Callers that replay one schedule many times and can prove it is fully
    determined by a key pass that key (the E9 broadcast keys on
    ``(d, g, speaker)``) and repeated compilations become dictionary
    lookups; :func:`compile_state` is the one place that reads and fills it.
    Routing never consults the cache: routed traffic almost never repeats a
    permutation, so cached plans only held memory.

    The cache is doubly bounded — at most ``max_entries`` schedules *and*
    at most ``max_bytes`` of compiled arrays, FIFO-evicted — so huge
    networks (a compiled n≈20k schedule is megabytes of arrays) cannot
    balloon memory.  It counts hits and misses
    (:meth:`repro.api.session.Session.cache_stats`).
    Compiled schedules are immutable after compilation, so sharing one object
    between executions is safe (``execute`` copies the location array).
    """

    def __init__(self, max_entries: int = 64, max_bytes: int = 128 * 1024 * 1024):
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: dict[Hashable, _Compiled] = {}
        self._total_bytes = 0
        # The counters are repro.obs metrics (the one counting model every
        # layer reports through); the int-valued properties below keep the
        # historical ``cache.hits``-style reads working unchanged.
        self._hits = Counter("cache_hits")
        self._misses = Counter("cache_misses")

    @property
    def hits(self) -> int:
        """Cache hits (cumulative since construction or :meth:`clear`)."""
        return self._hits.value

    @property
    def misses(self) -> int:
        """Cache misses (cumulative since construction or :meth:`clear`)."""
        return self._misses.value

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        """Approximate bytes of compiled arrays currently cached."""
        return self._total_bytes

    def get(self, key: Hashable) -> _Compiled | None:
        """Look up ``key``, counting the access as a hit or a miss.

        Either way the access is one dict lookup, cheaper than the span that
        would time it, so it is counted but not traced.
        """
        compiled = self._entries.get(key)
        if compiled is None:
            self._misses.inc()
        else:
            self._hits.inc()
        return compiled

    def put(self, key: Hashable, compiled: _Compiled) -> None:
        """Store ``compiled`` under ``key``, FIFO-evicting until within bounds.

        A schedule larger than ``max_bytes`` on its own is not cached at all.
        """
        nbytes = compiled.nbytes
        if nbytes > self.max_bytes:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._total_bytes -= old.nbytes
        while self._entries and (
            len(self._entries) >= self.max_entries
            or self._total_bytes + nbytes > self.max_bytes
        ):
            evicted = self._entries.pop(next(iter(self._entries)))
            self._total_bytes -= evicted.nbytes
        self._entries[key] = compiled
        self._total_bytes += nbytes

    def stats(self) -> dict[str, int]:
        """Counters as a plain dict: ``hits``, ``misses``, ``entries``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._entries.clear()
        self._total_bytes = 0
        self._hits.reset()
        self._misses.reset()


#: Process-wide default cache; worker processes each hold their own instance.
_SCHEDULE_CACHE = ScheduleCache()


def schedule_cache() -> ScheduleCache:
    """The process-wide compiled-schedule cache."""
    return _SCHEDULE_CACHE


def compile_schedule(
    network: POPSNetwork,
    schedule: RoutingSchedule,
    packets: list[Packet],
) -> CompiledSchedule:
    """Lower ``schedule`` to integer arrays, raising any static violation.

    The shared front end (:func:`repro.pops.lowering.lower_schedule`) performs
    the flattening, the vectorized static validation and the
    reception/payload join; :func:`fold_locations` adds the flat location
    array and the per-slot consumed-packet groups.

    Raises
    ------
    SimulationError
        (or a subclass) exactly as ``schedule.validate()`` would for static
        violations, at compile time rather than slot by slot.
    UnsupportedScheduleError
        If the schedule duplicates packets and therefore cannot run on a flat
        location array.
    """
    with get_tracer().span("route.lower"):
        return fold_locations(lower_schedule(network, schedule, packets))


def fold_locations(lowered: LoweredSchedule) -> CompiledSchedule:
    """Fold a lowered schedule into the flat ``loc[packet]`` state.

    The fold holds when every send consumes, no packet is read twice in a
    slot and every packet starts at one holder; otherwise it raises
    :class:`UnsupportedScheduleError` naming the first duplication found.
    """
    u_size = lowered.u_size
    n_slots = lowered.n_slots
    if not lowered.tx_consume.all():
        raise UnsupportedScheduleError(
            "non-consuming (broadcast-style) transmissions duplicate packets; "
            "use the collective engine (CollectiveSimulator)"
        )
    # A packet read by several receivers in one slot would be duplicated.
    del_key = np.sort(lowered.del_slot * max(u_size, 1) + lowered.del_packet)
    dup = np.flatnonzero(del_key[1:] == del_key[:-1])
    if dup.size:
        raise UnsupportedScheduleError(
            f"slot {int(del_key[dup[0]] // max(u_size, 1))}: a packet is read "
            "by several receivers, which duplicates it; use the "
            "collective engine (CollectiveSimulator)"
        )
    initial_loc = np.full(u_size, -1, dtype=np.int64)
    initial_loc[lowered.initial_hold_packet] = lowered.initial_hold_proc
    holders = np.bincount(lowered.initial_hold_packet, minlength=u_size)
    if bool((holders > 1).any()):
        raise UnsupportedScheduleError(
            "a packet starts at more than one holder; use the collective "
            "engine (CollectiveSimulator)"
        )

    # Consumed: each packet sent in a slot leaves its sender once.
    p_order, _, p_new = group_firsts(
        lowered.tx_slot * max(u_size, 1) + lowered.tx_packet
    )
    con_first = np.sort(p_order[p_new])
    con_counts = np.bincount(lowered.tx_slot[con_first], minlength=n_slots)

    return CompiledSchedule(
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
        con_packet=lowered.tx_packet[con_first],
        con_ptr=np.concatenate(([0], np.cumsum(con_counts, dtype=np.int64))),
        idle_receiver=lowered.idle_receiver,
        idle_coupler=lowered.idle_coupler,
        initial_loc=initial_loc,
        pk_destination=lowered.pk_destination,
    )


def compile_state(
    network: POPSNetwork,
    schedule: RoutingSchedule,
    packets: list[Packet],
    cache_key: Hashable | None = None,
    cache: ScheduleCache | None = None,
) -> CompiledSchedule | CollectiveCompiledSchedule:
    """Lower ``schedule`` once and fold it into the flat or copy-count state.

    The flat :func:`fold_locations` state is taken whenever it holds, else
    :func:`~repro.pops.collective_engine.fold_copy_counts`.  This is the one
    place a compiled schedule is cached: ``cache_key`` opts in, and the
    caller asserts that the key fully determines ``(schedule, packets)`` —
    e.g. ``(d, g, speaker, payload)`` for a broadcast.  Because a hit returns
    the *first* compilation's packet universe and ``Packet.payload`` is
    excluded from packet equality, the key must also determine payloads.
    ``cache`` overrides the process-wide cache (useful for isolation in tests
    and benchmarks).

    Raises
    ------
    UnsupportedScheduleError
        If neither state holds the schedule (copy-count budget exceeded, or
        value-equal copies with different payloads).
    """
    if cache_key is None:
        return _lower_and_fold(network, schedule, packets)
    store = cache if cache is not None else schedule_cache()
    compiled = store.get(cache_key)
    if compiled is None:
        compiled = _lower_and_fold(network, schedule, packets)
        store.put(cache_key, compiled)
    return compiled


def _lower_and_fold(
    network: POPSNetwork,
    schedule: RoutingSchedule,
    packets: list[Packet],
) -> CompiledSchedule | CollectiveCompiledSchedule:
    with get_tracer().span("route.lower"):
        lowered = lower_schedule(network, schedule, packets)
        try:
            return fold_locations(lowered)
        except UnsupportedScheduleError:
            return fold_copy_counts(lowered)


class BatchedSimulator:
    """Vectorized slot-model executor, trace-equivalent to the reference.

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
        self,
        schedule: RoutingSchedule,
        packets: list[Packet],
        cache_key: Hashable | None = None,
        cache: ScheduleCache | None = None,
    ) -> CompiledSchedule:
        """Lower ``schedule`` once; the result can be executed repeatedly.

        Goes through :func:`compile_state` (``cache_key``/``cache`` follow its
        contract) and raises :class:`UnsupportedScheduleError` whenever the
        result — freshly lowered or cached under ``cache_key`` — is not a
        flat-location :class:`CompiledSchedule`.
        """
        compiled = compile_state(self.network, schedule, packets, cache_key, cache)
        if not isinstance(compiled, CompiledSchedule):
            raise UnsupportedScheduleError(
                "the schedule duplicates packets, so a flat location array "
                "cannot hold it; run it on POPSSimulator(backend='batched')"
            )
        return compiled

    def execute(self, compiled: CompiledSchedule, faults=None) -> np.ndarray:
        """Run a compiled schedule, returning the final packet-location array.

        ``faults`` opts into fault injection: a
        :class:`~repro.faults.FaultSpec` whose hardware is checked at the
        start of every slot inside the fault window.  Driving a failed
        coupler (or scheduling a failed processor) raises
        :class:`~repro.exceptions.CouplerFailedError` carrying the slot, the
        coupler, and the residual packet state — bit-identical to the
        reference simulator's fault path
        (:meth:`repro.pops.simulator.POPSSimulator.run_reference`).
        """
        if faults is not None and faults.is_empty:
            faults = None
        if faults is not None:
            g = self.network.g
            coupler_failed = np.zeros(g * g, dtype=bool)
            ids = faults.failed_coupler_ids(g)
            if ids:
                coupler_failed[list(ids)] = True
            proc_failed = np.zeros(self.network.n, dtype=bool)
            procs = faults.failed_processor_set(self.network)
            if procs:
                proc_failed[list(procs)] = True
        loc = compiled.initial_loc.copy()
        packets = compiled.packets
        tx_ptr, del_ptr, con_ptr = compiled.tx_ptr, compiled.del_ptr, compiled.con_ptr
        for s in range(compiled.n_slots):
            if faults is not None and faults.active_at(s):
                self._check_faults(
                    compiled, s, loc, coupler_failed, proc_failed
                )
            senders = compiled.tx_sender[tx_ptr[s]:tx_ptr[s + 1]]
            sent = compiled.tx_packet[tx_ptr[s]:tx_ptr[s + 1]]
            held = loc[sent] == senders
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
            loc[compiled.con_packet[con_ptr[s]:con_ptr[s + 1]]] = -1
            loc[compiled.del_packet[del_ptr[s]:del_ptr[s + 1]]] = (
                compiled.del_receiver[del_ptr[s]:del_ptr[s + 1]]
            )
        return loc

    def _check_faults(
        self,
        compiled: CompiledSchedule,
        s: int,
        loc: np.ndarray,
        coupler_failed: np.ndarray,
        proc_failed: np.ndarray,
    ) -> None:
        """Raise :class:`CouplerFailedError` if slot ``s`` touches failed hardware.

        Check order matches the reference simulator's fault path exactly —
        driven couplers first, then failed senders, then failed receivers —
        and the residual state is the location array at the *start* of the
        slot, so both engines raise bit-identically.
        """
        from repro.exceptions import CouplerFailedError

        g = self.network.g
        pay = compiled.pay_coupler[compiled.pay_ptr[s]:compiled.pay_ptr[s + 1]]
        coupler = None
        message = None
        hit = np.flatnonzero(coupler_failed[pay])
        if hit.size:
            cid = int(pay[hit[0]])
            coupler = Coupler(cid // g, cid % g)
            message = f"slot {s}: {coupler!r} is failed under the active fault spec"
        else:
            senders = compiled.tx_sender[compiled.tx_ptr[s]:compiled.tx_ptr[s + 1]]
            bad = np.flatnonzero(proc_failed[senders])
            if bad.size:
                message = (
                    f"slot {s}: failed processor {int(senders[bad[0]])} "
                    "is scheduled to transmit"
                )
            else:
                receivers = compiled.del_receiver[
                    compiled.del_ptr[s]:compiled.del_ptr[s + 1]
                ]
                bad = np.flatnonzero(proc_failed[receivers])
                if not bad.size:
                    return
                message = (
                    f"slot {s}: failed processor {int(receivers[bad[0]])} "
                    "is scheduled to receive"
                )
        undelivered = np.flatnonzero(
            (loc != compiled.pk_destination) & (loc >= 0)
        )
        residual = {
            compiled.packets[int(k)]: int(loc[k]) for k in undelivered
        }
        raise CouplerFailedError(message, slot=s, coupler=coupler, residual=residual)

    def verify_locations(self, compiled: CompiledSchedule, loc: np.ndarray) -> None:
        """Vectorized delivery check: every packet sits at its destination.

        Equivalent to
        :meth:`~repro.pops.simulator.SimulationResult.verify_permutation_delivery`
        over the whole packet universe, without building buffer dicts.
        """
        from repro.exceptions import DeliveryError

        misplaced = np.flatnonzero(loc != compiled.pk_destination)
        if misplaced.size:
            i = int(misplaced[0])
            packet = compiled.packets[i]
            where = [int(loc[i])] if loc[i] >= 0 else []
            raise DeliveryError(
                f"{packet!r} should end at processor {packet.destination}, "
                f"found at {where}"
            )

    def execute_batch(self, batch: CompiledScheduleBatch) -> np.ndarray:
        """Run a compiled batch; returns the final ``(B, U)`` location stack.

        One slot is three numpy operations — ownership comparison, consume
        scatter, delivery scatter — on one flat C-order location array:
        adding the row offsets ``b·U`` to the packet planes once, before the
        first slot, turns every slot's ``(B, ·)`` slice into flat indices, so
        each operation is a plain gather or scatter (a plan whose consumed
        packets are its sent packets, as every router plan's are, shares one
        offset plane).  Ownership results land in one buffer checked when the
        run ends or reaches an idle read, so a slot costs no reduction.  Row
        ``b`` of the result equals ``execute(batch.element(b))``.

        On a dynamic failure the offending elements are replayed one by one
        through :meth:`execute` so the error raised is exactly the error the
        lowest failing element would raise alone.
        """
        # A copy of a broadcast plane defaults to F order, whose ravel would
        # be a copy; C order makes ``flat`` a view the scatters write through.
        loc = np.array(batch.initial_loc, dtype=np.int64, order="C")
        flat = loc.reshape(-1)
        n_batch, u_size = loc.shape
        offsets = np.arange(0, n_batch * u_size, u_size, dtype=np.int64)[:, None]
        sent_ids = batch.tx_packet + offsets
        consumed_ids = (
            sent_ids
            if batch.con_packet is batch.tx_packet and batch.con_ptr is batch.tx_ptr
            else batch.con_packet + offsets
        )
        delivered_ids = batch.del_packet + offsets
        held = np.empty(sent_ids.shape, dtype=bool)
        tx_ptr = batch.tx_ptr.tolist()
        con_ptr = batch.con_ptr.tolist()
        del_ptr = batch.del_ptr.tolist()
        idle = batch.idle_receiver.tolist()
        for s in range(batch.n_slots):
            tx = slice(tx_ptr[s], tx_ptr[s + 1])
            np.equal(flat[sent_ids[:, tx]], batch.tx_sender[:, tx], out=held[:, tx])
            if idle[s] >= 0:
                if not held[:, :tx.stop].all():
                    self._replay_batch_failure(batch)
                cid = int(batch.idle_coupler[s])
                coupler = Coupler(cid // self.network.g, cid % self.network.g)
                raise SimulationError(
                    f"slot {s}: processor {idle[s]} reads idle {coupler!r}"
                )
            flat[consumed_ids[:, con_ptr[s]:con_ptr[s + 1]]] = -1
            delivered = slice(del_ptr[s], del_ptr[s + 1])
            flat[delivered_ids[:, delivered]] = batch.del_receiver[:, delivered]
        if not held.all():
            self._replay_batch_failure(batch)
        return loc

    def _replay_batch_failure(self, batch: CompiledScheduleBatch) -> None:
        """Reproduce a batch execution failure element by element.

        Replays elements in batch order so the raised error is the exact
        single-element error of the lowest failing element (when several
        elements fail in different slots, batch order wins over slot order —
        the one accepted divergence from the per-trial loop).
        """
        for b in range(batch.n_batch):
            self.execute(batch.element(b))
        raise SimulationError(
            "internal error: batch execution failed but every element "
            "executes cleanly alone; please report this divergence"
        )

    def verify_locations_batch(
        self, batch: CompiledScheduleBatch, loc: np.ndarray
    ) -> None:
        """Batched :meth:`verify_locations` over a ``(B, U)`` location stack.

        On failure the offending elements are replayed through the
        single-element check, raising the exact per-trial
        :class:`~repro.exceptions.DeliveryError` of the lowest failing one.
        """
        from repro.exceptions import DeliveryError

        if bool((loc == batch.pk_destination).all()):
            return
        for b in range(batch.n_batch):
            self.verify_locations(batch.element(b), loc[b])
        raise DeliveryError(
            "internal error: batch delivery check failed but every element "
            "verifies cleanly alone; please report this divergence"
        )

    def compiled_trace_batch(self, batch: CompiledScheduleBatch) -> CompiledTraceBatch:
        """The static trace of a compiled batch as zero-copy array views.

        Statistics over the returned
        :class:`~repro.pops.trace.CompiledTraceBatch` are per-element numpy
        reductions; no per-element trace objects are materialized.
        """
        return CompiledTraceBatch(
            g=self.network.g,
            n_batch=batch.n_batch,
            pay_coupler=batch.pay_coupler,
            pay_packet=batch.pay_packet,
            pay_ptr=batch.pay_ptr,
            del_receiver=batch.del_receiver,
            del_packet=batch.del_packet,
            del_ptr=batch.del_ptr,
        )

    def buffers_from_locations(
        self, compiled: CompiledSchedule, loc: np.ndarray
    ) -> dict[int, list[Packet]]:
        """Reconstruct ``processor -> packets held`` from a location array.

        Within a buffer, packets appear in universe order (the reference
        simulator preserves arrival order instead; compare as multisets).
        """
        buffers: dict[int, list[Packet]] = {
            p: [] for p in self.network.processors()
        }
        for idx in np.flatnonzero(loc >= 0):
            buffers[int(loc[idx])].append(compiled.packets[idx])
        return buffers

    def compiled_trace(
        self, compiled: CompiledSchedule | CollectiveCompiledSchedule
    ) -> CompiledTrace:
        """The (static) trace of a compiled schedule as a zero-copy array view.

        Serves both state layouts: the trace reads only the payload/delivery
        arrays, which the flat and copy-count folds share.  The returned
        :class:`~repro.pops.trace.CompiledTrace` shares the compiled
        schedule's arrays; statistics over it are numpy reductions, and
        ``.materialize()`` produces the dict-based
        :class:`~repro.pops.trace.SimulationTrace` when per-slot objects are
        genuinely needed.
        """
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
