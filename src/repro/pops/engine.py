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

The engine covers the consume-and-deliver model used by permutation routing.
Schedules that *duplicate* packets — non-consuming (broadcast-style) sends, or
several processors reading the same coupler in one slot — cannot be expressed
in a flat location array and raise
:class:`~repro.exceptions.UnsupportedScheduleError` at compile time;
``POPSSimulator(backend="batched")`` catches that and falls back, first to the
vectorized multi-location :class:`~repro.pops.collective_engine.
CollectiveSimulator` and ultimately to the reference implementation, so the
switch is always safe to flip.

Error parity with the reference simulator: static violations are raised before
execution (the reference calls ``schedule.validate()`` up front, and the
engine re-runs it on the slow path to reproduce the exact exception), and the
two dynamic errors — a sender not holding its packet, a strict read of an idle
coupler — are raised at the same slot, for the same offender, with the same
message.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import (
    SimulationError,
    UnsupportedScheduleError,
)
from repro.obs import get_tracer
from repro.obs.metrics import Counter
from repro.pops.lowering import group_firsts, lower_schedule
from repro.pops.packet import Packet
from repro.pops.schedule import RoutingSchedule
from repro.pops.topology import Coupler, POPSNetwork
from repro.pops.trace import CompiledTrace, CompiledTraceBatch, SimulationTrace

__all__ = [
    "CompiledSchedule",
    "CompiledScheduleBatch",
    "BatchedSimulator",
    "ScheduleCache",
    "compile_schedule",
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
        The packet universe; array entries index into this sequence (a
        plain list when lowered in-process, a lazily materialized sequence
        when loaded from the persistent plan store).
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
    packets: Sequence[Packet]
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


class ScheduleCache:
    """Cache of :class:`CompiledSchedule` / :class:`CompiledScheduleBatch`
    objects keyed by caller-chosen keys.

    Lowering a schedule is the dominant fixed cost of the batched engine, and
    sweeps recompile identical schedules on every iteration: the same
    ``(router backend, permutation, d, g, n)`` always lowers to the same
    arrays.  Callers that can prove that determinism pass the corresponding
    key (:func:`repro.analysis.metrics.routing_cache_key`, as
    :meth:`repro.api.session.Session.route` does) and repeated compilations
    become dictionary lookups.

    The cache is doubly bounded — at most ``max_entries`` schedules *and*
    at most ``max_bytes`` of compiled arrays, FIFO-evicted — so sweeping
    huge networks (a compiled n≈20k schedule is megabytes of arrays) cannot
    balloon a worker's memory even at a 0% hit rate.  It counts hits and
    misses; ``pops-repro sweep --cache-stats`` surfaces the counters.
    Compiled schedules are immutable after compilation, so sharing one object
    between executions is safe (``execute`` copies the location array).

    ``store`` attaches a second, *persistent* tier — a
    :class:`~repro.pops.plan_store.PlanStore` probed on every memory miss
    and written through on every fill.  A disk hit promotes the plan into
    the memory tier and is counted separately (``disk_hits`` — the ``hits``
    counter stays memory-only, ``misses`` means both tiers missed), so
    ``--cache-stats`` can distinguish "warm in this process" from "warm on
    disk from another process or an earlier run".  Without a store the
    cache behaves — and reports — exactly as before.
    """

    def __init__(
        self,
        max_entries: int = 64,
        max_bytes: int = 128 * 1024 * 1024,
        store=None,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.store = store
        self._entries: dict[Hashable, CompiledSchedule | CompiledScheduleBatch] = {}
        self._total_bytes = 0
        # The counters are repro.obs metrics (the one counting model every
        # layer reports through); the int-valued properties below keep the
        # historical ``cache.hits``-style reads working unchanged.
        self._hits = Counter("cache_hits")
        self._misses = Counter("cache_misses")
        self._disk_hits = Counter("cache_disk_hits")
        self._disk_misses = Counter("cache_disk_misses")

    @property
    def hits(self) -> int:
        """Memory-tier hits (cumulative since construction or :meth:`clear`)."""
        return self._hits.value

    @property
    def misses(self) -> int:
        """Accesses both tiers missed."""
        return self._misses.value

    @property
    def disk_hits(self) -> int:
        """Persistent-tier hits (0 without a store)."""
        return self._disk_hits.value

    @property
    def disk_misses(self) -> int:
        """Persistent-tier misses (0 without a store)."""
        return self._disk_misses.value

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        """Approximate bytes of compiled arrays currently cached."""
        return self._total_bytes

    def get(self, key: Hashable) -> CompiledSchedule | CompiledScheduleBatch | None:
        """Look up ``key``, counting the access as a hit or a miss.

        Memory first; on a memory miss an attached persistent store is
        probed, and a disk hit is promoted into the memory tier (without a
        write-back — the blob is already on disk).  ``misses`` counts only
        accesses both tiers missed.  A memory hit is one dict lookup, cheaper
        than the span that would time it, so it is counted but not traced;
        every access past the memory tier runs under a ``cache.probe`` span.
        """
        compiled = self._entries.get(key)
        if compiled is not None:
            self._hits.inc()
            return compiled
        with get_tracer().span("cache.probe") as probe:
            if self.store is not None:
                compiled = self.store.get(key)
                if compiled is not None:
                    self._disk_hits.inc()
                    self._put_memory(key, compiled)
                    probe.annotate(tier="disk", hit=True)
                    return compiled
                self._disk_misses.inc()
            self._misses.inc()
            probe.annotate(hit=False)
            return None

    def peek(self, key: Hashable) -> CompiledSchedule | CompiledScheduleBatch | None:
        """Look up ``key`` without touching the hit/miss counters.

        For dispatchers that only need to know *whether* a compiled entry
        exists (the ``auto`` engine skips its schedule-shape probe on a hit);
        the engine that actually consumes the entry still goes through
        :meth:`get` and accounts for the access.
        """
        return self._entries.get(key)

    def put(self, key: Hashable, compiled: CompiledSchedule | CompiledScheduleBatch) -> None:
        """Store ``compiled`` under ``key``, FIFO-evicting until within bounds.

        A schedule larger than ``max_bytes`` on its own is not cached at all
        in memory; with a persistent store attached the plan is still
        written through to disk (the disk tier has its own budget policy),
        so later processes can warm-start even from plans this process's
        memory bounds rejected.
        """
        if self.store is not None:
            self.store.put(key, compiled)
        self._put_memory(key, compiled)

    def _put_memory(
        self, key: Hashable, compiled: CompiledSchedule | CompiledScheduleBatch
    ) -> None:
        """The memory-tier insert (no write-through); FIFO-evicts to bounds."""
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
        """Counters as a plain dict: ``hits``, ``misses``, ``entries``.

        With a persistent store attached, ``disk_hits`` / ``disk_misses``
        are reported as *separate* keys (``hits`` stays memory-only; the
        tiers are never summed), so consumers can tell a warm process from
        a warm disk.  Without a store the dict keeps its historical
        three-key shape exactly.
        """
        stats = {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }
        if self.store is not None:
            stats["disk_hits"] = self.disk_hits
            stats["disk_misses"] = self.disk_misses
        return stats

    def clear(self) -> None:
        """Drop all memory entries and reset the counters (disk untouched)."""
        self._entries.clear()
        self._total_bytes = 0
        self._hits.reset()
        self._misses.reset()
        self._disk_hits.reset()
        self._disk_misses.reset()


#: Process-wide default cache; worker processes each hold their own instance.
_SCHEDULE_CACHE = ScheduleCache()


def schedule_cache() -> ScheduleCache:
    """The process-wide compiled-schedule cache."""
    return _SCHEDULE_CACHE


def compile_schedule(
    network: POPSNetwork,
    schedule: RoutingSchedule,
    packets: list[Packet],
    initial_buffers: dict[int, list[Packet]] | None = None,
) -> CompiledSchedule:
    """Lower ``schedule`` to integer arrays, raising any static violation.

    The shared front end (:func:`repro.pops.lowering.lower_schedule`) performs
    the flattening, the vectorized static validation and the
    reception/payload join; this function adds the consuming-model specifics —
    the flat location array, the per-slot consumed-packet groups, and the
    rejection of packet-duplicating shapes.

    Raises
    ------
    SimulationError
        (or a subclass) exactly as ``schedule.validate()`` would for static
        violations, at compile time rather than slot by slot.
    UnsupportedScheduleError
        If the schedule duplicates packets (non-consuming sends, multi-reader
        couplers) and therefore cannot run on a flat location array.
    """
    with get_tracer().span("route.lower"):
        lowered = lower_schedule(
            network, schedule, packets, initial_buffers, single_location=True
        )
        if not lowered.tx_consume.all():
            raise UnsupportedScheduleError(
                "non-consuming (broadcast-style) transmissions duplicate packets; "
                "use the batched-collective engine"
            )
        universe = lowered.packets
        u_size = lowered.u_size
        n_slots = lowered.n_slots

        # Consumed: each packet sent in a slot leaves its sender once.
        p_order, _, p_new = group_firsts(
            lowered.tx_slot * max(u_size, 1) + lowered.tx_packet
        )
        con_first = np.sort(p_order[p_new])
        con_packet = lowered.tx_packet[con_first]
        con_counts = np.bincount(lowered.tx_slot[con_first], minlength=n_slots)

        # A packet read by several receivers in one slot would be duplicated.
        del_key = np.sort(lowered.del_slot * max(u_size, 1) + lowered.del_packet)
        dup = np.flatnonzero(del_key[1:] == del_key[:-1])
        if dup.size:
            raise UnsupportedScheduleError(
                f"slot {int(del_key[dup[0]] // max(u_size, 1))}: a packet is read "
                "by several receivers, which duplicates it; use the "
                "batched-collective engine"
            )

        # Fold the (packet, processor) holder pairs into the flat location array.
        # The single-location front end guarantees at most one pair per packet;
        # transmitted packets unknown to the universe stay at -1 (held nowhere).
        initial_loc = np.full(u_size, -1, dtype=np.int64)
        initial_loc[lowered.initial_hold_packet] = lowered.initial_hold_proc

        return CompiledSchedule(
            network=network,
            packets=universe,
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
            con_packet=con_packet,
            con_ptr=np.concatenate(([0], np.cumsum(con_counts, dtype=np.int64))),
            idle_receiver=lowered.idle_receiver,
            idle_coupler=lowered.idle_coupler,
            initial_loc=initial_loc,
            pk_destination=lowered.pk_destination,
        )


class BatchedSimulator:
    """Vectorized slot-model executor, trace-equivalent to the reference.

    Parameters
    ----------
    network:
        The POPS(d, g) network to simulate.
    strict_receptions:
        Same contract as :class:`~repro.pops.simulator.POPSSimulator`: a read
        of an idle coupler raises :class:`SimulationError` when ``True`` and
        silently yields nothing when ``False``.
    """

    def __init__(self, network: POPSNetwork, strict_receptions: bool = True):
        self.network = network
        self.strict_receptions = strict_receptions

    def compile(
        self,
        schedule: RoutingSchedule,
        packets: list[Packet],
        initial_buffers: dict[int, list[Packet]] | None = None,
        cache_key: Hashable | None = None,
        cache: ScheduleCache | None = None,
    ) -> CompiledSchedule:
        """Lower ``schedule`` once; the result can be executed repeatedly.

        ``cache_key`` opts into the compiled-schedule cache: the caller
        asserts that the key fully determines ``(schedule, packets)`` — e.g.
        ``(router backend, d, g, permutation)`` for deterministic routers —
        and repeated compilations under the same key return the cached
        arrays.  Because a hit returns the *first* compilation's packet
        universe and ``Packet.payload`` is excluded from packet equality,
        the key must also determine payloads: keys may only be shared by
        runs whose packets are payload-free or payload-identical (the
        routing layer's packets carry no payloads).  ``cache`` overrides the
        process-wide cache (useful for isolation in tests and benchmarks).
        Runs with explicit ``initial_buffers`` never consult the cache,
        since buffer contents are not covered by the key contract.
        """
        if cache_key is None or initial_buffers is not None:
            return compile_schedule(self.network, schedule, packets, initial_buffers)
        store = cache if cache is not None else schedule_cache()
        compiled = store.get(cache_key)
        if compiled is None:
            compiled = compile_schedule(self.network, schedule, packets, None)
            store.put(cache_key, compiled)
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
        strict = self.strict_receptions
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
            if strict and compiled.idle_receiver[s] >= 0:
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

        One slot is still three numpy operations — ownership comparison,
        consume scatter, delivery scatter — just broadcast over the batch
        axis via ``take_along_axis`` / ``put_along_axis``.  Row ``b`` of the
        result equals ``execute(batch.element(b))``.

        On a dynamic failure the offending elements are replayed one by one
        through :meth:`execute` so the error raised is exactly the error the
        lowest failing element would raise alone.
        """
        loc = np.array(batch.initial_loc)
        tx_ptr, del_ptr, con_ptr = batch.tx_ptr, batch.del_ptr, batch.con_ptr
        strict = self.strict_receptions
        for s in range(batch.n_slots):
            senders = batch.tx_sender[:, tx_ptr[s]:tx_ptr[s + 1]]
            sent = batch.tx_packet[:, tx_ptr[s]:tx_ptr[s + 1]]
            held = np.take_along_axis(loc, sent, axis=1) == senders
            if not held.all():
                self._replay_batch_failure(batch)
            if strict and batch.idle_receiver[s] >= 0:
                cid = int(batch.idle_coupler[s])
                coupler = Coupler(cid // self.network.g, cid % self.network.g)
                raise SimulationError(
                    f"slot {s}: processor {batch.idle_receiver[s]} reads "
                    f"idle {coupler!r}"
                )
            np.put_along_axis(
                loc, batch.con_packet[:, con_ptr[s]:con_ptr[s + 1]], -1, axis=1
            )
            np.put_along_axis(
                loc,
                batch.del_packet[:, del_ptr[s]:del_ptr[s + 1]],
                batch.del_receiver[:, del_ptr[s]:del_ptr[s + 1]],
                axis=1,
            )
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

    def compiled_trace(self, compiled: CompiledSchedule) -> CompiledTrace:
        """The (static) trace of a compiled schedule as a zero-copy array view.

        The returned :class:`~repro.pops.trace.CompiledTrace` shares the
        compiled schedule's payload/delivery arrays; statistics over it are
        numpy reductions, and ``.materialize()`` produces the dict-based
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

    def trace_from_compiled(self, compiled: CompiledSchedule) -> SimulationTrace:
        """Materialize the per-slot dict trace of a compiled schedule."""
        return self.compiled_trace(compiled).materialize()

    def run(
        self,
        schedule: RoutingSchedule,
        packets: list[Packet],
        initial_buffers: dict[int, list[Packet]] | None = None,
        collect_trace: bool = True,
        cache_key: Hashable | None = None,
        cache: ScheduleCache | None = None,
    ):
        """Compile and execute ``schedule``, packaging a ``SimulationResult``.

        The result's trace is a :class:`~repro.pops.trace.CompiledTrace` —
        integer arrays end to end; statistics are numpy reductions and
        per-slot dicts are only built if ``trace.materialize()`` (or the
        ``trace.slots`` escape hatch) is called.  With ``collect_trace=False``
        the trace is left empty.  ``cache_key`` and ``cache`` are forwarded to
        :meth:`compile`.
        """
        from repro.pops.simulator import SimulationResult

        compiled = self.compile(
            schedule, packets, initial_buffers, cache_key=cache_key, cache=cache
        )
        loc = self.execute(compiled)
        trace = (
            self.compiled_trace(compiled) if collect_trace else SimulationTrace()
        )
        return SimulationResult(
            network=self.network,
            buffers=self.buffers_from_locations(compiled, loc),
            trace=trace,
        )

    def route_and_verify(
        self,
        schedule: RoutingSchedule,
        packets: list[Packet],
        cache_key: Hashable | None = None,
        cache: ScheduleCache | None = None,
    ):
        """Run ``schedule`` and assert every packet reached its destination."""
        result = self.run(schedule, packets, cache_key=cache_key, cache=cache)
        result.verify_permutation_delivery(packets)
        return result
