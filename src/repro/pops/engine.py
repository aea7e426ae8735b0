"""Batched fast-path execution of routing schedules.

:class:`~repro.pops.simulator.POPSSimulator` executes one Python
``Transmission``/``Reception`` object at a time, which caps the network sizes
experiments can explore.  This module exploits a structural property of the
POPS slot model: the *dataflow* of a schedule is entirely static.  Which
coupler carries which packet, which reception resolves to which delivery, and
which packets leave their sender are all functions of the schedule alone — the
only thing that depends on execution state is whether each sender actually
holds the packet it drives.

A compiled schedule is therefore flat integer arrays (CSR-style, one segment
per slot), and :class:`CompiledScheduleBatch` is the one type that holds them:
``B`` schedules sharing one slot structure, with a single schedule as its
one-row case.  The router emits batches directly
(:meth:`~repro.routing.permutation_router.PermutationRouter.route_compiled_batch`);
:func:`compile_schedule` lowers a
:class:`~repro.pops.schedule.RoutingSchedule` into a one-row batch via the
shared front end in :mod:`repro.pops.lowering` — flattening, vectorized static
validation (wiring, coupler conflicts, receiver conflicts) and the
reception/payload join are common to all compiled engines.
:meth:`BatchedSimulator.execute_batch` is the one slot loop: a slot is three
numpy operations on one location array, one comparison for the dynamic
buffer-ownership check and two scatters for the buffer commit, with
``loc[b, k]`` the processor currently holding packet ``k`` of row ``b`` (or
``-1`` when the packet was consumed without being read).

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
message, as are the fault-injection errors.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, replace
from typing import NoReturn

import numpy as np

from repro.exceptions import (
    CouplerFailedError,
    DeliveryError,
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
    "CompiledScheduleBatch",
    "BatchedSimulator",
    "ScheduleCache",
    "compile_schedule",
    "compile_state",
    "fold_locations",
    "schedule_cache",
]

#: The per-row ``(B, ·)`` planes of a :class:`CompiledScheduleBatch`.
PLANES = (
    "tx_sender", "tx_packet", "pay_coupler", "pay_packet", "del_receiver",
    "del_packet", "con_packet", "initial_loc", "pk_destination",
)

#: The slot structure every row of a :class:`CompiledScheduleBatch` shares.
STRUCTURE = ("tx_ptr", "pay_ptr", "del_ptr", "con_ptr", "idle_receiver", "idle_coupler")


@dataclass
class CompiledScheduleBatch:
    """``B`` routing schedules lowered to integer arrays sharing one slot structure.

    All arrays are concatenated over slots; ``*_ptr`` arrays hold the slot
    boundaries (``xs[:, ptr[s]:ptr[s + 1]]`` is slot ``s``'s segment of every
    row), so one compiled batch drives the whole run without touching Python
    objects.  For a fixed POPS(d, g) every Theorem 2 plan has the *same* slot
    segmentation, so a batch of plans stores the :data:`STRUCTURE` arrays once
    and the :data:`PLANES` as ``(B, ·)`` arrays.  Planes may be broadcast
    views when a plan array is genuinely shared across the batch (e.g.
    ``initial_loc`` for permutation routing, where packet ``i`` always starts
    at processor ``i``).  A single schedule is a one-row batch.

    Attributes
    ----------
    network / n_batch / n_slots:
        The network the schedules target, the row count ``B`` and the slot
        count.
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
        runs abort there.
    initial_loc:
        Starting processor of every universe packet (``-1``: nowhere).
    pk_destination:
        Destination of every universe packet, for vectorized delivery checks.
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

    #: The packet universe of a one-row batch lowered from
    #: :class:`~repro.pops.packet.Packet` objects, payloads included, set
    #: after construction (:func:`fold_locations`); ``None`` for routed
    #: plans, whose universe is implicit: packet ``k`` of row ``b`` is
    #: ``Packet(k, pk_destination[b, k])``.  Not a dataclass field, so the
    #: fields stay the plan's arrays and sizes.  :meth:`universe` reads either
    #: form.
    packets = None

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the batch arrays.

        Broadcast planes report their expanded size, over-counting the
        actual allocation — acceptable for cache accounting, which only
        needs an upper bound.
        """
        return sum(getattr(self, name).nbytes for name in PLANES + STRUCTURE)

    def universe(self, b: int) -> list[Packet]:
        """Row ``b``'s packet universe: the array entries of row ``b`` index into it."""
        if self.packets is not None:
            return self.packets
        destinations = self.pk_destination[b]
        return list(map(Packet, range(destinations.size), destinations.tolist()))

    def element(self, b: int) -> CompiledScheduleBatch:
        """Row ``b`` as a one-row batch of zero-copy views.

        The result is bit-identical to compiling row ``b``'s plan alone.
        """
        row = replace(
            self, n_batch=1, **{name: getattr(self, name)[b:b + 1] for name in PLANES}
        )
        row.packets = self.packets
        return row


#: Everything :class:`ScheduleCache` stores.
_Compiled = CompiledScheduleBatch | CollectiveCompiledSchedule


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
    between executions is safe (``execute_batch`` copies the location array).
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
) -> CompiledScheduleBatch:
    """Lower ``schedule`` to a one-row batch, raising any static violation.

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


def fold_locations(lowered: LoweredSchedule) -> CompiledScheduleBatch:
    """Fold a lowered schedule into the flat ``loc[packet]`` state of a one-row batch.

    The fold holds when every send consumes, no packet is read twice in a
    slot and every packet starts at one holder; otherwise it raises
    :class:`UnsupportedScheduleError` naming the first duplication found.
    The batch keeps the lowered packet universe, payloads included.
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

    compiled = CompiledScheduleBatch(
        network=lowered.network,
        n_batch=1,
        n_slots=n_slots,
        tx_sender=lowered.tx_sender[None],
        tx_packet=lowered.tx_packet[None],
        tx_ptr=lowered.tx_ptr,
        pay_coupler=lowered.pay_coupler[None],
        pay_packet=lowered.pay_packet[None],
        pay_ptr=lowered.pay_ptr,
        del_receiver=lowered.del_receiver[None],
        del_packet=lowered.del_packet[None],
        del_ptr=lowered.del_ptr,
        con_packet=lowered.tx_packet[None, con_first],
        con_ptr=np.concatenate(([0], np.cumsum(con_counts, dtype=np.int64))),
        idle_receiver=lowered.idle_receiver,
        idle_coupler=lowered.idle_coupler,
        initial_loc=initial_loc[None],
        pk_destination=lowered.pk_destination[None],
    )
    compiled.packets = lowered.packets
    return compiled


def compile_state(
    network: POPSNetwork,
    schedule: RoutingSchedule,
    packets: list[Packet],
    cache_key: Hashable | None = None,
    cache: ScheduleCache | None = None,
) -> CompiledScheduleBatch | CollectiveCompiledSchedule:
    """Lower ``schedule`` once and fold it into the flat or copy-count state.

    The flat :func:`fold_locations` state (a one-row batch) is taken whenever
    it holds, else :func:`~repro.pops.collective_engine.fold_copy_counts`.
    This is the one place a compiled schedule is cached: ``cache_key`` opts
    in, and the caller asserts that the key fully determines
    ``(schedule, packets)`` — e.g. ``(d, g, speaker, payload)`` for a
    broadcast.  Because a hit returns the *first* compilation's packet
    universe and ``Packet.payload`` is excluded from packet equality, the key
    must also determine payloads.  ``cache`` overrides the process-wide cache
    (useful for isolation in tests and benchmarks).

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
) -> CompiledScheduleBatch | CollectiveCompiledSchedule:
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
    ) -> CompiledScheduleBatch:
        """Lower ``schedule`` once to a one-row batch that can be executed repeatedly.

        Goes through :func:`compile_state` (``cache_key``/``cache`` follow its
        contract) and raises :class:`UnsupportedScheduleError` whenever the
        result — freshly lowered or cached under ``cache_key`` — is not a
        flat-location :class:`CompiledScheduleBatch`.
        """
        compiled = compile_state(self.network, schedule, packets, cache_key, cache)
        if not isinstance(compiled, CompiledScheduleBatch):
            raise UnsupportedScheduleError(
                "the schedule duplicates packets, so a flat location array "
                "cannot hold it; run it on POPSSimulator(backend='batched')"
            )
        return compiled

    # The one-row forms below are kept only as names the per-layer benchmark
    # probe (perfbench/layers.py) wraps; the program calls the batch methods.

    def execute(self, compiled: CompiledScheduleBatch, faults=None) -> np.ndarray:
        """Row 0's final location array: :meth:`execute_batch` of a one-row batch."""
        return self.execute_batch(compiled, faults)[0]

    def verify_locations(self, compiled: CompiledScheduleBatch, loc: np.ndarray) -> None:
        """:meth:`verify_locations_batch` of a one-row batch and its location row."""
        self.verify_locations_batch(compiled, loc[None])

    def compiled_trace(self, compiled: CompiledScheduleBatch) -> CompiledTrace:
        """Row 0's :class:`~repro.pops.trace.CompiledTrace`, over its packet universe."""
        return self.compiled_trace_batch(compiled).element(0, compiled.universe(0))

    def execute_batch(self, batch: CompiledScheduleBatch, faults=None) -> np.ndarray:
        """Run a compiled batch; returns the final ``(B, U)`` location stack.

        One slot is three numpy operations — ownership comparison, consume
        scatter, delivery scatter — on one flat C-order location array:
        adding the row offsets ``b·U`` to the packet planes once, before the
        first slot, turns every slot's ``(B, ·)`` slice into flat indices, so
        each operation is a plain gather or scatter (a plan whose consumed
        packets are its sent packets, as every router plan's are, shares one
        offset plane).  Ownership results land in one buffer checked when the
        run ends or reaches an idle read, so a slot costs no reduction.

        A dynamic failure raises the lowest failing row's error, read from
        that buffer.  Every row's state is exact up to its own first failure,
        so row ``b``'s first unheld send, in transmission order, is the error
        row ``b`` raises alone.  An idle read is slot structure, so it fails
        every row; row 0 raises it, or its own earlier ownership error.

        ``faults`` opts a one-row batch into fault injection (a batch of
        several rows raises :class:`ValueError`): a
        :class:`~repro.faults.FaultSpec` whose hardware is checked at the
        start of every slot inside the fault window.  Driving a failed
        coupler (or scheduling a failed processor) raises
        :class:`~repro.exceptions.CouplerFailedError` carrying the slot, the
        coupler, and the residual packet state at the start of that slot —
        bit-identical to the reference simulator's fault path
        (:meth:`repro.pops.simulator.POPSSimulator.run_reference`).  The
        hardware a slot touches is static, so the failing slot is found
        before the run, which stops there.
        """
        if faults is not None and faults.is_empty:
            faults = None
        if faults is not None and batch.n_batch != 1:
            raise ValueError(
                f"fault injection runs one schedule, got a batch of {batch.n_batch}"
            )
        fault = None if faults is None else self._first_fault(batch, faults)
        n_run = batch.n_slots if fault is None else fault[0]
        # A copy of a broadcast plane defaults to F order, whose ravel would
        # be a copy; C order makes ``flat`` a view the scatters write through.
        loc = np.array(batch.initial_loc, dtype=np.int64, order="C")
        flat = loc.reshape(-1)
        n_batch, u_size = loc.shape
        offsets = np.arange(n_batch, dtype=np.int64)[:, None] * u_size
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
        for s in range(n_run):
            tx = slice(tx_ptr[s], tx_ptr[s + 1])
            np.equal(flat[sent_ids[:, tx]], batch.tx_sender[:, tx], out=held[:, tx])
            if idle[s] >= 0:
                if not held[0, :tx.stop].all():
                    self._raise_unheld(batch, held[:1, :tx.stop])
                cid = int(batch.idle_coupler[s])
                coupler = Coupler(cid // self.network.g, cid % self.network.g)
                raise SimulationError(
                    f"slot {s}: processor {idle[s]} reads idle {coupler!r}"
                )
            flat[consumed_ids[:, con_ptr[s]:con_ptr[s + 1]]] = -1
            delivered = slice(del_ptr[s], del_ptr[s + 1])
            flat[delivered_ids[:, delivered]] = batch.del_receiver[:, delivered]
        checked = held[:, :tx_ptr[n_run]]
        if not checked.all():
            self._raise_unheld(batch, checked)
        if fault is not None:
            slot, message, coupler = fault
            row = loc[0]
            universe = batch.universe(0)
            stray = np.flatnonzero((row != batch.pk_destination[0]) & (row >= 0))
            residual = {universe[k]: int(row[k]) for k in stray.tolist()}
            raise CouplerFailedError(message, slot=slot, coupler=coupler, residual=residual)
        return loc

    def _raise_unheld(self, batch: CompiledScheduleBatch, held: np.ndarray) -> NoReturn:
        """Raise the ownership error of ``held``'s row-major first ``False``."""
        b, i = divmod(int(np.argmin(held)), held.shape[1])
        s = int(np.searchsorted(batch.tx_ptr, i, side="right")) - 1
        packet = batch.universe(b)[int(batch.tx_packet[b, i])]
        raise SimulationError(
            f"slot {s}: processor {int(batch.tx_sender[b, i])} does not hold {packet!r}"
        )

    def _first_fault(
        self, batch: CompiledScheduleBatch, faults
    ) -> tuple[int, str, Coupler | None] | None:
        """The first slot in the fault window that touches failed hardware.

        Returns ``(slot, message, coupler)`` for row 0, or ``None`` when the
        run touches none.  Within a slot the check order is the reference
        simulator's: driven couplers, then senders, then receivers.
        """
        g = self.network.g
        coupler_failed = np.zeros(g * g, dtype=bool)
        coupler_failed[list(faults.failed_coupler_ids(g))] = True
        proc_failed = np.zeros(self.network.n, dtype=bool)
        proc_failed[list(faults.failed_processor_set(self.network))] = True
        for s in range(batch.n_slots):
            if not faults.active_at(s):
                continue
            pay = batch.pay_coupler[0, batch.pay_ptr[s]:batch.pay_ptr[s + 1]]
            hit = np.flatnonzero(coupler_failed[pay])
            if hit.size:
                cid = int(pay[hit[0]])
                coupler = Coupler(cid // g, cid % g)
                return s, f"slot {s}: {coupler!r} is failed under the active fault spec", coupler
            for procs, ptr, role in (
                (batch.tx_sender, batch.tx_ptr, "transmit"),
                (batch.del_receiver, batch.del_ptr, "receive"),
            ):
                segment = procs[0, ptr[s]:ptr[s + 1]]
                bad = np.flatnonzero(proc_failed[segment])
                if bad.size:
                    return s, (
                        f"slot {s}: failed processor {int(segment[bad[0]])} "
                        f"is scheduled to {role}"
                    ), None
        return None

    def verify_locations_batch(
        self, batch: CompiledScheduleBatch, loc: np.ndarray
    ) -> None:
        """Vectorized delivery check: every packet sits at its destination.

        Equivalent to
        :meth:`~repro.pops.simulator.SimulationResult.verify_permutation_delivery`
        over every row's packet universe, without building buffer dicts.  On
        failure it raises the :class:`~repro.exceptions.DeliveryError` of the
        lowest failing row's first misplaced packet, the error that row
        raises alone.
        """
        misplaced = loc != batch.pk_destination
        if not misplaced.any():
            return
        b, k = divmod(int(np.argmax(misplaced)), misplaced.shape[1])
        packet = batch.universe(b)[k]
        where = [int(loc[b, k])] if loc[b, k] >= 0 else []
        raise DeliveryError(
            f"{packet!r} should end at processor {packet.destination}, "
            f"found at {where}"
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
        self, compiled: CompiledScheduleBatch, loc: np.ndarray
    ) -> dict[int, list[Packet]]:
        """Reconstruct ``processor -> packets held`` from a one-row ``(1, U)`` location stack.

        Within a buffer, packets appear in universe order (the reference
        simulator preserves arrival order instead; compare as multisets).
        """
        buffers: dict[int, list[Packet]] = {
            p: [] for p in self.network.processors()
        }
        universe = compiled.universe(0)
        row = loc[0]
        for idx in np.flatnonzero(row >= 0).tolist():
            buffers[int(row[idx])].append(universe[idx])
        return buffers
