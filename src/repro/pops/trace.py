"""Execution traces and aggregate statistics for simulated schedules.

The simulator records, per slot, which couplers carried which packets and how
every processor's buffer changed.  Traces feed the analysis layer (coupler
utilisation, packets moved per slot) and make failed runs debuggable.

Two representations coexist:

* :class:`SimulationTrace` — per-slot Python dicts (:class:`SlotTrace`), built
  by the reference simulator and ideal for rendering and debugging.
* :class:`CompiledTrace` — the batched engine's CSR-style integer arrays kept
  end to end, with the same statistics implemented as numpy reductions and an
  explicit :meth:`CompiledTrace.materialize` escape hatch that produces the
  dict representation on demand.

Both expose ``n_slots``, ``total_packets_moved``, ``total_packets_received``,
``coupler_usage()``, ``max_coupler_usage()``, ``mean_coupler_utilisation()``,
``packets_moved_per_slot()``, ``packets_received_per_slot()``,
``receiver_usage()`` and ``mean_delivery_fanout()`` with identical values, so
the analysis layer is representation-agnostic.  The reception-side statistics
matter for multi-holder (collective) schedules, where one coupler payload
fans out to many receivers: the fanout is the ratio of deliveries to coupler
usages, exactly 1.0 for consuming permutation routing and up to ``d`` for
broadcasts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.pops.packet import Packet
from repro.pops.topology import Coupler

__all__ = ["SlotTrace", "SimulationTrace", "CompiledTrace", "CompiledTraceBatch"]


@dataclass
class SlotTrace:
    """What happened during one simulated slot."""

    slot_index: int
    coupler_payloads: dict[Coupler, Packet] = field(default_factory=dict)
    deliveries: list[tuple[int, Packet]] = field(default_factory=list)

    @property
    def packets_moved(self) -> int:
        """Number of couplers that carried a packet this slot."""
        return len(self.coupler_payloads)

    @property
    def packets_received(self) -> int:
        """Number of (processor, packet) receptions this slot."""
        return len(self.deliveries)


@dataclass
class SimulationTrace:
    """Trace of a whole simulation run."""

    slots: list[SlotTrace] = field(default_factory=list)

    @property
    def n_slots(self) -> int:
        """Number of slots executed."""
        return len(self.slots)

    @property
    def total_packets_moved(self) -> int:
        """Total coupler-slot usages across the run."""
        return sum(slot.packets_moved for slot in self.slots)

    @property
    def total_packets_received(self) -> int:
        """Total (processor, packet) receptions across the run."""
        return sum(slot.packets_received for slot in self.slots)

    def packets_received_per_slot(self) -> list[int]:
        """Packets received in each slot, in execution order."""
        return [slot.packets_received for slot in self.slots]

    def receiver_usage(self) -> dict[int, int]:
        """How many deliveries each processor received across the run."""
        usage: dict[int, int] = {}
        for slot in self.slots:
            for receiver, _ in slot.deliveries:
                usage[receiver] = usage.get(receiver, 0) + 1
        return usage

    def mean_delivery_fanout(self) -> float:
        """Deliveries per coupler usage (1.0 for consuming schedules, up to
        ``d`` when multi-reader couplers fan copies out)."""
        moved = self.total_packets_moved
        if moved == 0:
            return 0.0
        return self.total_packets_received / moved

    def coupler_usage(self) -> dict[Coupler, int]:
        """How many slots each coupler carried a packet for."""
        usage: dict[Coupler, int] = {}
        for slot in self.slots:
            for coupler in slot.coupler_payloads:
                usage[coupler] = usage.get(coupler, 0) + 1
        return usage

    def max_coupler_usage(self) -> int:
        """The busiest coupler's number of used slots (0 for an empty trace)."""
        usage = self.coupler_usage()
        return max(usage.values(), default=0)

    def mean_coupler_utilisation(self, n_couplers: int) -> float:
        """Average fraction of couplers busy per slot."""
        if not self.slots or n_couplers == 0:
            return 0.0
        return self.total_packets_moved / (len(self.slots) * n_couplers)

    def packets_moved_per_slot(self) -> list[int]:
        """Packets moved in each slot, in execution order."""
        return [slot.packets_moved for slot in self.slots]


@dataclass(eq=False)
class CompiledTrace:
    """A simulation trace kept as the engine's compiled integer arrays.

    Slot ``s``'s coupler payloads are ``(pay_coupler, pay_packet)[pay_ptr[s]:
    pay_ptr[s + 1]]`` and its deliveries ``(del_receiver, del_packet)
    [del_ptr[s]:del_ptr[s + 1]]``; packet ids index into ``packets`` and
    coupler ids encode ``Coupler(cid // g, cid % g)``.  All aggregate
    statistics are numpy reductions over these arrays — no per-slot Python
    objects exist unless :meth:`materialize` is called.

    Attributes
    ----------
    g:
        Number of groups of the simulated network (``g * g`` couplers).
    packets:
        The packet universe the id arrays index into.
    pay_coupler / pay_packet / pay_ptr:
        CSR arrays of per-slot coupler payloads.
    del_receiver / del_packet / del_ptr:
        CSR arrays of per-slot deliveries.
    """

    g: int
    packets: list[Packet]
    pay_coupler: np.ndarray
    pay_packet: np.ndarray
    pay_ptr: np.ndarray
    del_receiver: np.ndarray
    del_packet: np.ndarray
    del_ptr: np.ndarray

    # The dataclass-generated __eq__ would apply ``==`` to the ndarray fields
    # and raise on the resulting boolean arrays; compare them element-wise
    # instead so two SimulationResults remain comparable on any backend.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompiledTrace):
            return NotImplemented
        return (
            self.g == other.g
            and self.packets == other.packets
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in (
                    "pay_coupler",
                    "pay_packet",
                    "pay_ptr",
                    "del_receiver",
                    "del_packet",
                    "del_ptr",
                )
            )
        )

    __hash__ = None  # mutable container semantics, like SimulationTrace

    # -- aggregate statistics (numpy reductions) -----------------------------

    @property
    def n_slots(self) -> int:
        """Number of slots executed."""
        return int(self.pay_ptr.shape[0]) - 1

    @property
    def total_packets_moved(self) -> int:
        """Total coupler-slot usages across the run."""
        return int(self.pay_coupler.shape[0])

    @property
    def total_packets_received(self) -> int:
        """Total (processor, packet) receptions across the run."""
        return int(self.del_receiver.shape[0])

    def packets_moved(self, slot: int) -> int:
        """Number of couplers that carried a packet in ``slot``."""
        return int(self.pay_ptr[slot + 1] - self.pay_ptr[slot])

    def packets_received(self, slot: int) -> int:
        """Number of (processor, packet) receptions in ``slot``."""
        return int(self.del_ptr[slot + 1] - self.del_ptr[slot])

    def packets_moved_per_slot(self) -> list[int]:
        """Packets moved in each slot, in execution order."""
        return np.diff(self.pay_ptr).tolist()

    def packets_received_per_slot(self) -> list[int]:
        """Packets received in each slot, in execution order."""
        return np.diff(self.del_ptr).tolist()

    def receiver_usage(self) -> dict[int, int]:
        """How many deliveries each processor received across the run."""
        counts = np.bincount(self.del_receiver) if self.del_receiver.size else np.empty(0)
        return {
            int(receiver): int(counts[receiver])
            for receiver in np.flatnonzero(counts)
        }

    def mean_delivery_fanout(self) -> float:
        """Deliveries per coupler usage (1.0 for consuming schedules, up to
        ``d`` when multi-reader couplers fan copies out)."""
        moved = self.total_packets_moved
        if moved == 0:
            return 0.0
        return self.total_packets_received / moved

    def coupler_usage_counts(self) -> np.ndarray:
        """Per-coupler busy-slot counts as a dense ``g * g`` array.

        Index ``cid`` corresponds to ``Coupler(cid // g, cid % g)``.
        """
        return np.bincount(self.pay_coupler, minlength=self.g * self.g)

    def coupler_usage(self) -> dict[Coupler, int]:
        """How many slots each coupler carried a packet for."""
        counts = self.coupler_usage_counts()
        g = self.g
        return {
            Coupler(int(cid) // g, int(cid) % g): int(counts[cid])
            for cid in np.flatnonzero(counts)
        }

    def max_coupler_usage(self) -> int:
        """The busiest coupler's number of used slots (0 for an empty trace)."""
        if self.pay_coupler.shape[0] == 0:
            return 0
        return int(self.coupler_usage_counts().max())

    def mean_coupler_utilisation(self, n_couplers: int) -> float:
        """Average fraction of couplers busy per slot."""
        if self.n_slots == 0 or n_couplers == 0:
            return 0.0
        return self.total_packets_moved / (self.n_slots * n_couplers)

    # -- escape hatch to the dict representation -----------------------------

    def materialize(self) -> SimulationTrace:
        """Build the dict-based :class:`SimulationTrace` for rendering/debugging."""
        g = self.g
        couplers = [Coupler(cid // g, cid % g) for cid in range(g * g)]
        packets = self.packets
        pay_ptr, del_ptr = self.pay_ptr, self.del_ptr
        trace = SimulationTrace()
        for s in range(self.n_slots):
            payloads = {
                couplers[c]: packets[p]
                for c, p in zip(
                    self.pay_coupler[pay_ptr[s]:pay_ptr[s + 1]],
                    self.pay_packet[pay_ptr[s]:pay_ptr[s + 1]],
                )
            }
            deliveries = [
                (int(r), packets[p])
                for r, p in zip(
                    self.del_receiver[del_ptr[s]:del_ptr[s + 1]],
                    self.del_packet[del_ptr[s]:del_ptr[s + 1]],
                )
            ]
            trace.slots.append(
                SlotTrace(
                    slot_index=s,
                    coupler_payloads=payloads,
                    deliveries=deliveries,
                )
            )
        return trace


@dataclass(eq=False)
class CompiledTraceBatch:
    """Traces of ``B`` compiled schedules sharing one CSR slot structure.

    The trace twin of :class:`~repro.pops.engine.CompiledScheduleBatch`: the
    ``*_ptr`` arrays are shared, the payload/delivery arrays are ``(B, ·)``
    planes (possibly broadcast views).  Aggregate statistics reduce over the
    slot axis *per batch element* without materializing ``B`` trace objects;
    structure-derived quantities (slot counts, per-slot movement counts,
    utilisation) are shared scalars/lists, exactly as the per-trial loop
    would compute them for every element.
    """

    g: int
    n_batch: int
    pay_coupler: np.ndarray
    pay_packet: np.ndarray
    pay_ptr: np.ndarray
    del_receiver: np.ndarray
    del_packet: np.ndarray
    del_ptr: np.ndarray

    __hash__ = None  # mutable container semantics, like SimulationTrace

    # -- structure-shared statistics (identical for every element) -----------

    @property
    def n_slots(self) -> int:
        """Number of slots executed (shared across the batch)."""
        return int(self.pay_ptr.shape[0]) - 1

    @property
    def total_packets_moved(self) -> int:
        """Per-element coupler-slot usages (shared across the batch)."""
        return int(self.pay_coupler.shape[1])

    @property
    def total_packets_received(self) -> int:
        """Per-element (processor, packet) receptions (shared)."""
        return int(self.del_receiver.shape[1])

    def packets_moved_per_slot(self) -> list[int]:
        """Packets moved in each slot, identical for every element."""
        return np.diff(self.pay_ptr).tolist()

    def packets_received_per_slot(self) -> list[int]:
        """Packets received in each slot, identical for every element."""
        return np.diff(self.del_ptr).tolist()

    def mean_coupler_utilisation(self, n_couplers: int) -> float:
        """Average fraction of couplers busy per slot (shared)."""
        if self.n_slots == 0 or n_couplers == 0:
            return 0.0
        return self.total_packets_moved / (self.n_slots * n_couplers)

    # -- per-element reductions ----------------------------------------------

    def coupler_usage_counts(self) -> np.ndarray:
        """Per-coupler busy-slot counts as a ``(B, g * g)`` array."""
        n_couplers = self.g * self.g
        if self.pay_coupler.shape[1] == 0:
            return np.zeros((self.n_batch, n_couplers), dtype=np.int64)
        offsets = np.arange(self.n_batch, dtype=np.int64)[:, None] * n_couplers
        return np.bincount(
            (self.pay_coupler + offsets).ravel(),
            minlength=self.n_batch * n_couplers,
        ).reshape(self.n_batch, n_couplers)

    def max_coupler_usage(self) -> np.ndarray:
        """The busiest coupler's used-slot count per element, shape ``(B,)``."""
        if self.pay_coupler.shape[1] == 0:
            return np.zeros(self.n_batch, dtype=np.int64)
        return self.coupler_usage_counts().max(axis=1)

    # -- escape hatch to per-element traces ----------------------------------

    def element(self, b: int, packets: list[Packet]) -> CompiledTrace:
        """Materialize element ``b`` as a standalone :class:`CompiledTrace`.

        ``packets`` is the element's packet universe (the batch stores no
        per-element packet objects); array fields are zero-copy row views.
        """
        return CompiledTrace(
            g=self.g,
            packets=packets,
            pay_coupler=self.pay_coupler[b],
            pay_packet=self.pay_packet[b],
            pay_ptr=self.pay_ptr,
            del_receiver=self.del_receiver[b],
            del_packet=self.del_packet[b],
            del_ptr=self.del_ptr,
        )
