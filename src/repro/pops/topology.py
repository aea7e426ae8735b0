"""Static description of a POPS(d, g) network.

The topology object knows nothing about packets or time; it answers structural
questions only: which group a processor belongs to, which couplers exist, which
couplers a processor can transmit to or receive from, and the aggregate
properties the paper quotes (diameter 1, ``g^2`` couplers, per-slot bandwidth
of at most ``g^2`` packets).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_in_range, check_positive_int

__all__ = ["Coupler", "POPSNetwork"]


@dataclass(frozen=True, order=True)
class Coupler:
    """The optical passive star coupler ``c(dest_group, source_group)``.

    Following the paper's notation, ``c(b, a)`` has all processors of group
    ``a`` as sources and all processors of group ``b`` as destinations.
    """

    dest_group: int
    source_group: int

    def __repr__(self) -> str:
        return f"c({self.dest_group},{self.source_group})"


class POPSNetwork:
    """Structural model of a POPS(d, g) network.

    Parameters
    ----------
    d:
        Number of processors per group (also the coupler fan-in/fan-out).
    g:
        Number of groups.

    Notes
    -----
    Processor ``i`` belongs to group ``group(i) = i // d``; it owns ``g``
    transmitters, one to each coupler ``c(a, group(i))``, and ``g`` receivers,
    one from each coupler ``c(group(i), b)``.
    """

    __slots__ = ("_d", "_g", "__dict__")

    #: Fault specification masking this network, ``None`` for the clean
    #: topology.  Set (as an instance attribute) by
    #: :class:`repro.faults.DegradedNetwork`; it participates in
    #: equality/hashing so a degraded view never aliases the clean network
    #: in schedule caches or ``schedule.network == simulator.network`` checks.
    fault_spec = None

    def __init__(self, d: int, g: int):
        self._d = check_positive_int(d, "d")
        self._g = check_positive_int(g, "g")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_processor_count(cls, n: int, g: int) -> "POPSNetwork":
        """Build a POPS(n/g, g) network; ``g`` must divide ``n``."""
        check_positive_int(n, "n")
        check_positive_int(g, "g")
        if n % g != 0:
            raise ConfigurationError(f"g={g} must divide n={n}")
        return cls(n // g, g)

    # -- scalar properties ----------------------------------------------------

    @property
    def d(self) -> int:
        """Processors per group."""
        return self._d

    @property
    def g(self) -> int:
        """Number of groups."""
        return self._g

    @property
    def n(self) -> int:
        """Total number of processors (``d * g``)."""
        return self._d * self._g

    @property
    def n_couplers(self) -> int:
        """Number of OPS couplers (``g^2``)."""
        return self._g * self._g

    @property
    def diameter(self) -> int:
        """Network diameter in slots (1 for every POPS network with g >= 1)."""
        return 1

    @property
    def max_packets_per_slot(self) -> int:
        """Upper bound on packets moved in one slot (one per coupler)."""
        return self.n_couplers

    @property
    def coupler_fanout(self) -> int:
        """Sources/destinations per coupler (each coupler is a d x d OPS)."""
        return self._d

    @cached_property
    def theorem2_slots(self) -> int:
        """Slots Theorem 2 guarantees for routing any permutation on this network."""
        if self._d == 1:
            return 1
        return 2 * ((self._d + self._g - 1) // self._g)

    # -- indexing ---------------------------------------------------------------

    def group_of(self, processor: int) -> int:
        """Group index of ``processor`` (``⌊processor / d⌋``)."""
        check_in_range(processor, 0, self.n, "processor")
        return processor // self._d

    def local_index(self, processor: int) -> int:
        """Index of ``processor`` within its group (``processor mod d``)."""
        check_in_range(processor, 0, self.n, "processor")
        return processor % self._d

    def processor(self, group: int, local_index: int) -> int:
        """Global index of the ``local_index``-th processor of ``group``."""
        check_in_range(group, 0, self._g, "group")
        check_in_range(local_index, 0, self._d, "local_index")
        return group * self._d + local_index

    def processors_in_group(self, group: int) -> range:
        """The processors of ``group`` as a range."""
        check_in_range(group, 0, self._g, "group")
        return range(group * self._d, (group + 1) * self._d)

    def groups(self) -> range:
        """All group indices."""
        return range(self._g)

    def processors(self) -> range:
        """All processor indices."""
        return range(self.n)

    # -- coupler wiring ------------------------------------------------------------

    def coupler(self, dest_group: int, source_group: int) -> Coupler:
        """The coupler ``c(dest_group, source_group)``."""
        check_in_range(dest_group, 0, self._g, "dest_group")
        check_in_range(source_group, 0, self._g, "source_group")
        return Coupler(dest_group, source_group)

    def couplers(self) -> list[Coupler]:
        """All ``g^2`` couplers, ordered by (dest_group, source_group)."""
        return [
            Coupler(dest, src) for dest in range(self._g) for src in range(self._g)
        ]

    def transmit_couplers(self, processor: int) -> list[Coupler]:
        """Couplers processor ``processor`` can drive (``c(a, group(processor))`` for all a)."""
        source_group = self.group_of(processor)
        return [Coupler(dest, source_group) for dest in range(self._g)]

    def receive_couplers(self, processor: int) -> list[Coupler]:
        """Couplers processor ``processor`` can read (``c(group(processor), b)`` for all b)."""
        dest_group = self.group_of(processor)
        return [Coupler(dest_group, src) for src in range(self._g)]

    def can_transmit(self, processor: int, coupler: Coupler) -> bool:
        """True iff ``processor`` owns a transmitter into ``coupler``."""
        return coupler.source_group == self.group_of(processor)

    def can_receive(self, processor: int, coupler: Coupler) -> bool:
        """True iff ``processor`` owns a receiver from ``coupler``."""
        return coupler.dest_group == self.group_of(processor)

    # -- fault masking -----------------------------------------------------------------

    def coupler_failed(self, coupler: Coupler) -> bool:
        """True iff ``coupler`` is masked by a fault spec (never, when clean)."""
        return False

    def processor_failed(self, processor: int) -> bool:
        """True iff ``processor`` is masked by a fault spec (never, when clean)."""
        return False

    def degrade(self, spec) -> "POPSNetwork":
        """A reduced-capacity view of this network under ``spec``.

        Returns a :class:`repro.faults.DegradedNetwork` — same ``(d, g)``
        shape, but couplers and processors named by the
        :class:`~repro.faults.FaultSpec` are masked out of the wiring
        predicates (``can_transmit``/``can_receive``/``couplers()``/...), so
        schedules validated against the view provably avoid the failed
        hardware.  The view compares unequal to the clean network.
        """
        from repro.faults import DegradedNetwork

        return DegradedNetwork(self, spec)

    # -- dunder ------------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, POPSNetwork):
            return NotImplemented
        return (
            self._d == other._d
            and self._g == other._g
            and self.fault_spec == other.fault_spec
        )

    def __hash__(self) -> int:
        return hash((self._d, self._g, self.fault_spec))

    def __repr__(self) -> str:
        return f"POPSNetwork(d={self._d}, g={self._g})"
