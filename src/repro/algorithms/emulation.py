"""Hypercube and mesh emulation layers (the simulations of [Sahni 2000b]).

Section 2 of the paper recalls that a POPS(d, g) network with ``n = dg``
processors can simulate each communication step of an ``n``-processor SIMD
hypercube, or of an ``N x N`` wraparound mesh with ``N² = n``, in
``2⌈d/g⌉`` slots (one slot when ``d = 1``).  Theorem 2 makes this immediate —
every such step is a permutation — and additionally shows the result does not
depend on how the simulated machine's processors are mapped onto the POPS
processors.  The emulators below expose exactly those step permutations
(optionally composed with an arbitrary one-to-one mapping) and route them with
the universal router, tracking slot usage per step.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.algorithms.exchange import PermutationEngine
from repro.exceptions import ValidationError
from repro.patterns.families import (
    hypercube_exchange,
    mesh_column_shift,
    mesh_row_shift,
)
from repro.pops.topology import POPSNetwork
from repro.utils.bitops import bit_length_exact, is_power_of_two
from repro.utils.permutations import compose, invert
from repro.utils.validation import check_permutation

__all__ = ["HypercubeEmulator", "MeshEmulator"]


class _MappedEmulator:
    """Shared machinery: route step permutations through an embedding.

    ``mapping[v]`` is the POPS processor hosting logical processor ``v``.  A
    logical step permutation ``σ`` becomes the POPS permutation
    ``mapping ∘ σ ∘ mapping⁻¹``, which Theorem 2 routes in the same number of
    slots regardless of the chosen mapping — the "somewhat surprising"
    consequence highlighted at the end of the paper's Section 2.  Steps run
    on the default ``Session()`` pair.
    """

    def __init__(
        self,
        network: POPSNetwork,
        mapping: Sequence[int] | None = None,
    ):
        self.network = network
        self.mapping = (
            list(range(network.n))
            if mapping is None
            else check_permutation(mapping, network.n)
        )
        self._inverse_mapping = invert(self.mapping)
        self.engine = PermutationEngine(network)

    def physical_permutation(self, logical_step: Sequence[int]) -> list[int]:
        """Translate a logical step permutation into the POPS permutation."""
        # physical = mapping ∘ logical ∘ mapping⁻¹
        return compose(self.mapping, compose(list(logical_step), self._inverse_mapping))

    def run_step(self, values: list[Any], logical_step: Sequence[int]) -> list[Any]:
        """Execute one logical step on logically-indexed ``values``.

        ``values[v]`` is the value held by logical processor ``v``; the return
        value uses the same logical indexing, while the data movement happens
        on the POPS network through the embedding.
        """
        physical_values = [values[self._inverse_mapping[p]] for p in range(self.network.n)]
        moved = self.engine.permute(physical_values, self.physical_permutation(logical_step))
        return [moved[self.mapping[v]] for v in range(self.network.n)]

    @property
    def slots_used(self) -> int:
        """Total POPS slots consumed by the steps executed so far."""
        return self.engine.slots_used

    @property
    def slots_per_step(self) -> int:
        """Slots Theorem 2 guarantees for every emulated step."""
        return self.network.theorem2_slots


class HypercubeEmulator(_MappedEmulator):
    """Emulates an ``n``-processor SIMD hypercube on POPS(d, g) with ``n = dg``.

    The processor count must be a power of two.  ``mapping`` is an arbitrary
    one-to-one placement of hypercube processors onto POPS processors (identity
    by default).
    """

    def __init__(
        self,
        network: POPSNetwork,
        mapping: Sequence[int] | None = None,
    ):
        if not is_power_of_two(network.n):
            raise ValidationError(
                f"a hypercube needs a power-of-two processor count, got {network.n}"
            )
        super().__init__(network, mapping)
        self.dimensions = bit_length_exact(network.n)

    def exchange_permutation(self, bit: int) -> list[int]:
        """The POPS permutation realising the dimension-``bit`` exchange."""
        return self.physical_permutation(hypercube_exchange(self.network.n, bit))

    def exchange(self, values: list[Any], bit: int) -> list[Any]:
        """Send every logical processor's value to its dimension-``bit`` neighbour."""
        return self.run_step(values, hypercube_exchange(self.network.n, bit))


class MeshEmulator(_MappedEmulator):
    """Emulates an ``N x N`` SIMD wraparound mesh on POPS(d, g) with ``N² = dg``.

    Logical mesh cell ``(i, j)`` is logical processor ``i + j·N`` (the paper's
    mapping); physical placement is again an arbitrary bijection.
    """

    def __init__(
        self,
        network: POPSNetwork,
        mapping: Sequence[int] | None = None,
    ):
        side = int(round(network.n ** 0.5))
        if side * side != network.n:
            raise ValidationError(
                f"a square mesh needs a square processor count, got {network.n}"
            )
        super().__init__(network, mapping)
        self.side = side

    def shift_permutation(self, axis: str, offset: int = 1) -> list[int]:
        """The POPS permutation for a ``row``/``column`` shift by ``offset``."""
        if axis == "row":
            logical = mesh_row_shift(self.side, offset)
        elif axis == "column":
            logical = mesh_column_shift(self.side, offset)
        else:
            raise ValidationError(f"axis must be 'row' or 'column', got {axis!r}")
        return self.physical_permutation(logical)

    def shift(self, values: list[Any], axis: str, offset: int = 1) -> list[Any]:
        """Shift logical values along rows or columns of the mesh."""
        if axis == "row":
            logical = mesh_row_shift(self.side, offset)
        elif axis == "column":
            logical = mesh_column_shift(self.side, offset)
        else:
            raise ValidationError(f"axis must be 'row' or 'column', got {axis!r}")
        return self.run_step(values, logical)
