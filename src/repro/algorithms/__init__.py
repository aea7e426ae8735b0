"""Collective algorithms built on top of the permutation router.

The paper motivates universal permutation routing by the catalogue of
algorithms previously designed pattern-by-pattern for the POPS network
(broadcast, data sum, prefix sum, matrix operations, hypercube and mesh
simulation — [Gravenstreter & Melhem 1998], [Sahni 2000a, 2000b]).  This
package re-creates that catalogue using the universal router as the only
communication primitive, demonstrating the unification claim end-to-end: every
collective below is executed on the slot-accurate simulator, not merely
counted.
"""

from repro.algorithms.broadcast import one_to_all_broadcast, execute_broadcast
from repro.algorithms.exchange import permute_values, PermutationEngine
from repro.algorithms.reduction import hypercube_allreduce, data_sum
from repro.algorithms.prefix_sum import hypercube_prefix_sum
from repro.algorithms.matrix import (
    distributed_transpose,
    cannon_matrix_multiply,
)
from repro.algorithms.emulation import HypercubeEmulator, MeshEmulator
from repro.algorithms.alltoall import all_to_all_personalized, gather, scatter
from repro.algorithms.window import adjacent_sum, circular_shift, consecutive_sum

__all__ = [
    "all_to_all_personalized",
    "gather",
    "scatter",
    "adjacent_sum",
    "circular_shift",
    "consecutive_sum",
    "one_to_all_broadcast",
    "execute_broadcast",
    "permute_values",
    "PermutationEngine",
    "hypercube_allreduce",
    "data_sum",
    "hypercube_prefix_sum",
    "distributed_transpose",
    "cannon_matrix_multiply",
    "HypercubeEmulator",
    "MeshEmulator",
]
