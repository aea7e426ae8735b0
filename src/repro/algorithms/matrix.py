"""Distributed matrix operations on the POPS network.

[Sahni 2000a] studies matrix transpose and matrix multiplication on
POPS(d, g).  Both are reproduced here on top of the universal router:

* :func:`distributed_transpose` — the matrix transpose permutation executed
  either with the universal router (``2⌈d/g⌉`` slots) or with the direct
  single-hop baseline, which achieves the ``⌈d/g⌉`` slots Sahni proves optimal
  when the traffic is balanced.
* :func:`cannon_matrix_multiply` — Cannon's algorithm on the conceptual
  ``m × m`` processor mesh (one element of each operand per processor), with
  every mesh shift realised as a POPS permutation routing.  This exercises the
  router on ``O(m)`` distinct permutations per multiply and checks the result
  against a local reference product.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.exchange import PermutationEngine
from repro.api.session import Session
from repro.exceptions import ValidationError
from repro.patterns.families import matrix_transpose_permutation
from repro.pops.packet import Packet
from repro.pops.topology import POPSNetwork
from repro.routing.baselines.direct import DirectRouter

__all__ = ["distributed_transpose", "cannon_matrix_multiply"]


def distributed_transpose(
    network: POPSNetwork,
    matrix: np.ndarray,
    method: str = "router",
    session: Session | None = None,
) -> tuple[np.ndarray, int]:
    """Transpose a square matrix stored one element per processor (row-major).

    Parameters
    ----------
    network:
        POPS network with ``n = m^2`` processors for an ``m x m`` matrix.
    matrix:
        The matrix to transpose; ``matrix.size`` must equal ``network.n``.
    method:
        ``"router"`` uses the universal two-hop router; ``"direct"`` uses the
        single-hop baseline (optimal for the transpose's balanced traffic).
    session:
        Session supplying the router backend and the simulator engine of
        either method; defaults to ``Session()``.

    Returns
    -------
    (transposed, slots_used)
    """
    m = int(round(network.n ** 0.5))
    if m * m != network.n:
        raise ValidationError(
            f"distributed transpose needs a square processor count, got {network.n}"
        )
    data = np.asarray(matrix)
    if data.shape != (m, m):
        raise ValidationError(f"matrix must be {m}x{m}, got {data.shape}")
    values = [data[i // m, i % m] for i in range(network.n)]
    pi = matrix_transpose_permutation(m)

    if session is None:
        session = Session()
    if method == "router":
        engine = PermutationEngine(network, session=session)
        new_values = engine.permute(values, pi)
        slots = engine.slots_used
    elif method == "direct":
        router = DirectRouter(network)
        schedule = router.route(pi)
        packets = [
            Packet(source=i, destination=pi[i], payload=values[i])
            for i in range(network.n)
        ]
        result = session.simulate(schedule, packets, verify=True)
        new_values = [result.packets_at(p)[0].payload for p in network.processors()]
        slots = schedule.n_slots
    else:
        raise ValidationError(f"unknown transpose method {method!r}")

    transposed = np.array(new_values, dtype=data.dtype).reshape(m, m)
    return transposed, slots


def _cannon_skew_rows(m: int, inverse: bool = False) -> list[int]:
    """Permutation skewing row ``r`` left by ``r`` positions (or back)."""
    pi = [0] * (m * m)
    for r in range(m):
        for c in range(m):
            shift = -r if not inverse else r
            pi[r * m + c] = r * m + ((c + shift) % m)
    return pi


def _cannon_skew_cols(m: int, inverse: bool = False) -> list[int]:
    """Permutation skewing column ``c`` up by ``c`` positions (or back)."""
    pi = [0] * (m * m)
    for r in range(m):
        for c in range(m):
            shift = -c if not inverse else c
            pi[r * m + c] = ((r + shift) % m) * m + c
    return pi


def _shift_rows_left(m: int) -> list[int]:
    """Permutation shifting every element one column to the left (wraparound)."""
    return [r * m + ((c - 1) % m) for r in range(m) for c in range(m)]


def _shift_cols_up(m: int) -> list[int]:
    """Permutation shifting every element one row up (wraparound)."""
    return [((r - 1) % m) * m + c for r in range(m) for c in range(m)]


def cannon_matrix_multiply(
    network: POPSNetwork,
    a: np.ndarray,
    b: np.ndarray,
    session: Session | None = None,
) -> tuple[np.ndarray, int]:
    """Multiply two ``m x m`` matrices with Cannon's algorithm on POPS(d, g).

    Each processor holds one element of ``A`` and one of ``B``; the initial
    skews and the ``m - 1`` shift steps are all permutations routed by the
    universal router, and each processor accumulates its local product.
    The permutations run through ``session`` (default: ``Session()``).

    Returns
    -------
    (product, slots_used)
        ``product`` equals ``a @ b``; ``slots_used`` counts every slot of every
        routed permutation.
    """
    m = int(round(network.n ** 0.5))
    if m * m != network.n:
        raise ValidationError(
            f"Cannon's algorithm needs a square processor count, got {network.n}"
        )
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (m, m) or b.shape != (m, m):
        raise ValidationError(f"operands must be {m}x{m}, got {a.shape} and {b.shape}")

    engine = PermutationEngine(network, session=session)
    a_values: list[float] = [a[i // m, i % m] for i in range(network.n)]
    b_values: list[float] = [b[i // m, i % m] for i in range(network.n)]
    accumulator = [0.0] * network.n

    # Initial alignment: row r of A shifts left by r, column c of B shifts up by c.
    a_values = engine.permute(a_values, _cannon_skew_rows(m))
    b_values = engine.permute(b_values, _cannon_skew_cols(m))

    for step in range(m):
        for i in range(network.n):
            accumulator[i] += a_values[i] * b_values[i]
        if step == m - 1:
            break
        a_values = engine.permute(a_values, _shift_rows_left(m))
        b_values = engine.permute(b_values, _shift_cols_up(m))

    product = np.array(accumulator).reshape(m, m)
    return product, engine.slots_used
