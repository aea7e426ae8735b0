"""Correctness checks on every routing result the benchmark receives.

The checks are written from the paper's statements, not from the program's
code: Theorem 2's slot count, the Proposition 1-3 lower bounds, and the two
hops every packet makes.  A sampled subset of results is also compared field
by field with an independent arbiter (the object-level ``euler`` router on
the ``reference`` simulator) or, for served results, with a local
``Session.route`` on the fast path.
"""

from __future__ import annotations

from math import ceil
from typing import Any

import numpy as np


def theorem2_slots(d: int, g: int) -> int:
    """Slots Theorem 2 promises on POPS(d, g): 1 if d == 1 else 2*ceil(d/g)."""
    return 1 if d == 1 else 2 * ceil(d / g)


def lower_bound(pi: np.ndarray, d: int, g: int) -> int:
    """The best Proposition 1-3 lower bound for ``pi`` (0 for the identity)."""
    n = d * g
    src = np.arange(n)
    moving = pi != src
    if not moving.any():
        return 0
    bound = 1
    if moving.all():
        bound = max(bound, ceil(d / g))
    if d > 1:
        dest_group = (pi // d).reshape(g, d)
        blocked = bool((dest_group == dest_group[:, :1]).all())
        if blocked and bool((dest_group != (src // d).reshape(g, d)).all()):
            bound = max(bound, 2 * ceil(d / g))
        if blocked and moving.all():
            bound = max(bound, 2 * ceil(d / (1 + g)))
    return bound


def problems(fields: dict[str, Any], pi: np.ndarray, d: int, g: int) -> list[str]:
    """Everything wrong with one routing result (``RoutingMetrics.to_dict()``).

    An empty list means the result is correct: the promised ``2*ceil(d/g)``
    slots, the true lower bound, every packet moved exactly once per hop,
    and a utilisation consistent with those counts.
    """
    n = d * g
    found = []
    if (fields["d"], fields["g"], fields["n"]) != (d, g, n):
        found.append(f"shape {fields['d']}x{fields['g']}/{fields['n']}, expected {d}x{g}/{n}")
    slots = theorem2_slots(d, g)
    if fields["slots"] != slots or fields["theorem2_bound"] != slots:
        found.append(
            f"slots {fields['slots']} / bound {fields['theorem2_bound']}, Theorem 2 promises {slots}"
        )
    expected_lb = lower_bound(pi, d, g)
    if fields["lower_bound"] != expected_lb:
        found.append(f"lower bound {fields['lower_bound']}, Propositions 1-3 give {expected_lb}")
    moves = n if d == 1 else 2 * n
    if fields["couplers_used_total"] != moves:
        found.append(f"{fields['couplers_used_total']} packet moves, expected {moves}")
    utilisation = moves / (slots * g * g)
    if abs(fields["mean_coupler_utilisation"] - utilisation) > 1e-12:
        found.append(
            f"utilisation {fields['mean_coupler_utilisation']}, expected {utilisation}"
        )
    return found


def slots_over_bound(fields: dict[str, Any]) -> float | None:
    """Slots over the best lower bound, or ``None`` when no bound applies."""
    return fields["slots"] / fields["lower_bound"] if fields["lower_bound"] else None


def corrupted(fields: dict[str, Any]) -> dict[str, Any]:
    """A deliberately wrong copy of a result (one slot too many)."""
    return {**fields, "slots": fields["slots"] + 1}
