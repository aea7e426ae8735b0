"""Lower bounds on permutation routing (Propositions 1–3).

The paper complements Theorem 2 with three lower bounds:

* **Proposition 1** — if ``π(i) != i`` for all ``i`` (a derangement), at least
  ``⌈d/g⌉`` slots are needed, because every one of the ``n`` packets must move
  and at most ``g²`` packets move per slot.
* **Proposition 2** — if additionally ``group(i) != group(π(i))`` for all ``i``
  and the permutation is *group-blocked* (processors of one group all map into
  a single group), ``2⌈d/g⌉`` slots are needed, so Theorem 2 is optimal on that
  class (vector reversal with even ``g`` is the canonical example).
* **Proposition 3** — for fixed-point-free group-blocked permutations that may
  keep some groups in place, at least ``2⌈d/(1+g)⌉`` slots are needed.

This module provides the classification predicates and the numeric bounds; the
benchmark ``bench_lower_bounds`` compares them with the slots the router
actually uses.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import ceil

import numpy as np

from repro.pops.topology import POPSNetwork
from repro.routing.permutation_router import route_template
from repro.utils.permutations import is_derangement
from repro.utils.validation import (
    check_permutation,
    check_permutation_array,
    check_permutation_stack,
)

__all__ = [
    "is_group_moving",
    "is_group_blocked",
    "proposition1_lower_bound",
    "proposition2_lower_bound",
    "proposition3_lower_bound",
    "best_known_lower_bound",
    "best_known_lower_bound_stack",
]


def is_group_moving(network: POPSNetwork, pi: Sequence[int]) -> bool:
    """True iff every packet changes group: ``group(i) != group(π(i))`` for all ``i``."""
    images = check_permutation(pi, network.n)
    return all(
        network.group_of(i) != network.group_of(images[i]) for i in range(network.n)
    )


def is_group_blocked(network: POPSNetwork, pi: Sequence[int]) -> bool:
    """True iff processors of a group all map into a single destination group.

    This is the hypothesis ``group(i) = group(j) ⇒ group(π(i)) = group(π(j))``
    of Propositions 2 and 3.
    """
    images = check_permutation(pi, network.n)
    for group in network.groups():
        processors = network.processors_in_group(group)
        dest_groups = {network.group_of(images[p]) for p in processors}
        if len(dest_groups) != 1:
            return False
    return True


def proposition1_lower_bound(network: POPSNetwork, pi: Sequence[int]) -> int | None:
    """Lower bound ``⌈d/g⌉`` of Proposition 1, or ``None`` if ``pi`` has a fixed point."""
    images = check_permutation(pi, network.n)
    if not is_derangement(images):
        return None
    return ceil(network.d / network.g)


def proposition2_lower_bound(network: POPSNetwork, pi: Sequence[int]) -> int | None:
    """Lower bound ``2⌈d/g⌉`` of Proposition 2, or ``None`` if the hypotheses fail.

    Hypotheses: every packet changes group, and the permutation is
    group-blocked.  The counting argument additionally requires ``d > 1``
    (with a single processor per group every packet can be delivered directly
    in one slot, matching Theorem 2's ``d = 1`` case), so the bound is not
    applied to ``d = 1`` networks.
    """
    images = check_permutation(pi, network.n)
    if network.d == 1:
        return None
    if not (is_group_moving(network, images) and is_group_blocked(network, images)):
        return None
    return 2 * ceil(network.d / network.g)


def proposition3_lower_bound(network: POPSNetwork, pi: Sequence[int]) -> int | None:
    """Lower bound ``2⌈d/(1+g)⌉`` of Proposition 3, or ``None`` if the hypotheses fail.

    Hypotheses: ``π`` is a derangement and group-blocked (packets may stay in
    their own group, unlike Proposition 2).  As with Proposition 2 the
    argument requires ``d > 1``.
    """
    images = check_permutation(pi, network.n)
    if network.d == 1:
        return None
    if not (is_derangement(images) and is_group_blocked(network, images)):
        return None
    return 2 * ceil(network.d / (1 + network.g))


def best_known_lower_bound(network: POPSNetwork, pi: Sequence[int]) -> int:
    """The tightest applicable bound among Propositions 1–3 (0 when none applies).

    The B = 1 row of :func:`best_known_lower_bound_stack`.
    """
    images = check_permutation_array(pi, network.n)
    return int(best_known_lower_bound_stack(network, images[None], validate=False)[0])


def best_known_lower_bound_stack(
    network: POPSNetwork, pis, *, validate: bool = True
) -> np.ndarray:
    """The tightest Proposition 1–3 bound of every row of a ``(B, n)`` stack.

    Returns a ``(B,)`` int64 array: the maximum over the applicable scalar
    ``proposition1/2/3_lower_bound`` predicates (the reference, pinned
    exhaustively in the tests) and, for a non-identity permutation, 1 — it
    always needs at least one slot; 0 when nothing applies.  The predicates
    become axis reductions over the stack.  ``validate=False`` skips the
    permutation-stack check for callers that already hold the validated int64
    image stack.
    """
    images = (
        check_permutation_stack(pis, network.n)
        if validate
        else np.asarray(pis, dtype=np.int64)
    )
    d, g = network.d, network.g
    template = route_template(d, g)
    moving = images != template.source
    nonidentity = moving.any(axis=1)
    derangement = moving.all(axis=1)
    dest_group = images // d
    group_moving = (dest_group != template.source_group).all(axis=1)
    blocks = dest_group.reshape(-1, g, d)
    group_blocked = (blocks == blocks[:, :, :1]).all(axis=(1, 2))
    bounds = nonidentity.astype(np.int64)
    np.maximum(bounds, derangement * ceil(d / g), out=bounds)
    if d > 1:
        np.maximum(bounds, (group_moving & group_blocked) * (2 * ceil(d / g)), out=bounds)
        np.maximum(
            bounds, (derangement & group_blocked) * (2 * ceil(d / (1 + g))), out=bounds
        )
    return bounds
