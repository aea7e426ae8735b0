"""Routing metrics: slot counts, bound ratios, coupler utilisation.

These helpers wrap "route the permutation, simulate the schedule, verify
delivery, and summarise" into one call, so experiments never accidentally
report slot counts of schedules that were not actually validated end to end.

The supported entry point is :meth:`repro.api.session.Session.route`.  (The
``measure_routing`` free function deprecated in 1.1 was removed in 1.2, per
the one-release timeline.)
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.obs import get_tracer
from repro.pops.engine import BatchedSimulator
from repro.pops.simulator import POPSSimulator
from repro.pops.topology import POPSNetwork
from repro.routing.lower_bounds import (
    best_known_lower_bound,
    best_known_lower_bound_stack,
)
from repro.routing.permutation_router import (
    PermutationRouter,
    theorem2_slot_bound,
)
from repro.utils.validation import check_permutation_stack

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pops.engine import ScheduleCache

__all__ = [
    "RoutingMetrics",
    "routing_cache_key",
    "routing_cache_key_batch",
    "slots_vs_bound",
    "coupler_utilisation",
]


@dataclass(frozen=True)
class RoutingMetrics:
    """Summary of one verified permutation routing."""

    d: int
    g: int
    n: int
    slots: int
    theorem2_bound: int
    lower_bound: int
    couplers_used_total: int
    mean_coupler_utilisation: float

    @property
    def meets_theorem2_bound(self) -> bool:
        """True iff the measured slot count equals Theorem 2's guarantee."""
        return self.slots == self.theorem2_bound

    @property
    def optimality_ratio(self) -> float:
        """Measured slots divided by the best applicable lower bound (inf if no bound)."""
        if self.lower_bound == 0:
            return float("inf")
        return self.slots / self.lower_bound

    def to_dict(self) -> dict[str, Any]:
        """All fields plus the derived properties, as a JSON-ready dict.

        An infinite ``optimality_ratio`` (no applicable lower bound) encodes
        as ``None`` — strict JSON has no ``Infinity``.
        """
        from repro.api.serialize import to_jsonable

        ratio = self.optimality_ratio
        return {
            "d": self.d,
            "g": self.g,
            "n": self.n,
            "slots": self.slots,
            "theorem2_bound": self.theorem2_bound,
            "lower_bound": self.lower_bound,
            "couplers_used_total": to_jsonable(self.couplers_used_total),
            "mean_coupler_utilisation": to_jsonable(self.mean_coupler_utilisation),
            "meets_theorem2_bound": self.meets_theorem2_bound,
            "optimality_ratio": to_jsonable(ratio),
        }


def routing_cache_key(
    backend: str, network: POPSNetwork, pi: Sequence[int]
) -> tuple[str, int, int, bytes]:
    """Compiled-schedule cache key for routing ``pi`` on ``network``.

    Sound because the router is deterministic: ``(backend, d, g,
    permutation)`` fully determines the schedule.  The permutation is folded
    into a 16-byte blake2b digest rather than stored as an n-length tuple, so
    keys stay small even at n in the tens of thousands.

    This tuple is also the *persistent* identity of a compiled plan: the
    on-disk :class:`~repro.pops.plan_store.PlanStore` addresses its blobs by
    a digest of exactly this key (see
    :func:`repro.pops.plan_store.plan_key_digest`), so its stability across
    processes, platforms and Python versions is part of the contract —
    changing its shape invalidates every warm store and requires a
    ``STORE_SCHEMA_VERSION`` bump.
    """
    digest = hashlib.blake2b(
        np.asarray(pi, dtype=np.int64).tobytes(), digest_size=16
    ).digest()
    return (backend, network.d, network.g, digest)


def routing_cache_key_batch(
    backend: str, network: POPSNetwork, pis
) -> tuple[str, int, int, str, int, bytes]:
    """Compiled-batch cache key for routing a ``(B, n)`` permutation stack.

    The digest covers the whole stack in order, so two batches share an entry
    only when they contain the same permutations in the same positions.  The
    ``"batch"`` tag and the batch size keep the key space disjoint from
    :func:`routing_cache_key` — ``(1, n)`` and ``(n,)`` arrays have identical
    bytes, and a ``CompiledScheduleBatch`` must never be returned where a
    ``CompiledSchedule`` is expected.  Like the single-permutation key, this
    tuple doubles as the plan's persistent identity in the on-disk
    :class:`~repro.pops.plan_store.PlanStore`; the same stability contract
    applies.
    """
    stack = np.ascontiguousarray(np.asarray(pis, dtype=np.int64))
    digest = hashlib.blake2b(stack.tobytes(), digest_size=16).digest()
    return (backend, network.d, network.g, "batch", stack.shape[0], digest)


def _measure_routing_batch(
    network: POPSNetwork,
    pis,
    *,
    router_backend: str,
    sim_backend: str,
    verify: bool = True,
    use_cache: bool = True,
    cache: ScheduleCache | None = None,
    validate: bool = True,
) -> list[RoutingMetrics]:
    """Route a ``(B, n)`` permutation stack; simulate, verify and summarise.

    The one routing pipeline: :meth:`repro.api.session.Session.route` is its
    ``(1, n)`` case and :meth:`~repro.api.session.Session.route_batch` the
    general one.  On the batched/auto engines the stack takes the megabatch
    path — one batched route, execution, verification, compiled trace and
    bound reduction — with the plan memoised in ``cache`` (the process-wide
    cache when ``None``) under :func:`routing_cache_key_batch`.  Other engines
    measure each row on the object pipeline (:func:`_measure_routing`, the
    arbiter).  Entry ``b`` is equal, field types included, whichever path ran.

    ``d < g`` stacks are routed as ``(1, n)`` slices: the batched plan builders
    pad every element's round structure to the worst case, and the whole stack
    loses at shapes like 8×128 (0.36–0.41x the speed of per-row routing for
    B = 8 and 64 on a 2-core x86-64 VM).
    ``validate=False`` skips the stack check for callers that already hold
    the validated int64 image stack.
    """
    images = check_permutation_stack(pis, network.n) if validate else pis
    with get_tracer().span(
        "session.route", d=network.d, g=network.g, n=network.n,
        batch=int(images.shape[0]),
    ) as span:
        if sim_backend not in ("batched", "auto"):
            return [
                _measure_routing(
                    network, row.tolist(), span, router_backend, verify,
                    sim_backend, use_cache, cache,
                )
                for row in images
            ]
        if network.d >= network.g:
            return _route_stack(
                network, images, span, router_backend, verify, use_cache, cache
            )
        return [
            _route_stack(
                network, images[b:b + 1], span, router_backend, verify,
                use_cache, cache,
            )[0]
            for b in range(images.shape[0])
        ]


def _route_stack(
    network: POPSNetwork,
    images: np.ndarray,
    span,
    router_backend: str,
    verify: bool,
    use_cache: bool,
    cache: ScheduleCache | None,
) -> list[RoutingMetrics]:
    """The megabatch path of :func:`_measure_routing_batch`: one stack, as stages of ``span``."""
    span.stage = "route.setup"
    router = PermutationRouter(network, backend=router_backend, verify=verify)
    cache_key = (
        routing_cache_key_batch(router_backend, network, images)
        if use_cache
        else None
    )
    engine = BatchedSimulator(network)
    span.stage = "route.compile"
    batch = router.route_compiled_batch(
        images, cache_key=cache_key, cache=cache, validate=False
    )
    span.stage = "engine.execute"
    locations = engine.execute_batch(batch)
    engine.verify_locations_batch(batch, locations)
    span.stage = "metrics.bounds"
    lower = best_known_lower_bound_stack(network, images, validate=False)
    bound = theorem2_slot_bound(network.d, network.g)
    span.stage = "metrics.summarise"
    trace = engine.compiled_trace_batch(batch)
    utilisation = trace.mean_coupler_utilisation(network.n_couplers)
    return [
        RoutingMetrics(
            d=network.d,
            g=network.g,
            n=network.n,
            slots=batch.n_slots,
            theorem2_bound=bound,
            lower_bound=int(lower[b]),
            couplers_used_total=trace.total_packets_moved,
            mean_coupler_utilisation=utilisation,
        )
        for b in range(batch.n_batch)
    ]


def _measure_routing(
    network: POPSNetwork,
    pi: Sequence[int],
    span,
    router_backend: str,
    verify: bool,
    sim_backend: str,
    use_cache: bool,
    cache: ScheduleCache | None,
) -> RoutingMetrics:
    """Route ``pi`` on the object pipeline, simulate, verify, and summarise.

    The arbiter path of :func:`_measure_routing_batch`, taken for every
    engine except batched/auto: the router builds per-packet schedule objects
    and ``sim_backend`` (any name registered in
    :data:`repro.api.registry.SIM_ENGINES`) executes them.  With
    ``use_cache``, engines other than ``reference`` — which has no compile
    step — memoise their compiled schedule in ``cache`` under
    :func:`routing_cache_key`, sound because the router is deterministic.
    Its steps are timed as stages of ``span``, the ``session.route`` span.
    """
    span.stage = "route.setup"
    router = PermutationRouter(network, backend=router_backend, verify=verify)
    simulator = POPSSimulator(network, backend=sim_backend)
    span.stage = "route.compile"
    plan = router.route(pi)
    span.stage = "engine.execute"
    cache_key = (
        routing_cache_key(router_backend, network, plan.permutation)
        if use_cache and sim_backend != "reference"
        else None
    )
    result = simulator.route_and_verify(
        plan.schedule, plan.packets, cache_key=cache_key, cache=cache
    )
    span.stage = "metrics.bounds"
    bound = theorem2_slot_bound(network.d, network.g)
    lower = best_known_lower_bound(network, plan.permutation)
    span.stage = "metrics.summarise"
    return RoutingMetrics(
        d=network.d,
        g=network.g,
        n=network.n,
        slots=plan.n_slots,
        theorem2_bound=bound,
        lower_bound=lower,
        couplers_used_total=result.trace.total_packets_moved,
        mean_coupler_utilisation=result.trace.mean_coupler_utilisation(
            network.n_couplers
        ),
    )


def slots_vs_bound(network: POPSNetwork, slots: int) -> float:
    """Ratio of measured slots to Theorem 2's bound for ``network``."""
    return slots / theorem2_slot_bound(network.d, network.g)


def coupler_utilisation(network: POPSNetwork, pi: Sequence[int], backend: str = "konig") -> float:
    """Mean fraction of couplers busy per slot for the routed permutation."""
    (metrics,) = _measure_routing_batch(
        network, [pi], router_backend=backend, sim_backend="reference"
    )
    return metrics.mean_coupler_utilisation
