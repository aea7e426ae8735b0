"""Routing metrics: slot counts, bounds and coupler utilisation.

These helpers wrap "route the permutation, simulate the schedule, verify
delivery, and summarise" into one call, so experiments never accidentally
report slot counts of schedules that were not actually validated end to end.

The supported entry point is :meth:`repro.api.session.Session.route`.  (The
``measure_routing`` free function deprecated in 1.1 was removed in 1.2, per
the one-release timeline.)
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.obs import get_tracer
from repro.pops.simulator import POPSSimulator
from repro.pops.topology import POPSNetwork
from repro.routing.lower_bounds import (
    best_known_lower_bound,
    best_known_lower_bound_stack,
)
from repro.routing.permutation_router import (
    PermutationRouter,
    route_template,
    theorem2_slot_bound,
)
from repro.utils.validation import check_permutation_stack

__all__ = ["RoutingMetrics"]


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


def _measure_routing_batch(
    network: POPSNetwork,
    pis,
    *,
    router_backend: str,
    sim_backend: str,
    validate: bool = True,
) -> list[RoutingMetrics]:
    """Route a ``(B, n)`` permutation stack; simulate, verify and summarise.

    The one routing pipeline: :meth:`repro.api.session.Session.route` is its
    ``(1, n)`` case and :meth:`~repro.api.session.Session.route_batch` the
    general one.  The engine alone picks the path: ``batched`` routes the
    whole stack through :func:`_route_stack` — one batched route, execution,
    verification, compiled trace and bound reduction, at every shape and for
    every router backend; every other engine measures each row on the object
    pipeline (:func:`_measure_routing`, the arbiter).  The backend decides
    only the colouring, inside the fair-distribution solver, which also
    decides how many rows a colouring call takes
    (:meth:`~repro.routing.fair_distribution.FairDistributionSolver.
    solve_array_batch`).  No plan is cached; only shape arrays
    (:func:`~repro.routing.permutation_router.route_template`): routed traffic almost
    never repeats a permutation stack, so cached plans would only hold
    memory.
    Entry ``b`` is equal, field types included, whichever path ran, and an
    empty ``(0, n)`` stack returns ``[]`` on every pair.

    ``validate=False`` skips the stack check for callers that already hold
    the validated int64 image stack.
    """
    images = check_permutation_stack(pis, network.n) if validate else pis
    if not images.shape[0]:
        return []
    with get_tracer().span(
        "session.route", d=network.d, g=network.g, n=network.n,
        batch=int(images.shape[0]),
    ) as span:
        if sim_backend == "batched":
            return _route_stack(network, images, span, router_backend)
        return [
            _measure_routing(network, row.tolist(), span, router_backend, sim_backend)
            for row in images
        ]


def _route_stack(
    network: POPSNetwork,
    images: np.ndarray,
    span,
    router_backend: str,
) -> list[RoutingMetrics]:
    """The megabatch path of :func:`_measure_routing_batch`: one stack, as stages of ``span``."""
    span.stage = "route.setup"
    template = route_template(network.d, network.g)
    engine = template.engine
    span.stage = "route.compile"
    batch = template.router(router_backend).route_compiled_batch(images, validate=False)
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
    sim_backend: str,
) -> RoutingMetrics:
    """Route ``pi`` on the object pipeline, simulate, verify, and summarise.

    The arbiter path of :func:`_measure_routing_batch`, taken for every
    engine except ``batched``: the router builds per-packet schedule objects
    and ``sim_backend`` (any name registered in
    :data:`repro.api.registry.SIM_ENGINES`) executes them.
    Its steps are timed as stages of ``span``, the ``session.route`` span.
    """
    span.stage = "route.setup"
    router = PermutationRouter(network, backend=router_backend)
    simulator = POPSSimulator(network, backend=sim_backend)
    span.stage = "route.compile"
    plan = router.route(pi)
    span.stage = "engine.execute"
    result = simulator.route_and_verify(plan.schedule, plan.packets)
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
