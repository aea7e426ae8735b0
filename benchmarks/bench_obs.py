"""Observability overhead benchmarks: instrumentation must be nearly free.

The span tracer sits on the hottest path in the repo — every
``Session.route`` runs through its instrumented stages — so its cost
contract is part of the observability layer's acceptance:

* **Enabled** tracing (a real :class:`repro.obs.Tracer` collecting spans)
  must keep a warm n = 1024 route within ~5% of the uninstrumented floor,
  asserted as a ``disabled/enabled >= 0.95`` speedup ratio measured
  interleaved (both sides see the same machine-wide contention profile).
* **Disabled** tracing (the :data:`repro.obs.NULL_TRACER` default) must be
  indistinguishable: the measured no-op cost of each instrumentation point
  times the points a route runs must stay under 1% of the route itself.  A
  route runs two kinds: ``with`` spans, and stage boundaries that cut a span
  into back-to-back stages (one attribute store each).
* The ``--profile`` tree built from one warm route's spans must cover
  >= 95% of the traced wall time (nothing significant left uninstrumented).

Results are recorded through the shared ``bench_emit`` fixture, so::

    pytest benchmarks/bench_obs.py --json BENCH_obs.json

writes the machine-readable perf artefact CI validates and uploads.
"""

from __future__ import annotations

import random
from time import perf_counter_ns

import numpy as np

from repro.api import RunConfig, Session
from repro.obs import NULL_TRACER, Tracer, profile_dict, set_tracer
from repro.obs.stats import interleaved_minima
from repro.pops.topology import POPSNetwork
from repro.utils.permutations import random_permutation

#: The acceptance shape: a warm n = 1024 route on the batched fast path.
D = G = 32

#: Enabled-tracing floor: disabled/enabled >= 0.95 (~5% overhead budget).
ENABLED_FLOOR = 0.95

#: Disabled-tracing budget: no-op instrumentation <= 1% of the warm route.
DISABLED_BUDGET_PCT = 1.0

#: Stage coverage the profile tree must reach on a warm route.
COVERAGE_FLOOR_PCT = 95.0


def _warm_session() -> tuple[Session, np.ndarray, POPSNetwork]:
    """A session with the benchmark permutation's plan already cached."""
    network = POPSNetwork(D, G)
    pi = np.asarray(
        random_permutation(network.n, random.Random(2002)), dtype=np.int64
    )
    session = Session(
        RunConfig(router_backend="euler-array", sim_backend="batched")
    )
    session.route(pi, network=network)  # prime the schedule cache
    return session, pi, network


def _null_span_cost_ns(loops: int = 20_000, repeats: int = 5) -> float:
    """Best-of cost of one disabled (no-op) span enter/exit, in nanoseconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter_ns()
        for _ in range(loops):
            with NULL_TRACER.span("x"):
                pass
        best = min(best, perf_counter_ns() - t0)
    return best / loops


def _null_stage_cost_ns(loops: int = 20_000, repeats: int = 5) -> float:
    """Best-of cost of one disabled (no-op) stage boundary, in nanoseconds."""
    best = float("inf")
    with NULL_TRACER.span("x") as span:
        for _ in range(repeats):
            t0 = perf_counter_ns()
            for _ in range(loops):
                span.stage = "x"
            best = min(best, perf_counter_ns() - t0)
    return best / loops


class _CountingTracer(Tracer):
    """A tracer that also counts the ``with`` spans opened."""

    def __init__(self):
        super().__init__()
        self.span_calls = 0

    def span(self, name, **attrs):
        self.span_calls += 1
        return super().span(name, **attrs)


def test_tracer_overhead_floors(bench_emit):
    """Enabled tracing within 5% of the floor; disabled tracing within 1%."""
    session, pi, network = _warm_session()

    def run_disabled():
        session.route(pi, network=network)

    tracer = Tracer()

    def run_enabled():
        previous = set_tracer(tracer)
        try:
            session.route(pi, network=network)
        finally:
            set_tracer(previous)
        tracer.clear()

    # One traced route tells us how many spans the instrumentation records
    # (needed for the disabled-path budget below) and pins the profile
    # coverage acceptance while we are at it.
    set_tracer(tracer)
    try:
        session.route(pi, network=network)
    finally:
        set_tracer(None)
    spans = tracer.finished()
    tracer.clear()
    spans_per_route = len(spans)
    # Of those, ``with`` spans record one span each; the rest are stages.
    counter = _CountingTracer()
    set_tracer(counter)
    try:
        session.route(pi, network=network)
    finally:
        set_tracer(None)
    contexts_per_route = counter.span_calls
    boundaries_per_route = spans_per_route - contexts_per_route
    assert spans_per_route >= 5, "route instrumentation went missing"
    profile = profile_dict(spans)
    assert profile["coverage_pct"] >= COVERAGE_FLOOR_PCT, (
        f"profile stages cover only {profile['coverage_pct']:.1f}% of the "
        f"warm route (floor {COVERAGE_FLOOR_PCT}%)"
    )

    # Enabled-vs-disabled, interleaved best-of, retried keeping the best
    # ratio: the steady state sits near 1.0x, far from the 0.95 floor, but
    # CI noise must not fail the build on one unlucky attempt.
    best_disabled, best_enabled, best_speedup = float("inf"), float("inf"), 0.0
    for _ in range(3):
        t_disabled, t_enabled = interleaved_minima(
            run_disabled, run_enabled, rounds=10, batch_reps=1
        )
        speedup = t_disabled / t_enabled
        if speedup > best_speedup:
            best_disabled, best_enabled, best_speedup = (
                t_disabled, t_enabled, speedup
            )
        if best_speedup >= ENABLED_FLOOR:
            break

    # Disabled-path budget: per-point no-op costs scaled to a whole route.
    null_cost_ns = _null_span_cost_ns()
    null_stage_cost_ns = _null_stage_cost_ns()
    disabled_ns = (
        contexts_per_route * null_cost_ns
        + boundaries_per_route * null_stage_cost_ns
    )
    disabled_overhead_pct = disabled_ns / (best_disabled * 1e9) * 100.0

    print(
        f"\nn={network.n} warm route: disabled {best_disabled * 1e3:.3f} ms, "
        f"enabled {best_enabled * 1e3:.3f} ms (ratio {best_speedup:.3f}), "
        f"{spans_per_route} spans/route ({contexts_per_route} with-blocks, "
        f"{boundaries_per_route} stage boundaries), no-op span "
        f"{null_cost_ns:.0f} ns, no-op boundary {null_stage_cost_ns:.0f} ns "
        f"({disabled_overhead_pct:.3f}% of the route), "
        f"profile coverage {profile['coverage_pct']:.1f}%"
    )
    bench_emit(
        "tracer_overhead_warm_route",
        d=D,
        g=G,
        n=network.n,
        disabled_seconds=best_disabled,
        enabled_seconds=best_enabled,
        speedup=best_speedup,
        floor=ENABLED_FLOOR,
        spans_per_route=spans_per_route,
        with_blocks_per_route=contexts_per_route,
        stage_boundaries_per_route=boundaries_per_route,
        null_span_cost_ns=null_cost_ns,
        null_stage_cost_ns=null_stage_cost_ns,
        disabled_overhead_pct=disabled_overhead_pct,
        disabled_budget_pct=DISABLED_BUDGET_PCT,
        profile_coverage_pct=profile["coverage_pct"],
        coverage_floor_pct=COVERAGE_FLOOR_PCT,
    )
    assert best_speedup >= ENABLED_FLOOR, (
        f"tracing-enabled route is {1 / best_speedup:.3f}x the uninstrumented "
        f"floor (ratio {best_speedup:.3f}, floor {ENABLED_FLOOR})"
    )
    assert disabled_overhead_pct <= DISABLED_BUDGET_PCT, (
        f"disabled tracer costs {disabled_overhead_pct:.3f}% of a warm route "
        f"(budget {DISABLED_BUDGET_PCT}%)"
    )
