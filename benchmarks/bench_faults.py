"""Fault-recovery benchmarks: online rerouting must stay cheap and complete.

The fault-tolerance acceptance (ISSUE 10) in measurable form: for a single
failed coupler — the paper-relevant unit failure, one of the ``g^2`` optical
stars going dark — the recovery pipeline (clean Theorem 2 plan, injected
execution up to the failing slot, online reroute of the residual traffic
over the surviving couplers) must

* **deliver every packet** of every trial permutation, verified by the
  batched engine on the degraded network, and
* **cost at most 2x the clean schedule**: ``executed + reroute`` slots
  within twice the slots of the undisturbed plan.

Each (d, g) shape is tried against several distinct single-coupler failures
(couplers the clean plan provably drives after the fault onset, so the
injection always triggers) across several seeded permutations.  The clean
plan that picks the coupler is the one recovery executes: the batch plan of
:data:`BACKEND`, passed to ``route_with_recovery`` explicitly.  Recovery
latency is timed per trial; the per-shape entry records the worst observed
overhead against the asserted cap, so the committed ``BENCH_faults.json``
documents the measured degradation envelope, not just a pass bit.

``Session.route_degraded`` is also timed at n = 1024 and 4096 beside
``Session.route``: with an empty spec it runs the same batch plan as a clean
route, and must cost at most :data:`EMPTY_SPEC_RATIO_BUDGET` times it.

Results are recorded through the shared ``bench_emit`` fixture, so::

    pytest benchmarks/bench_faults.py --json BENCH_faults.json

writes the machine-readable perf artefact CI validates and uploads.
"""

from __future__ import annotations

import random
from time import perf_counter

import pytest

from repro.api import RunConfig, Session
from repro.faults import FaultSpec, route_with_recovery
from repro.pops.topology import POPSNetwork
from repro.routing.permutation_router import route_template
from repro.utils.permutations import random_permutation

#: Shapes under test: square, tall (d > g), and wide (g > d) partitions.
SHAPES = ((8, 4), (6, 3), (4, 8))

#: Seeded permutations per shape.
TRIALS_PER_SHAPE = 3

#: Distinct single-coupler failures tried per permutation.
FAILURES_PER_TRIAL = 2

#: The asserted recovery-cost envelope: total <= OVERHEAD_CAP * clean slots.
OVERHEAD_CAP = 2.0

#: The router backend that both picks the failing coupler and recovers.
BACKEND = RunConfig.router_backend

#: Shapes of the ``Session.route_degraded`` timing rows (n = 1024, 4096).
TIMING_SHAPES = ((32, 32), (64, 64))

#: An empty-spec ``route_degraded`` costs at most this times ``Session.route``.
EMPTY_SPEC_RATIO_BUDGET = 2.0


def _single_coupler_specs(network, pi, limit: int) -> list[FaultSpec]:
    """Fault specs for couplers :data:`BACKEND`'s clean plan drives at slot >= 1.

    Choosing driven couplers (after the onset) makes every injection
    actually trigger mid-flight, so the benchmark always measures the
    recovery path rather than a clean pass-through.  A coupler id is
    ``dest_group * g + source_group``, in first-driven order.
    """
    plan = route_template(network.d, network.g).router(BACKEND).route_compiled_batch([pi])
    driven = dict.fromkeys(plan.pay_coupler[0, plan.pay_ptr[1]:].tolist())
    return [
        FaultSpec(failed_couplers=(divmod(cid, network.g),), onset_slot=1)
        for cid in list(driven)[:limit]
    ]


@pytest.mark.parametrize("shape", SHAPES, ids=[f"d{d}_g{g}" for d, g in SHAPES])
def test_single_coupler_recovery_envelope(shape, bench_emit):
    """Every single-coupler failure recovers fully within 2x clean slots."""
    d, g = shape
    network = POPSNetwork(d, g)
    worst_ratio = 0.0
    worst_total = 0
    clean_slots = None
    recovery_seconds = []
    trials = 0
    for trial in range(TRIALS_PER_SHAPE):
        pi = random_permutation(network.n, random.Random(2002 + trial))
        for spec in _single_coupler_specs(network, pi, FAILURES_PER_TRIAL):
            t0 = perf_counter()
            report = route_with_recovery(network, pi, spec, router_backend=BACKEND)
            recovery_seconds.append(perf_counter() - t0)
            trials += 1
            assert report.fault_triggered, (
                f"{spec.describe()} never tripped the clean plan"
            )
            assert report.delivered, (
                f"recovery lost packets under {spec.describe()}"
            )
            assert report.total_slots <= OVERHEAD_CAP * report.clean_slots, (
                f"recovery cost {report.total_slots} slots vs clean "
                f"{report.clean_slots} under {spec.describe()}"
            )
            clean_slots = report.clean_slots
            ratio = report.total_slots / report.clean_slots
            if ratio > worst_ratio:
                worst_ratio = ratio
                worst_total = report.total_slots
    bench_emit(
        name=f"fault_recovery_single_coupler_d{d}_g{g}",
        d=d,
        g=g,
        n=network.n,
        trials=trials,
        delivered_all=True,
        clean_slots=clean_slots,
        worst_total_slots=worst_total,
        worst_overhead_vs_clean=round(worst_ratio, 4),
        overhead_cap=OVERHEAD_CAP,
        mean_recovery_seconds=sum(recovery_seconds) / len(recovery_seconds),
    )
    print(
        f"\nfault recovery d={d} g={g}: {trials} single-coupler failures, "
        f"worst {worst_total}/{clean_slots} slots "
        f"(x{worst_ratio:.2f}, cap x{OVERHEAD_CAP})"
    )


def test_untriggered_fault_costs_nothing(bench_emit):
    """A fault outside the schedule window must not change the slot count."""
    d, g = 8, 4
    network = POPSNetwork(d, g)
    pi = random_permutation(network.n, random.Random(2002))
    spec = FaultSpec(failed_couplers=((1, 1),), onset_slot=10_000)
    report = route_with_recovery(network, pi, spec, router_backend=BACKEND)
    assert not report.fault_triggered
    assert report.delivered
    assert report.total_slots == report.clean_slots
    bench_emit(
        name="fault_recovery_untriggered_is_free",
        d=d,
        g=g,
        n=network.n,
        clean_slots=report.clean_slots,
        total_slots=report.total_slots,
        overhead_ratio=report.overhead_ratio,
    )


@pytest.mark.parametrize("shape", TIMING_SHAPES, ids=[f"n{d * g}" for d, g in TIMING_SHAPES])
def test_route_degraded_latency(shape, bench_emit):
    """``route_degraded`` ms with no fault and with one driven coupler failing at slot 1.

    The three calls are timed in interleaved rounds over the same seeded
    permutations (best round, ms per call), so host noise hits them alike.
    """
    d, g = shape
    network = POPSNetwork(d, g)
    session = Session(RunConfig(router_backend=BACKEND))
    pis = [random_permutation(network.n, random.Random(2002 + k)) for k in range(4)]
    specs = [_single_coupler_specs(network, pi, 1)[0] for pi in pis]
    calls = {
        "route": lambda pi, spec: session.route(pi, network=network),
        "empty_spec": lambda pi, spec: session.route_degraded(
            pi, network=network, faults=FaultSpec()
        ),
        "one_coupler": lambda pi, spec: session.route_degraded(
            pi, network=network, faults=spec
        ),
    }
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(5):
        for name, call in calls.items():
            t0 = perf_counter()
            for pi, spec in zip(pis, specs):
                call(pi, spec)
            best[name] = min(best[name], (perf_counter() - t0) / len(pis))
    reports = [
        session.route_degraded(pi, network=network, faults=spec)
        for pi, spec in zip(pis, specs)
    ]
    assert all(report.fault_triggered and report.delivered for report in reports)
    ms = {name: seconds * 1e3 for name, seconds in best.items()}
    ratio = ms["empty_spec"] / ms["route"]
    bench_emit(
        name=f"route_degraded_ms_d{d}_g{g}",
        d=d,
        g=g,
        n=network.n,
        backend=BACKEND,
        route_ms=ms["route"],
        empty_spec_ms=ms["empty_spec"],
        one_coupler_onset1_ms=ms["one_coupler"],
        one_coupler_worst_total_slots=max(report.total_slots for report in reports),
        clean_slots=reports[0].clean_slots,
        empty_spec_over_route=round(ratio, 4),
        empty_spec_over_route_budget=EMPTY_SPEC_RATIO_BUDGET,
    )
    print(
        f"\nroute_degraded d={d} g={g}: route {ms['route']:.3f} ms, empty spec "
        f"{ms['empty_spec']:.3f} ms (x{ratio:.2f}, budget x{EMPTY_SPEC_RATIO_BUDGET}), "
        f"one coupler at slot 1 {ms['one_coupler']:.3f} ms"
    )
    assert ratio <= EMPTY_SPEC_RATIO_BUDGET
