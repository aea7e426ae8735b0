"""Megabatch sweep benchmarks: route→simulate over ``(B, n)`` permutation stacks.

The batch-axis refactor makes the sweep loop a single pipeline invocation:
``Session.route_batch`` lowers a whole ``(B, n)`` permutation stack onto one
shared CSR slot structure, executes every element in one batched engine pass,
and computes lower bounds as stack reductions.  This module asserts an
absolute budget in ms per route for that megabatch path at n = 1024,
B = 64.  Its ratio to a loop of ``Session.route`` calls (1.6–2.6x) is
recorded without a floor: a route is the B = 1 row of the same pipeline,
so the ratio says how much batching amortises, not whether either path is
fast.

Results are also recorded through the shared ``bench_emit`` fixture, so::

    pytest benchmarks/bench_sweep.py --json BENCH_sweep.json

writes the machine-readable perf trajectory artefact.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analysis.metrics import routing_cache_key_batch
from repro.api import RunConfig, Session
from repro.obs.stats import interleaved_minima
from repro.pops.engine import BatchedSimulator, ScheduleCache
from repro.pops.topology import POPSNetwork
from repro.routing.permutation_router import PermutationRouter, theorem2_slot_bound
from repro.utils.permutations import random_permutation

#: Both shapes sit at the floor's n = 1024: the square d = g case (two-slot
#: plans) and the d > g case (round plans with 2⌈d/g⌉ slots).
SWEEP_SHAPES = [(32, 32), (64, 16)]
SHAPE_IDS = [f"d{d}g{g}" for d, g in SWEEP_SHAPES]

#: Stack height of every measured megabatch.
BATCH = 64

#: The array backend every benchmark here routes with (the default, and the
#: headline kernel of ``bench_router_compiled.py``).
BACKEND = "euler-array"


def _workload(d: int, g: int, n_batch: int = BATCH):
    network = POPSNetwork(d, g)
    rng = random.Random(1201)
    pis = np.stack(
        [
            np.asarray(random_permutation(network.n, rng), dtype=np.int64)
            for _ in range(n_batch)
        ]
    )
    return network, pis


@pytest.mark.parametrize("d,g", SWEEP_SHAPES, ids=SHAPE_IDS)
def test_sweep_megabatch(benchmark, d, g):
    """Megabatch pipeline: one stack in, every element routed and verified."""
    network, pis = _workload(d, g)
    router = PermutationRouter(network, backend=BACKEND)
    engine = BatchedSimulator(network)

    def run():
        batch = router.route_compiled_batch(pis)
        engine.verify_locations_batch(batch, engine.execute_batch(batch))
        return batch

    batch = benchmark(run)
    assert batch.n_slots == theorem2_slot_bound(d, g)


@pytest.mark.parametrize("d,g", SWEEP_SHAPES, ids=SHAPE_IDS)
def test_sweep_per_trial(benchmark, d, g):
    """The loop the megabatch path replaced: route and verify one at a time."""
    network, pis = _workload(d, g)
    router = PermutationRouter(network, backend=BACKEND)
    engine = BatchedSimulator(network)

    def run():
        for b in range(pis.shape[0]):
            compiled = router.route_compiled(pis[b])
            engine.verify_locations(compiled, engine.execute(compiled))

    benchmark(run)


@pytest.mark.parametrize("d,g", SWEEP_SHAPES, ids=SHAPE_IDS)
def test_route_compiled_batch_cache(benchmark, d, g):
    """A re-swept stack served from the batch-level plan cache."""
    network, pis = _workload(d, g)
    cache = ScheduleCache()
    router = PermutationRouter(network, backend=BACKEND)
    key = routing_cache_key_batch(BACKEND, network, pis)
    router.route_compiled_batch(pis, cache_key=key, cache=cache)  # prime
    batch = benchmark(
        lambda: router.route_compiled_batch(pis, cache_key=key, cache=cache)
    )
    assert batch.n_batch == BATCH
    assert cache.stats()["hits"] >= 1


#: Budget of the B = 64 megabatch in ms per route, per shape.  Twelve runs on
#: a 2-core x86-64 VM measured 0.50–0.79 ms (32x32, median 0.62) and
#: 0.73–1.01 ms (64x16, median 0.96); each budget is ~1.5x the slowest run.
MS_PER_ROUTE_BUDGET = {(32, 32): 1.2, (64, 16): 1.5}


@pytest.mark.parametrize("d,g", SWEEP_SHAPES, ids=SHAPE_IDS)
def test_megabatch_sweep_budget(bench_emit, d, g):
    """``Session.route_batch`` at B = 64 must stay within its ms-per-route budget.

    Both sides run the full sweep pipeline the Theorem 2 experiment uses —
    validation, ``euler-array`` routing, batched execution, delivery
    verification, lower bounds, metrics — over the same 64 permutations of
    n = 1024, cache off: one ``route_batch`` call against 64 ``Session.route``
    calls, whose outputs are asserted equal.  The ratio between them is
    recorded with ``floor=None``.  The measurement interleaves both sides,
    takes best-of minima, and retries up to three times keeping the fastest
    batch, so one noisy-neighbour tick cannot fail the build.
    """
    network, pis = _workload(d, g)
    trials = [pis[b].tolist() for b in range(pis.shape[0])]
    # Cache off so the measurement is the uncached end-to-end sweep (the
    # batch-level cache path is timed separately above).
    config = RunConfig(
        router_backend=BACKEND, sim_backend="batched", cache_policy="off"
    )
    loop_session = Session(config)
    batch_session = Session(config)

    assert batch_session.route_batch(pis, network=network) == [
        loop_session.route(pi, network=network) for pi in trials
    ]

    def run_loop():
        for pi in trials:
            loop_session.route(pi, network=network)

    def run_batch():
        batch_session.route_batch(pis, network=network)

    budget = MS_PER_ROUTE_BUDGET[d, g]
    best_loop, best_batch = float("inf"), float("inf")
    for _ in range(3):
        t_loop, t_batch = interleaved_minima(run_loop, run_batch)
        best_loop, best_batch = min(best_loop, t_loop), min(best_batch, t_batch)
        if best_batch / pis.shape[0] * 1e3 <= budget:
            break

    ms_per_route = best_batch / pis.shape[0] * 1e3
    best_speedup = best_loop / best_batch
    loop_routes = pis.shape[0] / best_loop
    batch_routes = pis.shape[0] / best_batch
    print(
        f"\nn={network.n} B={pis.shape[0]}: per-trial {best_loop * 1e3:.3f} ms "
        f"({loop_routes:.0f} routes/s), megabatch {best_batch * 1e3:.3f} ms "
        f"({batch_routes:.0f} routes/s, {ms_per_route:.3f} ms/route), "
        f"speedup {best_speedup:.1f}x"
    )
    bench_emit(
        "megabatch_sweep_vs_per_trial",
        d=d,
        g=g,
        n=network.n,
        n_batch=pis.shape[0],
        backend=BACKEND,
        per_trial_seconds=best_loop,
        batch_seconds=best_batch,
        per_trial_routes_per_second=loop_routes,
        batch_routes_per_second=batch_routes,
        batch_ms_per_route=ms_per_route,
        batch_ms_per_route_budget=budget,
        speedup=best_speedup,
        floor=None,
    )
    assert ms_per_route <= budget, (
        f"megabatch sweep took {ms_per_route:.3f} ms per route at "
        f"n={network.n}, B={pis.shape[0]} (budget {budget} ms)"
    )
