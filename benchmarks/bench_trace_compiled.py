"""Compiled-trace pipeline benchmarks: numpy reductions vs materialized dicts,
and the compiled-schedule cache.

Vectorized slot *execution* alone still materialised per-slot Python dicts
before any statistic could be read.  This module pins the two wins of keeping
traces compiled end to end:

* analysis-layer statistics (packets moved, coupler usage, utilisation)
  computed as numpy reductions over the CSR arrays must be at least **5x**
  faster than materialising the dict-based trace and reading the same
  statistics, at ``n >= 1024``;
* a second compilation of the same schedule served from the
  :class:`~repro.pops.engine.ScheduleCache` must be at least **10x** faster
  than the first (cold) compilation.

Both floors are asserted wall-clock (best-of-N in one process, like
``bench_one_slot.py``) because they are this PR's acceptance criteria;
typical measured headroom is two orders of magnitude above the floors.
"""

from __future__ import annotations

import random

import pytest

from repro.obs.stats import best_of as _best_of
from repro.pops.engine import BatchedSimulator, ScheduleCache
from repro.pops.topology import POPSNetwork
from repro.routing.permutation_router import PermutationRouter
from repro.utils.permutations import random_permutation

#: (d, g) shapes with n >= 1024, the regime the acceptance criteria quote.
TRACE_SHAPES = [(32, 32), (64, 32)]  # n = 1024 and n = 2048


def _routed_workload(d: int, g: int):
    """A routed random permutation with its compiled schedule and trace."""
    network = POPSNetwork(d, g)
    pi = random_permutation(network.n, random.Random(d * 1000 + g))
    plan = PermutationRouter(network).route(pi)
    engine = BatchedSimulator(network)
    compiled = engine.compile(plan.schedule, plan.packets)
    return network, plan, engine, compiled


def _trace_statistics(trace, n_couplers: int):
    """The analysis-layer statistics both representations must agree on."""
    return (
        trace.total_packets_moved,
        trace.max_coupler_usage(),
        trace.mean_coupler_utilisation(n_couplers),
        trace.packets_moved_per_slot(),
    )


@pytest.mark.parametrize(
    "d,g", TRACE_SHAPES, ids=[f"n{d * g}" for d, g in TRACE_SHAPES]
)
def test_compiled_trace_statistics(benchmark, d, g):
    network, _, engine, compiled = _routed_workload(d, g)
    trace = engine.compiled_trace(compiled)
    stats = benchmark(lambda: _trace_statistics(trace, network.n_couplers))
    # Two-hop routing: every packet crosses exactly two couplers in total.
    assert stats[0] == 2 * network.n


@pytest.mark.parametrize(
    "d,g", TRACE_SHAPES, ids=[f"n{d * g}" for d, g in TRACE_SHAPES]
)
def test_materialized_trace_statistics(benchmark, d, g):
    network, _, engine, compiled = _routed_workload(d, g)
    trace = engine.compiled_trace(compiled)
    stats = benchmark(
        lambda: _trace_statistics(trace.materialize(), network.n_couplers)
    )
    assert stats == _trace_statistics(trace, network.n_couplers)


@pytest.mark.parametrize(
    "d,g", TRACE_SHAPES, ids=[f"n{d * g}" for d, g in TRACE_SHAPES]
)
def test_compiled_statistics_speedup_floor(d, g):
    """Numpy-reduction statistics beat materialize-then-read by >= 5x."""
    network, _, engine, compiled = _routed_workload(d, g)
    trace = engine.compiled_trace(compiled)
    nc = network.n_couplers
    assert _trace_statistics(trace, nc) == _trace_statistics(trace.materialize(), nc)

    t_compiled = _best_of(lambda: _trace_statistics(trace, nc))
    t_materialized = _best_of(lambda: _trace_statistics(trace.materialize(), nc))
    speedup = t_materialized / t_compiled
    print(
        f"\nn={network.n}: compiled stats {t_compiled * 1e6:.1f} us, "
        f"materialized {t_materialized * 1e6:.1f} us, speedup {speedup:.0f}x"
    )
    assert speedup >= 5.0, (
        f"compiled-trace statistics only {speedup:.1f}x faster than "
        f"materialized at n={network.n} (floor is 5x)"
    )


@pytest.mark.parametrize(
    "d,g", TRACE_SHAPES, ids=[f"n{d * g}" for d, g in TRACE_SHAPES]
)
def test_cached_compile_speedup_floor(d, g):
    """A cache-served second compile beats the first cold compile by >= 10x."""
    network, plan, engine, _ = _routed_workload(d, g)
    key = ("bench", d, g)

    def cold_compile():
        cache = ScheduleCache()
        engine.compile(plan.schedule, plan.packets, cache_key=key, cache=cache)

    warm_cache = ScheduleCache()
    engine.compile(plan.schedule, plan.packets, cache_key=key, cache=warm_cache)

    def cached_compile():
        engine.compile(plan.schedule, plan.packets, cache_key=key, cache=warm_cache)

    t_first = _best_of(cold_compile)
    t_second = _best_of(cached_compile)
    speedup = t_first / t_second
    print(
        f"\nn={network.n}: first compile {t_first * 1e3:.2f} ms, "
        f"cached {t_second * 1e6:.1f} us, speedup {speedup:.0f}x"
    )
    assert warm_cache.stats()["hits"] >= 15
    assert speedup >= 10.0, (
        f"cached compile only {speedup:.1f}x faster than cold at "
        f"n={network.n} (floor is 10x)"
    )
