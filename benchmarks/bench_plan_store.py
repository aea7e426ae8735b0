"""Persistent plan-store benchmarks: warm-process plan acquisition at n >= 1024.

The store's reason to exist is that a process pointed at a warm store
acquires a compiled plan with one ``.npz`` read instead of a full route +
lower.  This module measures exactly that boundary: a *cold-memory* cache
backed by a warm :class:`~repro.pops.plan_store.PlanStore` (the situation of
every fresh pool worker, every second CI run, every daemon start) against
the uncached ``route_compiled`` pipeline on the same permutation.

The asserted >= 10x floor compares the disk hit against route + lower on
the object-level ``konig`` router.  The same ratio against ``euler-array`` —
the default and the repository's fastest route construction — is recorded
alongside without a floor: the array router is itself within a small factor
of raw blob I/O, so that ratio is informational, not a gate.

Results are also recorded through the shared ``bench_emit`` fixture, so::

    pytest benchmarks/bench_plan_store.py --json BENCH_store.json

writes the machine-readable perf trajectory artefact.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analysis.metrics import routing_cache_key, routing_cache_key_batch
from repro.obs.stats import best_of as _best_of
from repro.pops.engine import ScheduleCache
from repro.pops.plan_store import PlanStore
from repro.pops.topology import POPSNetwork
from repro.routing.permutation_router import PermutationRouter
from repro.utils.permutations import random_permutation

STORE_SHAPES = [(32, 32), (64, 64)]  # n = 1024 and n = 4096
SHAPE_IDS = [f"n{d * g}" for d, g in STORE_SHAPES]

#: The floor compares against the object-level router.
FLOOR_BACKEND = "konig"

#: The fastest route construction in the repo, recorded floorless.
ARRAY_BACKEND = "euler-array"


def _workload(d: int, g: int):
    network = POPSNetwork(d, g)
    pi = np.asarray(random_permutation(network.n, random.Random(1201)), dtype=np.int64)
    return network, pi


def _primed_store(tmp_path, network, pi, backend):
    """A store holding ``pi``'s compiled plan under ``backend``'s key."""
    router = PermutationRouter(network, backend=backend)
    key = routing_cache_key(backend, network, pi)
    store = PlanStore(tmp_path)
    reference = router.route_compiled(pi)
    assert store.put(key, reference)
    return store, key, router, reference


@pytest.mark.parametrize("d,g", STORE_SHAPES, ids=SHAPE_IDS)
def test_warm_disk_acquisition(benchmark, tmp_path, d, g):
    """Plan acquisition from a warm store through a cold-memory cache."""
    network, pi = _workload(d, g)
    store, key, router, _ = _primed_store(tmp_path, network, pi, FLOOR_BACKEND)

    def acquire():
        # A fresh memory tier each call: this is a new process's first probe.
        cache = ScheduleCache(store=store)
        compiled = cache.get(key)
        assert compiled is not None
        return compiled

    compiled = benchmark(acquire)
    assert compiled.n_slots == router.slots_required()


@pytest.mark.parametrize("d,g,floor", [(32, 32, 10.0), (64, 64, 10.0)], ids=SHAPE_IDS)
def test_warm_acquisition_speedup_floor(bench_emit, tmp_path, d, g, floor):
    """A warm-store disk hit must beat default route+lower >= 10x at n >= 1024.

    The cold side is the uncached ``route_compiled`` pipeline on the default
    router backend (bipartite decomposition, fair distribution, lowering to
    plan arrays — the work every fresh default-configured process used to
    redo); the warm side is ``ScheduleCache.get`` with a cold memory tier
    over a warm :class:`PlanStore` — digest the key, read the blob,
    checksum, rebuild the compiled dataclass.  Both sides are best-of-15
    minima, the same contract as the other benchmark modules; the floor is
    asserted at both n = 1024 and n = 4096 (blob size grows linearly while
    route+lower grows super-linearly, so the ratio improves with n).
    """
    network, pi = _workload(d, g)
    store, key, router, reference = _primed_store(tmp_path, network, pi, FLOOR_BACKEND)

    def cold_route():
        return router.route_compiled(pi)

    def warm_acquire():
        cache = ScheduleCache(store=store)
        compiled = cache.get(key)
        assert compiled is not None
        return compiled

    # Parity first: the acquired plan is the routed plan, array for array.
    loaded = warm_acquire()
    assert loaded.n_slots == reference.n_slots
    assert np.array_equal(loaded.pk_destination, reference.pk_destination)
    assert np.array_equal(loaded.tx_sender, reference.tx_sender)

    t_route = _best_of(cold_route)
    t_disk = _best_of(warm_acquire)
    speedup = t_route / t_disk
    print(
        f"\nn={network.n}: {FLOOR_BACKEND} route+lower {t_route * 1e3:.3f} ms, "
        f"warm disk hit {t_disk * 1e3:.3f} ms, speedup {speedup:.1f}x"
    )
    bench_emit(
        "plan_store_warm_acquisition_vs_route",
        d=d,
        g=g,
        n=network.n,
        backend=FLOOR_BACKEND,
        route_seconds=t_route,
        disk_hit_seconds=t_disk,
        speedup=speedup,
        floor=floor,
    )
    assert speedup >= floor, (
        f"warm-store plan acquisition only {speedup:.1f}x faster than "
        f"{FLOOR_BACKEND} route+lower at n={network.n} (floor is {floor}x)"
    )


@pytest.mark.parametrize("d,g", STORE_SHAPES, ids=SHAPE_IDS)
def test_warm_acquisition_vs_array_router(bench_emit, tmp_path, d, g):
    """Disk hit vs the fastest (array) route construction, recorded floorless."""
    network, pi = _workload(d, g)
    store, key, router, _ = _primed_store(tmp_path, network, pi, ARRAY_BACKEND)

    def cold_route():
        return router.route_compiled(pi)

    def warm_acquire():
        cache = ScheduleCache(store=store)
        compiled = cache.get(key)
        assert compiled is not None
        return compiled

    t_route = _best_of(cold_route)
    t_disk = _best_of(warm_acquire)
    speedup = t_route / t_disk
    print(
        f"\nn={network.n}: {ARRAY_BACKEND} route+lower {t_route * 1e3:.3f} ms, "
        f"warm disk hit {t_disk * 1e3:.3f} ms, speedup {speedup:.1f}x"
    )
    bench_emit(
        "plan_store_warm_acquisition_vs_array_route",
        d=d,
        g=g,
        n=network.n,
        backend=ARRAY_BACKEND,
        route_seconds=t_route,
        disk_hit_seconds=t_disk,
        speedup=speedup,
        floor=None,
    )


def test_warm_batch_acquisition(bench_emit, tmp_path):
    """One blob serving a whole (B, n) megabatch plan, recorded (no floor)."""
    d = g = 32
    n_batch = 64
    network = POPSNetwork(d, g)
    rng = random.Random(1201)
    pis = np.stack(
        [
            np.asarray(random_permutation(network.n, rng), dtype=np.int64)
            for _ in range(n_batch)
        ]
    )
    router = PermutationRouter(network, backend=ARRAY_BACKEND)
    key = routing_cache_key_batch(ARRAY_BACKEND, network, pis)
    store = PlanStore(tmp_path)
    assert store.put(key, router.route_compiled_batch(pis))

    def cold_route():
        return router.route_compiled_batch(pis)

    def warm_acquire():
        cache = ScheduleCache(store=store)
        batch = cache.get(key)
        assert batch is not None
        return batch

    assert warm_acquire().n_batch == n_batch
    t_route = _best_of(cold_route, repeats=8)
    t_disk = _best_of(warm_acquire, repeats=8)
    speedup = t_route / t_disk
    print(
        f"\nn={network.n} B={n_batch}: batch route {t_route * 1e3:.3f} ms, "
        f"warm disk hit {t_disk * 1e3:.3f} ms, speedup {speedup:.1f}x"
    )
    bench_emit(
        "plan_store_warm_batch_acquisition_vs_route",
        d=d,
        g=g,
        n=network.n,
        n_batch=n_batch,
        backend=ARRAY_BACKEND,
        route_seconds=t_route,
        disk_hit_seconds=t_disk,
        speedup=speedup,
        floor=None,
    )
