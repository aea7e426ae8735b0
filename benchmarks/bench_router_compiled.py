"""Array-native routing front end benchmarks: plan construction at n >= 1024.

The compiled route pipeline (``PermutationRouter.route_compiled`` with the
``konig-array`` / ``euler-array`` colouring kernels) is this PR's acceptance
surface: at n >= 1024 plan construction — list system, fair distribution,
schedule objects, lowering — dominated route+simulate wall-clock on the
batched engines.  This module measures the pure-Python pipeline (object-level
``route`` followed by ``compile_schedule``) against ``route_compiled`` on the
same permutations and asserts the >= 5x route-construction speedup floor, the
same contract ``bench_one_slot.py`` pins for the batched engine.

It also holds absolute ms-per-route budgets for a B = 1 ``Session.route``
at the ``d < g`` shapes of n = 1024 (16×64, 8×128, 4×256), where Theorem 1
colours the unpadded ``d``-regular core instead of a ``g``-regular padded
graph (see :mod:`repro.routing.fair_distribution`), and at the other two
shapes the repository benchmark's ``single-n1024`` workload routes (32×32,
64×16).

Results are also recorded through the shared ``bench_emit`` fixture, so::

    pytest benchmarks/bench_router_compiled.py --json BENCH_routing.json

writes the machine-readable perf trajectory artefact.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.api import RunConfig, Session
from repro.obs.stats import best_of as _best_of
from repro.pops.engine import BatchedSimulator, compile_schedule
from repro.pops.topology import POPSNetwork
from repro.routing.permutation_router import PermutationRouter
from repro.utils.permutations import random_permutation

ROUTER_SHAPES = [(32, 32), (64, 64)]  # n = 1024 and n = 4096
SHAPE_IDS = [f"n{d * g}" for d, g in ROUTER_SHAPES]

#: The array backend the floor asserts.  ``euler-array`` is the headline
#: kernel (power-of-two d colours by pure Euler splits, no matching);
#: ``konig-array`` is benchmarked alongside without a floor of its own.
FLOOR_BACKEND = "euler-array"

#: Route-construction speedup of ``FLOOR_BACKEND`` over the pure-Python router.
SPEEDUP_FLOOR = 5.0


def _workload(d: int, g: int):
    network = POPSNetwork(d, g)
    pi = random_permutation(network.n, random.Random(1201))
    return network, pi


@pytest.mark.parametrize("d,g", ROUTER_SHAPES, ids=SHAPE_IDS)
def test_route_pure_python(benchmark, d, g):
    """Object pipeline: route to a plan, lower the plan to compiled arrays."""
    network, pi = _workload(d, g)
    router = PermutationRouter(network, backend="konig")

    def run():
        plan = router.route(pi)
        return compile_schedule(network, plan.schedule, plan.packets)

    compiled = benchmark(run)
    assert compiled.n_slots == router.slots_required()


@pytest.mark.parametrize("backend", ["konig-array", "euler-array"])
@pytest.mark.parametrize("d,g", ROUTER_SHAPES, ids=SHAPE_IDS)
def test_route_compiled_array_backend(benchmark, d, g, backend):
    """Array pipeline: permutation straight to compiled-schedule arrays."""
    network, pi = _workload(d, g)
    router = PermutationRouter(network, backend=backend)
    compiled = benchmark(lambda: router.route_compiled(pi))
    assert compiled.n_slots == router.slots_required()


@pytest.mark.parametrize("d,g", ROUTER_SHAPES, ids=SHAPE_IDS)
def test_route_compiled_speedup_floor(bench_emit, d, g):
    """Route construction must beat the pure-Python router >= 5x at n >= 1024.

    Both sides produce the *same* artefact — the compiled-schedule arrays the
    batched engine executes — from the same permutation, with verification on
    (the router's default): the pure-Python side solves the fair distribution
    on dict structures, builds ``n`` packets plus ``2n`` transmission /
    reception objects and lowers them; the array side never leaves int64
    arrays.  The outputs are bit-identical per backend (pinned by
    ``tests/test_route_compiled.py``), so this measures construction cost
    only.  A wall-clock assertion is deliberate: the speedup floor is this
    PR's acceptance criterion, so it runs by default rather than behind the
    ``slow`` marker (the CI benchmark-smoke step executes it).  Best-of-15
    sampling of both pipelines in the same process keeps the ratio stable
    under machine-wide contention (``BENCH_routing.json`` records 12x at
    n=1024 and 19x at n=4096).
    """
    network, pi = _workload(d, g)
    python_router = PermutationRouter(network, backend="konig")
    array_router = PermutationRouter(network, backend=FLOOR_BACKEND)
    konig_array_router = PermutationRouter(network, backend="konig-array")

    def run_python():
        plan = python_router.route(pi)
        return compile_schedule(network, plan.schedule, plan.packets)

    t_python = _best_of(run_python)
    t_array = _best_of(lambda: array_router.route_compiled(pi))
    t_konig_array = _best_of(lambda: konig_array_router.route_compiled(pi))

    # Sanity: the compiled plan the floor times is a real, delivering plan.
    compiled = array_router.route_compiled(pi)
    engine = BatchedSimulator(network)
    engine.verify_locations(compiled, engine.execute(compiled))

    speedup = t_python / t_array
    print(
        f"\nn={network.n}: pure-python {t_python * 1e3:.3f} ms, "
        f"{FLOOR_BACKEND} {t_array * 1e3:.3f} ms "
        f"(konig-array {t_konig_array * 1e3:.3f} ms), speedup {speedup:.1f}x"
    )
    bench_emit(
        "route_compiled_vs_python_router",
        d=d,
        g=g,
        n=network.n,
        backend=FLOOR_BACKEND,
        python_seconds=t_python,
        array_seconds=t_array,
        konig_array_seconds=t_konig_array,
        speedup=speedup,
        floor=SPEEDUP_FLOOR,
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"array routing front end only {speedup:.1f}x faster than the "
        f"pure-Python router at n={network.n} (floor is {SPEEDUP_FLOOR}x)"
    )


def test_session_route_fast_path_end_to_end(bench_emit):
    """Route+simulate through the Session on the batched engine: the fast
    path keeps metrics identical while skipping per-packet objects."""
    d, g = 32, 32
    network, pi = _workload(d, g)
    reference_session = Session(
        RunConfig(router_backend="konig", sim_backend="reference")
    )
    array_session = Session(
        RunConfig(router_backend=FLOOR_BACKEND, sim_backend="batched")
    )
    t_reference = _best_of(
        lambda: reference_session.route(pi, network=network), repeats=5
    )
    t_array = _best_of(lambda: array_session.route(pi, network=network), repeats=5)
    assert array_session.route(pi, network=network) == reference_session.route(
        pi, network=network
    )
    print(
        f"\nn={network.n} session.route: reference {t_reference * 1e3:.3f} ms, "
        f"array+batched {t_array * 1e3:.3f} ms, speedup {t_reference / t_array:.1f}x"
    )
    bench_emit(
        "session_route_array_vs_reference",
        d=d,
        g=g,
        n=network.n,
        reference_seconds=t_reference,
        array_seconds=t_array,
        speedup=t_reference / t_array,
        floor=None,
    )


#: The ``d < g`` shapes of n = 1024 with ``d | g``: Theorem 1 colours their
#: unpadded d-regular cores.
PAD_FREE_SHAPES = [(16, 64), (8, 128), (4, 256)]

#: Budget of a verified B = 1 ``Session.route`` (``euler-array`` + ``batched``,
#: best of 15 routes) in ms, per shape: ~1.5x the slowest of five runs on a
#: 2-core x86-64 VM, which measured 0.98–1.69 ms (16×64), 0.88–1.51 ms
#: (8×128) and 0.80–1.45 ms (4×256).  Padding the cores to g-regular graphs
#: instead cost 3.7, 16 and 140 ms per route (best of 200) on the same VM.
MS_PER_ROUTE_BUDGET = {(16, 64): 2.5, (8, 128): 2.3, (4, 256): 2.2}


#: Budget of a verified B = 1 ``Session.route`` at 32×32 and 64×16, the
#: ``single-n1024`` shapes without a pad-free budget, by the same rule: ~1.5x
#: the slowest of fifteen best-of-15 runs (three batches of five) on a
#: 2-core x86-64 VM, which measured 0.78–1.41 ms (32×32) and 0.96–1.37 ms
#: (64×16).
SESSION_ROUTE_B1_BUDGET = {(32, 32): 2.1, (64, 16): 2.1}


def _assert_route_budget(bench_emit, name: str, d: int, g: int, budget: float):
    """Time a verified B = 1 ``Session.route`` against ``budget`` ms.

    The full route on the default pair — validation, fair distribution, plan
    assembly, batched execution, delivery check, bounds, metrics — timed
    best of 15 on one permutation.  The measurement retries up to three
    times keeping the fastest, so one noisy-neighbour tick cannot fail the
    build.
    """
    network, pi = _workload(d, g)
    session = Session(RunConfig(router_backend=FLOOR_BACKEND, sim_backend="batched"))
    metrics = session.route(pi, network=network)
    assert metrics.slots == 2 * math.ceil(d / g) and metrics.meets_theorem2_bound

    best = float("inf")
    for _ in range(3):
        best = min(best, _best_of(lambda: session.route(pi, network=network)))
        if best * 1e3 <= budget:
            break
    ms_per_route = best * 1e3
    print(f"\nn={network.n} {d}x{g} session.route: {ms_per_route:.3f} ms (budget {budget} ms)")
    bench_emit(
        name,
        d=d,
        g=g,
        n=network.n,
        backend=FLOOR_BACKEND,
        sim_backend="batched",
        ms_per_route=ms_per_route,
        ms_per_route_budget=budget,
    )
    assert ms_per_route <= budget, (
        f"B = 1 session.route at {d}x{g} took {ms_per_route:.3f} ms "
        f"(budget {budget} ms)"
    )


@pytest.mark.parametrize(
    "d,g", PAD_FREE_SHAPES, ids=[f"d{d}g{g}" for d, g in PAD_FREE_SHAPES]
)
def test_session_route_pad_free_budget(bench_emit, d, g):
    """A B = 1 ``Session.route`` at ``d < g`` must stay within its budget."""
    _assert_route_budget(
        bench_emit, "session_route_pad_free_b1", d, g, MS_PER_ROUTE_BUDGET[d, g]
    )


@pytest.mark.parametrize(
    "d,g", list(SESSION_ROUTE_B1_BUDGET),
    ids=[f"d{d}g{g}" for d, g in SESSION_ROUTE_B1_BUDGET],
)
def test_session_route_b1_budget(bench_emit, d, g):
    """A B = 1 ``Session.route`` at 32×32 and 64×16 must stay within budget."""
    _assert_route_budget(
        bench_emit, "session_route_b1", d, g, SESSION_ROUTE_B1_BUDGET[d, g]
    )
