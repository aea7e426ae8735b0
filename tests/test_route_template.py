"""The per-shape route template and the shape caches behind it.

A route pays only for permutation-dependent work: the arrays that depend on
the shape alone come from bounded, read-only caches
(:func:`repro.routing.permutation_router.route_template`, the fair-distribution
solver's :func:`~repro.routing.fair_distribution.list_system_template` and
the Euler-split kernel's level plan).  These tests pin that a warm cache
changes nothing, that a cached array cannot be written through, and that
every cache stays bounded in entries and in bytes.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.api import Session
from repro.graph import array_coloring
from repro.pops.engine import CompiledScheduleBatch
from repro.routing import fair_distribution
from repro.routing.permutation_router import route_template
from repro.utils.arrayops import array_bytes, repeat_rows

#: Every shape cache a route reads.
SHAPE_CACHES = [
    route_template,
    fair_distribution.list_system_template,
    array_coloring._split_plan,
    array_coloring._cached_arange,
]

#: (d, g) shapes covering the d = 1 plan, the two-slot plan (pad-free and
#: padded), the round plan and an odd-degree peel.
SHAPES = [(32, 32), (64, 16), (16, 64), (1, 8), (12, 64), (5, 2), (3, 3)]

BATCH_FIELDS = [
    field.name
    for field in dataclasses.fields(CompiledScheduleBatch)
    if field.name not in ("network", "n_batch", "n_slots")
]


def _clear_shape_caches() -> None:
    for cache in SHAPE_CACHES:
        cache.cache_clear()


def _stack(d: int, g: int, batch: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([rng.permutation(d * g) for _ in range(batch)]).astype(np.int64)


def _plan(d: int, g: int, images: np.ndarray):
    router = route_template(d, g).routers["euler-array"]
    return router.route_compiled_batch(images)


def _route_all(batch: int):
    """Plans and metrics of every shape, routed in one interleaved pass."""
    session = Session()
    results = []
    for seed, (d, g) in enumerate(SHAPES * 2):
        images = _stack(d, g, batch, seed)
        results.append(
            (_plan(d, g, images), session.route_batch(images, d=d, g=g))
        )
    return results


@pytest.mark.parametrize("batch", [1, 2, 64])
def test_interleaved_shapes_equal_a_cleared_cache(batch):
    warm = _route_all(batch)
    cold = []
    for seed, (d, g) in enumerate(SHAPES * 2):
        _clear_shape_caches()
        images = _stack(d, g, batch, seed)
        cold.append((_plan(d, g, images), Session().route_batch(images, d=d, g=g)))
    for (warm_plan, warm_metrics), (cold_plan, cold_metrics) in zip(warm, cold):
        assert warm_metrics == cold_metrics
        assert warm_plan.n_slots == cold_plan.n_slots
        for name in BATCH_FIELDS:
            warm_array, cold_array = getattr(warm_plan, name), getattr(cold_plan, name)
            assert warm_array.dtype == cold_array.dtype, name
            assert np.array_equal(warm_array, cold_array), name


def _template_arrays(d: int, g: int):
    template = route_template(d, g)
    skeleton = template.skeleton
    yield from (
        template.source, template.source_group, template.group_start,
        skeleton.tx_ptr, skeleton.del_ptr, skeleton.no_idle, skeleton.initial_loc,
    )
    yield from (
        array
        for array in (template.round_positions, template.round_planes, skeleton.packets)
        if array is not None
    )
    yield repeat_rows(skeleton.initial_loc, 3)
    n1, delta1, n2 = g, d, max(d, g)
    shape = fair_distribution.list_system_template(n1, delta1, n2)
    yield from (
        array
        for array in (shape.left_key, shape.pad_key, shape.run)
        if array is not None
    )
    levels, final_bases = array_coloring._split_plan(1, n1 * delta1, n1, delta1)
    yield final_bases
    for level in levels:
        yield from (
            array
            for array in (
                level.offsets, level.pair_starts, level.pair_ends, level.lefts, level.bases,
            )
            if array is not None
        )


@pytest.mark.parametrize("d,g", SHAPES)
def test_template_arrays_are_read_only(d, g):
    arrays = list(_template_arrays(d, g))
    assert arrays
    for array in arrays:
        with pytest.raises(ValueError):
            array[...] = 0


def test_plans_share_read_only_structure():
    batch = _plan(32, 32, _stack(32, 32, 2, 0))
    for name in ("tx_ptr", "del_ptr", "idle_receiver", "initial_loc", "tx_packet"):
        with pytest.raises(ValueError):
            getattr(batch, name)[...] = 0


def test_router_and_engine_are_reused_per_shape():
    template = route_template(8, 4)
    assert route_template(8, 4) is template
    assert route_template(8, 4).routers["euler-array"] is template.routers["euler-array"]
    assert template.routers["konig-array"] is not template.routers["euler-array"]
    assert template.routers["konig-array"].solver.backend == "konig-array"
    assert template.engine.network is template.network


def test_shape_caches_stay_bounded():
    session = Session()
    shapes = [(d, g) for d in range(1, 9) for g in range(1, 7)]
    for d, g in shapes:
        session.route_batch(_stack(d, g, 2, d * 10 + g), d=d, g=g)
    for cache in SHAPE_CACHES:
        info = cache.cache_info()
        assert 0 < info.currsize <= info.maxsize
        assert 0 < info.nbytes <= info.max_bytes
    assert route_template.cache_info().currsize == route_template.cache_info().maxsize


def test_a_shape_over_the_byte_budget_is_not_held():
    _clear_shape_caches()
    route_template(4, 4)
    # POPS(2, 65536) needs 48 bytes per processor, 6 MiB, over the 4 MiB budget.
    large = route_template(2, 65536)
    assert array_bytes(large) > route_template.cache_info().max_bytes
    assert route_template(2, 65536) is not large
    info = route_template.cache_info()
    assert info.currsize == 1
    assert info.nbytes < 1 << 12


def test_a_large_sparse_shape_routes_in_bounded_memory():
    # At d << g the duplicate checks see g² couplers and n1·n2 pairs per row
    # (2**26 here) for only n = 16384 keys; a route must not allocate by the
    # key space, and must leave its shape caches inside their budgets.
    d, g = 2, 8192
    images = _stack(d, g, 1, 0)
    _clear_shape_caches()
    tracemalloc.start()
    try:
        batch = _plan(d, g, images)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.n_slots == 2
    assert peak < 16 << 20
    for cache in SHAPE_CACHES:
        info = cache.cache_info()
        assert info.nbytes <= info.max_bytes


@pytest.mark.parametrize("d,g", [(4, 4), (8, 2), (1, 4)])
def test_an_empty_stack_plans_an_empty_batch(d, g):
    batch = _plan(d, g, np.empty((0, d * g), dtype=np.int64))
    assert batch.n_batch == 0
    assert batch.tx_sender.shape == (0, int(batch.tx_ptr[-1]))
    assert batch.initial_loc.shape == (0, d * g)
