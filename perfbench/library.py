"""The library workload: one closed-loop caller on ``Session.route``, fresh
uniform permutations drawn from the seed, round-robin over the shapes."""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from common import (
    SETUP_REPEATS, TAIL, Tally, Workload, fast_session, peak_rss_mb, percentile_ms, throughput,
    timed_setup,
)


class LibraryRun:
    """One library workload against one warm fast-path session."""

    def __init__(self, spec: Workload, rng: np.random.Generator, tally: Tally):
        self.spec = spec
        self.rng = rng
        self.tally = tally
        self.session = fast_session()
        self.calls = 0
        self.samples: dict[tuple[int, int], tuple[np.ndarray, dict]] = {}
        self.by_shape: dict[tuple[int, int], list[float]] = {shape: [] for shape in spec.shapes}

    def warm_up(self) -> None:
        """Route for ``warmup_s``, unrecorded, until lazy imports and caches settle."""
        self.loop(self.spec.warmup_s, record=False)

    def loop(self, seconds: float, record: bool = True) -> tuple[int, float]:
        """Closed loop for ``seconds``; returns ``(routes, busy seconds)``.

        With ``record`` the call latencies go to the tally and every result
        is checked.
        """
        shapes = self.spec.shapes
        routes = 0
        busy = 0.0
        deadline = time.perf_counter() + seconds
        while True:
            d, g = shapes[self.calls % len(shapes)]
            self.calls += 1
            pi = self.rng.permutation(d * g)
            t0 = time.perf_counter()
            try:
                metrics = self.session.route(pi, d=d, g=g)
            except Exception as exc:  # a failed route is counted, not fatal
                self.tally.error(f"{d}x{g}: {type(exc).__name__}: {exc}")
                metrics = None
            elapsed = time.perf_counter() - t0
            if metrics is not None and record:
                busy += elapsed
                routes += 1
                self.tally.latencies.append(elapsed)
                self.by_shape[d, g].append(elapsed)
                fields = metrics.to_dict()
                self.tally.record(fields, pi, d, g)
                self.samples.setdefault((d, g), (pi, fields))
            if time.perf_counter() >= deadline:
                return routes, busy

    def arbitrate(self) -> None:
        """Re-route one sampled result per shape on the independent arbiter.

        The object-level ``euler`` router on the ``reference`` simulator shares
        no kernel with the fast path; its metrics must match field by field.
        """
        from repro.api import RunConfig, Session

        arbiter = Session(RunConfig(router_backend="euler", sim_backend="reference"))
        for (d, g), (pi, fields) in sorted(self.samples.items()):
            expected = arbiter.route(pi, d=d, g=g).to_dict()
            if expected != fields:
                self.tally.failed += 1
                self.tally.note(f"{d}x{g}: fast path {fields} != arbiter {expected}")


def setup_seconds(root: Path, spec: Workload, seed: int) -> float:
    """Best fresh-interpreter set-up: import, ``Session`` and first route."""
    d, g = spec.shapes[0]
    argv = ["perfbench/setup_probe.py", str(d), str(g), str(seed)]
    return min(timed_setup(root, argv) for _ in range(SETUP_REPEATS))


def timed(root: Path, spec: Workload, seed: int, seconds: float, tally: Tally) -> dict:
    """The untraced run: every end-to-end metric of a library workload."""
    setup_s = setup_seconds(root, spec, seed)
    run = LibraryRun(spec, np.random.default_rng(seed), tally)
    run.warm_up()
    run.loop(seconds)
    run.arbitrate()
    # Latency percentiles per shape, averaged: the shapes' costs differ by 2x,
    # and a percentile of the mixture falls between their modes, where a
    # small shift of one mode moves it a lot.
    shapes = run.by_shape.values()
    return {
        "setup_s": setup_s,
        "routes_per_s": throughput(tally.latencies),
        "latency_p50_ms": statistics.fmean(percentile_ms(v, 50) for v in shapes),
        "latency_tail_ms": statistics.fmean(percentile_ms(v, TAIL) for v in shapes),
        "peak_rss_mb": peak_rss_mb(),
    }


#: Alternating untraced/traced blocks of a traced run; alternating keeps the
#: host's slow drift out of the tracing-overhead estimate.
TRACE_BLOCKS = 20


def traced(spec: Workload, seed: int, seconds: float, tally: Tally, trace_path: Path) -> dict:
    """The traced run: blocks alternate between untraced and the layer probe.

    The traced blocks' spans are exported to ``trace_path``; the caller
    validates the file and reduces it to the ledger.
    """
    from repro.obs import Tracer, set_tracer, write_jsonl

    from layers import LayerProbe

    run = LibraryRun(spec, np.random.default_rng(seed), tally)
    run.warm_up()
    tracer = Tracer()
    probe = LayerProbe(tracer)
    before = run.session.cache_stats()
    totals = [[0, 0.0], [0, 0.0]]   # [untraced, traced] -> [routes, busy s]
    for block in range(TRACE_BLOCKS):
        traced_block = block % 2
        if traced_block:
            previous = set_tracer(tracer)
            probe.install()
        try:
            routes, busy = run.loop(seconds / TRACE_BLOCKS)
        finally:
            if traced_block:
                probe.uninstall()
                set_tracer(previous)
        totals[traced_block][0] += routes
        totals[traced_block][1] += busy
    after = run.session.cache_stats()
    run.arbitrate()
    write_jsonl(tracer.finished(), str(trace_path))
    (plain_routes, plain_busy), (traced_routes, traced_busy) = totals
    return {
        # (plain routes/s) / (traced routes/s) - 1
        "bench.trace.overhead": plain_routes * traced_busy / (plain_busy * traced_routes) - 1.0,
        "pops.engine.cache_hits": after["hits"] - before["hits"],
        "pops.engine.cache_misses": after["misses"] - before["misses"],
    }
