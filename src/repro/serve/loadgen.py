"""Open-loop Poisson load generation against a serving daemon.

The load model is the classic open-loop one (the simpy traffic generators in
SNIPPETS.md use the same shape): request arrival times are drawn from a
Poisson process of a configured rate *in advance*, and each request is fired
at its scheduled wall-clock instant regardless of how the previous ones are
doing.  Unlike closed-loop clients — which slow their offered load to match
a struggling server and so hide saturation — an open-loop generator keeps
offering, which is what exposes queueing, shedding, and the throughput
ceiling the ``bench_serve.py`` floor is about.

Mechanics: arrivals are pre-drawn (inter-arrival gaps ``Exponential(1/rate)``,
one fresh random permutation per request), dealt round-robin to a pool of
worker threads each owning one :class:`~repro.serve.client.ServeClient`
connection, and released against a shared start instant.  Per-request
client-side latency (send to response) is recorded; shed requests
(``queue-full``) and errors are counted separately from completions.

Arrival mix: with ``hotspot_fraction > 0`` that fraction of requests draws a
*hot-spot* permutation instead of a uniform one — every group sends its whole
block to the next group (``a -> (a+1) mod g``, shuffled within the group), the
classic worst case that concentrates all traffic on ``g`` couplers.  Requests
are tagged with their class at draw time and the report carries per-class
latency percentiles, so saturation that only the hot-spot class feels is
visible instead of averaged away.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.obs.stats import percentiles
from repro.serve.client import ServeClient, ServeError

__all__ = ["LoadReport", "run_poisson_load"]


@dataclass(frozen=True)
class LoadReport:
    """Summary of one open-loop load run."""

    d: int
    g: int
    n: int
    rate: float                      # offered arrival rate (requests/sec)
    n_requests: int
    completed: int
    shed: int                        # explicit queue-full responses
    errors: int                      # any other failure
    duration_seconds: float          # first release to last completion
    achieved_routes_per_second: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    max_batch_size_seen: int         # largest coalesced batch any request rode
    hotspot_fraction: float = 0.0    # offered hot-spot share of the mix
    degraded: int = 0                # completions served via fault recovery
    # per-class ("uniform" / "hotspot") latency summaries:
    # {class: {"count", "p50_ms", "p95_ms", "p99_ms", "mean_ms"}}
    class_latency_ms: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "d": self.d, "g": self.g, "n": self.n,
            "rate": self.rate,
            "n_requests": self.n_requests,
            "completed": self.completed,
            "shed": self.shed,
            "errors": self.errors,
            "duration_seconds": self.duration_seconds,
            "achieved_routes_per_second": self.achieved_routes_per_second,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "latency_mean_ms": self.latency_mean_ms,
            "max_batch_size_seen": self.max_batch_size_seen,
            "hotspot_fraction": self.hotspot_fraction,
            "degraded": self.degraded,
            "class_latency_ms": self.class_latency_ms,
        }


def _hotspot_permutation(rng: np.random.Generator, d: int, g: int) -> np.ndarray:
    """Group ``a`` sends its whole block to group ``(a+1) mod g``, shuffled.

    A blocked permutation in the paper's sense: all ``d`` packets of a group
    share one destination group, so the whole pattern rides ``g`` couplers —
    maximal per-coupler pressure while staying a legal permutation.
    """
    pi = np.empty(d * g, dtype=np.int64)
    for a in range(g):
        b = (a + 1) % g
        targets = np.arange(b * d, (b + 1) * d, dtype=np.int64)
        rng.shuffle(targets)
        pi[a * d:(a + 1) * d] = targets
    return pi


def _draw_workload(
    rate: float,
    n_requests: int,
    d: int,
    g: int,
    seed: int,
    hotspot_fraction: float,
) -> tuple[list[float], list[np.ndarray], list[str]]:
    """Arrival instants, permutations, and each request's traffic class."""
    gaps = random.Random(seed)
    arrivals: list[float] = []
    t = 0.0
    for _ in range(n_requests):
        t += gaps.expovariate(rate)
        arrivals.append(t)
    rng = np.random.default_rng(seed)
    n = d * g
    pis: list[np.ndarray] = []
    classes: list[str] = []
    for _ in range(n_requests):
        # The fraction==0 guard keeps the draw sequence (and therefore the
        # exact permutations) identical to the pre-hotspot generator.
        if hotspot_fraction > 0 and rng.random() < hotspot_fraction:
            pis.append(_hotspot_permutation(rng, d, g))
            classes.append("hotspot")
        else:
            pis.append(rng.permutation(n).astype(np.int64))
            classes.append("uniform")
    return arrivals, pis, classes


def run_poisson_load(
    host: str,
    port: int,
    *,
    rate: float,
    n_requests: int,
    d: int,
    g: int,
    seed: int = 2002,
    connections: int = 8,
    timeout: float = 60.0,
    hotspot_fraction: float = 0.0,
) -> LoadReport:
    """Fire ``n_requests`` at Poisson ``rate`` (req/sec) against the daemon.

    ``connections`` worker threads each hold one client connection and fire
    the requests dealt to them at their pre-drawn arrival instants.
    ``hotspot_fraction`` of the requests (drawn per request) carry the
    hot-spot permutation class instead of a uniform draw.  Returns the
    aggregated :class:`LoadReport`; raises only on setup failures —
    per-request errors are counted, not raised.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests}")
    if not 0.0 <= hotspot_fraction <= 1.0:
        raise ValueError(
            f"hotspot_fraction must be in [0, 1], got {hotspot_fraction}"
        )
    connections = max(1, min(connections, n_requests))
    n = d * g
    arrivals, pis, classes = _draw_workload(
        rate, n_requests, d, g, seed, hotspot_fraction
    )
    assignments: list[list[int]] = [[] for _ in range(connections)]
    for index in range(n_requests):
        assignments[index % connections].append(index)

    latencies: list[list[tuple[str, float]]] = [[] for _ in range(connections)]
    batch_sizes: list[int] = [1] * connections
    shed = [0] * connections
    errors = [0] * connections
    degraded = [0] * connections
    last_done = [0.0] * connections
    barrier = threading.Barrier(connections + 1)

    def worker(worker_id: int, t0_holder: list[float]) -> None:
        try:
            client = ServeClient(host, port, timeout=timeout)
        except OSError:
            errors[worker_id] += len(assignments[worker_id])
            barrier.wait()
            return
        try:
            barrier.wait()
            t0 = t0_holder[0]
            for index in assignments[worker_id]:
                delay = t0 + arrivals[index] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                t_send = time.perf_counter()
                try:
                    outcome = client.route(pis[index], d=d, g=g)
                except ServeError as exc:
                    if exc.code == "queue-full":
                        shed[worker_id] += 1
                    else:
                        errors[worker_id] += 1
                    continue
                except (OSError, ConnectionError):
                    errors[worker_id] += 1
                    return  # connection is gone; remaining requests are lost
                t_done = time.perf_counter()
                latencies[worker_id].append((classes[index], t_done - t_send))
                last_done[worker_id] = max(last_done[worker_id], t_done)
                if outcome.degraded:
                    degraded[worker_id] += 1
                batch_sizes[worker_id] = max(
                    batch_sizes[worker_id], outcome.batch_size
                )
        finally:
            client.close()

    t0_holder = [0.0]
    threads = [
        threading.Thread(
            target=worker, args=(i, t0_holder), name=f"loadgen-{i}", daemon=True
        )
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    t0_holder[0] = time.perf_counter() + 0.01  # released a beat after the barrier
    barrier.wait()
    for thread in threads:
        thread.join(timeout=timeout + arrivals[-1] + 5.0)

    tagged = [entry for bucket in latencies for entry in bucket]
    all_latencies = [lat for _cls, lat in tagged]
    completed = len(all_latencies)
    t0 = t0_holder[0]
    duration = max((t for t in last_done if t > 0.0), default=t0) - t0
    if all_latencies:
        # The shared percentile reduction (repro.obs.stats) — the same
        # implementation the daemon-side telemetry reports through.
        p50, p95, p99 = percentiles(all_latencies)
        mean = float(np.asarray(all_latencies).mean())
    else:
        p50 = p95 = p99 = mean = 0.0
    by_class: dict[str, list[float]] = {}
    for cls, lat in tagged:
        by_class.setdefault(cls, []).append(lat)
    class_latency_ms = {}
    for cls, samples in sorted(by_class.items()):
        c50, c95, c99 = percentiles(samples)
        class_latency_ms[cls] = {
            "count": len(samples),
            "p50_ms": float(c50) * 1e3,
            "p95_ms": float(c95) * 1e3,
            "p99_ms": float(c99) * 1e3,
            "mean_ms": float(np.asarray(samples).mean()) * 1e3,
        }
    return LoadReport(
        d=d, g=g, n=n,
        rate=rate,
        n_requests=n_requests,
        completed=completed,
        shed=sum(shed),
        errors=sum(errors),
        duration_seconds=max(duration, 1e-9),
        achieved_routes_per_second=completed / max(duration, 1e-9),
        latency_p50_ms=float(p50) * 1e3,
        latency_p95_ms=float(p95) * 1e3,
        latency_p99_ms=float(p99) * 1e3,
        latency_mean_ms=mean * 1e3,
        max_batch_size_seen=max(batch_sizes),
        hotspot_fraction=hotspot_fraction,
        degraded=sum(degraded),
        class_latency_ms=class_latency_ms,
    )
