"""Latency and throughput accounting for the serving daemon.

Every request is timed through four stages, named from the request's point
of view:

* ``queue_wait`` — submitted to the batcher until the worker popped it;
* ``batch_assembly`` — popped until its batch closed and routing began (the
  time spent taking the rest of the backlog off the queue and grouping it);
* ``route`` — the ``Session.route`` / ``route_batch`` call itself;
* ``respond`` — serialising and writing the response frame.

The daemon records durations here from its handler and batcher threads; the
``stats`` request serialises :meth:`ServeTelemetry.snapshot`, which reduces
the samples to p50/p95/p99 percentiles (milliseconds), overall routes/sec,
and the batch-size histogram that shows dynamic batching actually coalescing
(every entry at size >= 2 is a megabatch kernel call that replaced that many
single routes).

Since the observability layer landed, the telemetry is built entirely on the
:mod:`repro.obs` metrics model: each stage is a
:class:`~repro.obs.metrics.Histogram` (bounded at :data:`MAX_SAMPLES`
samples, reduced through the shared percentile implementation in
:mod:`repro.obs.stats`), the batch sizes are an
:class:`~repro.obs.metrics.IntHistogram`, and the request/response/shed/error
counts are :class:`~repro.obs.metrics.Counter` series in one per-daemon
:class:`~repro.obs.metrics.MetricsRegistry` — which is what the daemon's
``metrics`` op renders as Prometheus text.  The :meth:`snapshot` shape is
bit-for-bit the historical one (pinned in ``tests/test_serve.py`` and
``tests/test_obs.py``).
"""

from __future__ import annotations

import time
from typing import Any

from repro.obs.metrics import MetricsRegistry

__all__ = ["ServeTelemetry", "STAGES", "MAX_SAMPLES"]

#: Stage names, in pipeline order.
STAGES: tuple[str, ...] = ("queue_wait", "batch_assembly", "route", "respond")

#: Most recent duration samples kept per stage.
MAX_SAMPLES = 100_000


class ServeTelemetry:
    """Thread-safe request/latency/batch accounting for one daemon."""

    def __init__(self):
        self._started = time.perf_counter()
        self.registry = MetricsRegistry()
        self._stages = {
            stage: self.registry.histogram(
                "serve_stage_seconds", maxlen=MAX_SAMPLES, stage=stage
            )
            for stage in STAGES
        }
        self._batch_sizes = self.registry.int_histogram("serve_batch_size")
        self._requests = self.registry.counter("serve_requests")
        self._responses = self.registry.counter("serve_responses")
        self._shed = self.registry.counter("serve_shed")
        self._degraded = self.registry.counter("serve_degraded")

    # -- compatible counter reads -------------------------------------------

    @property
    def requests(self) -> int:
        """Route requests accepted off the wire."""
        return self._requests.value

    @property
    def responses(self) -> int:
        """Route responses successfully written."""
        return self._responses.value

    @property
    def shed(self) -> int:
        """Requests rejected with queue-full."""
        return self._shed.value

    @property
    def degraded(self) -> int:
        """Responses answered via fault recovery on a degraded topology."""
        return self._degraded.value

    @property
    def errors(self) -> dict[str, int]:
        """Error responses by code (a fresh dict; mutating it changes nothing)."""
        return {
            series.labels["code"]: series.value
            for series in self.registry.series("serve_errors")
            if series.value > 0
        }

    # -- recording (hot path) -----------------------------------------------

    def record_request(self) -> None:
        self._requests.inc()

    def record_response(self, stage_seconds: dict[str, float]) -> None:
        """One route request answered; ``stage_seconds`` maps stage -> duration."""
        self._responses.inc()
        for stage, seconds in stage_seconds.items():
            self._stages[stage].observe(seconds)

    def record_batch(self, size: int) -> None:
        """One routing call dispatched covering ``size`` coalesced requests."""
        self._batch_sizes.observe(size)

    def record_shed(self) -> None:
        self._shed.inc()
        self.record_error("queue-full")

    def record_degraded(self) -> None:
        """One response served through online fault recovery."""
        self._degraded.inc()

    def record_error(self, code: str) -> None:
        self.registry.counter("serve_errors", code=code).inc()

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """All counters plus per-stage percentiles, JSON-ready.

        ``stages`` maps each stage to ``{"count", "p50_ms", "p95_ms",
        "p99_ms", "mean_ms"}`` (zeros when no samples yet);
        ``batch_size_histogram`` maps batch size (as a string, JSON objects
        have string keys) to how many routing calls dispatched at that size;
        ``batched_requests`` counts requests that shared their kernel call
        with at least one peer; ``routes_per_second`` is responses over
        uptime — the sustained rate since the daemon started.
        """
        uptime = time.perf_counter() - self._started
        stages = {
            stage: histogram.summary_ms()
            for stage, histogram in self._stages.items()
        }
        sizes = self._batch_sizes.counts()
        responses = self.responses
        return {
            "uptime_seconds": uptime,
            "requests": self.requests,
            "responses": responses,
            "shed": self.shed,
            "degraded": self.degraded,
            "errors": self.errors,
            "routes_per_second": responses / uptime if uptime > 0 else 0.0,
            "batch_size_histogram": {str(size): count for size, count in sizes.items()},
            "batched_requests": sum(
                size * count for size, count in sizes.items() if size > 1
            ),
            "stages": stages,
        }
