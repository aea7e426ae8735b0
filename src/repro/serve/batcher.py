"""The dynamic batcher: coalesce concurrent route requests into megabatches.

The megabatch kernels (:meth:`~repro.api.session.Session.route_batch`) amortise
per-call Python overhead across a ``(B, n)`` permutation stack — but live
traffic arrives one permutation at a time.  This module is the piece between
the two, the same trick inference servers use: requests that queue up while
the worker is busy routing, and that share a routing shape ``(d, g)``, are
stacked and routed as *one* ``route_batch`` call, then fanned back out to
their waiting clients.  Batching is natural: the worker takes whatever is
already queued (up to ``max_batch``) and never waits for more, so an idle
daemon routes a lone request at once and a busy one batches exactly the
backlog its last call built up.  A request whose
shape matches nobody else's in the batch is a ``(1, n)`` batch on the same
path; ``max_batch=1`` disables coalescing entirely (every request routes
alone — the control arm of ``benchmarks/bench_serve.py``).

Concurrency contract:

* **One worker thread owns the session.**  All routing happens on the
  batcher's worker thread, on the one session it was built with, so the
  session is never touched concurrently.  Handler threads only enqueue and
  wait on futures.
* **Bounded queue, explicit shedding.**  :meth:`DynamicBatcher.submit`
  raises :class:`QueueFullError` instead of blocking when ``max_queue``
  requests are already waiting; the daemon turns that into a structured
  ``queue-full`` response so clients see backpressure instead of timeouts.
* **Draining shutdown.**  :meth:`DynamicBatcher.shutdown` with
  ``drain=True`` (the daemon's SIGTERM path) stops intake, then the worker
  finishes *every* request already accepted — in batches, as usual — before
  exiting; with ``drain=False`` waiting requests fail fast with
  :class:`ShuttingDownError`.

Batch results are bit-identical to single routes by the megabatch contract
(pinned in ``tests/test_megabatch.py``), so batching is invisible to clients
except in latency — and in the ``batch_size`` field the daemon reports back.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.api.session import Session
from repro.faults import FaultSpec
from repro.obs import get_tracer
from repro.pops.topology import POPSNetwork
from repro.serve.telemetry import ServeTelemetry

__all__ = [
    "BatchResult",
    "DynamicBatcher",
    "QueueFullError",
    "ShuttingDownError",
]


class QueueFullError(Exception):
    """The bounded request queue is full; the request was shed."""


class ShuttingDownError(Exception):
    """The batcher is shutting down and no longer accepts or serves requests."""


@dataclass
class BatchResult:
    """What a resolved request future carries back to its handler thread."""

    metrics: Any               # RoutingMetrics
    batch_size: int            # how many requests shared the kernel call
    stage_seconds: dict[str, float]  # queue_wait / batch_assembly / route
    degraded: bool = False     # routed through fault recovery


@dataclass
class _Pending:
    """One enqueued route request."""

    key: tuple[int, int]   # (d, g)
    pi: np.ndarray
    future: Future = field(default_factory=Future)
    t_submit: float = field(default_factory=time.perf_counter)
    t_collected: float = 0.0


#: Queue sentinel closing the worker loop (enqueued last, after intake stops).
_STOP = object()


class DynamicBatcher:
    """Coalesces same-shape route requests into ``Session.route_batch`` calls.

    Parameters
    ----------
    session:
        The warm session whose config (router backend, engine) all routing
        uses.
    telemetry:
        Where batch sizes are recorded (request stages are recorded by the
        daemon when the response is on the wire).
    max_batch:
        Most requests one batch takes off the queue; ``1`` disables
        coalescing.
    max_queue:
        Bound of the request queue; beyond it :meth:`submit` sheds.
    faults:
        Optional :class:`~repro.faults.FaultSpec` injected into every
        dispatch (chaos testing).  Each member then routes through the
        session's :meth:`~repro.api.session.Session.route_degraded` —
        clean plan, injected execution, online reroute over the survivors —
        and its future resolves with ``degraded=True`` when the fault bit.
    """

    def __init__(
        self,
        session: Session,
        telemetry: ServeTelemetry,
        *,
        max_batch: int = 64,
        max_queue: int = 1024,
        faults: FaultSpec | None = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self._session = session
        self._telemetry = telemetry
        self.max_batch = max_batch
        self.faults = faults
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self._closed = False
        self._drain = True
        self._worker: threading.Thread | None = None

    # -- intake (handler threads) ------------------------------------------

    def submit(self, pi: np.ndarray, *, d: int, g: int):
        """Enqueue one request; returns a ``Future`` of :class:`BatchResult`.

        Raises :class:`ShuttingDownError` after shutdown began and
        :class:`QueueFullError` when the bounded queue is full (the caller
        sheds the request with an explicit error response).
        """
        if self._closed:
            raise ShuttingDownError("the batcher is shutting down")
        item = _Pending(key=(d, g), pi=pi)
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            raise QueueFullError(
                f"request queue is full ({self._queue.maxsize} waiting)"
            ) from None
        return item.future

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting (approximate, lock-free read)."""
        return self._queue.qsize()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._worker is not None:
            raise RuntimeError("batcher already started")
        self._worker = threading.Thread(
            target=self._run, name="pops-serve-batcher", daemon=True
        )
        self._worker.start()

    def shutdown(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop intake and end the worker.

        ``drain=True`` lets the worker finish every accepted request before
        exiting (in-flight batches complete; their clients get answers);
        ``drain=False`` fails waiting requests with
        :class:`ShuttingDownError` immediately.  Idempotent.
        """
        self._drain = drain
        if not self._closed:
            self._closed = True
            self._queue.put(_STOP)  # always room for the sentinel eventually
        if self._worker is not None:
            self._worker.join(timeout=timeout)

    # -- worker -------------------------------------------------------------

    def _collect(self) -> tuple[list[_Pending], bool]:
        """One batch off the queue: ``(items, keep_running)``.

        Blocks for the first item, then takes whatever is already queued —
        never waiting for more — until ``max_batch`` is reached or the stop
        sentinel is popped (the sentinel is FIFO-last, so everything accepted
        before shutdown is popped first).
        """
        first = self._queue.get()
        if first is _STOP:
            return [], False
        first.t_collected = time.perf_counter()
        items = [first]
        while len(items) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                return items, False
            item.t_collected = time.perf_counter()
            items.append(item)
        return items, True

    def _run(self) -> None:
        keep_running = True
        while keep_running:
            items, keep_running = self._collect()
            if items and self._closed and not self._drain:
                for item in items:
                    item.future.set_exception(
                        ShuttingDownError("daemon shut down before routing")
                    )
                continue
            if items:
                self._dispatch(items)
        # Post-sentinel safety net: anything enqueued concurrently with
        # shutdown (submit raced the _closed flag) still gets an answer.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                continue
            if self._drain:
                self._dispatch([item])
            else:
                item.future.set_exception(
                    ShuttingDownError("daemon shut down before routing")
                )

    def _dispatch(self, items: list[_Pending]) -> None:
        """Group the collected requests by shape and route each group."""
        groups: dict[tuple[int, int], list[_Pending]] = {}
        for item in items:
            groups.setdefault(item.key, []).append(item)
        for (d, g), members in groups.items():
            network = POPSNetwork(d, g)
            if self.faults is not None:
                self._dispatch_degraded(members, network)
                continue
            t_route_start = time.perf_counter()
            try:
                with get_tracer().span(
                    "serve.dispatch", d=d, g=g, batch=len(members)
                ):
                    stack = np.stack([member.pi for member in members])
                    metrics_list = self._session.route_batch(stack, network=network)
            except Exception as exc:
                self._replay_survivors(members, network, exc)
                continue
            t_route_end = time.perf_counter()
            self._telemetry.record_batch(len(members))
            route_seconds = t_route_end - t_route_start
            for member, metrics in zip(members, metrics_list):
                member.future.set_result(
                    BatchResult(
                        metrics=metrics,
                        batch_size=len(members),
                        stage_seconds={
                            "queue_wait": member.t_collected - member.t_submit,
                            "batch_assembly": t_route_start - member.t_collected,
                            "route": route_seconds,
                        },
                    )
                )

    def _replay_survivors(
        self, members: list[_Pending], network: POPSNetwork, batch_exc: Exception
    ) -> None:
        """Graceful degradation of a failed batch: replay members singly.

        One poisoned permutation (or one fault-struck element) must not take
        its batch peers down with it.  A singleton batch just propagates its
        error; a real batch is replayed per element with ``Session.route``
        so every member that can route still gets a real answer, and only
        the actually-failing members see an exception.
        """
        if len(members) == 1:
            members[0].future.set_exception(batch_exc)
            return
        for member in members:
            t_start = time.perf_counter()
            try:
                with get_tracer().span(
                    "serve.dispatch", d=network.d, g=network.g, batch=1, replay=True
                ):
                    metrics = self._session.route(member.pi, network=network)
            except Exception as exc:
                member.future.set_exception(exc)
                continue
            self._telemetry.record_batch(1)
            member.future.set_result(
                BatchResult(
                    metrics=metrics,
                    batch_size=1,
                    stage_seconds={
                        "queue_wait": member.t_collected - member.t_submit,
                        "batch_assembly": 0.0,
                        "route": time.perf_counter() - t_start,
                    },
                )
            )

    def _dispatch_degraded(self, members: list[_Pending], network: POPSNetwork) -> None:
        """Route a fault-struck dispatch member-by-member with recovery.

        Each member runs the session's
        :meth:`~repro.api.session.Session.route_degraded` — clean plan,
        injected execution, online reroute over the surviving couplers,
        verified delivery — and gets back real
        :class:`~repro.analysis.metrics.RoutingMetrics` whose ``slots`` is
        the degraded total (executed before the fault plus the reroute), so
        clients see the true cost of the failure.
        """
        from repro.analysis.metrics import RoutingMetrics
        from repro.routing.lower_bounds import best_known_lower_bound_stack

        d, g = network.d, network.g
        for member in members:
            t_start = time.perf_counter()
            try:
                with get_tracer().span(
                    "serve.dispatch", d=d, g=g, batch=1, fault_injected=True
                ):
                    report = self._session.route_degraded(
                        member.pi, network=network, faults=self.faults
                    )
                    capacity = report.total_slots * g * g
                    # route_degraded validated the permutation.
                    lower_bound = best_known_lower_bound_stack(
                        network, member.pi[None], validate=False
                    )[0]
                    metrics = RoutingMetrics(
                        d=d,
                        g=g,
                        n=network.n,
                        slots=report.total_slots,
                        theorem2_bound=report.theorem2_bound,
                        lower_bound=int(lower_bound),
                        couplers_used_total=report.packets_moved,
                        mean_coupler_utilisation=(
                            report.packets_moved / capacity if capacity else 0.0
                        ),
                    )
            except Exception as exc:
                member.future.set_exception(exc)
                continue
            self._telemetry.record_batch(1)
            member.future.set_result(
                BatchResult(
                    metrics=metrics,
                    batch_size=1,
                    stage_seconds={
                        "queue_wait": member.t_collected - member.t_submit,
                        "batch_assembly": 0.0,
                        "route": time.perf_counter() - t_start,
                    },
                    degraded=report.fault_triggered,
                )
            )
