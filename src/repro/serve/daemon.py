"""`ServeDaemon`: the socket front end of the serving layer.

One daemon holds one warm :class:`~repro.api.session.Session` — schedule
cache primed, plan store attached when configured — and serves route
requests concurrently over a TCP socket bound to localhost, speaking the
length-prefixed JSON protocol of :mod:`repro.serve.protocol`.  Each accepted
connection gets a handler thread that parses frames and waits on futures;
all actual routing happens on the single worker thread of the
:class:`~repro.serve.batcher.DynamicBatcher`, which coalesces same-shape
requests into megabatch kernel calls.

The operational contract (pinned in ``tests/test_serve.py``):

* **Backpressure.**  The request queue is bounded; when it is full the
  daemon sheds with an explicit ``queue-full`` error response instead of
  stalling the connection.
* **Fault isolation.**  A malformed frame, an invalid request, a routing
  failure, or a client that disconnects while its batch is in flight only
  ever affects that one request — peers in the same batch still get their
  responses.
* **Graceful shutdown.**  :meth:`ServeDaemon.shutdown` (the CLI's SIGTERM
  handler) stops intake, lets the batcher drain every accepted request,
  waits for handlers to flush the responses, then closes connections.

Use as a context manager for in-process serving (tests, notebooks,
examples), or through ``pops-repro serve`` as a standalone process.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any

import numpy as np

from concurrent.futures import TimeoutError as FutureTimeoutError

from repro.api.config import RunConfig
from repro.api.registry import ROUTER_BACKENDS, ensure_builtin_backends
from repro.api.session import Session
from repro.exceptions import ConfigurationError, RoutingError, SimulationError, ValidationError
from repro.faults import FaultSpec
from repro.obs import get_tracer
from repro.obs.metrics import MetricsRegistry
from repro.serve import protocol
from repro.serve.batcher import DynamicBatcher, QueueFullError, ShuttingDownError
from repro.serve.telemetry import STAGES, ServeTelemetry

__all__ = ["ServeDaemon"]

#: How long shutdown waits for handler threads to flush drained responses.
_FLUSH_TIMEOUT = 10.0


class ServeDaemon:
    """Long-lived routing daemon with dynamic megabatching.

    Parameters
    ----------
    config:
        Session configuration; defaults to ``RunConfig()`` — the
        ``euler-array`` router on the ``batched`` engine, which feeds the
        megabatch kernels.  Attach a plan store via
        ``config.plan_store_path`` to start warm.
    host / port:
        Bind address; port ``0`` (default) picks an ephemeral port, read it
        from :attr:`address` after :meth:`start`.
    batch_window_ms:
        Dynamic-batching window: how long the batcher waits for same-shape
        company after a request arrives.  ``0`` disables coalescing.
    max_batch:
        Batch closes early at this many coalesced requests.
    max_queue:
        Bound of the request queue (beyond it requests are shed).
    faults / fault_rate / fault_seed:
        Chaos-testing knobs, forwarded to the batcher: ``faults`` is a
        :class:`~repro.faults.FaultSpec` injected into dispatches with
        probability ``fault_rate`` per dispatch (deterministic under
        ``fault_seed``).  Struck requests are recovered online over the
        surviving couplers and answered with ``"degraded": true``.
    """

    def __init__(
        self,
        config: RunConfig | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_window_ms: float = 2.0,
        max_batch: int = 64,
        max_queue: int = 1024,
        faults: FaultSpec | None = None,
        fault_rate: float = 1.0,
        fault_seed: int = 0,
    ):
        ensure_builtin_backends()
        self.config = config if config is not None else RunConfig()
        self.session = Session(self.config)
        self.telemetry = ServeTelemetry()
        self.batcher = DynamicBatcher(
            self.session,
            self.telemetry,
            batch_window=batch_window_ms / 1e3,
            max_batch=max_batch,
            max_queue=max_queue,
            faults=faults,
            fault_rate=fault_rate,
            fault_seed=fault_seed,
        )
        self._host = host
        self._port = port
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._handlers: set[threading.Thread] = set()
        self._connections: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        self._shutting_down = False
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the daemon is listening on (valid after start)."""
        if self._listener is None:
            raise RuntimeError("daemon is not started")
        return self._listener.getsockname()[:2]

    def start(self) -> tuple[str, int]:
        """Bind, listen, start the batcher and the accept loop."""
        if self._started:
            raise RuntimeError("daemon already started")
        self._started = True
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(128)
        self._listener = listener
        self.batcher.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="pops-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting, drain (or fail) pending work, close connections.

        With ``drain=True`` every request accepted before the call gets a
        real response — in-flight batches complete — before connections are
        torn down; ``drain=False`` fails pending requests fast.  Idempotent.
        """
        if self._shutting_down:
            return
        self._shutting_down = True
        if self._listener is not None:
            try:
                # close() alone does not wake a thread blocked in accept();
                # shutdown() does, making the accept-loop join immediate.
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=_FLUSH_TIMEOUT)
        self.batcher.shutdown(drain=drain, timeout=_FLUSH_TIMEOUT if drain else 1.0)
        # Batcher resolved every future; wait for handler threads to put the
        # responses on the wire before yanking the connections.
        deadline = time.perf_counter() + _FLUSH_TIMEOUT
        with self._inflight_cv:
            while self._inflight > 0 and time.perf_counter() < deadline:
                self._inflight_cv.wait(timeout=0.05)
        with self._conn_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        for handler in list(self._handlers):
            handler.join(timeout=1.0)

    def __enter__(self) -> "ServeDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)

    # -- accept / per-connection handling ----------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutdown
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conn_lock:
                self._connections.add(conn)
            handler = threading.Thread(
                target=self._handle_connection,
                args=(conn,),
                name="pops-serve-conn",
                daemon=True,
            )
            self._handlers.add(handler)
            handler.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    request = protocol.recv_frame(conn)
                except protocol.MalformedFrameError as exc:
                    # Framing is still aligned: answer and keep serving.
                    self.telemetry.record_error(protocol.ERR_MALFORMED_JSON)
                    if not self._send(conn, protocol.error_response(
                        protocol.ERR_MALFORMED_JSON, str(exc)
                    )):
                        return
                    continue
                except protocol.FrameTooLargeError as exc:
                    # The stream cannot be resynchronised: answer, then close.
                    self.telemetry.record_error(protocol.ERR_OVERSIZED_FRAME)
                    self._send(conn, protocol.error_response(
                        protocol.ERR_OVERSIZED_FRAME, str(exc)
                    ))
                    return
                except OSError:
                    return  # client vanished
                if request is None:
                    return  # clean EOF
                if not self._handle_request(conn, request):
                    return
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._handlers.discard(threading.current_thread())

    def _send(self, conn: socket.socket, payload: dict[str, Any]) -> bool:
        """Write one response frame; ``False`` when the client is gone."""
        try:
            protocol.send_frame(conn, payload)
        except (OSError, protocol.FrameError):
            self.telemetry.record_error("client-disconnected")
            return False
        return True

    def _handle_request(self, conn: socket.socket, request: dict[str, Any]) -> bool:
        """Dispatch one parsed request; ``False`` ends the connection."""
        op = request.get("op")
        if op == "route":
            return self._handle_route(conn, request)
        if op == "stats":
            return self._send(conn, {"ok": True, "stats": self.stats()})
        if op == "metrics":
            return self._send(conn, {"ok": True, "metrics": self.metrics_text()})
        if op == "ping":
            return self._send(conn, {"ok": True, "pong": True})
        if op == "health":
            return self._send(conn, {"ok": True, "health": self.health()})
        self.telemetry.record_error(protocol.ERR_UNKNOWN_OP)
        return self._send(conn, protocol.error_response(
            protocol.ERR_UNKNOWN_OP, f"unknown op {op!r}"
        ))

    # -- the route request ---------------------------------------------------

    def _parse_route(
        self, request: dict[str, Any]
    ) -> tuple[np.ndarray, int, int, str, float | None]:
        """Validate a route request's fields; raises ``ValidationError``."""
        d, g = request.get("d"), request.get("g")
        for name, value in (("d", d), ("g", g)):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValidationError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        backend = request.get("backend", self.config.router_backend)
        if backend not in ROUTER_BACKENDS.names():
            raise ValidationError(
                f"unknown router backend {backend!r}; registered: "
                f"{', '.join(ROUTER_BACKENDS.names())}"
            )
        pi = request.get("pi")
        if not isinstance(pi, list):
            raise ValidationError(f"pi must be a list of ints, got {type(pi).__name__}")
        try:
            images = np.asarray(pi, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"pi must be a list of ints: {exc}") from None
        if images.ndim != 1:
            raise ValidationError(f"pi must be one-dimensional, got shape {images.shape}")
        if images.shape[0] != d * g:
            raise ValidationError(
                f"pi has length {images.shape[0]}, the POPS(d={d}, g={g}) "
                f"network needs n = {d * g}"
            )
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is not None:
            if isinstance(deadline_ms, bool) or not isinstance(
                deadline_ms, (int, float)
            ) or deadline_ms <= 0:
                raise ValidationError(
                    f"deadline_ms must be a positive number, got {deadline_ms!r}"
                )
        deadline_s = float(deadline_ms) / 1e3 if deadline_ms is not None else None
        return images, d, g, backend, deadline_s

    def _handle_route(self, conn: socket.socket, request: dict[str, Any]) -> bool:
        self.telemetry.record_request()
        if self._shutting_down:
            self.telemetry.record_error(protocol.ERR_SHUTTING_DOWN)
            return self._send(conn, protocol.error_response(
                protocol.ERR_SHUTTING_DOWN, "daemon is shutting down"
            ))
        try:
            images, d, g, backend, deadline_s = self._parse_route(request)
        except ValidationError as exc:
            self.telemetry.record_error(protocol.ERR_BAD_REQUEST)
            return self._send(conn, protocol.error_response(
                protocol.ERR_BAD_REQUEST, str(exc)
            ))
        try:
            future = self.batcher.submit(images, d=d, g=g, backend=backend)
        except QueueFullError as exc:
            self.telemetry.record_shed()
            return self._send(conn, protocol.error_response(
                protocol.ERR_QUEUE_FULL, str(exc)
            ))
        except ShuttingDownError as exc:
            self.telemetry.record_error(protocol.ERR_SHUTTING_DOWN)
            return self._send(conn, protocol.error_response(
                protocol.ERR_SHUTTING_DOWN, str(exc)
            ))
        with self._inflight_cv:
            self._inflight += 1
        try:
            try:
                result = future.result(timeout=deadline_s)
            except FutureTimeoutError:
                # The batcher will still resolve the future eventually; only
                # the answer's usefulness expired, so tell the client that
                # with a structured code instead of leaving it hanging.
                self.telemetry.record_error(protocol.ERR_DEADLINE)
                return self._send(conn, protocol.error_response(
                    protocol.ERR_DEADLINE,
                    f"request not routed within deadline_ms={deadline_s * 1e3:g}",
                ))
            except ShuttingDownError as exc:
                self.telemetry.record_error(protocol.ERR_SHUTTING_DOWN)
                return self._send(conn, protocol.error_response(
                    protocol.ERR_SHUTTING_DOWN, str(exc)
                ))
            except (ValidationError, ConfigurationError) as exc:
                # The batcher validated shape, not permutation-ness; the
                # router's own validation surfaces here.
                self.telemetry.record_error(protocol.ERR_BAD_REQUEST)
                return self._send(conn, protocol.error_response(
                    protocol.ERR_BAD_REQUEST, str(exc)
                ))
            except (RoutingError, SimulationError) as exc:
                # The daemon is healthy but the injected fault spec leaves
                # this traffic unroutable on the surviving hardware.
                self.telemetry.record_error(protocol.ERR_DEGRADED)
                return self._send(conn, protocol.error_response(
                    protocol.ERR_DEGRADED, str(exc)
                ))
            except Exception as exc:
                self.telemetry.record_error(protocol.ERR_INTERNAL)
                return self._send(conn, protocol.error_response(
                    protocol.ERR_INTERNAL, f"{type(exc).__name__}: {exc}"
                ))
            t_respond = time.perf_counter()
            if result.degraded:
                self.telemetry.record_degraded()
            sent = self._send(conn, {
                "ok": True,
                "metrics": result.metrics.to_dict(),
                "batch_size": result.batch_size,
                "degraded": result.degraded,
            })
            if sent:
                stage_seconds = {
                    **result.stage_seconds,
                    "respond": time.perf_counter() - t_respond,
                }
                self.telemetry.record_response(stage_seconds)
                self._emit_request_spans(stage_seconds, result.batch_size)
            return sent
        finally:
            with self._inflight_cv:
                self._inflight -= 1
                self._inflight_cv.notify_all()

    def _emit_request_spans(self, stage_seconds: dict[str, float], batch_size: int) -> None:
        """Re-emit one answered request's stage clocks as trace spans.

        The stages were timed by the batcher/handler machinery, not inside
        ``tracer.span`` blocks, so when tracing is enabled they are
        reconstructed retroactively: one ``serve.request`` root whose
        children are the consecutive ``serve.<stage>`` intervals, laid out
        backwards from now.  With the null tracer this is two attribute
        reads and an early return.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return
        durations = [
            (stage, int(stage_seconds[stage] * 1e9))
            for stage in STAGES
            if stage in stage_seconds
        ]
        total_ns = sum(dur for _stage, dur in durations)
        t_end = time.perf_counter_ns()
        root = tracer.emit(
            "serve.request", t_end - total_ns, total_ns, batch_size=batch_size
        )
        t = t_end - total_ns
        for stage, dur_ns in durations:
            tracer.emit(f"serve.{stage}", t, dur_ns, parent_id=root)
            t += dur_ns

    # -- the stats request ---------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The ``stats`` response payload: telemetry + cache + store + knobs."""
        store = self.session.cache.store
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "router_backend": self.config.router_backend,
            "sim_backend": self.config.sim_backend,
            "batch_window_ms": self.batcher.batch_window * 1e3,
            "max_batch": self.batcher.max_batch,
            "queue_depth": self.batcher.queue_depth,
            "telemetry": self.telemetry.snapshot(),
            "cache": self.session.cache_stats(),
            "plan_store": store.stats() if store is not None else None,
            "faults": (
                self.batcher.faults.describe()
                if self.batcher.faults is not None
                else None
            ),
            "fault_rate": self.batcher.fault_rate,
        }

    # -- the health request --------------------------------------------------

    def health(self) -> dict[str, Any]:
        """The ``health`` response payload: liveness + degradation summary.

        ``status`` is ``"ok"`` while the daemon accepts work and
        ``"shutting-down"`` once drain began; the fault fields surface the
        injected chaos configuration and how many responses were served
        through online recovery, so an operator (or the chaos-smoke CI
        step) can tell a degraded-but-available daemon from a dead one.
        """
        faults = self.batcher.faults
        return {
            "status": "shutting-down" if self._shutting_down else "ok",
            "protocol": protocol.PROTOCOL_VERSION,
            "faults": faults.describe() if faults is not None else None,
            "fault_rate": self.batcher.fault_rate if faults is not None else 0.0,
            "requests": self.telemetry.requests,
            "responses": self.telemetry.responses,
            "shed": self.telemetry.shed,
            "degraded_responses": self.telemetry.degraded,
            "queue_depth": self.batcher.queue_depth,
        }

    # -- the metrics request -------------------------------------------------

    def metrics_text(self) -> str:
        """Prometheus-style text exposition of the whole daemon's state.

        The serving metrics come straight from the telemetry's registry;
        the cache, plan-store, and queue state are point-in-time values,
        rendered through a transient registry so every series goes out in
        one consistent format.
        """
        gauges = MetricsRegistry()
        gauges.gauge("serve_queue_depth").set(self.batcher.queue_depth)
        for key, value in self.session.cache_stats().items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            gauges.gauge(f"cache_{key}").set(value)
        store = self.session.cache.store
        if store is not None:
            for key, value in store.stats().items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                gauges.gauge(f"store_{key}").set(value)
        return self.telemetry.registry.render_prometheus() + gauges.render_prometheus()
