"""`ServeClient`: the blocking, retrying client of the serving daemon.

A thin, dependency-free wrapper over one socket speaking the protocol of
:mod:`repro.serve.protocol`.  Responses are surfaced as real objects — a
:class:`RouteOutcome` carries the reconstructed
:class:`~repro.analysis.metrics.RoutingMetrics` (identical, field for field,
to what :meth:`Session.route <repro.api.session.Session.route>` returns for
the same permutation, because the daemon computes exactly that) plus the
``batch_size`` its request was coalesced at.  Structured daemon errors raise
:class:`ServeError` with the protocol's machine-readable ``code``.

Resilience contract (pinned in ``tests/test_serve.py``):

* **Finite deadlines by default.**  Every socket operation is bounded by
  ``timeout`` (default :data:`DEFAULT_TIMEOUT` seconds).  Expiry raises
  :class:`ServeError` with code ``deadline-exceeded`` — never a bare
  ``socket.timeout`` — and drops the connection, because a late response
  left on the stream would desynchronise every frame after it.
* **Retry with exponential backoff.**  With ``retries > 0``, transport
  failures (connection refused / reset, daemon restart) and ``shutting-down``
  responses are retried on a *fresh* connection after an exponentially
  growing, jittered sleep (each attempt emits a ``serve.retry`` span).
  Deadline expiry and structured request errors (``bad-request``,
  ``queue-full``...) are never retried: the former is ambiguous (the daemon
  may have done the work), the latter deterministic.

The client is deliberately synchronous and single-connection: concurrency in
the serving layer comes from many clients (or the load generator's worker
pool), not from multiplexing one.  One client must not be shared across
threads.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.analysis.metrics import RoutingMetrics
from repro.obs import get_tracer
from repro.serve import protocol

__all__ = ["DEFAULT_TIMEOUT", "RouteOutcome", "ServeClient", "ServeError"]

#: Default per-operation socket deadline (seconds).  Finite on purpose: a
#: hung daemon must surface as a ``deadline-exceeded`` :class:`ServeError`,
#: not as a client thread blocked forever.
DEFAULT_TIMEOUT = 30.0


class ServeError(Exception):
    """A structured error response from the daemon.

    ``code`` is one of the ``repro.serve.protocol.ERR_*`` constants — match
    on it, not on the human-readable message.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


@dataclass(frozen=True)
class RouteOutcome:
    """One answered route request."""

    metrics: RoutingMetrics   # identical to a local Session.route
    batch_size: int           # peers sharing the kernel call (1 = single path)
    raw: dict[str, Any]       # the full response payload
    degraded: bool = False    # routed over a fault-degraded topology


#: RoutingMetrics constructor fields, as serialised by ``to_dict`` (the
#: derived properties in the payload are recomputed by the dataclass).
_METRIC_FIELDS = (
    "d", "g", "n", "slots", "theorem2_bound", "lower_bound",
    "couplers_used_total", "mean_coupler_utilisation",
)


class ServeClient:
    """Blocking client for one ``pops-repro serve`` daemon.

    Usable as a context manager.

    Parameters
    ----------
    host / port:
        The daemon's address.
    timeout:
        Seconds each socket operation (connect, send, await response) may
        take; expiry raises :class:`ServeError` with code
        ``deadline-exceeded``.  Defaults to :data:`DEFAULT_TIMEOUT`;
        ``None`` waits forever (opt-in, for debugging only).
    retries:
        How many times a *retryable* failure — connect/transport errors and
        ``shutting-down`` responses — is retried on a fresh connection
        before the last error propagates.  ``0`` (default) fails fast.
    backoff_base / backoff_max:
        The retry sleep starts at ``backoff_base`` seconds, doubles per
        attempt, is capped at ``backoff_max``, and carries multiplicative
        jitter in ``[1, 2)`` so restarting clients do not stampede.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float | None = DEFAULT_TIMEOUT,
        retries: int = 0,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff_base <= 0 or backoff_max <= 0:
            raise ValueError("backoff_base and backoff_max must be positive")
        self._host = host
        self._port = port
        self._timeout = timeout
        self.retries = int(retries)
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self._rng = random.Random()
        self._sock: socket.socket | None = None
        if self.retries == 0:
            # Fail-fast clients keep the historical eager-connect behaviour
            # (a wrong port errors at construction, not first use); retrying
            # clients connect lazily so a daemon that is still starting — or
            # restarting — is absorbed by the request retry loop.
            self._connect()

    # -- connection management ----------------------------------------------

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._sock = None

    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request primitives --------------------------------------------------

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request frame, await one response frame.

        Raises :class:`ServeError` on a structured daemon error (code
        ``deadline-exceeded`` when ``timeout`` expires first) and
        ``ConnectionError``/``OSError`` when the daemon is unreachable after
        all configured retries.
        """
        attempts = self.retries + 1
        delay = self.backoff_base
        for attempt in range(attempts):
            if attempt:
                sleep_s = min(delay, self.backoff_max) * (1.0 + self._rng.random())
                delay *= 2.0
                with get_tracer().span(
                    "serve.retry", attempt=attempt, sleep_ms=round(sleep_s * 1e3, 3)
                ):
                    time.sleep(sleep_s)
            try:
                if self._sock is None:
                    self._connect()
                return self._request_once(payload)
            except socket.timeout as exc:
                # A late response may still arrive on this stream; reusing it
                # would hand the next request the previous answer.  Drop the
                # connection and surface the structured deadline code.
                self._drop()
                raise ServeError(
                    protocol.ERR_DEADLINE,
                    f"no response within {self._timeout}s",
                ) from exc
            except ServeError as exc:
                if exc.code == protocol.ERR_SHUTTING_DOWN and attempt + 1 < attempts:
                    self._drop()  # reconnect: a successor daemon may be up
                    continue
                raise
            except (ConnectionError, OSError) as exc:
                self._drop()
                if attempt + 1 == attempts:
                    raise
                last_exc = exc
        raise last_exc  # pragma: no cover - loop always returns or raises

    def _request_once(self, payload: dict[str, Any]) -> dict[str, Any]:
        assert self._sock is not None
        protocol.send_frame(self._sock, payload)
        response = protocol.recv_frame(self._sock)
        if response is None:
            self._drop()
            raise ConnectionError("daemon closed the connection without answering")
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServeError(
                error.get("code", protocol.ERR_INTERNAL),
                error.get("message", "unspecified error"),
            )
        return response

    # -- operations ----------------------------------------------------------

    def route(
        self,
        pi,
        *,
        d: int,
        g: int,
        deadline_ms: float | None = None,
    ) -> RouteOutcome:
        """Route one permutation on the daemon; blocks until answered.

        ``pi`` is any int sequence (list or numpy array).  The returned
        outcome's ``metrics`` equals ``route(pi)`` of the daemon's session,
        on the daemon's one backend, bit-for-bit; ``batch_size`` reports how many concurrent requests the
        dynamic batcher coalesced this one with (1 = routed alone);
        ``degraded`` is true when the daemon recovered the route over a
        fault-degraded topology.  ``deadline_ms`` asks the daemon to answer
        ``deadline-exceeded`` rather than route past that many milliseconds.
        """
        images = np.asarray(pi, dtype=np.int64)
        payload: dict[str, Any] = {
            "op": "route",
            "pi": [int(x) for x in images],
            "d": int(d),
            "g": int(g),
        }
        if deadline_ms is not None:
            payload["deadline_ms"] = float(deadline_ms)
        response = self.request(payload)
        reported = response["metrics"]
        metrics = RoutingMetrics(**{name: reported[name] for name in _METRIC_FIELDS})
        return RouteOutcome(
            metrics=metrics,
            batch_size=int(response["batch_size"]),
            raw=response,
            degraded=bool(response.get("degraded", False)),
        )

    def stats(self) -> dict[str, Any]:
        """The daemon's ``stats`` payload: telemetry, cache, knobs."""
        return self.request({"op": "stats"})["stats"]

    def metrics(self) -> str:
        """The daemon's metrics as Prometheus-style text exposition."""
        return str(self.request({"op": "metrics"})["metrics"])

    def ping(self) -> bool:
        """Liveness probe."""
        return bool(self.request({"op": "ping"}).get("pong"))

    def health(self) -> dict[str, Any]:
        """The daemon's ``health`` payload: status + fault/degradation counts."""
        return self.request({"op": "health"})["health"]
