"""The serve workload: an open-loop Poisson driver against a real daemon.

One generator process with ``CONNECTIONS`` sockets (each served by one
thread) offers a fixed Poisson rate to a ``python -m repro serve`` child
started with default flags.  Arrival instants are drawn in advance; a free
connection takes the next request and sends it at its due instant, or late
when every connection is still waiting for a reply.  Each request is timed
from its *due* instant, so client-side backlog shows up in the latency, and
the generator's lateness (send minus due) is reported as well.
"""

from __future__ import annotations

import gc
import os
import select
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from common import (
    SETUP_REPEATS, TAIL, Tally, Workload, child_env, fast_session, peak_rss_mb, percentile_ms,
    stop,
)

#: Connections (and driver threads) of the one generator process.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))

#: Fixed permutations the repeat share of the mix draws from.
HOT_SET = 16

#: Request mix: fresh uniform, hot-set repeat, blocked hot-spot (a -> a+1).
MIX = (0.7, 0.2, 0.1)

#: Every CHECK_STRIDE-th answer is compared with a local ``Session.route``.
CHECK_STRIDE = 8

#: Seconds a request may wait for its reply before it counts as failed.
REPLY_TIMEOUT = 30.0


@dataclass
class Request:
    due: float                # seconds after the window opens
    pi: np.ndarray
    payload: dict[str, Any]


@dataclass
class Reply:
    due: float                # absolute perf_counter instants from here on
    sent_at: float
    sent_done: float
    ready_at: float
    done_at: float
    response: dict[str, Any] | None
    error: str | None = None


def _hotspot(rng: np.random.Generator, d: int, g: int) -> np.ndarray:
    """Blocked hot-spot: group ``a`` sends its whole block to ``a+1 mod g``."""
    target = (np.arange(g) + 1) % g
    within = rng.permuted(np.tile(np.arange(d), (g, 1)), axis=1)
    return (target[:, None] * d + within).ravel()


def draw_traffic(
    rng: np.random.Generator, spec: Workload, seconds: float, hot: list[np.ndarray]
) -> list[Request]:
    """``rate * seconds`` arrivals, uniform order statistics on the window.

    Given their count, the instants of a Poisson process are sorted
    uniforms; fixing the count keeps the offered load identical across
    seeds while the arrival pattern stays Poisson.
    """
    d, g = spec.shapes[0]
    count = max(1, round(spec.rate * seconds))
    dues = np.sort(rng.uniform(0.0, seconds, count))
    draws = rng.random(count)
    requests = []
    for due, u in zip(dues, draws):
        if u < MIX[0]:
            pi = rng.permutation(d * g)
        elif u < MIX[0] + MIX[1]:
            pi = hot[int(rng.integers(len(hot)))]
        else:
            pi = _hotspot(rng, d, g)
        payload = {"op": "route", "pi": pi.tolist(), "d": d, "g": g}
        requests.append(Request(float(due), pi, payload))
    return requests


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _ask(port: int, payload: dict[str, Any]) -> dict[str, Any]:
    from repro.serve.protocol import recv_frame, send_frame

    with _connect(port) as sock:
        send_frame(sock, payload)
        response = recv_frame(sock)
    if response is None or not response.get("ok"):
        raise RuntimeError(f"daemon answered {payload['op']!r} with {response!r}")
    return response


class Daemon:
    """A ``serve`` child with default flags; ``trace_path`` runs it traced."""

    def __init__(self, root: Path, workdir: Path, tag: str, trace_path: Path | None = None):
        self.port_file = workdir / f"port-{tag}"
        self.log_path = workdir / f"daemon-{tag}.log"
        command = ["-m", "repro"]
        if trace_path is not None:
            command = ["perfbench/traced_daemon.py", str(trace_path)]
        self.spawned_at = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, *command, "serve", "--port-file", str(self.port_file)],
                cwd=root, env=child_env(root),
                stdout=subprocess.DEVNULL, stderr=log,
            )

    def port(self, timeout: float = 60.0) -> int:
        deadline = time.perf_counter() + timeout
        while not self.port_file.exists():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError(
                    f"daemon did not start: {self.log_path.read_text()[-2000:]}"
                )
            time.sleep(0.002)
        return int(self.port_file.read_text())

    def stop(self) -> int:
        return stop(self.proc)


def start(
    root: Path, workdir: Path, tag: str, first: Request, trace_path: Path | None = None
) -> tuple[Daemon, int, float]:
    """Spawn a daemon and route ``first``; returns it, its port and set-up seconds."""
    daemon = Daemon(root, workdir, tag, trace_path)
    try:
        port = daemon.port()
        _ask(port, first.payload)
    except BaseException:
        daemon.stop()
        raise
    return daemon, port, time.perf_counter() - daemon.spawned_at


def drive(port: int, requests: list[Request]) -> tuple[list[Reply | None], float]:
    """Offer ``requests`` at their due instants; returns replies and the start."""
    from repro.serve.protocol import FrameError, recv_frame, send_frame

    replies: list[Reply | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    sockets = [_connect(port) for _ in range(CONNECTIONS)]
    start_at = time.perf_counter() + 0.02

    def worker(sock: socket.socket) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(requests):
                return
            due = start_at + requests[index].due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent_at = time.perf_counter()
            try:
                send_frame(sock, requests[index].payload)
                sent_done = time.perf_counter()
                if not select.select([sock], [], [], REPLY_TIMEOUT)[0]:
                    raise TimeoutError(f"no reply within {REPLY_TIMEOUT}s")
                ready_at = time.perf_counter()
                response = recv_frame(sock)
                if response is None:
                    raise ConnectionError("daemon closed the connection")
            except (OSError, FrameError) as exc:
                now = time.perf_counter()
                replies[index] = Reply(due, sent_at, now, now, now, None, f"{type(exc).__name__}: {exc}")
                return  # this connection is unusable; the others carry on
            replies[index] = Reply(
                due, sent_at, sent_done, ready_at, time.perf_counter(), response
            )

    threads = [
        threading.Thread(target=worker, args=(sock,), name=f"perfbench-driver-{i}", daemon=True)
        for i, sock in enumerate(sockets)
    ]
    # The drawn payloads are millions of references; keep the collector from
    # traversing them mid-window, which would stall the generator.
    gc.freeze()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=requests[-1].due + 2 * REPLY_TIMEOUT)
    finally:
        gc.unfreeze()
        for sock in sockets:
            sock.close()
    return replies, start_at


def account(
    requests: list[Request], replies: list[Reply | None], spec: Workload, tally: Tally,
    session,
) -> list[Reply]:
    """Check every reply, compare a sample with local routes; return the good ones."""
    d, g = spec.shapes[0]
    answered = []
    for request, reply in zip(requests, replies):
        if reply is None:
            tally.error("request never sent: every connection failed")
        elif reply.response is None:
            tally.error(reply.error or "no response")
        elif not reply.response.get("ok"):
            tally.error(f"daemon error {reply.response.get('error')}")
        else:
            fields = reply.response["metrics"]
            failed_before = tally.failed
            tally.record(fields, request.pi, d, g)
            if tally.failed == failed_before and len(answered) % CHECK_STRIDE == 0:
                local = session.route(request.pi, d=d, g=g).to_dict()
                if local != fields:
                    tally.failed += 1
                    tally.note(f"served {fields} != local {local}")
            answered.append(reply)
    return answered


@dataclass
class Phase:
    """One daemon's measured window."""

    setups: list[float]       # seconds from spawn to the first answer, per spawn
    before: dict[str, Any]    # the daemon's stats right before the window
    after: dict[str, Any]     # ... and right after it
    requests: list[Request]
    replies: list[Reply | None]
    start_at: float
    rss_mb: float             # the daemon's resident high-water mark


def _phase(
    root: Path, workdir: Path, spec: Workload, rng: np.random.Generator,
    hot: list[np.ndarray], seconds: float, tally: Tally, *, tag: str,
    spawns: int = 1, trace_path: Path | None = None,
) -> Phase:
    """Spawn a daemon ``spawns`` times (timing each), warm the last one up,
    offer it ``seconds`` of traffic, then stop it."""
    setups = []
    daemon = None
    try:
        for k in range(spawns):
            if daemon is not None:
                _check_exit(daemon, tally)
                daemon = None
            first = draw_traffic(rng, spec, 0, hot)[0]
            daemon, port, setup_s = start(root, workdir, f"{tag}{k}", first, trace_path)
            setups.append(setup_s)
        drive(port, draw_traffic(rng, spec, spec.warmup_s, hot))
        before = _ask(port, {"op": "stats"})["stats"]
        requests = draw_traffic(rng, spec, seconds, hot)
        replies, start_at = drive(port, requests)
        after = _ask(port, {"op": "stats"})["stats"]
        rss_mb = peak_rss_mb(daemon.proc.pid)
    finally:
        if daemon is not None:
            _check_exit(daemon, tally)
    return Phase(setups, before, after, requests, replies, start_at, rss_mb)


def _check_exit(daemon: Daemon, tally: Tally) -> None:
    code = daemon.stop()
    if code != 0:
        tally.failed += 1
        tally.note(f"daemon exited with code {code}: {daemon.log_path.read_text()[-500:]}")


def _hot_set(rng: np.random.Generator, spec: Workload) -> list[np.ndarray]:
    d, g = spec.shapes[0]
    return [rng.permutation(d * g) for _ in range(HOT_SET)]


def timed(
    root: Path, spec: Workload, seed: int, seconds: float, tally: Tally, workdir: Path
) -> dict:
    """The untraced run: every end-to-end metric of the serve workload."""
    rng = np.random.default_rng(seed)
    phase = _phase(
        root, workdir, spec, rng, _hot_set(rng, spec), seconds, tally,
        tag="timed", spawns=SETUP_REPEATS,
    )
    answered = account(phase.requests, phase.replies, spec, tally, fast_session())
    latencies = [reply.done_at - reply.due for reply in answered]
    tally.latencies.extend(latencies)
    last = max((reply.done_at for reply in answered), default=phase.start_at + seconds)
    return {
        "setup_s": min(phase.setups),
        "routes_per_s": len(answered) / (last - phase.start_at),
        "latency_p50_ms": percentile_ms(latencies, 50) if latencies else 0.0,
        "latency_tail_ms": percentile_ms(latencies, TAIL) if latencies else 0.0,
        "peak_rss_mb": phase.rss_mb,
    }


def traced(
    root: Path, spec: Workload, seed: int, seconds: float, tally: Tally, workdir: Path,
    trace_path: Path,
) -> dict:
    """The traced run: an untraced daemon, then a traced one, half the time each.

    The traced daemon writes its spans to ``trace_path`` when it drains.
    """
    rng = np.random.default_rng(seed)
    hot = _hot_set(rng, spec)
    session = fast_session()
    plain = _phase(root, workdir, spec, rng, hot, seconds / 2, tally, tag="plain")
    account(plain.requests, plain.replies, spec, tally, session)
    traced_phase = _phase(
        root, workdir, spec, rng, hot, seconds / 2, tally, tag="traced", trace_path=trace_path
    )
    answered = account(traced_phase.requests, traced_phase.replies, spec, tally, session)
    before, after = traced_phase.before, traced_phase.after
    stages = after["telemetry"]["stages"]
    sizes = {
        int(size): count - before["telemetry"]["batch_size_histogram"].get(size, 0)
        for size, count in after["telemetry"]["batch_size_histogram"].items()
    }
    calls = sum(sizes.values())
    plain_route = plain.after["telemetry"]["stages"]["route"]["p50_ms"]
    return {
        "pops.engine.cache_hits": after["cache"]["hits"] - before["cache"]["hits"],
        "pops.engine.cache_misses": after["cache"]["misses"] - before["cache"]["misses"],
        "serve.batcher.queue_wait_ms_p50": stages["queue_wait"]["p50_ms"],
        "serve.batcher.batch_assembly_ms_p50": stages["batch_assembly"]["p50_ms"],
        "serve.batcher.route_ms_p50": stages["route"]["p50_ms"],
        "serve.daemon.respond_ms_p50": stages["respond"]["p50_ms"],
        "serve.batcher.mean_batch_size": (
            sum(size * count for size, count in sizes.items()) / calls if calls else 0.0
        ),
        "serve.protocol.send_ms": statistics.median(
            (r.sent_done - r.sent_at) * 1e3 for r in answered
        ) if answered else 0.0,
        "serve.protocol.recv_ms": statistics.median(
            (r.done_at - r.ready_at) * 1e3 for r in answered
        ) if answered else 0.0,
        "bench.driver.lateness_p99_ms": percentile_ms(
            [r.sent_at - r.due for r in answered], 99
        ) if answered else 0.0,
        # The daemon's traced over untraced route-stage p50, minus 1.
        "bench.trace.overhead": (
            stages["route"]["p50_ms"] / plain_route - 1.0 if plain_route else 0.0
        ),
    }
