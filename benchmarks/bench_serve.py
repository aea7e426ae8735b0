"""Serving benchmarks: dynamic batching under open-loop Poisson load.

The serving daemon (``pops-repro serve``) exists to feed live, one-at-a-time
traffic onto the megabatch kernels: requests that queue up while the worker
is busy and share a routing shape are coalesced into one
``Session.route_batch`` call.  This module measures that mechanism end to
end — a real daemon subprocess, real sockets, the open-loop Poisson load
generator — and asserts an absolute budget: under concurrent load at
n = 1024 (d = g = 32), the batching daemon must sustain at least
``ROUTES_PER_S_BUDGET`` routes/sec.  The ratio to the *same* daemon with
coalescing disabled (``--max-batch 1``, every request routed as a batch of
one) is recorded without a floor.

The load is open-loop: arrival times are pre-drawn from an exponential
distribution and fired at wall-clock instants, so a saturated server cannot
slow down the offered rate (as closed-loop measurement would let it).  The
offered rate is set well above the capacity of either daemon, so each
sustained rate is its capacity.

Results are recorded through the shared ``bench_emit`` fixture::

    pytest benchmarks/bench_serve.py --json BENCH_serve.json
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from repro.serve import ServeClient
from repro.serve.loadgen import run_poisson_load

#: The floor shape: n = 1024, the square d = g case of the megabatch floor.
D = G = 32

#: Offered Poisson rate (routes/sec): several times either daemon's capacity.
RATE = 3000.0

#: Requests per measurement pass (~0.3 s of offered arrivals).
N_REQUESTS = 600

#: Concurrent client connections; also the ceiling on achievable batch size
#: (one outstanding request per connection), and the treatment arm's
#: ``--max-batch``.
CONNECTIONS = 32

#: Budget of the batching daemon, routes/sec, set 30% below the slowest of
#: twelve runs (575–703 routes/s) on a 2-core x86-64 VM.  On a 2-core x86-64
#: VM the natural-batching daemon later sustained 1579–1836 routes/s over
#: three runs (the ``--max-batch 1`` daemon 831–1006).
ROUTES_PER_S_BUDGET = 400.0


@contextmanager
def serve_daemon(tmp_path, max_batch: int = CONNECTIONS):
    """A real ``pops-repro serve`` subprocess; yields its bound port.

    SIGTERM on exit and asserts the clean-drain exit status, so every
    benchmark pass also exercises the daemon's full lifecycle.
    """
    port_file = tmp_path / f"port-{max_batch}"
    # A retry reuses this path; a stale file from the previous daemon must
    # not be read as the new daemon's port.
    port_file.unlink(missing_ok=True)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--port-file", str(port_file),
            "--max-batch", str(max_batch),
            "--max-queue", "4096",
            "--format", "json",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        deadline = time.perf_counter() + 30.0
        port = None
        while time.perf_counter() < deadline:
            if port_file.exists() and port_file.read_text().strip():
                port = int(port_file.read_text().strip())
                break
            if process.poll() is not None:
                raise RuntimeError(f"daemon died at startup: {process.communicate()}")
            time.sleep(0.02)
        if port is None:
            raise RuntimeError("daemon never wrote its port file")
        yield port
        process.send_signal(signal.SIGTERM)
        _stdout, stderr = process.communicate(timeout=60.0)
        assert process.returncode == 0, stderr
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()


def _warmup(port: int, n_requests: int = 8) -> None:
    """Prime the daemon (imports, first-compile effects) before timing."""
    run_poisson_load(
        "127.0.0.1", port, rate=10_000.0, n_requests=n_requests,
        d=D, g=G, seed=7, connections=4,
    )


def _measure(port: int, seed: int):
    report = run_poisson_load(
        "127.0.0.1", port, rate=RATE, n_requests=N_REQUESTS,
        d=D, g=G, seed=seed, connections=CONNECTIONS,
    )
    assert report.completed == N_REQUESTS, (
        f"load run lost requests: {report.to_dict()}"
    )
    return report


def test_serve_dynamic_batching_budget(bench_emit, tmp_path):
    """The batching daemon must sustain ``ROUTES_PER_S_BUDGET`` routes/sec.

    Both arms are the same daemon binary, same shape (n = 1024, d = g = 32),
    same offered load (open-loop Poisson over 32 connections); the only
    difference is ``--max-batch`` (32 vs 1).  Responses are bit-identical
    either way (the megabatch contract), so the recorded ratio isolates
    dynamic batching.  The measurement retries up to
    three times keeping the fastest batching run, so a noisy-neighbour tick
    on the CI runner cannot fail the build.
    """
    best = None
    for attempt in range(3):
        with serve_daemon(tmp_path) as port:
            _warmup(port)
            batched = _measure(port, seed=100 + attempt)
            with ServeClient("127.0.0.1", port) as client:
                stats = client.stats()
        telemetry = stats["telemetry"]
        # Dynamic batching must actually have coalesced under this load.
        assert telemetry["batched_requests"] > 0, telemetry["batch_size_histogram"]
        assert any(
            int(size) >= 2 for size in telemetry["batch_size_histogram"]
        ), telemetry["batch_size_histogram"]

        with serve_daemon(tmp_path, max_batch=1) as port:
            _warmup(port)
            single = _measure(port, seed=100 + attempt)

        if best is None or (
            batched.achieved_routes_per_second > best[0].achieved_routes_per_second
        ):
            best = (batched, single, telemetry)
        if best[0].achieved_routes_per_second >= ROUTES_PER_S_BUDGET:
            break

    batched, single, telemetry = best
    best_speedup = (
        batched.achieved_routes_per_second / single.achieved_routes_per_second
    )
    print(
        f"\nn={batched.n} rate={RATE:.0f}/s x{N_REQUESTS}: "
        f"max-batch {CONNECTIONS} -> {batched.achieved_routes_per_second:.0f} "
        f"routes/s (p50 {batched.latency_p50_ms:.1f} ms, "
        f"p99 {batched.latency_p99_ms:.1f} ms), "
        f"max-batch 1 -> {single.achieved_routes_per_second:.0f} routes/s "
        f"(p50 {single.latency_p50_ms:.1f} ms, p99 {single.latency_p99_ms:.1f} ms), "
        f"speedup {best_speedup:.1f}x"
    )
    bench_emit(
        "serve_dynamic_batching_vs_max_batch1",
        d=D,
        g=G,
        n=batched.n,
        offered_rate=RATE,
        n_requests=N_REQUESTS,
        connections=CONNECTIONS,
        batched_routes_per_second=batched.achieved_routes_per_second,
        batched_p50_ms=batched.latency_p50_ms,
        batched_p99_ms=batched.latency_p99_ms,
        max_batch_size_seen=batched.max_batch_size_seen,
        batch_size_histogram=telemetry["batch_size_histogram"],
        max_batch1_routes_per_second=single.achieved_routes_per_second,
        max_batch1_p50_ms=single.latency_p50_ms,
        max_batch1_p99_ms=single.latency_p99_ms,
        batched_routes_per_second_floor=ROUTES_PER_S_BUDGET,
        speedup=best_speedup,
        floor=None,
    )
    assert batched.achieved_routes_per_second >= ROUTES_PER_S_BUDGET, (
        f"the batching daemon sustained only "
        f"{batched.achieved_routes_per_second:.0f} routes/s "
        f"(budget {ROUTES_PER_S_BUDGET:.0f})"
    )


@pytest.mark.parametrize("rate", [250.0, 1000.0, 3000.0])
def test_serve_latency_at_rate(bench_emit, tmp_path, rate):
    """Informational arrival-rate sweep: latency percentiles per offered rate.

    Below capacity the daemon tracks the offered rate and p50 stays near the
    one-request service time; past saturation queueing dominates and the
    sustained rate plateaus at capacity.  No floor — this records the
    latency/throughput trajectory for the perf artefact.
    """
    with serve_daemon(tmp_path) as port:
        _warmup(port)
        report = run_poisson_load(
            "127.0.0.1", port, rate=rate, n_requests=300,
            d=D, g=G, seed=int(rate), connections=CONNECTIONS,
        )
    assert report.completed == 300
    print(
        f"\noffered {rate:.0f}/s -> achieved "
        f"{report.achieved_routes_per_second:.0f}/s, p50 "
        f"{report.latency_p50_ms:.1f} ms, p99 {report.latency_p99_ms:.1f} ms, "
        f"max batch {report.max_batch_size_seen}"
    )
    bench_emit(
        "serve_latency_at_rate",
        d=D,
        g=G,
        n=report.n,
        offered_rate=rate,
        achieved_routes_per_second=report.achieved_routes_per_second,
        latency_p50_ms=report.latency_p50_ms,
        latency_p95_ms=report.latency_p95_ms,
        latency_p99_ms=report.latency_p99_ms,
        max_batch_size_seen=report.max_batch_size_seen,
    )
