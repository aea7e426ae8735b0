"""Helpers shared by the library and serving workloads."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from typing import Any

import numpy as np

from checks import corrupted, problems, slots_over_bound

#: The fast path every workload measures: the daemon's default pair.
ROUTER_BACKEND = "euler-array"
SIM_BACKEND = "batched"

#: Fresh-interpreter set-ups per run; ``setup_s`` is the fastest.
SETUP_REPEATS = 5

#: The percentile reported as ``latency_tail_ms``.  p99 and p95 were tried:
#: between seeds they varied by up to 12% (p99, serve) and 20% (p95, single),
#: too much to guard a 25% bound on this shared host.
TAIL = 90


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a daemon under load when ``rate`` is set,
    otherwise closed-loop ``Session.route`` calls round-robin over ``shapes``."""

    name: str
    shapes: tuple[tuple[int, int], ...]
    rate: float = 0.0          # serve: offered Poisson rate, requests/s
    warmup_s: float = 1.0      # untimed work before the window (caches fill)


@dataclass
class Tally:
    """Attempts, failures, call latencies and slot ratios of one phase.

    ``corrupt_next`` makes the next recorded result deliberately wrong, so
    the self-test can prove that the checks trip.
    """

    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    corrupt_next: bool = False

    def note(self, message: str) -> None:
        if len(self.notes) < 5:
            self.notes.append(message)

    def record(self, fields: dict[str, Any], pi: np.ndarray, d: int, g: int) -> None:
        """Check one result and count it."""
        self.attempted += 1
        if self.corrupt_next:
            fields = corrupted(fields)
            self.corrupt_next = False
        found = problems(fields, pi, d, g)
        if found:
            self.failed += 1
            self.note(f"{d}x{g}: " + "; ".join(found))
        ratio = slots_over_bound(fields)
        if ratio is not None:
            self.ratios.append(ratio)

    def error(self, message: str, count: int = 1) -> None:
        """``count`` attempts that returned no result."""
        self.attempted += count
        self.failed += count
        self.note(message)


def fast_session():
    """A ``Session`` on the fast path, cache on."""
    from repro.api import RunConfig, Session

    return Session(RunConfig(router_backend=ROUTER_BACKEND, sim_backend=SIM_BACKEND))


def segments(samples: list[float], q: float, most: int = 10) -> list[np.ndarray]:
    """Split chronological ``samples`` into up to ``most`` consecutive parts.

    Each part keeps at least thirty samples beyond its ``q``-th percentile:
    with ten, the tail of one part was too noisy to compare parts by.
    """
    per_part = ceil(30 / (1 - q / 100))
    return np.array_split(np.asarray(samples), max(1, min(most, len(samples) // per_part)))


# The host is shared: for seconds to minutes at a time, other tenants slow a
# route by up to half.  A statistic of the whole run inherits that
# drift, so each statistic below is taken in every part of the run and the
# least-disturbed part is reported (the best-of-N convention of the
# repository's other benchmarks, with parts in place of repeats).


def percentile_ms(seconds: list[float], q: float) -> float:
    """The ``q``-th percentile in ms of the best of the run's :func:`segments`."""
    return float(min(np.percentile(part, q) for part in segments(seconds, q))) * 1e3


def throughput(seconds: list[float]) -> float:
    """Routes per second of routing time in the best of the run's :func:`segments`."""
    return float(max(len(part) / part.sum() for part in segments(seconds, 50)))


def peak_rss_mb(pid: int | str = "self") -> float:
    """A process's resident high-water mark (``VmHWM``) in MB.

    Read from ``/proc`` rather than ``getrusage``: a spawned child's
    ``ru_maxrss`` starts from its parent's size at the fork.
    """
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def child_env(root: Path) -> dict[str, str]:
    """Environment of a child interpreter that imports ``repro`` from ``root/src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def stop(proc: subprocess.Popen, grace_s: float = 20.0) -> int:
    """Ask ``proc`` to exit (SIGTERM), kill it after ``grace_s``; reap it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()
    return proc.returncode


def timed_setup(root: Path, argv: list[str]) -> float:
    """Seconds from spawning a fresh interpreter until it prints ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=root, env=child_env(root),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        stop(proc)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe {argv} failed (exit {code})")
    return elapsed
