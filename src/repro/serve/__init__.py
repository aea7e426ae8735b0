"""The serving layer: a long-lived routing daemon under live traffic.

The batch sweeps route permutations the caller already holds; a serving
deployment is the opposite shape — many concurrent clients, each holding one
permutation, all wanting an answer *now*.  This package multiplexes that
traffic onto the megabatch kernels:

* :mod:`repro.serve.protocol` — the length-prefixed JSON wire format and the
  request/response vocabulary shared by daemon and client;
* :mod:`repro.serve.telemetry` — per-stage latency percentiles, throughput
  and batch-size accounting, exposed through the ``stats`` request;
* :mod:`repro.serve.batcher` — the dynamic batcher: requests for the same
  ``(d, g)`` shape that queue up while the worker is busy coalesce into one
  :meth:`~repro.api.session.Session.route_batch` call;
* :mod:`repro.serve.daemon` — :class:`ServeDaemon`, the socket front end
  holding one warm :class:`~repro.api.session.Session`; every request routes
  with that session's backend and engine (``serve --backend`` and
  ``--sim-backend``);
* :mod:`repro.serve.client` — :class:`ServeClient`, the blocking client;
* :mod:`repro.serve.loadgen` — the open-loop Poisson load generator behind
  ``benchmarks/bench_serve.py``.

Quick start (in-process daemon, e.g. in a test or notebook)::

    from repro.serve import ServeClient, ServeDaemon

    with ServeDaemon() as daemon:
        with ServeClient(*daemon.address) as client:
            outcome = client.route(pi, d=32, g=32)
            print(outcome.metrics.slots, outcome.batch_size)

From a terminal::

    pops-repro serve --port 8472
"""

from repro.serve.client import RouteOutcome, ServeClient, ServeError
from repro.serve.daemon import ServeDaemon
from repro.serve.loadgen import LoadReport, run_poisson_load
from repro.serve.telemetry import ServeTelemetry

__all__ = [
    "LoadReport",
    "RouteOutcome",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "ServeTelemetry",
    "run_poisson_load",
]
