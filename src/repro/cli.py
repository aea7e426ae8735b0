"""Command-line interface: run the reproduction experiments from a terminal.

Every subcommand lowers its flags into one validated
:class:`~repro.api.config.RunConfig` (flags map 1:1 to config fields) and
calls the :class:`~repro.api.session.Session` facade — the same entry point
the Python API uses — so the CLI exercises no deprecated code paths.

Examples
--------
Run every experiment and print their reports::

    pops-repro run-all

Run a single experiment::

    pops-repro run E1

Route a named permutation family on a chosen network and show the metrics.
Every command defaults to the array-native fast path — the ``euler-array``
router on the ``batched`` engine, no per-packet Python objects::

    pops-repro route --d 8 --g 4 --family vector_reversal
    pops-repro route --d 32 --g 32 --family perfect_shuffle --format json

Route on the object-level arbiter instead (the ``konig`` router on the
slot-by-slot ``reference`` simulator)::

    pops-repro route --d 8 --g 4 --backend konig --sim-backend reference

Run the collective-scale experiment on the multi-location engine::

    pops-repro run E9

Fan the Theorem 2 sweep across worker processes::

    pops-repro sweep --configs 8:4,16:8,32:32 --workers 4

Shard a single huge configuration's trials across all cores::

    pops-repro sweep --configs 128:128 --trials 16 --shard-trials 2

Serve live route requests from one warm session, dynamically batching
concurrent same-shape requests onto the megabatch kernels (SIGTERM drains
in-flight batches and exits; ``stats`` requests report per-stage latency
percentiles, routes/sec and the batch-size histogram)::

    pops-repro serve --port 8472 --max-batch 64

Profile where a run spends its time (``--profile`` prints the per-stage
time/percentage tree; ``--trace-out`` exports the raw spans, in JSONL or
chrome://tracing format — both also work on ``sweep`` and ``run``)::

    pops-repro route --d 32 --g 32 --profile
    pops-repro sweep --configs 16:16 --trace-out trace.jsonl
    pops-repro route --d 8 --g 4 --trace-out trace.json --trace-format chrome

Route under an injected fault spec — the clean schedule executes until the
failure bites, then the residual traffic is re-routed online over the
surviving couplers and delivery is verified on the degraded topology
(grammar: ``cB.A`` failed coupler, ``pN`` failed processor, ``gN`` failed
group, ``onset=K``, ``transient=K``)::

    pops-repro route --d 8 --g 4 --faults c1.2,onset=1
    pops-repro route --d 8 --g 4 --faults c1.2,c3.1,transient=2 --format json

Serve with chaos injection — every dispatch executes under the fault spec
and is answered through online recovery with ``"degraded": true``::

    pops-repro serve --port 8472 --faults c1.2

Fetch a running daemon's metrics (Prometheus-style text exposition by
default, the full JSON stats payload with ``--format json``; ``--retries``
and ``--deadline-ms`` make the fetch resilient to a restarting daemon)::

    pops-repro stats --port 8472
    pops-repro stats --port 8472 --format json
    pops-repro stats --port 8472 --retries 3 --deadline-ms 2000
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Sequence

import repro.analysis.experiments  # noqa: F401  (registers E1..E12)
from repro.api.config import RunConfig
from repro.api.registry import (
    EXPERIMENTS,
    ROUTER_BACKENDS,
    SIM_ENGINES,
    ensure_builtin_backends,
)
from repro.api.session import Session
from repro.patterns.families import NAMED_FAMILIES, family_by_name
from repro.pops.topology import POPSNetwork

ensure_builtin_backends()

__all__ = ["main", "build_parser"]


def _add_format_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json = machine-readable)",
    )


def _add_obs_flags(subparser: argparse.ArgumentParser) -> None:
    """``--profile`` / ``--trace-out`` / ``--trace-format``: enable tracing."""
    subparser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "trace the pipeline and print a per-stage time/percentage tree "
            "(merged under a 'profile' key with --format json)"
        ),
    )
    subparser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the recorded trace spans to PATH (implies tracing on)",
    )
    subparser.add_argument(
        "--trace-format",
        choices=("jsonl", "chrome"),
        default="jsonl",
        help=(
            "trace file format: jsonl = one span per line (schema-versioned), "
            "chrome = a chrome://tracing / Perfetto JSON document"
        ),
    )


def _tracer_from_args(args: argparse.Namespace):
    """Install a real tracer when ``--profile``/``--trace-out`` ask for one."""
    if not (getattr(args, "profile", False) or getattr(args, "trace_out", None)):
        return None
    from repro.obs import Tracer, set_tracer

    tracer = Tracer()
    set_tracer(tracer)
    return tracer


def _conclude_tracing(args: argparse.Namespace, tracer) -> dict | None:
    """Disable tracing, write ``--trace-out``, return the profile dict (or None)."""
    if tracer is None:
        return None
    from repro.obs import profile_dict, set_tracer, write_chrome, write_jsonl

    set_tracer(None)
    spans = tracer.finished()
    if args.trace_out:
        if args.trace_format == "chrome":
            write_chrome(spans, args.trace_out)
        else:
            write_jsonl(spans, args.trace_out)
    return profile_dict(spans) if args.profile else None


def _parse_fault_spec(text: str):
    """argparse type for ``--faults``: the :meth:`FaultSpec.parse` grammar."""
    from repro.exceptions import ConfigurationError
    from repro.faults import FaultSpec

    try:
        return FaultSpec.parse(text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_in(low: int, what: str, high: int | None = None):
    """argparse type: an int in ``[low, high]``, else a usage error naming ``what``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_positive_int = _int_in(1, "a positive integer")
_non_negative_int = _int_in(0, "a non-negative integer")
_port = _int_in(0, "a port number in 0-65535", high=65535)


def _positive_ms(text: str) -> float:
    """argparse type: finite milliseconds greater than zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite positive number of milliseconds, got {text!r}"
        )
    return value


def _add_backend_flags(
    subparser: argparse.ArgumentParser,
    sim_help: str | None = None,
    router_help: str = "edge-colouring backend for the fair distribution",
) -> None:
    """``--backend`` (and ``--sim-backend`` when ``sim_help`` is given).

    Both default to ``None``, which :meth:`RunConfig.from_cli_args` lowers
    to the :class:`RunConfig` defaults — one default pair for every command.
    """
    subparser.add_argument(
        "--backend",
        choices=ROUTER_BACKENDS.names(),
        default=None,
        help=f"{router_help} (default: {RunConfig.router_backend})",
    )
    if sim_help is not None:
        subparser.add_argument(
            "--sim-backend",
            choices=SIM_ENGINES.names(),
            default=None,
            help=f"{sim_help} (default: {RunConfig.sim_backend})",
        )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``pops-repro`` entry point."""
    parser = argparse.ArgumentParser(
        prog="pops-repro",
        description=(
            "Reproduction of 'Routing Permutations in Partitioned Optical "
            "Passive Stars Networks' (Mei & Rizzi, IPPS 2002)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run one experiment by id (E1..E12)")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS.names()))
    _add_obs_flags(run)
    _add_format_flag(run)

    run_all = subparsers.add_parser("run-all", help="run every experiment")
    _add_format_flag(run_all)

    route = subparsers.add_parser(
        "route", help="route one permutation family and print the metrics"
    )
    route.add_argument(
        "--d", type=_positive_int, required=True, help="processors per group"
    )
    route.add_argument(
        "--g", type=_positive_int, required=True, help="number of groups"
    )
    route.add_argument(
        "--family",
        choices=sorted(NAMED_FAMILIES),
        default="vector_reversal",
        help="named permutation family to route",
    )
    _add_backend_flags(
        route,
        "simulator engine (batched = vectorized fast path that hands "
        "duplicating schedules to the collective engine, "
        "reference = slot-by-slot arbiter)",
    )
    route.add_argument(
        "--faults",
        type=_parse_fault_spec,
        default=None,
        metavar="SPEC",
        help=(
            "inject a fault spec (cB.A failed coupler, pN failed processor, "
            "gN failed group, onset=K, transient=K; comma-separated) and "
            "recover the residual traffic online over the survivors"
        ),
    )
    _add_obs_flags(route)
    _add_format_flag(route)

    sweep = subparsers.add_parser(
        "sweep",
        help="run the Theorem 2 sweep fanned across worker processes",
    )
    sweep.add_argument(
        "--configs",
        type=_parse_sweep_configs,
        default=None,
        help="comma-separated d:g pairs (e.g. 8:4,16:4); default: the E1 sweep",
    )
    sweep.add_argument(
        "--trials", type=_positive_int, default=None,
        help=f"trials per configuration (default: {RunConfig.trials})",
    )
    sweep.add_argument(
        "--seed", type=int, default=None, help=f"RNG seed (default: {RunConfig.seed})"
    )
    _add_backend_flags(sweep, "simulator engine (batched = vectorized fast path)")
    sweep.add_argument(
        "--workers",
        type=_non_negative_int,
        default=None,
        help="worker processes (0 = serial; default: one per core)",
    )
    sweep.add_argument(
        "--shard-trials",
        type=_positive_int,
        default=None,
        metavar="K",
        help=(
            "split each configuration's trials into shards of at most K "
            "trials so a single huge configuration saturates all workers; "
            "results are bit-identical to the unsharded sweep"
        ),
    )
    _add_obs_flags(sweep)
    _add_format_flag(sweep)

    serve = subparsers.add_parser(
        "serve",
        help=(
            "long-lived routing daemon: concurrent route requests over a "
            "local socket, dynamically batched onto the megabatch kernels"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=_port, default=0, help="bind port (0 = pick an ephemeral port)"
    )
    serve.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help=(
            "write the bound port number to PATH once listening (for "
            "scripts starting the daemon with --port 0)"
        ),
    )
    _add_backend_flags(
        serve,
        "simulator engine (batched = the megabatch fast path)",
        router_help="edge-colouring backend every request is routed with",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="B",
        help=(
            "most queued same-shape requests routed as one batch "
            "(1 disables coalescing)"
        ),
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=1024,
        metavar="N",
        help=(
            "bound of the request queue; beyond it requests are shed with "
            "an explicit queue-full response"
        ),
    )
    serve.add_argument(
        "--faults",
        type=_parse_fault_spec,
        default=None,
        metavar="SPEC",
        help=(
            "chaos testing: inject this fault spec into every dispatch; "
            "struck requests are recovered online and answered degraded=true"
        ),
    )
    _add_format_flag(serve)

    stats = subparsers.add_parser(
        "stats",
        help=(
            "fetch a running daemon's metrics: Prometheus-style text by "
            "default, the full stats payload with --format json"
        ),
    )
    stats.add_argument("--host", default="127.0.0.1", help="daemon address")
    stats.add_argument("--port", type=_port, required=True, help="daemon port")
    stats.add_argument(
        "--deadline-ms",
        type=_positive_ms,
        default=10_000.0,
        metavar="MS",
        help="per-operation deadline; expiry is a structured deadline error",
    )
    stats.add_argument(
        "--retries",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help=(
            "retry transport failures up to N times with exponential "
            "backoff on a fresh connection (daemon restarts are absorbed)"
        ),
    )
    _add_format_flag(stats)

    subparsers.add_parser("list", help="list experiments and permutation families")
    return parser


def _print_json(payload: object) -> None:
    print(json.dumps(payload, indent=2))


def _print_result(
    args: argparse.Namespace, profile: dict | None, payload: dict, text: str
) -> None:
    """Print ``payload`` as JSON (``profile`` merged under a ``"profile"`` key)
    or ``text`` followed by the rendered ``--profile`` tree."""
    if args.format == "json":
        if profile is not None:
            payload["profile"] = profile
        _print_json(payload)
        return
    print(text)
    if profile is not None:
        from repro.obs import render_profile

        print()
        print(render_profile(profile))


def _command_run(args: argparse.Namespace) -> int:
    session = Session(RunConfig.from_cli_args(args))
    tracer = _tracer_from_args(args)
    result = session.experiment(args.experiment)
    profile = _conclude_tracing(args, tracer)
    _print_result(args, profile, result.to_dict(), result.to_report())
    return 0 if result.all_pass else 1


def _command_run_all(args: argparse.Namespace) -> int:
    session = Session(RunConfig.from_cli_args(args))
    if args.format == "json":
        results = session.run_all()
        _print_json({eid: result.to_dict() for eid, result in results.items()})
        return 0 if all(r.all_pass for r in results.values()) else 1
    # Text mode streams: print each report as its experiment finishes, so a
    # long run shows progress and a mid-sequence failure leaves the completed
    # reports on stdout.
    status = 0
    for experiment_id in sorted(EXPERIMENTS.names()):
        result = session.experiment(experiment_id)
        print(result.to_report())
        print()
        if not result.all_pass:
            status = 1
    return status


def _command_route(args: argparse.Namespace) -> int:
    config = RunConfig.from_cli_args(args)
    session = Session(config)
    network = POPSNetwork(args.d, args.g)
    pi = family_by_name(args.family, network.n)
    if args.faults is not None:
        return _route_with_faults(args, config, session, network, pi)
    tracer = _tracer_from_args(args)
    metrics = session.route(pi, network=network)
    profile = _conclude_tracing(args, tracer)
    payload = {
        "network": {"d": args.d, "g": args.g, "n": network.n},
        "family": args.family,
        "config": config.to_dict(),
        "metrics": metrics.to_dict(),
    }
    text = "\n".join((
        f"network          : POPS(d={args.d}, g={args.g}), n={network.n}",
        f"family           : {args.family}",
        f"simulator        : {config.sim_backend}",
        f"slots used       : {metrics.slots}",
        f"theorem 2 bound  : {metrics.theorem2_bound}",
        f"lower bound      : {metrics.lower_bound}",
        f"coupler use/slot : {metrics.mean_coupler_utilisation:.3f}",
    ))
    _print_result(args, profile, payload, text)
    return 0 if metrics.meets_theorem2_bound else 1


def _route_with_faults(args, config, session, network, pi) -> int:
    """``route --faults``: inject, recover online, verify, report."""
    from repro.exceptions import ConfigurationError, RoutingError

    tracer = _tracer_from_args(args)
    try:
        report = session.route_degraded(pi, network=network, faults=args.faults)
    except (ConfigurationError, RoutingError) as exc:
        _conclude_tracing(args, tracer)
        print(f"route: {exc}", file=sys.stderr)
        return 2
    profile = _conclude_tracing(args, tracer)
    payload = {
        "network": {"d": args.d, "g": args.g, "n": network.n},
        "family": args.family,
        "faults": args.faults.to_dict(),
        "config": config.to_dict(),
        "report": report.to_dict(),
    }
    text = "\n".join((
        f"network          : POPS(d={args.d}, g={args.g}), n={network.n}",
        f"family           : {args.family}",
        f"faults           : {args.faults.describe()}",
        f"fault triggered  : {report.fault_triggered}",
        f"executed slots   : {report.executed_slots}",
        f"residual packets : {report.residual_packets}",
        f"reroute slots    : {report.reroute_slots}",
        f"total slots      : {report.total_slots}",
        f"theorem 2 bound  : {report.theorem2_bound}",
        f"overhead ratio   : {report.overhead_ratio:.3f}",
        f"delivered        : {report.delivered}",
    ))
    _print_result(args, profile, payload, text)
    return 0 if report.delivered else 1


def _parse_sweep_configs(spec: str) -> list[tuple[int, int]]:
    """Parse ``"8:4,16:4"`` into [(8, 4), (16, 4)].

    Raises ``argparse.ArgumentTypeError`` on malformed input so argparse
    reports a clean usage error instead of a traceback.
    """
    configs = []
    for part in spec.split(","):
        d_text, sep, g_text = part.partition(":")
        try:
            if not sep:
                raise ValueError
            d, g = int(d_text), int(g_text)
            if d < 1 or g < 1:
                raise ValueError
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated d:g pairs of positive integers "
                f"(e.g. 8:4,16:4), got {part!r}"
            ) from None
        configs.append((d, g))
    return configs


def _command_sweep(args: argparse.Namespace) -> int:
    session = Session(RunConfig.from_cli_args(args))
    tracer = _tracer_from_args(args)
    result = session.sweep(args.configs)
    profile = _conclude_tracing(args, tracer)
    _print_result(args, profile, result.to_dict(), result.to_report())
    return 0 if result.all_pass else 1


def _command_serve(args: argparse.Namespace) -> int:
    """Run the serving daemon until SIGTERM/SIGINT, then drain and report."""
    import signal
    import threading

    from repro.serve.daemon import ServeDaemon

    try:
        daemon = ServeDaemon(
            RunConfig.from_cli_args(args),
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            faults=args.faults,
        )
        host, port = daemon.start()
    except (OSError, ValueError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    if args.port_file:
        # Write-then-rename so a polling starter never reads a torn file.
        tmp_path = f"{args.port_file}.tmp"
        try:
            with open(tmp_path, "w") as fh:
                fh.write(f"{port}\n")
            os.replace(tmp_path, args.port_file)
        except OSError as exc:
            daemon.shutdown(drain=False)
            print(f"serve: cannot write --port-file: {exc}", file=sys.stderr)
            return 2
    if args.format == "json":
        print(json.dumps({"listening": {"host": host, "port": port}}), flush=True)
    else:
        print(f"listening on {host}:{port} (SIGTERM drains and exits)", flush=True)

    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    stop.wait()
    # Drain: every request accepted before the signal still gets a response.
    daemon.shutdown(drain=True)
    stats = daemon.stats()
    if args.format == "json":
        _print_json(stats)
    else:
        telemetry = stats["telemetry"]
        route_stage = telemetry["stages"]["route"]
        print("serve session summary")
        print(f"requests           : {telemetry['requests']}")
        print(f"responses          : {telemetry['responses']}")
        print(f"shed (queue-full)  : {telemetry['shed']}")
        print(f"degraded (faults)  : {telemetry['degraded']}")
        print(f"batched requests   : {telemetry['batched_requests']}")
        print(f"routes/sec         : {telemetry['routes_per_second']:.1f}")
        print(
            f"route stage        : p50 {route_stage['p50_ms']:.2f} ms, "
            f"p99 {route_stage['p99_ms']:.2f} ms"
        )
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    """Fetch a running daemon's metrics over the wire."""
    from repro.serve.client import ServeClient, ServeError

    try:
        with ServeClient(
            args.host,
            args.port,
            timeout=args.deadline_ms / 1e3,
            retries=args.retries,
        ) as client:
            if args.format == "json":
                _print_json(client.stats())
            else:
                sys.stdout.write(client.metrics())
    except (OSError, ConnectionError, ServeError) as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 2
    return 0


def _command_list() -> int:
    print("experiments:")
    for experiment_id in sorted(EXPERIMENTS.names()):
        runner = EXPERIMENTS.get(experiment_id)
        doc = (runner.__doc__ or "").strip().splitlines()[0]
        print(f"  {experiment_id}: {doc}")
    print("permutation families:")
    for name in sorted(NAMED_FAMILIES):
        print(f"  {name}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _command_run(args)
        if args.command == "run-all":
            return _command_run_all(args)
        if args.command == "route":
            return _command_route(args)
        if args.command == "sweep":
            return _command_sweep(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "stats":
            return _command_stats(args)
        if args.command == "list":
            return _command_list()
    except BrokenPipeError:
        # Reports are routinely piped into head/less; a closed pipe is not an
        # error worth a traceback.  Point stdout at devnull so the interpreter
        # does not fail again flushing on shutdown.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
