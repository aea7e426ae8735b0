"""The repository benchmark: one command, two workloads, one JSON verdict.

    python3 perfbench/run.py --workload single-n1024 --seed 1 --seconds 50 --trace 0

Run from the repository root.  ``repro`` is imported from ``src/`` of the
checkout this file sits in (never from an installed copy); without it the
command exits non-zero and prints no result.  ``--trace 0`` prints every
end-to-end metric, ``--trace 1`` a separate traced run's per-layer ledger.
The last line of standard output is the JSON result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

Workloads, metrics and what each layer metric should move are described in
``perfbench/README.md``.  ``--toy`` shrinks every workload for the self-test;
``--corrupt`` falsifies the first result, which must flip ``correct``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

from common import Tally, Workload

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {
    "single-n1024": Workload("single-n1024", ((32, 32), (64, 16), (16, 64))),
    "serve-n1024": Workload("serve-n1024", ((32, 32),), rate=156.0),
}

#: The same workloads shrunk for the self-test.
TOY_WORKLOADS = {
    "single-n1024": Workload("single-n1024", ((4, 4), (8, 2), (2, 8)), warmup_s=0.2),
    "serve-n1024": Workload("serve-n1024", ((4, 4),), rate=40.0, warmup_s=0.2),
}

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "routes_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_fraction": "fraction",
    "peak_rss_mb": "MB",
    "slots_over_lower_bound": "ratio",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "utils.validation.check_ms": "ms",
    "routing.lower_bounds.bounds_ms": "ms",
    "api.session.self_ms": "ms",
    "routing.permutation_router.plan_ms": "ms",
    "routing.list_system.lists_ms": "ms",
    "routing.fair_distribution.solve_ms": "ms",
    "routing.fair_distribution.verify_ms": "ms",
    "graph.array_coloring.color_ms": "ms",
    "graph.array_coloring.verify_ms": "ms",
    "pops.lowering.assemble_ms": "ms",
    "pops.engine.cache_ms": "ms",
    "pops.engine.execute_ms": "ms",
    "pops.engine.verify_ms": "ms",
    "pops.engine.trace_ms": "ms",
    "pops.engine.cache_hits": "count",
    "pops.engine.cache_misses": "count",
    "pops.engine.cache_hit_ratio": "fraction",
    "serve.batcher.queue_wait_ms_p50": "ms",
    "serve.batcher.batch_assembly_ms_p50": "ms",
    "serve.batcher.route_ms_p50": "ms",
    "serve.daemon.respond_ms_p50": "ms",
    "serve.batcher.mean_batch_size": "requests",
    "serve.protocol.send_ms": "ms",
    "serve.protocol.recv_ms": "ms",
    "bench.trace.coverage": "fraction",
    "bench.trace.overhead": "fraction",
    "bench.driver.lateness_p99_ms": "ms",
}


def bind_repro() -> None:
    """Import ``repro`` from this checkout's ``src``; exit non-zero when it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src}/repro; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: repro resolved to {repro.__file__}, not {src}")


def ledger_from_trace(trace_path: Path) -> dict[str, float]:
    """Validate the exported JSONL trace and reduce it to the layer ledger."""
    from repro.obs import read_jsonl, validate_jsonl

    from layers import ledger

    problems = validate_jsonl(str(trace_path))
    if problems:
        raise ValueError(f"trace {trace_path.name} violates the schema: {problems[:3]}")
    _header, spans = read_jsonl(str(trace_path))
    result = ledger(spans)
    if result["routes"] == 0:
        raise ValueError("the traced run recorded no api.session spans")
    return result


def run_end_to_end(spec: Workload, seed: int, seconds: float, tally: Tally, workdir: Path) -> dict:
    if spec.rate:
        import serving

        values = serving.timed(ROOT, spec, seed, seconds, tally, workdir)
    else:
        import library

        values = library.timed(ROOT, spec, seed, seconds, tally)
    values["success_fraction"] = 1.0 - min(tally.failed, tally.attempted) / max(tally.attempted, 1)
    values["slots_over_lower_bound"] = statistics.fmean(tally.ratios) if tally.ratios else 0.0
    return values


def run_traced(spec: Workload, seed: int, seconds: float, tally: Tally, workdir: Path) -> dict:
    trace_path = workdir / "trace.jsonl"
    if spec.rate:
        import serving

        raw = serving.traced(ROOT, spec, seed, seconds, tally, workdir, trace_path)
    else:
        import library

        raw = library.traced(spec, seed, seconds, tally, trace_path)
    layers = ledger_from_trace(trace_path)
    # Layers and serve stages a workload does not use read 0.
    values = {name: layers.get(name, 0.0) for name in PER_LAYER}
    values.update(raw)
    hits, misses = raw["pops.engine.cache_hits"], raw["pops.engine.cache_misses"]
    values["pops.engine.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["bench.trace.coverage"] = layers["coverage"]
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument("--corrupt", action="store_true", help="falsify the first result")
    args = parser.parse_args(argv)
    bind_repro()

    spec = (TOY_WORKLOADS if args.toy else WORKLOADS)[args.workload]
    tally = Tally(corrupt_next=args.corrupt)
    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        if args.trace:
            values = run_traced(spec, args.seed, args.seconds, tally, workdir)
            units = PER_LAYER
        else:
            values = run_end_to_end(spec, args.seed, args.seconds, tally, workdir)
            units = END_TO_END
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()
    for message in tally.notes:
        print(f"perfbench: {message}", file=sys.stderr)
    attempted = max(tally.attempted, 1)
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": attempted,
        # A result that fails its checks and the arbiter is still one failure.
        "failed": min(tally.failed, attempted) if tally.attempted else 1,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
