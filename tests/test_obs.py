"""The observability layer: tracer, metrics registry, exporters, profiles.

Pins the contracts the instrumented pipeline relies on:

* span integrity — nesting, parenting, thread separation, retroactive emits;
* the disabled path — :data:`repro.obs.NULL_TRACER` is a true no-op
  singleton (identity is part of the contract);
* the JSONL trace schema round-trips and its validator catches violations;
* the metrics registry is get-or-create, kind-checked and thread-safe;
* percentile parity — every latency surface reduces through the one shared
  implementation, bit-equal to the historical ``numpy.percentile`` outputs;
* the ``--profile`` tree and the CLI/``--trace-out`` plumbing around it.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    Tracer,
    chrome_trace,
    get_tracer,
    percentiles,
    profile_dict,
    read_jsonl,
    render_profile,
    set_tracer,
    summarize_ms,
    validate_jsonl,
    write_chrome,
    write_jsonl,
)
from repro.obs.stats import StreamingStats


@pytest.fixture(autouse=True)
def _restore_null_tracer():
    """No test may leak an enabled tracer into the rest of the suite."""
    yield
    set_tracer(None)


# ---------------------------------------------------------------------------
# Tracer: span integrity


class TestTracer:
    def test_nested_spans_record_parentage(self):
        tracer = Tracer()
        with tracer.span("outer", d=8) as outer:
            with tracer.span("inner"):
                pass
            outer.annotate(hit=True)
        spans = tracer.finished()
        assert [s["name"] for s in spans] == ["inner", "outer"]  # close order
        inner, outer = spans
        assert outer["parent_id"] is None
        assert inner["parent_id"] == outer["span_id"]
        assert outer["attrs"] == {"d": 8, "hit": True}
        assert inner["dur_ns"] >= 0
        assert outer["dur_ns"] >= inner["dur_ns"]
        assert outer["ts_ns"] <= inner["ts_ns"]

    def test_sibling_spans_share_a_parent(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, root = tracer.finished()
        assert a["parent_id"] == b["parent_id"] == root["span_id"]
        assert len({s["span_id"] for s in (a, b, root)}) == 3

    def test_span_records_survive_exceptions(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        (span,) = tracer.finished()
        assert span["name"] == "failing"
        # The thread's nesting stack was popped: the next span is a root.
        with tracer.span("after"):
            pass
        assert tracer.finished()[-1]["parent_id"] is None

    def test_threads_nest_independently(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def worker(name: str) -> None:
            with tracer.span(f"{name}.outer"):
                barrier.wait()  # both threads hold an open span at once
                with tracer.span(f"{name}.inner"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in ("t1", "t2")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = {s["name"]: s for s in tracer.finished()}
        assert len(spans) == 4
        for name in ("t1", "t2"):
            inner, outer = spans[f"{name}.inner"], spans[f"{name}.outer"]
            # Never parented across threads, even while both were open.
            assert inner["parent_id"] == outer["span_id"]
            assert inner["tid"] == outer["tid"]
        assert spans["t1.outer"]["tid"] != spans["t2.outer"]["tid"]

    def test_stages_cut_a_span_back_to_back(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("before"):
                pass
            root.stage = "a"
            with tracer.span("inner"):
                pass
            root.stage = "b"
            assert root.stage == "b"
        spans = tracer.finished()
        before, inner, a, b, root = spans  # a span's stages come right before it
        assert [s["name"] for s in spans] == ["before", "inner", "a", "b", "root"]
        assert len({s["span_id"] for s in spans}) == 5
        assert a["parent_id"] == b["parent_id"] == before["parent_id"] == root["span_id"]
        assert inner["parent_id"] == a["span_id"]
        # One clock read per boundary: no gap between stages, and the last
        # stage ends with its span.
        assert a["ts_ns"] + a["dur_ns"] == b["ts_ns"]
        assert b["ts_ns"] + b["dur_ns"] == root["ts_ns"] + root["dur_ns"]
        assert a["attrs"] == b["attrs"] == {}

    def test_stages_close_when_an_exception_escapes(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("root") as root:
                root.stage = "a"
                raise RuntimeError("boom")
        assert [s["name"] for s in tracer.finished()] == ["a", "root"]

    def test_emit_is_retroactive_and_parentable(self):
        tracer = Tracer()
        root = tracer.emit("serve.request", 1_000, 500, batch_size=4)
        child = tracer.emit("serve.route", 1_100, 300, parent_id=root)
        spans = tracer.finished()
        assert spans[0]["span_id"] == root
        assert spans[1]["span_id"] == child
        assert spans[1]["parent_id"] == root
        assert spans[0]["attrs"] == {"batch_size": 4}
        assert (spans[0]["ts_ns"], spans[0]["dur_ns"]) == (1_000, 500)

    def test_clear_and_len(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        assert len(tracer) == 1
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.finished() == []


# ---------------------------------------------------------------------------
# The disabled path


class TestNullTracer:
    def test_default_tracer_is_the_null_singleton(self):
        assert get_tracer() is NULL_TRACER
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.enabled is False

    def test_span_returns_one_shared_noop_object(self):
        # Identity, not just equality: the disabled hot path must not
        # allocate per span.
        a = NULL_TRACER.span("engine.execute", n=1024)
        b = NULL_TRACER.span("route.compile")
        assert a is b
        with a as ctx:
            ctx.annotate(hit=True)  # discards silently
            ctx.stage = "route.setup"  # one ignored store

    def test_null_tracer_accumulates_nothing(self):
        for _ in range(100):
            with NULL_TRACER.span("hot"):
                pass
        NULL_TRACER.emit("x", 0, 1)
        assert NULL_TRACER.finished() == []
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.emit("x", 0, 1) == 0

    def test_set_tracer_swaps_and_restores(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert previous is NULL_TRACER
            assert get_tracer() is tracer
        finally:
            assert set_tracer(previous) is tracer
        assert get_tracer() is NULL_TRACER


# ---------------------------------------------------------------------------
# Exporters


def _sample_spans() -> list[dict]:
    tracer = Tracer()
    with tracer.span("session.route", d=8, g=4, n=32):
        with tracer.span("route.compile"):
            with tracer.span("route.plan") as plan:
                plan.annotate(backend="euler-array", batch=1)
        with tracer.span("engine.execute"):
            pass
    return tracer.finished()


class TestJsonlExport:
    def test_round_trip(self, tmp_path):
        spans = _sample_spans()
        path = str(tmp_path / "trace.jsonl")
        assert write_jsonl(spans, path) == len(spans)
        header, loaded = read_jsonl(path)
        assert header == {
            "schema": 1, "kind": "pops-trace", "events": len(spans)
        }
        assert loaded == spans  # bit-for-bit through JSON

    def test_validate_accepts_the_writer_output(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(_sample_spans(), path)
        assert validate_jsonl(path) == []

    def test_validate_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "not-a-header"}\n')
        problems = validate_jsonl(str(path))
        assert problems and "header" in problems[0]

    def test_validate_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": 99, "kind": "pops-trace", "events": 0}\n')
        problems = validate_jsonl(str(path))
        assert problems and "schema" in problems[0]

    def test_validate_rejects_event_count_mismatch(self, tmp_path):
        spans = _sample_spans()
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(spans, path)
        with open(path) as fh:
            lines = fh.readlines()
        (tmp_path / "short.jsonl").write_text("".join(lines[:-1]))
        problems = validate_jsonl(str(tmp_path / "short.jsonl"))
        assert any("declares" in p for p in problems)

    def test_validate_rejects_malformed_events(self, tmp_path):
        header = '{"schema": 1, "kind": "pops-trace", "events": 2}\n'
        bad_types = {
            "name": "", "span_id": True, "parent_id": "x", "tid": 1,
            "ts_ns": 0, "dur_ns": 0, "attrs": [],
        }
        missing = {"name": "a", "span_id": 1}
        path = tmp_path / "bad.jsonl"
        path.write_text(
            header + json.dumps(bad_types) + "\n" + json.dumps(missing) + "\n"
        )
        problems = validate_jsonl(str(path))
        assert any("name must be" in p for p in problems)
        assert any("span_id must be an integer" in p for p in problems)
        assert any("parent_id must be" in p for p in problems)
        assert any("attrs must be" in p for p in problems)
        assert any("missing keys" in p for p in problems)


class TestChromeExport:
    def test_complete_events_rebased_to_zero(self, tmp_path):
        spans = _sample_spans()
        document = chrome_trace(spans)
        events = document["traceEvents"]
        assert len(events) == len(spans)
        assert all(e["ph"] == "X" for e in events)
        assert min(e["ts"] for e in events) == 0.0
        by_name = {e["name"]: e for e in events}
        plan = by_name["route.plan"]
        assert plan["args"]["backend"] == "euler-array"
        assert plan["args"]["parent_id"] is not None
        path = str(tmp_path / "trace.json")
        assert write_chrome(spans, path) == len(spans)
        assert json.loads(Path(path).read_text())["traceEvents"]


# ---------------------------------------------------------------------------
# Metrics registry


class TestMetricsRegistry:
    def test_get_or_create_returns_the_same_series(self):
        registry = MetricsRegistry()
        a = registry.counter("requests")
        assert registry.counter("requests") is a
        labelled = registry.counter("requests", code="bad")
        assert labelled is not a
        assert registry.counter("requests", code="bad") is labelled

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_series_and_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("errors", code="a").inc(2)
        registry.counter("errors", code="b").inc()
        registry.gauge("depth").set(7)
        registry.histogram("lat", stage="route").observe(0.002)
        registry.int_histogram("batch").observe(4, count=3)
        assert {s.labels["code"] for s in registry.series("errors")} == {"a", "b"}
        snapshot = {(e["name"], tuple(sorted(e["labels"].items()))): e
                    for e in registry.snapshot()}
        assert snapshot[("errors", (("code", "a"),))]["value"] == 2
        assert snapshot[("depth", ())]["value"] == 7
        assert snapshot[("lat", (("stage", "route"),))]["total"] == 1
        assert snapshot[("batch", ())]["counts"] == {"4": 3}

    def test_render_prometheus(self):
        registry = MetricsRegistry()
        registry.counter("serve_requests").inc(3)
        registry.counter("serve_errors", code="queue-full").inc()
        registry.gauge("serve_queue_depth").set(2)
        stage = registry.histogram("serve_stage_seconds", stage="route")
        stage.observe(0.001)
        stage.observe(0.003)
        registry.int_histogram("serve_batch_size").observe(8, count=5)
        text = registry.render_prometheus()
        assert "# TYPE pops_serve_requests counter" in text
        assert "pops_serve_requests 3" in text
        assert 'pops_serve_errors{code="queue-full"} 1' in text
        assert "pops_serve_queue_depth 2" in text
        assert "# TYPE pops_serve_stage_seconds summary" in text
        assert 'quantile="0.5"' in text
        assert 'pops_serve_stage_seconds_count{stage="route"} 2' in text
        assert 'pops_serve_batch_size{value="8"} 5' in text
        assert text.endswith("\n")

    def test_registry_is_thread_safe_under_contention(self):
        registry = MetricsRegistry()
        n_threads, n_incs = 8, 2_000
        barrier = threading.Barrier(n_threads)

        def worker() -> None:
            barrier.wait()
            # get-or-create raced on purpose: all threads must resolve to
            # the same underlying series.
            for _ in range(n_incs):
                registry.counter("contended").inc()
                registry.int_histogram("sizes").observe(2)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter("contended").value == n_threads * n_incs
        assert registry.int_histogram("sizes").counts() == {
            2: n_threads * n_incs
        }


# ---------------------------------------------------------------------------
# Shared percentile implementation: parity with the historical reductions


class TestStatsParity:
    def test_percentiles_match_numpy(self):
        rng = np.random.default_rng(7)
        samples = rng.exponential(0.01, size=997)
        assert percentiles(samples) == tuple(
            float(p) for p in np.percentile(samples, (50, 95, 99))
        )
        assert percentiles([]) == (0.0, 0.0, 0.0)

    def test_summarize_ms_is_the_telemetry_stage_shape(self):
        rng = np.random.default_rng(11)
        samples = list(rng.exponential(0.005, size=313))
        summary = summarize_ms(samples)
        p50, p95, p99 = np.percentile(np.asarray(samples), (50, 95, 99))
        assert summary == {
            "count": 313,
            "p50_ms": float(p50) * 1e3,
            "p95_ms": float(p95) * 1e3,
            "p99_ms": float(p99) * 1e3,
            "mean_ms": float(np.mean(samples)) * 1e3,
        }
        assert summarize_ms([]) == {
            "count": 0, "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
            "mean_ms": 0.0,
        }

    def test_streaming_stats_bounds_the_reservoir(self):
        stats = StreamingStats(maxlen=10)
        for i in range(25):
            stats.add(float(i))
        assert len(stats) == 10
        assert stats.total == 25
        assert list(stats.values()) == [float(i) for i in range(15, 25)]
        stats.clear()
        assert stats.total == 0 and len(stats) == 0

    def test_serve_telemetry_snapshot_reduces_through_shared_stats(self):
        from repro.serve.telemetry import ServeTelemetry

        telemetry = ServeTelemetry()
        rng = np.random.default_rng(3)
        durations = rng.exponential(0.002, size=57)
        for duration in durations:
            telemetry.record_request()
            telemetry.record_response({
                "queue_wait": duration / 2, "route": duration,
            })
        telemetry.record_batch(4)
        telemetry.record_shed()
        snapshot = telemetry.snapshot()
        assert snapshot["requests"] == 57
        assert snapshot["responses"] == 57
        assert snapshot["shed"] == 1
        assert snapshot["errors"] == {"queue-full": 1}
        assert snapshot["batch_size_histogram"] == {"4": 1}
        assert snapshot["batched_requests"] == 4
        assert snapshot["stages"]["route"] == summarize_ms(durations)
        assert snapshot["stages"]["queue_wait"] == summarize_ms(durations / 2)
        # Untouched stages report the zero summary, as always.
        assert snapshot["stages"]["respond"]["count"] == 0


# ---------------------------------------------------------------------------
# Profile tree


def _span(name, span_id, parent_id, ts, dur):
    return {
        "name": name, "span_id": span_id, "parent_id": parent_id,
        "tid": 1, "ts_ns": ts, "dur_ns": dur, "attrs": {},
    }


class TestProfile:
    def test_aggregates_by_name_path(self):
        spans = [
            _span("root", 1, None, 0, 1_000_000),
            _span("work", 2, 1, 0, 600_000),
            _span("probe", 3, 2, 0, 100_000),
            _span("root", 4, None, 0, 1_000_000),
            _span("work", 5, 4, 0, 200_000),
        ]
        profile = profile_dict(spans)
        assert profile["wall_ms"] == 2.0
        (root,) = profile["stages"]
        assert (root["name"], root["count"], root["total_ms"]) == ("root", 2, 2.0)
        (work,) = root["children"]
        assert (work["count"], work["total_ms"], work["pct"]) == (2, 0.8, 40.0)
        (probe,) = work["children"]
        assert probe["total_ms"] == 0.1
        assert profile["coverage_pct"] == 40.0

    def test_orphan_spans_become_roots(self):
        profile = profile_dict([_span("lost", 9, 12345, 0, 500_000)])
        assert profile["wall_ms"] == 0.5
        assert profile["stages"][0]["name"] == "lost"
        assert profile["coverage_pct"] == 0.0  # a root with no children

    def test_render_text_tree(self):
        spans = [
            _span("root", 1, None, 0, 1_000_000),
            _span("work", 2, 1, 0, 990_000),
        ]
        text = render_profile(profile_dict(spans))
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  work")
        assert "x1" in lines[0]
        assert "stage coverage: 99.0%" in lines[-1]
        assert render_profile(profile_dict([])) == "no spans recorded"


# ---------------------------------------------------------------------------
# CLI plumbing: --profile, --trace-out, the instrumented pipeline end to end


class TestCliObservability:
    def test_route_profile_text(self, capsys):
        assert main([
            "route", "--d", "4", "--g", "4", "--sim-backend", "batched",
            "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "session.route" in out
        assert "route.compile" in out
        assert "stage coverage:" in out
        assert get_tracer() is NULL_TRACER  # CLI restored the disabled path

    def test_route_profile_json(self, capsys):
        assert main([
            "route", "--d", "8", "--g", "4", "--sim-backend", "batched",
            "--profile", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        profile = payload["profile"]
        assert profile["wall_ms"] > 0
        assert 0 < profile["coverage_pct"] <= 100.0
        names = [stage["name"] for stage in profile["stages"]]
        assert "session.route" in names
        (route,) = [s for s in profile["stages"] if s["name"] == "session.route"]
        child_names = {child["name"] for child in route["children"]}
        assert {"route.setup", "route.compile", "engine.execute"} <= child_names

    def test_route_trace_out_jsonl(self, tmp_path, capsys):
        trace = str(tmp_path / "route.jsonl")
        assert main([
            "route", "--d", "4", "--g", "4", "--sim-backend", "batched",
            "--trace-out", trace,
        ]) == 0
        capsys.readouterr()
        assert validate_jsonl(trace) == []
        _header, spans = read_jsonl(trace)
        assert any(s["name"] == "session.route" for s in spans)
        assert any(s["name"] == "route.plan" for s in spans)

    def test_route_trace_out_chrome(self, tmp_path, capsys):
        trace = str(tmp_path / "route.json")
        assert main([
            "route", "--d", "4", "--g", "4", "--trace-out", trace,
            "--trace-format", "chrome",
        ]) == 0
        capsys.readouterr()
        document = json.loads(Path(trace).read_text())
        assert document["traceEvents"]
        assert all(e["ph"] == "X" for e in document["traceEvents"])

    def test_sweep_profile_covers_shards(self, tmp_path, capsys):
        trace = str(tmp_path / "sweep.jsonl")
        assert main([
            "sweep", "--configs", "4:4", "--trials", "2", "--workers", "0",
            "--profile", "--trace-out", trace, "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"]["wall_ms"] > 0
        assert validate_jsonl(trace) == []
        _header, spans = read_jsonl(trace)
        assert any(s["name"] == "sweep.shard" for s in spans)
        # Each shard routes its trial stack as one session.route root.
        shard_roots = [s for s in spans if s["name"] == "session.route"]
        assert shard_roots and shard_roots[0]["attrs"]["batch"] == 2

    def test_serve_metrics_op_and_stats_subcommand(self, capsys):
        from repro.serve.client import ServeClient
        from repro.serve.daemon import ServeDaemon

        rng = np.random.default_rng(5)
        with ServeDaemon() as daemon:
            host, port = daemon.address
            with ServeClient(host, port) as client:
                client.route(rng.permutation(16), d=4, g=4)
                text = client.metrics()
                assert "# TYPE pops_serve_requests counter" in text
                assert "pops_serve_requests 1" in text
                assert 'pops_serve_stage_seconds_count{stage="route"} 1' in text
                assert "pops_serve_queue_depth" in text
                assert "pops_cache_" in text
            assert main(["stats", "--host", host, "--port", str(port)]) == 0
            out = capsys.readouterr().out
            assert "pops_serve_responses 1" in out
            assert main([
                "stats", "--host", host, "--port", str(port),
                "--format", "json",
            ]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["telemetry"]["responses"] == 1

    def test_stats_subcommand_fails_cleanly_without_daemon(self, capsys):
        assert main(["stats", "--port", "1"]) == 2
        assert "stats:" in capsys.readouterr().err

    def test_traced_serve_request_emits_stage_spans(self):
        from repro.serve.client import ServeClient
        from repro.serve.daemon import ServeDaemon

        tracer = Tracer()
        set_tracer(tracer)
        try:
            rng = np.random.default_rng(6)
            with ServeDaemon() as daemon:
                host, port = daemon.address
                with ServeClient(host, port) as client:
                    client.route(rng.permutation(16), d=4, g=4)
        finally:
            set_tracer(None)
        spans = tracer.finished()
        by_name = {s["name"]: s for s in spans}
        assert "serve.request" in by_name
        request = by_name["serve.request"]
        for stage in ("queue_wait", "batch_assembly", "route", "respond"):
            stage_span = by_name[f"serve.{stage}"]
            assert stage_span["parent_id"] == request["span_id"]
        assert by_name["serve.dispatch"]["attrs"]["batch"] == 1
        # The dispatch span wraps the session pipeline on the worker thread.
        assert by_name["session.route"]["parent_id"] == (
            by_name["serve.dispatch"]["span_id"]
        )
