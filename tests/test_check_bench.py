"""The ``benchmarks/check_bench.py`` artefact gate, driven as a subprocess.

The script is CI's guarantee that every ``BENCH_*.json`` stays
machine-readable (schema 1, floors present, speedups at or above their
floors, metrics within their ``X_budget`` / ``X_floor`` bounds); these tests
pin its verdicts — clean pass, each violation class,
and the exit codes the workflow relies on (0 ok / 1 violation / 2 nothing
to check).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

CHECK_BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "check_bench.py"


def _artefact(tmp_path: Path, name: str, payload: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _run(*paths: Path, cwd: Path | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(CHECK_BENCH), *map(str, paths)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def _good_payload() -> dict:
    return {
        "schema": 1,
        "pytest_exit_status": 0,
        "provenance": {
            "git_commit": "0123abc",
            "hostname": "bench-host",
            "python_version": "3.11.7",
            "numpy_version": "1.26.0",
        },
        "results": [
            {"name": "gated", "speedup": 12.5, "floor": 10.0},
            {"name": "informational", "speedup": 1.2, "floor": None},
            {"name": "no_speedup_metric", "seconds": 0.5},
            {"name": "budgeted", "ms_per_route": 1.0, "ms_per_route_budget": 1.5},
            {"name": "floored", "routes_per_second": 900.0,
             "routes_per_second_floor": 400.0},
        ],
    }


def test_clean_artefact_passes(tmp_path):
    artefact = _artefact(tmp_path, "BENCH_good.json", _good_payload())
    proc = _run(artefact)
    assert proc.returncode == 0, proc.stderr
    assert "ok (5 results)" in proc.stdout


def test_metric_at_its_budget_or_floor_passes(tmp_path):
    payload = _good_payload()
    payload["results"][3]["ms_per_route"] = 1.5
    payload["results"][4]["routes_per_second"] = 400.0
    proc = _run(_artefact(tmp_path, "BENCH_edge.json", payload))
    assert proc.returncode == 0, proc.stderr


def test_metric_over_budget_fails(tmp_path):
    payload = _good_payload()
    payload["results"][3]["ms_per_route"] = 1.6
    proc = _run(_artefact(tmp_path, "BENCH_overbudget.json", payload))
    assert proc.returncode == 1
    assert "ms_per_route 1.6 is over its budget 1.5" in proc.stderr


def test_metric_below_named_floor_fails(tmp_path):
    payload = _good_payload()
    payload["results"][4]["routes_per_second"] = 399.0
    proc = _run(_artefact(tmp_path, "BENCH_underfloor.json", payload))
    assert proc.returncode == 1
    assert "routes_per_second 399 is below its floor 400" in proc.stderr


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda e: e.pop("ms_per_route"), "ms_per_route is missing"),
        (lambda e: e.update(ms_per_route="fast"), "ms_per_route is 'fast'"),
        (lambda e: e.update(ms_per_route=None), "ms_per_route is None"),
        (lambda e: e.update(ms_per_route=float("nan")), "ms_per_route is nan"),
        (lambda e: e.update(ms_per_route_budget="1.5"), "ms_per_route_budget '1.5'"),
        (lambda e: e.update(ms_per_route_budget=True), "ms_per_route_budget True"),
    ],
    ids=["missing", "string", "none", "nan", "string-budget", "bool-budget"],
)
def test_budget_needs_numeric_metric_and_bound(tmp_path, mutate, message):
    payload = _good_payload()
    mutate(payload["results"][3])
    proc = _run(_artefact(tmp_path, "BENCH_badbudget.json", payload))
    assert proc.returncode == 1
    assert message in proc.stderr


def test_globs_cwd_when_no_args(tmp_path):
    _artefact(tmp_path, "BENCH_good.json", _good_payload())
    proc = _run(cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "BENCH_good.json: ok" in proc.stdout


def test_no_artefacts_is_its_own_failure(tmp_path):
    assert _run(cwd=tmp_path).returncode == 2


def test_speedup_below_floor_fails(tmp_path):
    payload = _good_payload()
    payload["results"][0]["speedup"] = 9.9
    proc = _run(_artefact(tmp_path, "BENCH_slow.json", payload))
    assert proc.returncode == 1
    assert "below its floor" in proc.stderr


def test_speedup_without_floor_key_fails(tmp_path):
    payload = _good_payload()
    del payload["results"][1]["floor"]
    proc = _run(_artefact(tmp_path, "BENCH_nofloor.json", payload))
    assert proc.returncode == 1
    assert "no floor key" in proc.stderr


def test_wrong_schema_fails(tmp_path):
    payload = _good_payload()
    payload["schema"] = 2
    proc = _run(_artefact(tmp_path, "BENCH_schema.json", payload))
    assert proc.returncode == 1
    assert "schema" in proc.stderr


def test_failed_emitting_run_fails(tmp_path):
    payload = _good_payload()
    payload["pytest_exit_status"] = 1
    proc = _run(_artefact(tmp_path, "BENCH_badrun.json", payload))
    assert proc.returncode == 1
    assert "pytest_exit_status" in proc.stderr


def test_missing_provenance_fails(tmp_path):
    payload = _good_payload()
    del payload["provenance"]
    proc = _run(_artefact(tmp_path, "BENCH_noprov.json", payload))
    assert proc.returncode == 1
    assert "provenance" in proc.stderr


def test_incomplete_provenance_fails(tmp_path):
    payload = _good_payload()
    del payload["provenance"]["git_commit"]
    payload["provenance"]["hostname"] = ""
    proc = _run(_artefact(tmp_path, "BENCH_partialprov.json", payload))
    assert proc.returncode == 1
    assert "provenance.git_commit" in proc.stderr
    assert "provenance.hostname" in proc.stderr


def test_emitter_stamps_valid_provenance(tmp_path):
    """A document written by BenchmarkEmitter passes the gate end to end."""
    sys.path.insert(0, str(CHECK_BENCH.parent))
    try:
        from _emit import BenchmarkEmitter
    finally:
        sys.path.pop(0)
    emitter = BenchmarkEmitter(str(tmp_path / "BENCH_emitted.json"))
    emitter.record("emitted", speedup=2.0, floor=1.5)
    emitter.write(exit_status=0)
    proc = _run(tmp_path / "BENCH_emitted.json")
    assert proc.returncode == 0, proc.stderr
    stamped = json.loads((tmp_path / "BENCH_emitted.json").read_text())["provenance"]
    assert set(stamped) == {
        "git_commit", "hostname", "python_version", "numpy_version"
    }


def test_empty_results_fail(tmp_path):
    payload = _good_payload()
    payload["results"] = []
    assert _run(_artefact(tmp_path, "BENCH_empty.json", payload)).returncode == 1


def test_unreadable_json_fails(tmp_path):
    path = tmp_path / "BENCH_junk.json"
    path.write_text("{not json")
    proc = _run(path)
    assert proc.returncode == 1
    assert "unreadable" in proc.stderr


def test_one_bad_file_fails_the_batch(tmp_path):
    good = _artefact(tmp_path, "BENCH_good.json", _good_payload())
    payload = _good_payload()
    payload["results"][0]["speedup"] = 1.0
    bad = _artefact(tmp_path, "BENCH_bad.json", payload)
    proc = _run(good, bad)
    assert proc.returncode == 1
    assert "BENCH_good.json: ok" in proc.stdout
    assert "BENCH_bad.json" in proc.stderr


def test_repo_artefacts_validate_if_present():
    """The real artefacts in the repo root (when freshly emitted) must pass."""
    repo_root = CHECK_BENCH.parent.parent
    artefacts = sorted(repo_root.glob("BENCH_*.json"))
    if not artefacts:
        pytest.skip("no emitted BENCH_*.json artefacts in the repo root")
    proc = _run(*artefacts)
    assert proc.returncode == 0, proc.stderr
