"""Self-test of the benchmark: every workload at toy size, in about 20 seconds.

    python3 perfbench/selftest.py

For each workload it runs ``run.py --toy`` untraced and traced and checks
that the result line has exactly the contract's keys, that every metric
declared in ``BENCHMARK.json`` is printed with its declared unit, and that
the run is correct.  It then runs each workload with ``--corrupt`` (the
first result is falsified) and checks that the correctness verdict trips.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, *extra: str) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--toy", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if completed.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {completed.returncode}: "
                             f"{completed.stderr[-1500:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: dict[str, str]) -> list[str]:
    """Contract violations of one result line against the declared metrics."""
    found = []
    if set(result) != RESULT_KEYS:
        found.append(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        found.append(f"attempted {result['attempted']!r}")
    if set(result["metrics"]) != set(declared):
        found.append(
            f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ set(declared))}"
        )
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if metric["unit"] != declared.get(name):
            found.append(f"{name} unit {metric['unit']!r}, declared {declared.get(name)!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"{name} value {value!r} is not a finite number")
    return found


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import END_TO_END, PER_LAYER, WORKLOADS

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
        1: {m["name"]: m["unit"] for m in benchmark["per_layer"]},
    }
    found: list[str] = []
    problems = []
    if declared[0] != END_TO_END or declared[1] != PER_LAYER:
        problems.append("run.py's metric tables disagree with BENCHMARK.json")
    if [w["name"] for w in benchmark["workloads"]] != list(WORKLOADS):
        problems.append("run.py's workloads disagree with BENCHMARK.json")
    report("BENCHMARK.json", problems, found)
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            result = run(workload, trace)
            problems = check_result(result, declared[trace])
            if not result["correct"] or result["failed"]:
                problems.append(f"correct={result['correct']} failed={result['failed']}")
            report(label, problems, found)
        result = run(workload, 0, "--corrupt")
        problems = []
        if result["correct"] or result["failed"] < 1:
            problems.append("a falsified result did not trip the correctness check")
        report(f"{workload} --corrupt", problems, found)
    return 1 if found else 0


def report(label: str, problems: list[str], found: list[str]) -> None:
    for problem in problems:
        print(f"FAIL {label}: {problem}", flush=True)
    if not problems:
        print(f"ok   {label}", flush=True)
    found.extend(problems)


if __name__ == "__main__":
    sys.exit(main())
