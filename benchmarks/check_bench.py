"""Schema-validate ``BENCH_*.json`` perf artefacts.

CI's bench-smoke job emits one JSON artefact per benchmark module
(``BENCH_collective.json``, ``BENCH_routing.json``, ``BENCH_sweep.json``,
``BENCH_serve.json``, ``BENCH_obs.json``, ``BENCH_faults.json``) through
:mod:`benchmarks._emit`.  Downstream tooling plots these across commits,
which only works while every artefact keeps the contract; this script is
the gate.  For each file it checks:

* top-level shape: ``schema == 1``, ``pytest_exit_status == 0``, a
  non-empty ``results`` list of dicts, each with a ``name``;
* provenance: a ``provenance`` object stamping ``git_commit``, ``hostname``,
  ``python_version`` and ``numpy_version`` as non-empty strings, so a
  committed artefact always says which commit and machine produced it;
* floor discipline: every entry reporting a ``speedup`` must carry an
  explicit ``floor`` key — ``None`` for informational entries, a number for
  gated ones — and a numeric floor must be met (``speedup >= floor``);
* bound discipline: a numeric ``X_budget`` key is an upper bound on the
  entry's ``X`` (``X <= X_budget``, e.g. ``ms_per_route_budget``) and a
  numeric ``X_floor`` key a lower bound (``X >= X_floor``); either one
  requires ``X`` to be present and numeric.

Usage (exit status 1 on any violation, 2 when no artefact matched)::

    python benchmarks/check_bench.py BENCH_*.json
    python benchmarks/check_bench.py          # globs BENCH_*.json in cwd

Named ``check_bench`` (not ``bench_*`` / ``test_*``) on purpose: pytest
must not collect it, it is a plain script.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
from numbers import Real

EXPECTED_SCHEMA = 1

#: The machine identity every artefact must stamp (see ``_emit.provenance``).
PROVENANCE_FIELDS = ("git_commit", "hostname", "python_version", "numpy_version")


def _check_bounds(entry: dict, where: str) -> list[str]:
    """Bound-discipline violations of one result entry."""
    problems: list[str] = []
    for key, bound in entry.items():
        metric, _, kind = key.rpartition("_")
        if kind not in ("budget", "floor") or not metric:
            continue
        if not _is_number(bound):
            problems.append(f"{where}: {key} {bound!r} is not a number")
            continue
        value = entry.get(metric)
        if not _is_number(value):
            problems.append(
                f"{where}: {key} given but {metric} is "
                f"{'missing' if metric not in entry else repr(value)}, "
                "expected a number"
            )
        elif kind == "budget" and value > bound:
            problems.append(f"{where}: {metric} {value:g} is over its budget {bound:g}")
        elif kind == "floor" and value < bound:
            problems.append(f"{where}: {metric} {value:g} is below its floor {bound:g}")
    return problems


def _is_number(value) -> bool:
    """A real, non-bool, non-NaN number (a NaN would pass every comparison)."""
    return isinstance(value, Real) and not isinstance(value, bool) and value == value


def check_file(path: str) -> list[str]:
    """All contract violations in one artefact (empty list = clean)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable: {exc}"]
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]

    problems: list[str] = []
    if payload.get("schema") != EXPECTED_SCHEMA:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected {EXPECTED_SCHEMA}"
        )
    if payload.get("pytest_exit_status") != 0:
        problems.append(
            f"pytest_exit_status is {payload.get('pytest_exit_status')!r}, "
            "expected 0 (the emitting run failed)"
        )
    prov = payload.get("provenance")
    if not isinstance(prov, dict):
        problems.append(
            f"provenance is {type(prov).__name__ if prov is not None else None!r}, "
            "expected an object stamping commit/host/versions"
        )
    else:
        for field in PROVENANCE_FIELDS:
            value = prov.get(field)
            if not isinstance(value, str) or not value:
                problems.append(
                    f"provenance.{field} is {value!r}, expected a non-empty string"
                )
    results = payload.get("results")
    if not isinstance(results, list) or not results:
        problems.append("results must be a non-empty list")
        return problems

    for i, entry in enumerate(results):
        where = f"results[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be an object")
            continue
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing result name")
        else:
            where = f"results[{i}] ({name})"
        problems.extend(_check_bounds(entry, where))
        if "speedup" not in entry:
            continue
        speedup = entry["speedup"]
        if not isinstance(speedup, Real):
            problems.append(f"{where}: speedup {speedup!r} is not a number")
            continue
        if "floor" not in entry:
            problems.append(
                f"{where}: reports a speedup but carries no floor key "
                "(use floor=None for informational entries)"
            )
            continue
        floor = entry["floor"]
        if floor is None:
            continue
        if not isinstance(floor, Real):
            problems.append(f"{where}: floor {floor!r} is neither None nor a number")
        elif speedup < floor:
            problems.append(
                f"{where}: speedup {speedup:.2f}x is below its floor {floor}x"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "artefacts",
        nargs="*",
        help="BENCH_*.json files to check (default: glob BENCH_*.json in cwd)",
    )
    args = parser.parse_args(argv)
    paths = args.artefacts or sorted(glob.glob("BENCH_*.json"))
    if not paths:
        print("check_bench: no BENCH_*.json artefacts found", file=sys.stderr)
        return 2

    failed = False
    for path in paths:
        problems = check_file(path)
        if problems:
            failed = True
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
        else:
            with open(path) as fh:
                n = len(json.load(fh)["results"])
            print(f"{path}: ok ({n} results)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
