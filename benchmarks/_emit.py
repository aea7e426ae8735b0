"""Machine-readable benchmark results: the shared ``--json PATH`` emitter.

Every module under ``benchmarks/`` can record named result entries through the
``bench_emit`` fixture (wired up in ``benchmarks/conftest.py``); when the run
was started with ``--json PATH``, the collected entries are written to that
path at session end as one JSON document::

    pytest benchmarks/bench_collective_engine.py --json BENCH_collective.json

The document shape is stable so successive PRs can track the performance
trajectory by diffing files committed from CI runs::

    {
      "schema": 1,
      "pytest_exit_status": 0,
      "provenance": {"git_commit": ..., "hostname": ...,
                     "python_version": ..., "numpy_version": ...},
      "results": [
        {"name": "collective_vs_reference_broadcast", "n": 1024,
         "reference_seconds": ..., "collective_seconds": ..., "speedup": ...},
        ...
      ]
    }

The ``provenance`` block stamps where the numbers came from — the emitting
git commit, machine, Python and numpy versions — so an artefact diffed
across PRs is never mistaken for a same-machine comparison.
``check_bench.py`` validates its presence and shape.

Without ``--json`` the emitter still collects (the fixture always works) and
simply never writes — benchmarks need no conditional plumbing.
"""

from __future__ import annotations

import json
import platform
import socket
import subprocess
from pathlib import Path
from typing import Any

__all__ = ["BenchmarkEmitter", "provenance"]

#: Bump when the document layout changes incompatibly.
SCHEMA_VERSION = 1


def provenance() -> dict[str, str]:
    """Where these numbers came from: commit, machine, interpreter, numpy.

    Every value is a string; unknowable fields degrade to ``"unknown"``
    (a git-less checkout, a hostname-less container) rather than failing
    the benchmark run.  ``git_commit`` ends in ``-dirty`` when a tracked
    file other than a ``BENCH_*.json`` artefact differs from that commit:
    the numbers were then measured on a tree no commit names.
    """
    here = Path(__file__).resolve().parent
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=here,
        ).stdout.strip() or "unknown"
        if commit != "unknown" and subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no", "--",
             ":(top,glob,exclude)BENCH_*.json"],
            capture_output=True, text=True, timeout=10, cwd=here,
        ).stdout.strip():
            commit += "-dirty"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        hostname = socket.gethostname() or "unknown"
    except OSError:
        hostname = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "unknown"
    return {
        "git_commit": commit,
        "hostname": hostname,
        "python_version": platform.python_version(),
        "numpy_version": numpy_version,
    }


class BenchmarkEmitter:
    """Collects benchmark result entries and writes them as one JSON file."""

    def __init__(self, path: str | None):
        self.path = Path(path) if path else None
        self.entries: list[dict[str, Any]] = []

    def record(self, name: str, **fields: Any) -> dict[str, Any]:
        """Append one named result entry; returns it for further augmentation."""
        entry: dict[str, Any] = {"name": name, **fields}
        self.entries.append(entry)
        return entry

    def write(self, exit_status: int = 0) -> None:
        """Write the collected entries to ``path`` (no-op without a path)."""
        if self.path is None:
            return
        document = {
            "schema": SCHEMA_VERSION,
            "pytest_exit_status": int(exit_status),
            "provenance": provenance(),
            "results": self.entries,
        }
        self.path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
