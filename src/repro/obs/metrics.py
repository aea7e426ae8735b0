"""Process-wide metrics: named counters, gauges and histograms.

One model for every counting surface of the pipeline: the schedule cache's
hit/miss counters and the serve daemon's telemetry are both built from the
metric classes here, and anything registered in a :class:`MetricsRegistry`
can be snapshotted as JSON or rendered as Prometheus-style text exposition
(the serve daemon's ``metrics`` op and ``pops-repro stats``).

Metrics are cheap and thread-safe: counters/gauges guard a scalar with one
lock acquisition per update; histograms delegate their bounded sample
reservoir to :class:`repro.obs.stats.StreamingStats` (GIL-atomic appends)
and reduce through the shared percentile implementation.  Metrics work both
standalone (a :class:`ScheduleCache` owns its counters directly — many
caches per process, no global names) and registered (a registry key is the
metric name plus its sorted label set, Prometheus-style, so
``counter("serve_errors", code="bad-request")`` and ``code="queue-full"``
are distinct series of one family).
"""

from __future__ import annotations

import threading
from typing import Any

from repro.obs.stats import StreamingStats

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "IntHistogram",
    "MetricsRegistry",
    "registry",
]


class Counter:
    """Monotonic counter (resettable only explicitly, for lifecycle resets)."""

    kind = "counter"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, **labels: Any):
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A point-in-time value (queue depth, bytes cached, uptime)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, **labels: Any):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Duration/size samples reduced to the standard percentile summary.

    Bounded by the :class:`~repro.obs.stats.StreamingStats` reservoir;
    ``summary_ms()`` is the exact shape ``ServeTelemetry`` reports per
    stage.  ``total`` counts every observation ever made (the reservoir
    keeps only the most recent window).
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "_stats")

    def __init__(self, name: str, maxlen: int = 100_000, **labels: Any):
        self.name = name
        self.labels = labels
        self._stats = StreamingStats(maxlen=maxlen)

    def observe(self, value: float) -> None:
        self._stats.add(value)

    @property
    def total(self) -> int:
        return self._stats.total

    def __len__(self) -> int:
        return len(self._stats)

    def summary_ms(self) -> dict[str, Any]:
        return self._stats.summary_ms()

    def values(self):
        return self._stats.values()

    def clear(self) -> None:
        self._stats.clear()


class IntHistogram:
    """Exact-value integer histogram (the batch-size histogram's model)."""

    kind = "int_histogram"
    __slots__ = ("name", "labels", "_counts", "_lock")

    def __init__(self, name: str, **labels: Any):
        self.name = name
        self.labels = labels
        self._counts: dict[int, int] = {}
        self._lock = threading.Lock()

    def observe(self, value: int, count: int = 1) -> None:
        with self._lock:
            self._counts[value] = self._counts.get(value, 0) + count

    def counts(self) -> dict[int, int]:
        """``value -> count``, sorted by value."""
        with self._lock:
            return dict(sorted(self._counts.items()))


_KINDS = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
    "int_histogram": IntHistogram,
}


def _series_key(name: str, labels: dict[str, Any]) -> tuple:
    return (name, tuple(sorted(labels.items())))


class MetricsRegistry:
    """Get-or-create registry of named metric series.

    The same ``(name, labels)`` always resolves to the same metric object
    (create-once under a lock, so concurrent first access from the serve
    daemon's handler threads is safe); asking for an existing series with a
    different kind is a bug and raises.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[tuple, Any] = {}

    def _get_or_create(self, kind: str, name: str, labels: dict[str, Any], **kwargs):
        key = _series_key(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = _KINDS[kind](name, **kwargs, **labels)
                self._metrics[key] = metric
            elif metric.kind != kind:
                raise TypeError(
                    f"metric {name!r} {labels!r} already registered as "
                    f"{metric.kind}, requested {kind}"
                )
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create("gauge", name, labels)

    def histogram(self, name: str, maxlen: int = 100_000, **labels: Any) -> Histogram:
        return self._get_or_create("histogram", name, labels, maxlen=maxlen)

    def int_histogram(self, name: str, **labels: Any) -> IntHistogram:
        return self._get_or_create("int_histogram", name, labels)

    def collect(self) -> list[Any]:
        """All registered metric objects, in registration order."""
        with self._lock:
            return list(self._metrics.values())

    def series(self, name: str) -> list[Any]:
        """Every registered series of the family ``name``."""
        with self._lock:
            return [m for (n, _), m in self._metrics.items() if n == name]

    def snapshot(self) -> list[dict[str, Any]]:
        """JSON-ready dump: one entry per series with kind, labels, value(s)."""
        out = []
        for metric in self.collect():
            entry: dict[str, Any] = {
                "name": metric.name, "kind": metric.kind,
                "labels": dict(metric.labels),
            }
            if metric.kind in ("counter", "gauge"):
                entry["value"] = metric.value
            elif metric.kind == "histogram":
                entry["total"] = metric.total
                entry["summary"] = metric.summary_ms()
            else:
                entry["counts"] = {str(k): v for k, v in metric.counts().items()}
            out.append(entry)
        return out

    def render_prometheus(self, prefix: str = "pops_") -> str:
        """Prometheus text exposition of every registered series.

        Counters/gauges render as single samples; histograms as
        summary-style quantile series plus ``_count``; exact-value integer
        histograms as one sample per bucket value.  ``prefix`` namespaces
        the metric names.
        """
        lines: list[str] = []
        seen_types: set[str] = set()

        def type_line(name: str, mtype: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {mtype}")

        for metric in self.collect():
            name = prefix + metric.name
            if metric.kind == "counter":
                type_line(name, "counter")
                lines.append(f"{name}{render_labels(metric.labels)} {metric.value}")
            elif metric.kind == "gauge":
                type_line(name, "gauge")
                lines.append(f"{name}{render_labels(metric.labels)} {_number(metric.value)}")
            elif metric.kind == "histogram":
                type_line(name, "summary")
                summary = metric.summary_ms()
                for pct, key in ((0.5, "p50_ms"), (0.95, "p95_ms"), (0.99, "p99_ms")):
                    labels = {**metric.labels, "quantile": _number(pct)}
                    lines.append(
                        f"{name}{render_labels(labels)} {_number(summary[key] / 1e3)}"
                    )
                lines.append(
                    f"{name}_count{render_labels(metric.labels)} {metric.total}"
                )
            else:  # int_histogram: one sample per exact bucket value
                type_line(name, "gauge")
                for value, count in metric.counts().items():
                    labels = {**metric.labels, "value": value}
                    lines.append(f"{name}{render_labels(labels)} {count}")
        return "\n".join(lines) + ("\n" if lines else "")


def render_labels(labels: dict[str, Any]) -> str:
    """``{k="v", ...}`` in sorted key order; empty string for no labels."""
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _number(value: float) -> str:
    """Prometheus-friendly number formatting (ints without trailing .0)."""
    as_float = float(value)
    if as_float == int(as_float):
        return str(int(as_float))
    return repr(as_float)


#: The process-wide registry (sessions, caches and stores that want global
#: visibility register here; per-instance surfaces own private registries).
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _REGISTRY
