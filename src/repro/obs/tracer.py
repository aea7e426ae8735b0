"""Nested, thread-aware span tracing for the routing pipeline.

A *span* is one timed region of the pipeline — ``session.route``,
``route.compile``, ``engine.execute`` — recorded with nanosecond
``perf_counter_ns`` timestamps, the recording thread, and its parent span,
so a trace reconstructs the full call tree of where time went.  The hot
pipeline is instrumented unconditionally::

    with get_tracer().span("engine.execute", n=1024):
        ...

(a sequential pipeline sets ``span.stage = "route.setup"`` and so on inside
one span instead) and costs nothing when tracing is off: the module-level
default tracer is the :data:`NULL_TRACER` singleton, whose ``span`` returns
one shared no-op context object — no span ids, no timestamps, no allocations
that grow with use.  Enabling tracing is swapping in a real :class:`Tracer`
via :func:`set_tracer` (the CLI's ``--profile`` / ``--trace-out`` flags do).

Thread model: span nesting is tracked per thread (a span opened on the
batcher thread is never parented under a handler thread's span), finished
spans land in one shared list (list appends are atomic under the GIL), and
span ids come from one atomic counter — so daemon handler threads, the
batcher worker and sweep shards can all record into the same tracer.

Span record schema (one plain dict per finished span; the contract of
:mod:`repro.obs.export`):

``name``
    Dotted stage name, e.g. ``"route.compile"``.
``span_id`` / ``parent_id``
    Process-unique int id and the enclosing span's id (``None`` at a root).
``tid``
    Recording thread's ``threading.get_ident()``.
``ts_ns`` / ``dur_ns``
    Start instant (``perf_counter_ns``, process-relative origin) and
    duration, both integer nanoseconds.
``attrs``
    Caller-supplied key/value annotations (``d``, ``g``, ``n``, hit/miss
    flags, ...), JSON-scalar values.
"""

from __future__ import annotations

import itertools
import threading
from time import perf_counter_ns
from typing import Any

__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "get_tracer", "set_tracer"]


class _SpanContext:
    """One open span; a context manager recording one tuple on exit.

    A span can be cut into back-to-back child *stages*: ``span.stage = name``
    ends the running stage and starts the next on one clock read, so a
    pipeline's stages leave no untimed gap, and the last one ends with the
    span.  A boundary only notes ``(name, clock)``; :meth:`Tracer.finished`
    makes the stage spans and moves each child that started in a stage under
    it.  A boundary is an attribute store rather than a call, so on the
    disabled path (:class:`_NullSpanContext`) it costs no Python frame.
    """

    __slots__ = (
        "_tracer", "_name", "_attrs", "_span_id", "_parent_id", "_t0", "_stack",
        "_stages",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._stages: list[tuple] = []

    def __enter__(self) -> "_SpanContext":
        tracer = self._tracer
        try:
            stack = self._stack = tracer._local.stack
        except AttributeError:
            stack = self._stack = tracer._local.stack = []
        self._parent_id = stack[-1] if stack else None
        self._span_id = next(tracer._ids)
        stack.append(self._span_id)
        self._t0 = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = perf_counter_ns()
        self._stack.pop()
        self._tracer._records.append((
            self._name, self._span_id, self._parent_id, threading.get_ident(),
            self._t0, t1 - self._t0, self._attrs, self._stages,
        ))
        return False

    @property
    def stage(self) -> str | None:
        """The running stage's name (``None`` before the first one)."""
        return self._stages[-1][0] if self._stages else None

    @stage.setter
    def stage(self, name: str) -> None:
        self._stages.append((name, perf_counter_ns()))

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span (e.g. cache hit/miss)."""
        self._attrs.update(attrs)


class Tracer:
    """Collects spans; one instance per traced run (or per daemon process).

    Recording is designed for the hot path: opening a span takes one id from
    an atomic counter and one ``perf_counter_ns`` read; closing appends one
    tuple to a shared list, and the schema's dicts are built only when
    :meth:`finished` reads the trace.  No locks are held while user code runs
    inside the span.
    """

    enabled = True

    def __init__(self):
        self._records: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a nested span named ``name``; use as a context manager."""
        return _SpanContext(self, name, attrs)

    def emit(
        self, name: str, ts_ns: int, dur_ns: int, *, parent_id: int | None = None,
        **attrs: Any,
    ) -> int:
        """Record a span retroactively from externally measured timings.

        For stages timed by existing machinery (the serve daemon's
        queue-wait / batch-assembly / route / respond stage clocks) that
        should appear in the trace without re-timing them.  The span is a
        root unless ``parent_id`` says otherwise; returns the new span's id
        so follow-up emits can parent under it.
        """
        span_id = next(self._ids)
        self._records.append((
            name, span_id, parent_id, threading.get_ident(), int(ts_ns),
            int(dur_ns), attrs, None,
        ))
        return span_id

    def finished(self) -> list[dict[str, Any]]:
        """Snapshot of all finished span records, in finish order.

        A span's stages come right before it, in pipeline order.
        """
        spans: list[dict[str, Any]] = []
        recorded: list[dict[str, Any]] = []
        stages_of: dict[int, list[tuple[str, int, int]]] = {}
        for name, span_id, parent_id, tid, ts, dur, attrs, stages in list(
            self._records
        ):
            if stages:
                if len(stages[0]) == 2:  # stage ids are drawn on first read
                    stages[:] = [(stage, t, next(self._ids)) for stage, t in stages]
                stages_of[span_id] = stages
                ends = [t for _, t, _ in stages[1:]] + [ts + dur]
                spans.extend(
                    {
                        "name": stage, "span_id": stage_id, "parent_id": span_id,
                        "tid": tid, "ts_ns": start, "dur_ns": end - start,
                        "attrs": {},
                    }
                    for (stage, start, stage_id), end in zip(stages, ends)
                )
            recorded.append({
                "name": name, "span_id": span_id, "parent_id": parent_id,
                "tid": tid, "ts_ns": ts, "dur_ns": dur, "attrs": attrs,
            })
            spans.append(recorded[-1])
        for span in recorded:  # a child that started in a stage belongs to it
            for _, start, stage_id in reversed(stages_of.get(span["parent_id"], ())):
                if start <= span["ts_ns"]:
                    span["parent_id"] = stage_id
                    break
        return spans

    def clear(self) -> None:
        """Drop recorded spans (open spans keep their ids and still record)."""
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)


class _NullSpanContext:
    """The shared no-op span: enter/exit do nothing, annotate discards.

    ``stage`` is a plain slot: a stage boundary on the disabled path is one
    ignored store.
    """

    __slots__ = ("stage",)

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpanContext()




class NullTracer:
    """The disabled path: every operation is a no-op returning shared objects.

    ``span`` hands back the one module-level :class:`_NullSpanContext`
    instance regardless of arguments, so an instrumented hot loop running
    with tracing disabled allocates nothing that accumulates and touches no
    clocks.  There is exactly one instance, :data:`NULL_TRACER` (identity is
    part of the contract — pinned in ``tests/test_obs.py``).
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpanContext:
        return _NULL_SPAN

    def emit(self, name, ts_ns, dur_ns, *, parent_id=None, **attrs) -> int:
        return 0

    def finished(self) -> list[dict[str, Any]]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: The process-wide no-op tracer; the default target of :func:`get_tracer`.
NULL_TRACER = NullTracer()

_tracer: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The active tracer (the :data:`NULL_TRACER` singleton unless enabled)."""
    return _tracer


def set_tracer(tracer: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """Install ``tracer`` as the active tracer; ``None`` disables tracing.

    Returns the previously active tracer so callers can restore it.
    """
    global _tracer
    previous = _tracer
    _tracer = NULL_TRACER if tracer is None else tracer
    return previous
