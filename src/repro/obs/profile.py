"""Aggregate finished spans into a per-stage time/percentage tree.

This is what ``--profile`` prints: spans are grouped by their *name path*
(the chain of span names from a root down), durations and counts are summed
per path, and the tree is rendered with each stage's share of the total
traced wall time.  A cold ``n = 1024`` route (the plan is built, so
``route.compile`` holds the cache miss and ``route.plan``) renders as e.g.::

    session.route                      1.92 ms  100.0%  x1
      route.setup                      0.05 ms    2.7%  x1
      route.compile                    1.66 ms   86.4%  x1
        cache.probe                    0.05 ms    2.5%  x1
        route.plan                     1.58 ms   82.3%  x1
      engine.execute                   0.11 ms    5.9%  x1
      metrics.bounds                   0.06 ms    3.0%  x1
      metrics.summarise                0.03 ms    1.7%  x1
    stage coverage: 99.7% of traced wall time

``coverage_pct`` — the share of root wall time accounted for by the roots'
direct children — is the honesty metric: it is asserted >= 95% on the warm
route in ``benchmarks/bench_obs.py``, so the instrumentation cannot silently
rot into untimed gaps.
"""

from __future__ import annotations

from typing import Any

__all__ = ["profile_dict", "render_profile"]


def _name_paths(spans: list[dict[str, Any]]) -> dict[int, tuple[str, ...]]:
    """Map each span id to its root-to-span chain of names.

    A span whose parent is unknown (cleared, or recorded by another process)
    is treated as a root.
    """
    by_id = {span["span_id"]: span for span in spans}
    paths: dict[int, tuple[str, ...]] = {}

    def path_of(span_id: int) -> tuple[str, ...]:
        cached = paths.get(span_id)
        if cached is not None:
            return cached
        span = by_id[span_id]
        parent_id = span["parent_id"]
        if parent_id is None or parent_id not in by_id:
            result: tuple[str, ...] = (span["name"],)
        else:
            result = path_of(parent_id) + (span["name"],)
        paths[span_id] = result
        return result

    for span in spans:
        path_of(span["span_id"])
    return paths


def profile_dict(spans: list[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate spans into the JSON-ready profile tree.

    Returns ``{"wall_ms", "coverage_pct", "stages": [...]}`` where each
    stage node is ``{"name", "count", "total_ms", "pct", "children"}``;
    ``pct`` is relative to the total root wall time, ``coverage_pct`` is the
    roots' direct-children share of it (100.0 when there are no roots to
    cover).  Sibling order is by first appearance in the span stream, so the
    tree reads in pipeline order.
    """
    paths = _name_paths(spans)
    totals: dict[tuple[str, ...], list[int]] = {}
    order: dict[tuple[str, ...], int] = {}
    for span in spans:
        path = paths[span["span_id"]]
        if path not in totals:
            totals[path] = [0, 0]
            order[path] = len(order)
        totals[path][0] += span["dur_ns"]
        totals[path][1] += 1

    wall_ns = sum(ns for path, (ns, _) in totals.items() if len(path) == 1)

    def children_of(prefix: tuple[str, ...]) -> list[dict[str, Any]]:
        depth = len(prefix) + 1
        child_paths = sorted(
            (p for p in totals if len(p) == depth and p[:-1] == prefix),
            key=order.__getitem__,
        )
        nodes = []
        for path in child_paths:
            ns, count = totals[path]
            nodes.append({
                "name": path[-1],
                "count": count,
                "total_ms": ns / 1e6,
                "pct": (100.0 * ns / wall_ns) if wall_ns else 0.0,
                "children": children_of(path),
            })
        return nodes

    stages = children_of(())
    covered_ns = sum(
        ns for path, (ns, _) in totals.items() if len(path) == 2
    )
    coverage = (100.0 * covered_ns / wall_ns) if wall_ns else 100.0
    return {
        "wall_ms": wall_ns / 1e6,
        "coverage_pct": coverage,
        "stages": stages,
    }


def _render_node(node: dict[str, Any], depth: int, lines: list[str]) -> None:
    label = "  " * depth + node["name"]
    lines.append(
        f"{label:<34} {node['total_ms']:>9.2f} ms {node['pct']:>6.1f}%  "
        f"x{node['count']}"
    )
    for child in node["children"]:
        _render_node(child, depth + 1, lines)


def render_profile(profile: dict[str, Any]) -> str:
    """The text rendering of :func:`profile_dict`'s tree."""
    lines: list[str] = []
    for stage in profile["stages"]:
        _render_node(stage, 0, lines)
    if not lines:
        return "no spans recorded"
    lines.append(
        f"stage coverage: {profile['coverage_pct']:.1f}% of traced wall time "
        f"({profile['wall_ms']:.2f} ms)"
    )
    return "\n".join(lines)
