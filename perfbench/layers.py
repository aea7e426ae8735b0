"""Per-layer timing of the routing pipeline, measured from outside ``src/``.

The benchmark never edits the program.  For a traced run it replaces the
public entry points of each layer -- module functions, class methods, the
``ARRAY_COLORING_STACK_KERNELS`` entries -- with thin wrappers that open a
span on the program's own :class:`repro.obs.Tracer`.  The wrapper spans
therefore nest with the spans ``repro.obs`` already emits (``session.route``,
``route.plan``, ``engine.execute``...), the whole tree is exported through
:func:`repro.obs.write_jsonl`, and the ledger is computed from the exported
file, so the benchmark and ``--profile`` read the same clock.

A layer's *self time* is the duration of its spans minus the part covered by
the nearest nested layer spans (program spans in between are transparent).
Every time metric is reported as milliseconds of self time per routed
permutation.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict

#: layer name -> the entry points attributed to it.  Each target is
#: ``(module, qualified attribute)``; ``Class.attr`` names a method or
#: property, ``DICT[key]`` a dictionary entry.  Module functions are patched
#: in every ``repro`` module that imported them by name.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "api.session": (
        ("repro.api.session", "Session.route"),
        ("repro.api.session", "Session.route_batch"),
    ),
    "utils.validation.check": (
        ("repro.utils.validation", "check_permutation"),
        ("repro.utils.validation", "check_permutation_array"),
        ("repro.utils.validation", "check_permutation_stack"),
    ),
    "routing.lower_bounds.bounds": (
        ("repro.routing.lower_bounds", "best_known_lower_bound"),
        ("repro.routing.lower_bounds", "best_known_lower_bound_stack"),
    ),
    "routing.permutation_router.plan": (
        ("repro.routing.permutation_router", "PermutationRouter.route_compiled"),
        ("repro.routing.permutation_router", "PermutationRouter.route_compiled_batch"),
    ),
    "routing.list_system.lists": (
        ("repro.routing.list_system", "destination_group_lists_stack"),
        ("repro.routing.list_system", "check_proper_lists_stack"),
    ),
    "routing.fair_distribution.solve": (
        ("repro.routing.fair_distribution", "FairDistributionSolver.solve_array_batch"),
    ),
    "routing.fair_distribution.verify": (
        ("repro.routing.fair_distribution", "verify_fair_distribution_stack"),
    ),
    "graph.array_coloring.color": (
        ("repro.graph.array_coloring", "ARRAY_COLORING_STACK_KERNELS[euler-array]"),
        ("repro.graph.array_coloring", "ARRAY_COLORING_STACK_KERNELS[konig-array]"),
    ),
    "graph.array_coloring.verify": (
        ("repro.graph.array_coloring", "verify_instance_coloring_stack"),
    ),
    "pops.lowering.assemble": (
        ("repro.pops.lowering", "assemble_compiled_plan_batch"),
    ),
    "pops.engine.cache": (
        ("repro.pops.engine", "ScheduleCache.get"),
        ("repro.pops.engine", "ScheduleCache.put"),
    ),
    "pops.engine.execute": (
        ("repro.pops.engine", "BatchedSimulator.execute"),
        ("repro.pops.engine", "BatchedSimulator.execute_batch"),
    ),
    "pops.engine.verify": (
        ("repro.pops.engine", "BatchedSimulator.verify_locations"),
        ("repro.pops.engine", "BatchedSimulator.verify_locations_batch"),
    ),
    "pops.engine.trace": (
        ("repro.pops.engine", "BatchedSimulator.compiled_trace"),
        ("repro.pops.engine", "BatchedSimulator.compiled_trace_batch"),
        ("repro.pops.trace", "CompiledTrace.total_packets_moved"),
        ("repro.pops.trace", "CompiledTrace.mean_coupler_utilisation"),
        ("repro.pops.trace", "CompiledTraceBatch.total_packets_moved"),
        ("repro.pops.trace", "CompiledTraceBatch.mean_coupler_utilisation"),
    ),
}

#: The layer whose spans are the per-route roots of the ledger.
ROOT_LAYER = "api.session"


def metric_name(layer: str) -> str:
    """The ledger metric of ``layer``: its self ms per route."""
    return f"{layer}.self_ms" if layer == ROOT_LAYER else f"{layer}_ms"


def _routes_in_call(name: str, args: tuple) -> int:
    """Permutations routed by one ``Session`` call (``args[1]`` is the input)."""
    return len(args[1]) if name == "route_batch" else 1


class LayerProbe:
    """Installs and removes the timing wrappers around every layer entry point.

    Use as a context manager, or pair :meth:`install` with :meth:`uninstall`
    to probe several blocks; the wrappers record into ``tracer`` (a
    :class:`repro.obs.Tracer`), which the caller also installs with
    :func:`repro.obs.set_tracer` so the program's own spans land beside them.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerProbe":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                self._patch(layer, importlib.import_module(module_name), qualname)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def _wrap(self, layer: str, fn):
        span = self.tracer.span
        if layer == ROOT_LAYER:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with span(layer, layer=True, routes=_routes_in_call(fn.__name__, args)):
                    return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with span(layer, layer=True):
                    return fn(*args, **kwargs)
        return wrapper

    def _set(self, owner, key: str, value) -> None:
        original = owner[key] if isinstance(owner, dict) else owner.__dict__[key]
        self._undo.append((owner, key, original))
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def _patch(self, layer: str, module, qualname: str) -> None:
        if "[" in qualname:
            table, key = qualname[:-1].split("[")
            kernels = getattr(module, table)
            self._set(kernels, key, self._wrap(layer, kernels[key]))
        elif "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, property):
                wrapped = property(self._wrap(layer, original.fget))
            else:
                wrapped = self._wrap(layer, original)
            self._set(cls, attr, wrapped)
        else:
            original = getattr(module, qualname)
            wrapped = self._wrap(layer, original)
            for mod in list(sys.modules.values()):
                if (
                    getattr(mod, "__name__", "").startswith("repro")
                    and mod.__dict__.get(qualname) is original
                ):
                    self._set(mod, qualname, wrapped)


def ledger(spans: list[dict]) -> dict[str, float]:
    """Per-layer self time, routes and coverage from exported span records.

    Returns ``{"routes": R, "coverage": C}`` plus, for every layer in
    :data:`LAYERS`, its :func:`metric_name` mapped to self ms per route.  ``coverage`` is the share of the
    ``api.session`` wall that the layers below it account for.
    """
    by_id = {span["span_id"]: span for span in spans}
    is_layer = {
        span["span_id"] for span in spans if span["attrs"].get("layer")
    }
    covered_ns: dict[int, int] = defaultdict(int)
    for span_id in is_layer:
        span = by_id[span_id]
        parent = span["parent_id"]
        while parent is not None and parent in by_id and parent not in is_layer:
            parent = by_id[parent]["parent_id"]
        if parent in is_layer:
            covered_ns[parent] += span["dur_ns"]
    self_ns: dict[str, int] = defaultdict(int)
    root_ns = 0
    routes = 0
    for span_id in is_layer:
        span = by_id[span_id]
        self_ns[span["name"]] += span["dur_ns"] - covered_ns[span_id]
        if span["name"] == ROOT_LAYER:
            root_ns += span["dur_ns"]
            routes += int(span["attrs"].get("routes", 1))
    per_route = 1e-6 / max(routes, 1)
    result = {
        metric_name(layer): self_ns[layer] * per_route for layer in LAYERS
    }
    result["routes"] = routes
    result["coverage"] = 1.0 - self_ns[ROOT_LAYER] / root_ns if root_ns else 0.0
    return result
