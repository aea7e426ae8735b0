"""Tests for the registries: registration, lookup errors, and pluggability."""

from __future__ import annotations

import pytest

from repro.api.registry import (
    EXPERIMENTS,
    ROUTER_BACKENDS,
    SIM_ENGINES,
    Registry,
    ensure_builtin_backends,
    ensure_experiments,
)
from repro.exceptions import ConfigurationError
from repro.graph.edge_coloring import COLORING_BACKENDS, edge_color, konig_edge_coloring
from repro.pops.simulator import POPSSimulator
from repro.pops.topology import POPSNetwork


class TestRegistry:
    def test_register_direct_and_get(self):
        registry = Registry("widget")
        registry.register("a", 1)
        assert registry.get("a") == 1
        assert "a" in registry and len(registry) == 1
        assert registry.names() == ("a",)
        assert registry.items() == (("a", 1),)

    def test_register_as_decorator(self):
        registry = Registry("widget")

        @registry.register("f")
        def f():
            return "hi"

        assert registry.get("f") is f
        assert f() == "hi"  # decorator returns the object unchanged

    def test_names_preserve_registration_order(self):
        registry = Registry("widget")
        registry.register("z", 1)
        registry.register("a", 2)
        assert registry.names() == ("z", "a")

    def test_duplicate_registration_raises(self):
        registry = Registry("widget")
        registry.register("a", 1)
        with pytest.raises(ConfigurationError, match="widget 'a' is already registered"):
            registry.register("a", 2)

    def test_unknown_key_error_lists_available(self):
        registry = Registry("widget")
        registry.register("b", 1)
        registry.register("a", 2)
        with pytest.raises(
            ConfigurationError, match=r"unknown widget 'c'; available: \['a', 'b'\]"
        ):
            registry.get("c")

    def test_non_string_name_rejected(self):
        registry = Registry("widget")
        with pytest.raises(ConfigurationError, match="non-empty strings"):
            registry.register(3, 1)
        with pytest.raises(ConfigurationError, match="non-empty strings"):
            registry.register("", 1)

    def test_unregister(self):
        registry = Registry("widget")
        registry.register("a", 1)
        registry.unregister("a")
        assert "a" not in registry
        with pytest.raises(ConfigurationError, match="unknown widget 'a'"):
            registry.unregister("a")


class TestBuiltinRegistrations:
    def test_router_backends(self):
        ensure_builtin_backends()
        assert set(COLORING_BACKENDS) <= set(ROUTER_BACKENDS.names())
        assert "konig" in ROUTER_BACKENDS and "euler" in ROUTER_BACKENDS

    def test_sim_engines(self):
        ensure_builtin_backends()
        for name in POPSSimulator.BACKENDS:
            assert name in SIM_ENGINES

    def test_experiments(self):
        ensure_experiments()
        assert {
            "E1", "E1p", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
            "E10", "E11", "E12",
        } == set(EXPERIMENTS.names())


class TestPluggability:
    """New components plug in through the registries without touching core."""

    def test_custom_router_backend_dispatches_through_edge_color(self):
        ROUTER_BACKENDS.register("konig-alias", konig_edge_coloring)
        try:
            from repro.routing.list_system import ListSystem
            from repro.routing.permutation_router import PermutationRouter

            network = POPSNetwork(2, 2)
            pi = [3, 2, 1, 0]
            plan = PermutationRouter(network, backend="konig-alias").route(pi)
            assert plan.n_slots == 2
            assert ListSystem.from_permutation(pi, 2, 2).is_proper()
        finally:
            ROUTER_BACKENDS.unregister("konig-alias")

    def test_unknown_edge_coloring_backend_message(self):
        from repro.exceptions import EdgeColoringError
        from repro.graph.multigraph import BipartiteMultigraph

        graph = BipartiteMultigraph(1, 1)
        graph.add_edge(0, 0)
        with pytest.raises(EdgeColoringError, match="unknown edge-colouring backend"):
            edge_color(graph, backend="nope")

    def test_custom_sim_engine_dispatches_through_simulator(self):
        calls = []

        @SIM_ENGINES.register("recording-reference")
        def _recording(simulator, schedule, packets, initial_buffers=None, *,
                       cache_key=None, cache=None):
            calls.append((simulator.backend, cache_key, cache))
            return simulator.run_reference(schedule, packets, initial_buffers)

        try:
            from repro.api import RunConfig, Session
            from repro.patterns.families import vector_reversal

            session = Session(RunConfig(sim_backend="recording-reference"))
            metrics = session.route(vector_reversal(16), d=4, g=4)
            assert metrics.slots == 2
            backend, cache_key, cache = calls[0]
            assert backend == "recording-reference"
            # Routing never caches, so plugin engines get no key and no cache.
            assert cache_key is None
            assert cache is None
        finally:
            SIM_ENGINES.unregister("recording-reference")

    def test_reregistering_the_same_definition_is_allowed(self):
        # Module reloads re-execute registration decorators; re-registering
        # the same top-level module/qualname replaces silently instead of
        # crashing, but factory-made closures stay mutually exclusive.
        registry = Registry("widget")

        def make(tag, top_level):
            def widget():
                return tag
            if top_level:  # what a module-level def looks like after reload
                widget.__qualname__ = "widget"
            return widget

        registry.register("w", make(1, top_level=True))
        registry.register("w", make(2, top_level=True))  # reload: allowed
        assert registry.get("w")() == 2
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("w", lambda: 3)  # different qualname: rejected

        registry.register("closure", make(1, top_level=False))
        with pytest.raises(ConfigurationError, match="already registered"):
            # Same factory, distinct product: must NOT silently replace.
            registry.register("closure", make(2, top_level=False))

    def test_builtin_modules_survive_reimport(self):
        # In a subprocess so reloaded class identities cannot leak into other
        # tests of this run.
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import importlib;"
            "import repro.pops.simulator as s; importlib.reload(s);"
            "import repro.graph.edge_coloring as c; importlib.reload(c);"
            "import repro.analysis.experiments as e; importlib.reload(e);"
            "from repro.api.registry import "
            "EXPERIMENTS, ROUTER_BACKENDS, SIM_ENGINES;"
            "assert 'reference' in SIM_ENGINES and 'batched' in SIM_ENGINES;"
            "assert 'konig' in ROUTER_BACKENDS;"
            "assert 'E1' in EXPERIMENTS;"
            "print('reload-ok')"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert "reload-ok" in proc.stdout

    @pytest.mark.parametrize("engine", ["quantum", "auto"])
    def test_unknown_sim_backend_rejected_by_simulator(self, engine):
        with pytest.raises(ConfigurationError, match=f"unknown simulator backend '{engine}'"):
            POPSSimulator(POPSNetwork(2, 2), backend=engine)

    def test_custom_experiment_runs_through_session(self):
        from repro.analysis.experiments import ExperimentResult
        from repro.api import Session

        @EXPERIMENTS.register("E99")
        def _toy(session):
            """E99: toy experiment."""
            return ExperimentResult(
                experiment_id="E99",
                title="toy",
                claim="none",
                headers=["seed", "ok"],
                rows=[[session.config.seed, True]],
            )

        try:
            result = Session().experiment("E99")
            assert result.rows == [[2002, True]]
        finally:
            EXPERIMENTS.unregister("E99")

    def test_unknown_experiment_lists_available(self):
        from repro.api import Session

        with pytest.raises(ConfigurationError, match="unknown experiment 'E0'; available:"):
            Session().experiment("E0")
