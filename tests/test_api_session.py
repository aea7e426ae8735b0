"""Tests for the Session facade: the schedule cache, seed lineage, and engine dispatch.

The deprecated free functions (``measure_routing``, ``run_*``,
``ALL_EXPERIMENTS``) were removed in 1.2 after their one-release window; the
tests here pin the Session layer as the sole entry point — including that the
removal actually happened.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.analysis.metrics import RoutingMetrics
from repro.api import RunConfig, Session, derive_trial_seeds
from repro.exceptions import ConfigurationError, ValidationError
from repro.patterns.families import vector_reversal
from repro.pops.engine import ScheduleCache, schedule_cache
from repro.pops.topology import POPSNetwork


class TestSessionBasics:
    def test_default_session(self):
        session = Session()
        assert session.config == RunConfig()
        assert isinstance(session.cache, ScheduleCache)
        assert session.cache is not schedule_cache()

    def test_explicit_cache_is_used(self):
        cache = ScheduleCache()
        assert Session(cache=cache).cache is cache

    def test_rejects_non_config(self):
        with pytest.raises(TypeError, match="config must be a RunConfig"):
            Session({"seed": 1})

    def test_trial_seeds_follow_the_lineage(self):
        session = Session(RunConfig(seed=77))
        assert np.array_equal(session.trial_seeds(4), derive_trial_seeds(77, 4))
        assert np.array_equal(session.trial_seeds(4, seed=5), derive_trial_seeds(5, 4))

    def test_simulator_factory_uses_config_engine(self):
        session = Session(RunConfig(sim_backend="batched"))
        assert session.simulator(POPSNetwork(2, 2)).backend == "batched"
        reference = Session(RunConfig(sim_backend="reference"))
        assert reference.simulator(POPSNetwork(2, 2)).backend == "reference"


class TestSessionRoute:
    def test_route_by_dims_and_by_network(self):
        session = Session()
        by_dims = session.route(vector_reversal(16), d=4, g=4)
        by_network = session.route(vector_reversal(16), network=POPSNetwork(4, 4))
        assert isinstance(by_dims, RoutingMetrics)
        assert by_dims == by_network
        assert by_dims.slots == 2

    def test_route_requires_a_network(self):
        with pytest.raises(ConfigurationError, match="route\\(\\) needs"):
            Session().route(vector_reversal(16))
        with pytest.raises(ConfigurationError, match="route\\(\\) needs"):
            Session().route(vector_reversal(16), d=4)

    @pytest.mark.parametrize("sim_backend", ["batched", "reference"])
    def test_routing_never_touches_a_schedule_cache(self, sim_backend):
        # Routed traffic almost never repeats a permutation, so no routing
        # path consults a cache: neither the session's nor the process-wide
        # one sees a lookup or holds an entry, even for a repeated route.
        empty = {"hits": 0, "misses": 0, "entries": 0}
        schedule_cache().clear()
        session = Session(RunConfig(trials=2, workers=0, sim_backend=sim_backend))
        pi = vector_reversal(16)
        for _ in range(2):
            session.route(pi, d=4, g=4)
            session.route_batch([pi, pi[::-1]], d=4, g=4)
            session.route_batch([pi], d=2, g=8)
        session.sweep([(2, 2), (4, 4), (2, 4)])
        assert session.cache_stats() == empty
        assert schedule_cache().stats() == empty

    def test_simulate_trace_materializes_to_the_reference_trace(self):
        from repro.pops.trace import CompiledTrace, SimulationTrace
        from repro.routing.permutation_router import PermutationRouter

        network = POPSNetwork(4, 4)
        plan = PermutationRouter(network).route(vector_reversal(16))

        result = Session(RunConfig(sim_backend="batched")).simulate(
            plan.schedule, plan.packets, verify=True
        )
        assert isinstance(result.trace, CompiledTrace)
        materialized = result.trace.materialize()
        assert isinstance(materialized, SimulationTrace)
        reference = Session(RunConfig(sim_backend="reference")).simulate(
            plan.schedule, plan.packets
        )
        assert materialized.n_slots == reference.trace.n_slots == plan.n_slots
        assert materialized.coupler_usage() == reference.trace.coupler_usage()
        assert materialized.receiver_usage() == reference.trace.receiver_usage()

    def test_batched_and_reference_agree_on_metrics(self):
        pi = vector_reversal(16)
        batched = Session(RunConfig(sim_backend="batched")).route(pi, d=4, g=4)
        reference = Session(
            RunConfig(router_backend="konig", sim_backend="reference")
        ).route(pi, d=4, g=4)
        assert batched == reference

    @pytest.mark.parametrize("dtype", [
        np.int8, np.int16, np.int32, np.int64,
        np.uint8, np.uint16, np.uint32, np.uint64,
    ])
    def test_route_accepts_integer_arrays_of_any_width(self, dtype):
        pi = vector_reversal(16)
        expected = Session().route(pi, d=4, g=4)
        assert Session().route(np.asarray(pi, dtype=dtype), d=4, g=4) == expected

    def test_route_accepts_numpy_integer_sizes(self):
        # The network stores Python ints, so the metrics' field types match
        # the int-argument route exactly.
        pi = vector_reversal(16)
        expected = Session().route(pi, d=4, g=4)
        got = Session().route(pi, d=np.int64(4), g=np.int64(4))
        assert got == expected
        for name, value in vars(got).items():
            assert type(value) is type(getattr(expected, name)), name
        assert type(POPSNetwork(np.int64(4), np.int32(2)).d) is int

    @pytest.mark.parametrize("pi", [
        [1.0, 0.0, 3.0, 2.0],
        ["1", "0", "3", "2"],
        [True, False],
        [True, False, 2, 3],
        (1, 0, True, 3),
    ], ids=["float", "numeric-string", "bool", "mixed-bool-list", "mixed-bool-tuple"])
    def test_route_rejects_non_integer_permutations(self, pi):
        session = Session()
        with pytest.raises(ValidationError, match="not integer-valued"):
            session.route(pi, d=len(pi) // 2, g=2)
        with pytest.raises(ValidationError, match="not integer-valued"):
            session.route_batch([pi], d=len(pi) // 2, g=2)


class TestSweepAndRunAll:
    def test_sweep_shard_merge_is_bit_identical(self):
        configs = [(2, 2), (4, 4)]
        base = RunConfig(trials=4, seed=11, workers=0, sim_backend="batched")
        unsharded = Session(base).sweep(configs)
        sharded = Session(base.replace(shard_trials=1)).sweep(configs)
        assert sharded.rows == unsharded.rows

    def test_run_all_covers_every_experiment_in_order(self):
        session = Session()
        # Tiny overrides keep this fast while still touching every runner.
        results = {
            "E1": session.experiment("E1", configs=[(2, 2)], trials=1),
            "E2": session.experiment("E2"),
        }
        assert results["E1"].experiment_id == "E1"
        assert results["E2"].experiment_id == "E2"
        from repro.api.registry import EXPERIMENTS, ensure_experiments

        ensure_experiments()
        assert sorted(EXPERIMENTS.names()) == [
            "E1", "E10", "E11", "E12", "E1p",
            "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
        ]


class TestExperimentEngines:
    def test_e8_runs_every_collective_on_the_session_pair(self, monkeypatch):
        """E8 hands its session to every collective, so each simulator run
        uses the configured engine and each route the configured backend."""
        from repro.pops.simulator import POPSSimulator
        from repro.routing.permutation_router import PermutationRouter

        engines, backends = [], []
        run, route = POPSSimulator.run, PermutationRouter.route

        def spy_run(self, *args, **kwargs):
            engines.append(self.backend)
            return run(self, *args, **kwargs)

        def spy_route(self, *args, **kwargs):
            backends.append(self.solver.backend)
            return route(self, *args, **kwargs)

        monkeypatch.setattr(POPSSimulator, "run", spy_run)
        monkeypatch.setattr(PermutationRouter, "route", spy_route)
        config = RunConfig(router_backend="konig", sim_backend="reference")
        result = Session(config).experiment("E8")
        assert all(row[-1] is True for row in result.rows)
        assert engines and set(engines) == {"reference"}
        assert backends and set(backends) == {"konig"}


class TestShimRemoval:
    """The 1.1 deprecation shims are gone, per the one-release timeline."""

    def test_free_functions_removed(self):
        import repro.analysis.experiments as experiments
        import repro.analysis.metrics as metrics

        for name in (
            "run_theorem2_sweep", "run_parallel_sweep", "run_figure3_example",
            "run_scaling_experiment", "run_lower_bound_experiment",
            "run_unification_experiment", "run_direct_comparison",
            "run_one_slot_fraction", "run_collectives_experiment",
            "ALL_EXPERIMENTS",
        ):
            assert not hasattr(experiments, name), name
        assert not hasattr(metrics, "measure_routing")

    def test_shim_plumbing_removed(self):
        import repro.api as api
        import repro.api.session as session_module

        assert not hasattr(api, "warn_deprecated")
        assert not hasattr(session_module, "legacy_shim_session")

    def test_version_is_past_the_removal_release(self):
        import repro

        assert tuple(int(x) for x in repro.__version__.split(".")[:2]) >= (1, 2)

    def test_e8_derives_from_the_config_seed_lineage(self):
        # E8's random sections derive from RunConfig.seed exactly as sharded
        # sweeps derive trial seeds.
        from_config = Session(RunConfig(seed=5)).experiment("E8")
        from_override = Session().experiment("E8", seed=5)
        assert from_config.to_report() == from_override.to_report()

    def test_session_paths_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Session().experiment("E2")
            Session().route(vector_reversal(16), d=4, g=4)
            Session(RunConfig(workers=0, trials=1)).sweep([(2, 2)])
