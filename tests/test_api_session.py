"""Tests for the Session facade: caching, seed lineage, and engine dispatch.

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
from repro.exceptions import ConfigurationError
from repro.patterns.families import vector_reversal
from repro.pops.engine import ScheduleCache, schedule_cache
from repro.pops.topology import POPSNetwork


class TestSessionBasics:
    def test_default_session(self):
        session = Session()
        assert session.config == RunConfig()
        assert isinstance(session.cache, ScheduleCache)
        assert session.cache is not schedule_cache()

    def test_cache_sized_by_config(self):
        session = Session(RunConfig(cache_max_entries=3, cache_max_bytes=1024))
        assert session.cache.max_entries == 3
        assert session.cache.max_bytes == 1024

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

    def test_route_uses_the_session_cache_not_the_global_one(self):
        session = Session(RunConfig(sim_backend="batched"))
        global_cache = schedule_cache()
        before = (global_cache.hits, global_cache.misses)
        pi = vector_reversal(16)
        session.route(pi, d=4, g=4)
        session.route(pi, d=4, g=4)
        assert session.cache.stats()["misses"] == 1
        assert session.cache.stats()["hits"] == 1
        assert (global_cache.hits, global_cache.misses) == before
        assert session.cache_stats() == session.cache.stats()

    def test_cache_policy_off_skips_the_cache(self):
        session = Session(RunConfig(sim_backend="batched", cache_policy="off"))
        session.route(vector_reversal(16), d=4, g=4)
        assert len(session.cache) == 0
        assert session.cache.stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_trace_modes_agree_on_metrics(self):
        pi = vector_reversal(16)
        compiled = Session(RunConfig(sim_backend="batched")).route(pi, d=4, g=4)
        materialized = Session(
            RunConfig(sim_backend="batched", trace_mode="materialized")
        ).route(pi, d=4, g=4)
        reference = Session(
            RunConfig(router_backend="konig", sim_backend="reference")
        ).route(pi, d=4, g=4)
        assert compiled == materialized == reference

    def test_simulate_honours_trace_mode(self):
        from repro.pops.trace import CompiledTrace, SimulationTrace
        from repro.routing.permutation_router import PermutationRouter

        network = POPSNetwork(4, 4)
        plan = PermutationRouter(network).route(vector_reversal(16))

        compiled_session = Session(RunConfig(sim_backend="batched"))
        result = compiled_session.simulate(plan.schedule, plan.packets, verify=True)
        assert isinstance(result.trace, CompiledTrace)

        materialized_session = Session(
            RunConfig(sim_backend="batched", trace_mode="materialized")
        )
        result = materialized_session.simulate(plan.schedule, plan.packets)
        assert isinstance(result.trace, SimulationTrace)
        assert result.n_slots == plan.n_slots


class TestSweepAndRunAll:
    def test_serial_sweep_uses_the_session_cache(self):
        global_cache = schedule_cache()
        before = (global_cache.hits, global_cache.misses)
        session = Session(RunConfig(trials=2, workers=0, sim_backend="batched"))
        session.sweep([(2, 2), (4, 4)])
        assert session.cache.stats()["misses"] > 0
        assert (global_cache.hits, global_cache.misses) == before

    def test_sweep_honours_cache_policy_off(self):
        global_cache = schedule_cache()
        before_entries = len(global_cache)
        session = Session(
            RunConfig(trials=2, workers=0, sim_backend="batched", cache_policy="off")
        )
        session.sweep([(2, 2), (4, 4)])
        assert session.cache.stats() == {"hits": 0, "misses": 0, "entries": 0}
        assert len(global_cache) == before_entries

    def test_e1_uses_the_session_cache(self):
        session = Session(RunConfig(sim_backend="batched"))
        session.experiment("E1", configs=[(2, 2)], trials=2)
        assert session.cache.stats()["misses"] > 0

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
