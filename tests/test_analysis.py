"""Tests for the analysis layer: metrics, reporting and the experiment runners."""

from __future__ import annotations

import pytest

from repro.analysis.metrics import RoutingMetrics
from repro.analysis.reporting import format_experiment_report, format_table
from repro.api import RunConfig, Session
from repro.patterns.families import vector_reversal
from repro.pops.topology import POPSNetwork
from repro.utils.permutations import random_permutation


def route(network: POPSNetwork, pi, **config_fields) -> RoutingMetrics:
    """One verified routing through a fresh session."""
    return Session(RunConfig(**config_fields)).route(pi, network=network)


class TestMetrics:
    def test_route_metrics_fields(self, rng):
        network = POPSNetwork(4, 4)
        pi = random_permutation(16, rng)
        metrics = route(network, pi)
        assert isinstance(metrics, RoutingMetrics)
        assert (metrics.d, metrics.g, metrics.n) == (4, 4, 16)
        assert metrics.slots == 2
        assert metrics.theorem2_bound == 2
        assert metrics.meets_theorem2_bound
        assert 0.0 < metrics.mean_coupler_utilisation <= 1.0

    def test_optimality_ratio(self):
        network = POPSNetwork(8, 4)
        metrics = route(network, vector_reversal(32))
        assert metrics.lower_bound == 4
        assert metrics.optimality_ratio == 1.0

    def test_optimality_ratio_infinite_for_identity(self):
        network = POPSNetwork(2, 2)
        metrics = route(network, list(range(4)))
        assert metrics.lower_bound == 0
        assert metrics.optimality_ratio == float("inf")

    def test_coupler_utilisation_full_for_square_reversal(self):
        # Vector reversal on POPS(4,4): all 16 packets move in each of 2 slots
        # through 16 couplers -> utilisation 1.0.
        metrics = route(
            POPSNetwork(4, 4), vector_reversal(16),
            router_backend="konig", sim_backend="reference",
        )
        assert metrics.mean_coupler_utilisation == 1.0


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["a", "long header"], [[1, 2], [333, 4.5]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "long header" in lines[0]

    def test_format_table_float_rendering(self):
        table = format_table(["x"], [[0.123456789]])
        assert "0.1235" in table

    def test_format_experiment_report_contains_sections(self):
        report = format_experiment_report(
            "T", "claim text", ["h1"], [[1]], notes={"key": "value"}
        )
        assert "== T ==" in report
        assert "claim text" in report
        assert "key: value" in report


class TestExperimentRunners:
    """Each runner doubles as an integration test over the full stack."""

    def test_e1_small_sweep(self):
        result = Session(RunConfig(trials=2, seed=1)).experiment(
            "E1", configs=((2, 2), (3, 2), (2, 3))
        )
        assert result.all_pass
        assert result.experiment_id == "E1"
        assert len(result.rows) == 3

    def test_e2_figure3(self):
        result = Session().experiment("E2")
        assert result.all_pass
        assert result.notes["slots used"] == 2
        assert result.notes["list system proper"] is True
        assert len(result.rows) == 9

    def test_e3_scaling_small(self):
        result = Session(RunConfig(trials=1)).experiment("E3", g_values=(2, 4))
        assert result.all_pass
        assert len(result.rows) == 2
        # Timing columns must be positive.
        for row in result.rows:
            assert row[2] > 0 and row[3] > 0

    def test_e4_lower_bounds_small(self):
        result = Session(RunConfig(trials=1)).experiment(
            "E4", configs=((2, 2), (4, 2)), seed=3
        )
        assert result.all_pass
        assert result.rows

    def test_e6_direct_comparison_small(self):
        result = Session(RunConfig(trials=1)).experiment(
            "E6", configs=((4, 2), (2, 4)), seed=5
        )
        assert result.all_pass
        blocked_rows = [row for row in result.rows if row[2] == "group_blocked"]
        # On blocked traffic with d > g the direct baseline is strictly worse.
        row_d4 = next(row for row in blocked_rows if row[0] == 4 and row[1] == 2)
        assert row_d4[4] >= row_d4[3]

    def test_e7_one_slot_fraction_small(self):
        result = Session().experiment(
            "E7", configs=((1, 4), (2, 2)), trials=30, seed=7
        )
        assert result.all_pass
        d1_row = next(row for row in result.rows if row[0] == 1)
        assert d1_row[5] == 1.0  # every permutation is one-slot routable when d = 1

    def test_e9_collective_scale_small(self):
        result = Session().experiment("E9", broadcast_configs=((2, 2), (4, 4)))
        assert result.all_pass
        collectives = [row[0] for row in result.rows]
        assert collectives.count("one-to-all broadcast") == 2
        assert "hypercube all-reduce" in collectives
        assert "all-to-all personalised" in collectives
        assert result.notes["largest broadcast n"] == 16

    def test_registry_contains_all_experiments(self):
        from repro.api.registry import EXPERIMENTS, ensure_experiments

        ensure_experiments()
        assert sorted(EXPERIMENTS.names()) == sorted(
            [f"E{i}" for i in range(1, 13)] + ["E1p"]
        )

    def test_e1_batched_backend_matches(self):
        configs = ((2, 2), (3, 2), (2, 3))
        reference = Session(RunConfig(trials=2, seed=1)).experiment(
            "E1", configs=configs
        )
        batched = Session(
            RunConfig(trials=2, seed=1, sim_backend="batched")
        ).experiment("E1", configs=configs)
        assert batched.all_pass
        assert batched.rows == reference.rows

    def test_parallel_sweep_serial_fallback(self):
        configs = ((2, 2), (3, 2))
        result = Session(RunConfig(trials=1, seed=1, workers=0)).sweep(configs)
        assert result.all_pass
        assert len(result.rows) == 2
        # Serial execution is row-for-row identical to the fanned-out sweep.
        fanned = Session(RunConfig(trials=1, seed=1, workers=None)).sweep(configs)
        assert result.rows == fanned.rows

    def test_report_rendering(self):
        result = Session(RunConfig(trials=1, seed=0)).experiment(
            "E1", configs=((2, 2),)
        )
        report = result.to_report()
        assert "E1" in report and "Paper claim" in report


@pytest.mark.slow
class TestHeavyExperiments:
    def test_e5_unification(self):
        assert Session().experiment("E5").all_pass
