"""Tests for :class:`repro.api.config.RunConfig`: validation and round-trips."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api.config import (
    DEFAULT_CACHE_MAX_BYTES,
    DEFAULT_CACHE_MAX_ENTRIES,
    RunConfig,
)
from repro.cli import build_parser
from repro.exceptions import ConfigurationError


class TestDefaults:
    def test_default_config_is_valid(self):
        config = RunConfig()
        assert config.router_backend == "euler-array"
        assert config.sim_backend == "batched"
        assert config.cache_policy == "on"
        assert config.trace_mode == "compiled"
        assert config.trials == 3
        assert config.seed == 2002
        assert config.workers is None
        assert config.shard_trials is None
        assert config.cache_stats is False
        assert config.cache_max_entries == DEFAULT_CACHE_MAX_ENTRIES
        assert config.cache_max_bytes == DEFAULT_CACHE_MAX_BYTES

    def test_frozen(self):
        config = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 1

    def test_engine_is_never_unset(self):
        with pytest.raises(ConfigurationError, match="unknown simulator engine None"):
            RunConfig(sim_backend=None)


class TestValidation:
    def test_unknown_router_backend(self):
        with pytest.raises(ConfigurationError, match="unknown router backend 'frobnicate'"):
            RunConfig(router_backend="frobnicate")

    def test_unknown_sim_backend(self):
        with pytest.raises(ConfigurationError, match="unknown simulator engine 'quantum'"):
            RunConfig(sim_backend="quantum")

    def test_unknown_cache_policy(self):
        with pytest.raises(ConfigurationError, match="unknown cache policy"):
            RunConfig(cache_policy="sometimes")

    def test_unknown_trace_mode(self):
        with pytest.raises(ConfigurationError, match="unknown trace mode"):
            RunConfig(trace_mode="holographic")

    @pytest.mark.parametrize("trials", [0, -1])
    def test_nonpositive_trials(self, trials):
        with pytest.raises(ValueError, match=f"trials must be positive, got {trials}"):
            RunConfig(trials=trials)

    def test_non_int_trials(self):
        with pytest.raises(ValueError, match="trials must be an int"):
            RunConfig(trials=2.5)

    def test_nonpositive_shard_trials(self):
        with pytest.raises(ValueError, match="shard_trials must be positive, got 0"):
            RunConfig(shard_trials=0)

    def test_negative_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            RunConfig(workers=-1)

    def test_workers_zero_is_serial_and_valid(self):
        assert RunConfig(workers=0).workers == 0

    def test_bool_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be an int"):
            RunConfig(seed=True)

    def test_nonpositive_cache_bounds(self):
        with pytest.raises(ValueError, match="cache_max_entries must be positive"):
            RunConfig(cache_max_entries=0)
        with pytest.raises(ValueError, match="cache_max_bytes must be positive"):
            RunConfig(cache_max_bytes=0)

    def test_non_bool_cache_stats(self):
        with pytest.raises(ValueError, match="cache_stats must be a bool"):
            RunConfig(cache_stats=1)


class TestReplace:
    def test_replace_returns_new_validated_config(self):
        config = RunConfig()
        other = config.replace(seed=7, sim_backend="batched")
        assert other.seed == 7 and other.sim_backend == "batched"
        assert config.seed == 2002  # original untouched
        with pytest.raises(ValueError):
            config.replace(trials=0)


class TestRoundTrip:
    def test_to_dict_from_dict_round_trip(self):
        config = RunConfig(
            router_backend="euler",
            sim_backend="batched",
            cache_policy="off",
            trace_mode="materialized",
            trials=5,
            seed=99,
            workers=2,
            shard_trials=1,
            cache_stats=True,
        )
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_to_dict_is_json_serialisable(self):
        payload = json.dumps(RunConfig().to_dict())
        assert RunConfig.from_dict(json.loads(payload)) == RunConfig()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown RunConfig fields \\['bakcend'\\]"):
            RunConfig.from_dict({"bakcend": "konig"})


class TestFromCliArgs:
    def test_route_flags_lower_one_to_one(self):
        args = build_parser().parse_args(
            ["route", "--d", "4", "--g", "4", "--backend", "euler",
             "--sim-backend", "batched"]
        )
        config = RunConfig.from_cli_args(args)
        assert config.router_backend == "euler"
        assert config.sim_backend == "batched"

    def test_sweep_flags_lower_one_to_one(self):
        args = build_parser().parse_args(
            ["sweep", "--trials", "7", "--seed", "5", "--workers", "0",
             "--shard-trials", "2", "--cache-stats", "--backend", "euler"]
        )
        config = RunConfig.from_cli_args(args)
        assert config.trials == 7
        assert config.seed == 5
        assert config.workers == 0
        assert config.shard_trials == 2
        assert config.cache_stats is True
        assert config.router_backend == "euler"
        assert config.sim_backend == "batched"

    @pytest.mark.parametrize("argv, expected", [
        (["run", "E2"], RunConfig()),
        (["route", "--d", "4", "--g", "4"], RunConfig()),
        (["sweep"], RunConfig()),
        (["serve"], RunConfig()),
        # ``cache warm`` is serial unless asked (its --workers default).
        (["cache", "warm", "--plan-store", "plans"], RunConfig(plan_store_path="plans", workers=0)),
    ], ids=["run", "route", "sweep", "serve", "cache-warm"])
    def test_missing_flags_keep_defaults(self, argv, expected):
        config = RunConfig.from_cli_args(build_parser().parse_args(argv))
        assert config == expected
        assert (config.router_backend, config.sim_backend) == ("euler-array", "batched")
