"""Tests for :class:`repro.api.config.RunConfig`: validation and round-trips."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api.config import RunConfig
from repro.cli import build_parser
from repro.exceptions import ConfigurationError


class TestDefaults:
    def test_default_config_is_valid(self):
        config = RunConfig()
        assert config.router_backend == "euler-array"
        assert config.sim_backend == "batched"
        assert config.trials == 3
        assert config.seed == 2002
        assert config.workers is None
        assert config.shard_trials is None
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "router_backend", "sim_backend", "trials", "seed", "workers",
            "shard_trials",
        ]

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

    @pytest.mark.parametrize("engine", ["quantum", "auto"])
    def test_unknown_sim_backend(self, engine):
        with pytest.raises(ConfigurationError, match=f"unknown simulator engine '{engine}'"):
            RunConfig(sim_backend=engine)

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
            trials=5,
            seed=99,
            workers=2,
            shard_trials=1,
        )
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_to_dict_is_json_serialisable(self):
        payload = json.dumps(RunConfig().to_dict())
        assert RunConfig.from_dict(json.loads(payload)) == RunConfig()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown RunConfig fields \\['bakcend'\\]"):
            RunConfig.from_dict({"bakcend": "konig"})

    @pytest.mark.parametrize("field, value", [
        ("plan_store_path", "plans"),
        ("trace_mode", "materialized"),
        ("cache_policy", "off"),
        ("cache_max_entries", 64),
        ("cache_max_bytes", 1024),
        ("cache_stats", True),
    ])
    def test_removed_fields_are_unknown(self, field, value):
        with pytest.raises(ValueError, match=f"unknown RunConfig fields \\['{field}'\\]"):
            RunConfig.from_dict({field: value})


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
             "--shard-trials", "2", "--backend", "euler"]
        )
        config = RunConfig.from_cli_args(args)
        assert config.trials == 7
        assert config.seed == 5
        assert config.workers == 0
        assert config.shard_trials == 2
        assert config.router_backend == "euler"
        assert config.sim_backend == "batched"

    @pytest.mark.parametrize("argv, expected", [
        (["run", "E2"], RunConfig()),
        (["route", "--d", "4", "--g", "4"], RunConfig()),
        (["sweep"], RunConfig()),
        (["serve"], RunConfig()),
    ], ids=["run", "route", "sweep", "serve"])
    def test_missing_flags_keep_defaults(self, argv, expected):
        config = RunConfig.from_cli_args(build_parser().parse_args(argv))
        assert config == expected
        assert (config.router_backend, config.sim_backend) == ("euler-array", "batched")
