"""One validated, frozen configuration object for every entry point.

Before this layer existed, each capability of the reproduction was reachable
only through its own ad-hoc keyword — ``backend=`` on the experiment
functions, ``sim_backend=`` on ``measure_routing``, per-subcommand CLI flags.
:class:`RunConfig` collects all of them in a single frozen dataclass that
validates on construction, so an invalid combination fails loudly at the
boundary instead of deep inside a sweep, and every consumer — the
:class:`~repro.api.session.Session`, the CLI, worker processes — speaks the
same vocabulary.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.exceptions import ConfigurationError

__all__ = ["RunConfig"]

#: argparse attribute -> RunConfig field, for :meth:`RunConfig.from_cli_args`.
_CLI_FIELDS: dict[str, str] = {
    "backend": "router_backend",
    "sim_backend": "sim_backend",
    "trials": "trials",
    "seed": "seed",
    "workers": "workers",
    "shard_trials": "shard_trials",
}


def _check_positive_int(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration shared by the Session, the CLI and workers.

    Attributes
    ----------
    router_backend:
        Edge-colouring backend for the fair distribution; must be registered
        in :data:`~repro.api.registry.ROUTER_BACKENDS`.  The default
        ``"euler-array"`` is the array-native fast path; the object-level
        ``"konig"``/``"euler"`` backends are the arbiters it is tested against.
    sim_backend:
        Simulator engine, registered in
        :data:`~repro.api.registry.SIM_ENGINES`.  The default ``"batched"``
        feeds the megabatch pipeline; ``"reference"`` is the slot-by-slot
        arbiter.  Every operation — routes, sweeps, experiments, the serving
        daemon — uses this one engine.
    trials:
        Trials per sweep configuration.
    seed:
        Root of the RNG lineage for the routing sweeps (E1/E1p: per
        configuration, per trial, per shard) and the collectives experiment
        (E8: per random section), so those runs reproduce from this single
        integer.  E3–E7 keep their experiment-specific default seeds — their
        published tables stay stable across configs — and take explicit
        overrides via ``session.experiment(id, seed=...)``.
    workers:
        Worker processes for sweeps (``None`` = one per core, ``0`` = serial).
    shard_trials:
        Split each sweep configuration's trials into shards of at most this
        many trials (``None`` = one task per configuration).
    """

    router_backend: str = "euler-array"
    sim_backend: str = "batched"
    trials: int = 3
    seed: int = 2002
    workers: int | None = None
    shard_trials: int | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check every field; raise on the first violation.

        Unknown registry names raise
        :class:`~repro.exceptions.ConfigurationError`; malformed numeric
        fields raise :class:`ValueError` (matching the messages the
        pre-Session free functions raised).
        """
        from repro.api.registry import (
            ROUTER_BACKENDS,
            SIM_ENGINES,
            ensure_builtin_backends,
        )

        ensure_builtin_backends()
        if self.router_backend not in ROUTER_BACKENDS:
            raise ConfigurationError(
                f"unknown router backend {self.router_backend!r}; "
                f"available: {sorted(ROUTER_BACKENDS.names())}"
            )
        if self.sim_backend not in SIM_ENGINES:
            raise ConfigurationError(
                f"unknown simulator engine {self.sim_backend!r}; "
                f"available: {sorted(SIM_ENGINES.names())}"
            )
        _check_positive_int("trials", self.trials)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if self.workers is not None:
            if isinstance(self.workers, bool) or not isinstance(self.workers, int):
                raise ValueError(f"workers must be an int or None, got {self.workers!r}")
            if self.workers < 0:
                raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.shard_trials is not None:
            _check_positive_int("shard_trials", self.shard_trials)

    # -- derivation ---------------------------------------------------------

    def replace(self, **changes: Any) -> RunConfig:
        """A copy with ``changes`` applied; the copy re-validates."""
        return dataclasses.replace(self, **changes)

    # -- conversion ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """All fields as a plain JSON-ready dict (round-trips via :meth:`from_dict`)."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, mapping: dict[str, Any]) -> RunConfig:
        """Build a config from a mapping, rejecting unknown keys."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValueError(
                f"unknown RunConfig fields {unknown}; known fields: {sorted(known)}"
            )
        return cls(**mapping)

    @classmethod
    def from_cli_args(cls, args: argparse.Namespace) -> RunConfig:
        """Lower parsed CLI flags into a config.

        Flags map 1:1 (``--backend`` -> ``router_backend``, ``--sim-backend``
        -> ``sim_backend``, …); flags a subcommand does not define — or that
        parsed to ``None`` — keep their :class:`RunConfig` defaults.
        """
        kwargs: dict[str, Any] = {}
        for attr, field_name in _CLI_FIELDS.items():
            value = getattr(args, attr, None)
            if value is not None:
                kwargs[field_name] = value
        return cls(**kwargs)
