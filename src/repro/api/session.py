"""The :class:`Session` facade: one config, one cache, one RNG lineage.

A session binds a validated :class:`~repro.api.config.RunConfig` to the
resources a run needs — a deterministic seed lineage, and a compiled-schedule
cache for callers that key their own schedules (:meth:`Session.simulate`) —
and exposes the reproduction's capabilities as methods::

    from repro.api import RunConfig, Session

    session = Session(RunConfig(router_backend="euler", seed=7))
    metrics = session.route(pi, d=8, g=4)          # one verified routing
    sweep = session.sweep([(32, 32)])              # sharded Theorem 2 sweep
    result = session.experiment("E4")              # any registered experiment
    reports = session.run_all()                    # everything, sorted by id

Every simulator engine, router backend and experiment is resolved through the
registries in :mod:`repro.api.registry`, so components registered by user
code are first-class citizens here.  (The deprecated free functions —
``measure_routing``, ``run_theorem2_sweep``, … — were removed in 1.2; the
session methods are the only entry points.)
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.api.config import RunConfig
from repro.api.registry import EXPERIMENTS, ensure_experiments
from repro.exceptions import ConfigurationError
from repro.pops.engine import ScheduleCache
from repro.pops.packet import Packet
from repro.pops.schedule import RoutingSchedule
from repro.pops.simulator import POPSSimulator, SimulationResult
from repro.pops.topology import POPSNetwork
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_permutation_array

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.analysis.experiments import ExperimentResult
    from repro.analysis.metrics import RoutingMetrics

__all__ = ["Session", "derive_trial_seeds"]


def derive_trial_seeds(seed: int, trials: int) -> np.ndarray:
    """Deterministic per-trial seeds derived from one root seed.

    This is the single seed lineage of the whole API: sharded sweeps slice
    this array into whole-batch worker tasks, and experiments derive their
    per-section seeds the same way, so any unit of work can run in any
    process and still sample exactly what the serial run would.  Returns a
    ``(trials,)`` int64 array; the drawn values are unchanged from the
    historical list form (``.tolist()`` recovers it exactly — note the
    entries of the *array* are ``np.int64`` and must be converted back to
    Python ints before re-seeding :func:`repro.utils.rng.resolve_rng`).
    """
    rng = resolve_rng(seed)
    return np.fromiter(
        (rng.randrange(2**31) for _ in range(trials)),
        dtype=np.int64,
        count=trials,
    )


def _resolve_network(
    method: str, network: POPSNetwork | None, d: int | None, g: int | None
) -> POPSNetwork:
    """``network``, or ``POPSNetwork(d, g)`` when only the dimensions are given."""
    if network is not None:
        return network
    if d is None or g is None:
        raise ConfigurationError(f"{method}() needs either network= or both d= and g=")
    return POPSNetwork(d, g)


class Session:
    """Facade owning one schedule cache and one seed lineage.

    Parameters
    ----------
    config:
        The run configuration; defaults to ``RunConfig()``.
    cache:
        Compiled-schedule cache behind :meth:`simulate`'s ``cache_key``.  By
        default the session owns a fresh :class:`~repro.pops.engine.
        ScheduleCache`; pass :func:`repro.pops.engine.schedule_cache` to share
        the process-wide cache.  Routes never touch it: routed traffic almost
        never repeats a permutation, so the router plans every call.
    """

    def __init__(
        self, config: RunConfig | None = None, *, cache: ScheduleCache | None = None
    ):
        if config is None:
            config = RunConfig()
        if not isinstance(config, RunConfig):
            raise TypeError(
                f"config must be a RunConfig or None, got {type(config).__name__}"
            )
        self.config = config
        self.cache = ScheduleCache() if cache is None else cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session(config={self.config!r})"

    # -- component factories ------------------------------------------------

    def simulator(self, network: POPSNetwork) -> POPSSimulator:
        """A simulator for ``network`` using the configured engine."""
        return POPSSimulator(network, backend=self.config.sim_backend)

    def trial_seeds(self, trials: int, seed: int | None = None) -> np.ndarray:
        """Per-trial seeds from the session lineage (root: ``config.seed``)."""
        root = self.config.seed if seed is None else seed
        return derive_trial_seeds(root, trials)

    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/entry counters of the session's schedule cache."""
        return self.cache.stats()

    # -- capabilities -------------------------------------------------------

    def route(
        self,
        pi: Sequence[int],
        *,
        network: POPSNetwork | None = None,
        d: int | None = None,
        g: int | None = None,
    ) -> RoutingMetrics:
        """Route ``pi`` with the universal router; simulate, verify, summarise.

        The target network is given either as ``network=`` or as ``d=``/``g=``.
        Router backend and simulator engine come from the session config.
        ``pi`` is validated once and routed as the ``(1, n)`` row of the
        batch pipeline, so the result equals ``route_batch``'s entry for the
        same permutation.

        The call is span-instrumented: when a tracer is installed via
        :func:`repro.obs.set_tracer` (the CLI's ``--profile``/``--trace-out``
        do this), it emits a ``session.route`` root span (``batch=1``) cut
        into ``route.setup``/``route.compile``/``engine.execute``/
        ``metrics.*`` stages; with the default :data:`repro.obs.NULL_TRACER`
        the instrumentation costs at most a few microseconds per route (see
        ``benchmarks/bench_obs.py``).
        """
        network = _resolve_network("route", network, d, g)
        images = check_permutation_array(pi, network.n)
        return self._measure(network, images[None, :], validate=False)[0]

    def route_batch(
        self,
        pis,
        *,
        network: POPSNetwork | None = None,
        d: int | None = None,
        g: int | None = None,
    ) -> list[RoutingMetrics]:
        """Route a ``(B, n)`` permutation stack on the megabatch pipeline.

        Entry ``b`` of the returned list equals ``route(pis[b])``, field types
        included.  Configuration comes from the session, as for
        :meth:`route`.  Span-instrumented like :meth:`route`, under one
        ``session.route`` root with ``batch=B``.
        """
        network = _resolve_network("route_batch", network, d, g)
        return self._measure(network, pis)

    def _measure(
        self, network: POPSNetwork, pis, validate: bool = True
    ) -> list[RoutingMetrics]:
        from repro.analysis.metrics import _measure_routing_batch

        return _measure_routing_batch(
            network,
            pis,
            router_backend=self.config.router_backend,
            sim_backend=self.config.sim_backend,
            validate=validate,
        )

    def route_degraded(
        self,
        pi: Sequence[int],
        *,
        network: POPSNetwork | None = None,
        d: int | None = None,
        g: int | None = None,
        faults,
    ):
        """Route ``pi`` under fault injection and recover online.

        The fault-tolerance pipeline (:func:`repro.faults.route_with_recovery`):
        :meth:`route`'s one-row plan, on the session's router backend,
        executes on the batched engine with ``faults`` (a
        :class:`~repro.faults.FaultSpec`) injected; if the schedule drives
        failed hardware inside the fault window, the residual traffic is
        re-solved over the surviving couplers and verified delivered on the
        degraded topology.  Returns a
        :class:`~repro.faults.FaultRecoveryReport` comparing total slots
        (executed before the fault + reroute) against the clean ``2⌈d/g⌉``
        bound.  Span-instrumented (``fault.inject``, ``route.reroute``).
        """
        from repro.faults import FaultSpec, route_with_recovery

        if not isinstance(faults, FaultSpec):
            raise ConfigurationError(
                f"faults must be a FaultSpec, got {type(faults).__name__}"
            )
        network = _resolve_network("route_degraded", network, d, g)
        return route_with_recovery(
            network, pi, faults, router_backend=self.config.router_backend
        )

    def simulate(
        self,
        schedule: RoutingSchedule,
        packets: list[Packet],
        *,
        cache_key: Hashable | None = None,
        verify: bool = False,
    ) -> SimulationResult:
        """Execute ``schedule`` on the configured engine and return the result.

        Compiled engines return an integer-array
        :class:`~repro.pops.trace.CompiledTrace`; call
        ``result.trace.materialize()`` for per-slot dict objects.
        ``verify=True`` additionally asserts every packet reached its
        destination.

        Pass ``cache_key`` to memoise the compiled schedule in the
        session-owned cache; the caller asserts the key fully determines
        ``(schedule, packets)`` — the contract of
        :func:`repro.pops.engine.compile_state`.  No key is
        derived automatically because arbitrary schedules, unlike the
        deterministic router's, have no sound generic key.
        """
        simulator = self.simulator(schedule.network)
        result = simulator.run(
            schedule, packets, cache_key=cache_key, cache=self.cache
        )
        if verify:
            result.verify_permutation_delivery(packets)
        return result

    def experiment(self, experiment_id: str, **overrides: Any) -> ExperimentResult:
        """Run one registered experiment (``E1``..``E9``) under this session.

        ``overrides`` are forwarded to the experiment runner (sizes, trial
        counts, seeds — whatever the runner parameterises); everything else
        comes from the session config.  Unknown ids raise
        :class:`~repro.exceptions.ConfigurationError` listing the registered
        experiments.
        """
        ensure_experiments()
        runner = EXPERIMENTS.get(experiment_id)
        return runner(self, **overrides)

    def sweep(
        self, configs: Sequence[tuple[int, int]] | None = None
    ) -> ExperimentResult:
        """The Theorem 2 sweep over ``configs``, fanned across workers.

        Shard size, worker count, trials and seed all come from the session
        config (``shard_trials``, ``workers``, ``trials``, ``seed``).
        """
        if configs is None:
            return self.experiment("E1p")
        return self.experiment("E1p", configs=configs)

    def run_all(self) -> dict[str, ExperimentResult]:
        """Run every registered experiment, sorted by id."""
        ensure_experiments()
        return {
            experiment_id: self.experiment(experiment_id)
            for experiment_id in sorted(EXPERIMENTS.names())
        }
