"""Experiment runners — one per entry of the experiment index in DESIGN.md.

The paper is a theory paper: its "evaluation" consists of Theorems 1–2,
Propositions 1–3, Remark 1 and the worked example of Figure 3.  Each runner
below turns one of those claims into a measured table; EXPERIMENTS.md records
paper-claim versus measured output, the benchmarks under ``benchmarks/`` wrap
the runners in ``pytest-benchmark`` fixtures, and ``python -m repro`` prints
their reports from the command line.

Runners are registered in :data:`repro.api.registry.EXPERIMENTS` under their
experiment ids and executed through a :class:`repro.api.session.Session`,
which supplies the router backend, simulator engine and the root of the
seed lineage; per-experiment sizes remain overridable via
``session.experiment(id, **overrides)``.  (The historical free functions —
``run_theorem2_sweep`` and friends, deprecated in 1.1 — were removed in 1.2
along with the ``ALL_EXPERIMENTS`` mapping, per the one-release timeline.)
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from math import ceil
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.algorithms.alltoall import all_to_all_personalized, gather, scatter
from repro.algorithms.broadcast import execute_broadcast
from repro.algorithms.matrix import cannon_matrix_multiply, distributed_transpose
from repro.algorithms.prefix_sum import hypercube_prefix_sum
from repro.algorithms.reduction import hypercube_allreduce
from repro.analysis.reporting import format_experiment_report
from repro.api import EXPERIMENTS
from repro.api.session import derive_trial_seeds
from repro.obs import get_tracer
from repro.patterns.families import (
    all_hypercube_exchanges,
    bit_reversal_permutation,
    bpc_permutation,
    figure3_permutation,
    matrix_transpose_permutation,
    mesh_column_shift,
    mesh_row_shift,
    perfect_shuffle,
    vector_reversal,
)
from repro.patterns.generators import PermutationGenerator
from repro.pops.packet import Packet
from repro.pops.simulator import POPSSimulator
from repro.pops.topology import POPSNetwork
from repro.routing.baselines.direct import DirectRouter
from repro.routing.fair_distribution import FairDistributionSolver
from repro.routing.list_system import ListSystem
from repro.routing.lower_bounds import (
    proposition1_lower_bound,
    proposition2_lower_bound,
    proposition3_lower_bound,
)
from repro.routing.one_slot import OneSlotRouter, is_one_slot_routable
from repro.routing.permutation_router import PermutationRouter, theorem2_slot_bound
from repro.utils.permutations import random_permutation
from repro.utils.rng import resolve_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.session import Session

__all__ = ["ExperimentResult"]

#: Default (d, g) sweep used by the permutation-routing experiments.  Covers
#: all three regimes of Theorem 2 (d = 1, 1 < d <= g, d > g) plus the single
#: group and single-processor-per-group corners.
DEFAULT_CONFIGS: tuple[tuple[int, int], ...] = (
    (1, 8),
    (2, 8),
    (4, 4),
    (8, 8),
    (6, 3),
    (8, 4),
    (9, 3),
    (16, 4),
    (5, 7),
    (7, 5),
    (12, 1),
)

#: Router backend of E2, E10 and E11, whose tables show *which* valid fair
#: distribution the edge colouring finds (every backend meets Theorem 2 but
#: finds its own).  Pinned, as E3–E7 pin their seeds, and said in the notes.
TABLE_BACKEND = "konig"
_TABLE_BACKEND_NOTE = f"{TABLE_BACKEND} (pinned; the session's backend is not used)"


def _table_session(session: Session) -> Session:
    """``session`` on :data:`TABLE_BACKEND`."""
    from repro.api.session import Session

    return Session(session.config.replace(router_backend=TABLE_BACKEND))


@dataclass
class ExperimentResult:
    """Measured output of one experiment."""

    experiment_id: str
    title: str
    claim: str
    headers: list[str]
    rows: list[list[Any]]
    notes: dict[str, Any] = field(default_factory=dict)

    def to_report(self) -> str:
        """Render the result as a plain-text report."""
        return format_experiment_report(
            f"{self.experiment_id}: {self.title}",
            self.claim,
            self.headers,
            self.rows,
            self.notes,
        )

    def to_dict(self) -> dict[str, Any]:
        """The result as a JSON-ready dict (numpy scalars coerced)."""
        from repro.api.serialize import to_jsonable

        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "claim": self.claim,
            "headers": list(self.headers),
            "rows": to_jsonable(self.rows),
            "notes": to_jsonable(self.notes),
            "all_pass": self.all_pass,
        }

    @property
    def all_pass(self) -> bool:
        """True iff every row's final column (the per-row verdict) is truthy."""
        return all(bool(row[-1]) for row in self.rows)


# ---------------------------------------------------------------------------
# E1 — Theorem 2 slot counts
# ---------------------------------------------------------------------------


def _theorem2_shard(
    task: tuple[int, int, tuple[int, ...], dict[str, Any]],
    session: Session | None = None,
) -> tuple[list[int], bool]:
    """Run one shard (an explicit list of trial seeds) of a (d, g) configuration.

    Top-level so process-pool workers can pickle it.  With no ``session`` (a
    pool worker: sessions do not cross process boundaries) the worker builds
    one from the task's config fields, so it routes exactly as the caller's
    session; in-process callers pass their own session.

    The shard's permutations are drawn per trial seed exactly as the
    historical per-trial loop did, then routed as *one* ``(B, n)`` megabatch
    through :meth:`~repro.api.session.Session.route_batch`; the per-trial
    metrics are bit-identical, so merged sweep reports are unchanged.
    Returns the sorted slot counts seen and the AND of the per-trial bound
    checks.
    """
    d, g, trial_seeds, config_fields = task
    if session is None:
        from repro.api.config import RunConfig
        from repro.api.session import Session

        session = Session(RunConfig(**config_fields))
    with get_tracer().span("sweep.shard", d=d, g=g, trials=len(trial_seeds)):
        network = POPSNetwork(d, g)
        pis = np.stack(
            [
                np.asarray(
                    random_permutation(network.n, resolve_rng(trial_seed)),
                    dtype=np.int64,
                )
                for trial_seed in trial_seeds
            ]
        )
        trial_metrics = session.route_batch(pis, network=network)
        return (
            sorted({metrics.slots for metrics in trial_metrics}),
            all(metrics.meets_theorem2_bound for metrics in trial_metrics),
        )


def _sweep_row(d: int, g: int, slots_seen: set[int], verified: bool) -> list[Any]:
    """One E1/E1p result row; the single source of the sweep row schema."""
    return [
        d,
        g,
        d * g,
        theorem2_slot_bound(d, g),
        min(slots_seen),
        max(slots_seen),
        verified,
    ]


def _sweep_rows(
    session: Session,
    configs: Sequence[tuple[int, int]],
    trials: int,
    seed: int | None,
    shard: int,
    workers: int | None,
) -> list[list[Any]]:
    """The one E1/E1p sweep body: shard every configuration's trials, route
    the shards (across ``workers`` processes unless ``workers == 0`` or there
    is a single shard) and merge them into one row per configuration.

    Per-trial seeds are derived once per configuration and sliced into
    shards of at most ``shard`` trials, so sharding adds no redundant seed
    derivation and any shard can run in any worker with bit-identical
    results.  The whole config crosses the process boundary (it round-trips
    through ``RunConfig(**fields)``), so pool workers route exactly as
    ``session``.
    """
    rng = resolve_rng(seed)
    config_fields = session.config.to_dict()
    tasks = []
    task_config: list[int] = []  # task index -> config index
    for ci, (d, g) in enumerate(configs):
        trial_seeds = derive_trial_seeds(rng.randrange(2**31), trials).tolist()
        for lo in range(0, trials, shard):
            tasks.append((d, g, tuple(trial_seeds[lo:lo + shard]), config_fields))
            task_config.append(ci)

    shards: list[tuple[list[int], bool]] | None = None
    if workers != 0 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as executor:
                shards = list(executor.map(_theorem2_shard, tasks))
        except (OSError, BrokenProcessPool):  # pragma: no cover - sandboxed hosts
            shards = None
    if shards is None:
        shards = [_theorem2_shard(task, session=session) for task in tasks]

    # Merge shard results per configuration (set-union / AND, order-free).
    merged_slots: list[set[int]] = [set() for _ in configs]
    merged_verified = [True] * len(configs)
    for ci, (slots_seen, verified) in zip(task_config, shards):
        merged_slots[ci].update(slots_seen)
        merged_verified[ci] = merged_verified[ci] and verified
    return [
        _sweep_row(d, g, merged_slots[ci], merged_verified[ci])
        for ci, (d, g) in enumerate(configs)
    ]


@EXPERIMENTS.register("E1")
def _theorem2_sweep(
    session: Session,
    configs: Sequence[tuple[int, int]] = DEFAULT_CONFIGS,
    trials: int | None = None,
    seed: int | None = None,
) -> ExperimentResult:
    """E1: the universal router uses exactly 1 / 2⌈d/g⌉ slots on random permutations.

    Every routing is executed on the session's engine and verified for
    delivery.  Runs the E1p sweep body serially, one shard per configuration.
    """
    trials = session.config.trials if trials is None else trials
    seed = session.config.seed if seed is None else seed
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    return ExperimentResult(
        experiment_id="E1",
        title="Theorem 2 slot counts over a (d, g) sweep",
        claim="any permutation routes in 1 slot (d=1) or 2*ceil(d/g) slots (d>1)",
        headers=["d", "g", "n", "bound", "min slots", "max slots", "matches bound"],
        rows=_sweep_rows(session, configs, trials, seed, shard=trials, workers=0),
        notes={
            "trials per configuration": trials,
            "backend": session.config.router_backend,
            "simulator backend": session.config.sim_backend,
        },
    )


@EXPERIMENTS.register("E1p")
def _parallel_sweep(
    session: Session,
    configs: Sequence[tuple[int, int]] = DEFAULT_CONFIGS,
) -> ExperimentResult:
    """Theorem 2 sweep fanned across processes, optionally sharding trials.

    By default each (d, g) configuration is one unit of work.  With
    ``shard_trials=k`` in the session config every configuration's trials are
    additionally split into shards of at most ``k`` trials, each shard an
    independent task with deterministically derived per-trial seeds — so a
    *single* huge configuration (n in the tens of thousands) saturates all
    cores instead of one, and the merged result is bit-for-bit identical to
    the unsharded run with the same seed.  ``workers=0`` (or a single task)
    runs serially in-process, which is also the fallback when the platform
    cannot spawn worker processes.
    """
    config = session.config
    trials = config.trials
    shard = trials if config.shard_trials is None else min(config.shard_trials, trials)
    rows = _sweep_rows(session, configs, trials, config.seed, shard, config.workers)
    notes: dict[str, Any] = {
        "trials per configuration": trials,
        "backend": config.router_backend,
        "simulator backend": config.sim_backend,
        "max workers": config.workers if config.workers is not None else "auto",
    }
    if config.shard_trials is not None:
        notes["trials per shard"] = shard
    return ExperimentResult(
        experiment_id="E1p",
        title="Theorem 2 sweep fanned across worker processes",
        claim="any permutation routes in 1 slot (d=1) or 2*ceil(d/g) slots (d>1)",
        headers=["d", "g", "n", "bound", "min slots", "max slots", "matches bound"],
        rows=rows,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# E2 — Figure 3 worked example
# ---------------------------------------------------------------------------


@EXPERIMENTS.register("E2")
def _figure3_example(session: Session) -> ExperimentResult:
    """E2: the POPS(3,3) example of Figure 3 routes in two slots via a fair distribution.

    The worked example is fully deterministic — the permutation is fixed by
    Figure 3 and the router draws no randomness — so this experiment consumes
    the session's seed lineage trivially (no derived seeds needed).  The
    intermediate-group column is the fair distribution the
    :data:`TABLE_BACKEND` router finds.
    """
    network = POPSNetwork(3, 3)
    pi = figure3_permutation()
    router = PermutationRouter(network, backend=TABLE_BACKEND)
    plan = router.route(pi)
    simulator = POPSSimulator(network)
    simulator.route_and_verify(plan.schedule, plan.packets)

    system = ListSystem.from_permutation(pi, 3, 3)
    distribution = plan.fair_distribution
    assert distribution is not None
    rows = []
    for h in range(3):
        for i in range(3):
            source = network.processor(h, i)
            rows.append(
                [
                    source,
                    network.group_of(pi[source]),
                    distribution(h, i),
                    pi[source],
                    True,
                ]
            )
    return ExperimentResult(
        experiment_id="E2",
        title="Figure 3 worked example on POPS(3,3)",
        claim="one slot reaches a fair distribution, a second delivers (2 slots total)",
        headers=[
            "source processor",
            "destination group",
            "intermediate group",
            "destination processor",
            "delivered",
        ],
        rows=rows,
        notes={
            "slots used": plan.n_slots,
            "theorem 2 bound": theorem2_slot_bound(3, 3),
            "list system proper": system.is_proper(),
            "router backend": _TABLE_BACKEND_NOTE,
        },
    )


# ---------------------------------------------------------------------------
# E3 — Remark 1 scaling of the fair-distribution computation
# ---------------------------------------------------------------------------


@EXPERIMENTS.register("E3")
def _scaling_experiment(
    session: Session,
    g_values: Sequence[int] = (4, 8, 16, 32),
    backends: Sequence[str] = ("konig", "euler"),
    trials: int | None = None,
    seed: int = 7,
) -> ExperimentResult:
    """E3: fair-distribution computation time vs g (d = g) for both backends.

    Remark 1 quotes O(g^3) (Schrijver-style) and O(g^2 log g) (Kapoor–Rizzi /
    Rizzi) bottlenecks; this experiment reports measured times so the growth
    *shape* can be compared.  Absolute times depend on the Python substrate.
    """
    trials = session.config.trials if trials is None else trials
    rng = resolve_rng(seed)
    rows: list[list[Any]] = []
    for g in g_values:
        network = POPSNetwork(g, g)
        durations: dict[str, list[float]] = {backend: [] for backend in backends}
        for _ in range(trials):
            pi = random_permutation(network.n, rng)
            system = ListSystem.from_permutation(pi, g, g)
            for backend in backends:
                solver = FairDistributionSolver(backend=backend, verify=False)
                start = time.perf_counter()
                solver.solve(system)
                durations[backend].append(time.perf_counter() - start)
        row: list[Any] = [g, network.n]
        for backend in backends:
            row.append(sum(durations[backend]) / len(durations[backend]))
        row.append(True)
        rows.append(row)
    headers = ["g (=d)", "n"] + [f"mean seconds ({b})" for b in backends] + ["completed"]
    return ExperimentResult(
        experiment_id="E3",
        title="Remark 1: cost of computing the fair distribution",
        claim="bottleneck is 1-factorisation: O(g^3) or O(g^2 log g) for d = g",
        headers=headers,
        rows=rows,
        notes={"trials per size": trials},
    )


# ---------------------------------------------------------------------------
# E4 — Propositions 1–3 lower bounds
# ---------------------------------------------------------------------------


@EXPERIMENTS.register("E4")
def _lower_bound_experiment(
    session: Session,
    configs: Sequence[tuple[int, int]] = ((4, 4), (8, 4), (9, 3), (6, 6), (16, 4)),
    trials: int | None = None,
    seed: int = 11,
) -> ExperimentResult:
    """E4: measured slots versus the lower bounds of Propositions 1–3.

    Three workload classes are used: derangements (Prop. 1), group-moving
    group-blocked permutations (Prop. 2, where Theorem 2 is exactly optimal),
    and fixed-point-free within-group permutations (Prop. 3's hypotheses with
    the group map equal to the identity).
    """
    trials = session.config.trials if trials is None else trials
    rows: list[list[Any]] = []
    for d, g in configs:
        network = POPSNetwork(d, g)
        generator = PermutationGenerator(network, seed)
        for kind in ("derangement", "group_moving_blocked", "within_group_derangement"):
            for _ in range(trials):
                if kind == "derangement":
                    pi = generator.derangement()
                    bound = proposition1_lower_bound(network, pi)
                elif kind == "group_moving_blocked":
                    if g < 2:
                        continue
                    pi = generator.group_moving_blocked()
                    bound = proposition2_lower_bound(network, pi)
                else:
                    if d < 2:
                        continue
                    pi = _within_group_derangement(network, generator)
                    bound = proposition3_lower_bound(network, pi)
                if bound is None:
                    continue
                metrics = session.route(pi, network=network)
                rows.append(
                    [
                        d,
                        g,
                        kind,
                        bound,
                        metrics.slots,
                        metrics.theorem2_bound,
                        metrics.slots >= bound and metrics.meets_theorem2_bound,
                    ]
                )
    return ExperimentResult(
        experiment_id="E4",
        title="Propositions 1-3: measured slots vs lower bounds",
        claim=(
            "slots >= ceil(d/g) for derangements; = 2*ceil(d/g) (optimal) for "
            "group-moving blocked permutations; >= 2*ceil(d/(1+g)) for blocked derangements"
        ),
        headers=["d", "g", "workload", "lower bound", "slots", "theorem2 bound", "consistent"],
        rows=rows,
        notes={"trials per class": trials},
    )


def _within_group_derangement(
    network: POPSNetwork, generator: PermutationGenerator
) -> list[int]:
    """A fixed-point-free permutation whose group map is the identity."""
    from repro.utils.permutations import random_derangement

    rng = generator._rng
    d, g = network.d, network.g
    pi = [0] * network.n
    for h in range(g):
        local = random_derangement(d, rng)
        for i in range(d):
            pi[h * d + i] = h * d + local[i]
    return pi


# ---------------------------------------------------------------------------
# E5 — unification of the specialised results
# ---------------------------------------------------------------------------


@EXPERIMENTS.register("E5")
def _unification_experiment(session: Session) -> ExperimentResult:
    """E5: the universal router matches every specialised slot count from Section 2.

    Hypercube dimension exchanges and mesh row/column shifts ([Sahni 2000b]),
    vector reversal, BPC permutations and matrix transpose ([Sahni 2000a]) are
    all routed by the universal router; the transpose additionally gets the
    ``⌈d/g⌉`` single-hop schedule of the direct baseline.
    """
    rows: list[list[Any]] = []

    def check(
        family: str, d: int, g: int, pi: list[int], expected: int, method: str = "router"
    ) -> None:
        network = POPSNetwork(d, g)
        if method == "router":
            metrics = session.route(pi, network=network)
            slots = metrics.slots
        else:
            direct = DirectRouter(network)
            schedule = direct.route(pi)
            packets = [Packet(source=i, destination=pi[i]) for i in range(network.n)]
            POPSSimulator(network).route_and_verify(schedule, packets)
            slots = schedule.n_slots
        rows.append([family, d, g, method, expected, slots, slots == expected])

    # Hypercube dimension exchanges: every bit, on d <= g and d > g networks.
    for d, g in ((4, 8), (8, 4)):
        n = d * g
        for bit, pi in enumerate(all_hypercube_exchanges(n)):
            check(f"hypercube bit {bit}", d, g, pi, theorem2_slot_bound(d, g))

    # Mesh row/column shifts on a 6x6 mesh (N^2 = 36, d = 6 divides N).
    side = 6
    for d, g in ((6, 6), (4, 9), (9, 4)):
        if d * g != side * side:
            continue
        check("mesh row +1", d, g, mesh_row_shift(side), theorem2_slot_bound(d, g))
        check("mesh col +1", d, g, mesh_column_shift(side), theorem2_slot_bound(d, g))

    # Vector reversal ([Sahni 2000a]): 2*ceil(d/g), optimal for even g.
    for d, g in ((4, 4), (8, 4), (3, 9)):
        check("vector reversal", d, g, vector_reversal(d * g), theorem2_slot_bound(d, g))

    # BPC permutations: perfect shuffle, bit reversal, and a mixed instance.
    for d, g in ((4, 8), (8, 4)):
        n = d * g
        check("perfect shuffle", d, g, perfect_shuffle(n), theorem2_slot_bound(d, g))
        check("bit reversal", d, g, bit_reversal_permutation(n), theorem2_slot_bound(d, g))
        k = n.bit_length() - 1
        order = list(range(1, k)) + [0]
        check(
            "BPC rotate+complement",
            d,
            g,
            bpc_permutation(n, order, complement_mask=1),
            theorem2_slot_bound(d, g),
        )

    # Matrix transpose ([Sahni 2000a]): ceil(d/g) slots via the direct schedule.
    for m, d, g in ((6, 6, 6), (8, 16, 4), (8, 4, 16)):
        pi = matrix_transpose_permutation(m)
        check("matrix transpose", d, g, pi, max(1, ceil(d / g)), method="direct")

    return ExperimentResult(
        experiment_id="E5",
        title="Unification of the specialised routings of Section 2",
        claim=(
            "hypercube/mesh steps, vector reversal and BPC permutations route in "
            "2*ceil(d/g) slots; matrix transpose in ceil(d/g) single-hop slots"
        ),
        headers=["family", "d", "g", "method", "expected slots", "slots", "matches"],
        rows=rows,
        notes={},
    )


# ---------------------------------------------------------------------------
# E6 — universal router vs single-hop baseline
# ---------------------------------------------------------------------------


@EXPERIMENTS.register("E6")
def _direct_comparison(
    session: Session,
    configs: Sequence[tuple[int, int]] = ((4, 4), (8, 4), (16, 4), (32, 4), (8, 8), (16, 8)),
    trials: int | None = None,
    seed: int = 23,
) -> ExperimentResult:
    """E6: two-hop universal routing vs the single-hop baseline.

    On group-blocked traffic the direct baseline needs ``d`` slots while the
    universal router keeps its ``2⌈d/g⌉`` guarantee; on uniform random traffic
    the direct baseline is usually competitive.  The crossover is the point the
    paper's worst-case guarantee is about.
    """
    trials = session.config.trials if trials is None else trials
    rows: list[list[Any]] = []
    for d, g in configs:
        network = POPSNetwork(d, g)
        generator = PermutationGenerator(network, seed)
        for kind in ("group_blocked", "uniform"):
            universal_slots: list[int] = []
            direct_slots: list[int] = []
            for _ in range(trials):
                pi = (
                    generator.group_blocked()
                    if kind == "group_blocked"
                    else generator.uniform()
                )
                metrics = session.route(pi, network=network)
                universal_slots.append(metrics.slots)
                direct_slots.append(DirectRouter(network).slots_required(pi))
            mean_universal = sum(universal_slots) / len(universal_slots)
            mean_direct = sum(direct_slots) / len(direct_slots)
            rows.append(
                [
                    d,
                    g,
                    kind,
                    mean_universal,
                    mean_direct,
                    mean_direct / mean_universal,
                    mean_universal <= theorem2_slot_bound(d, g),
                ]
            )
    return ExperimentResult(
        experiment_id="E6",
        title="Universal two-hop router vs direct single-hop baseline",
        claim="2*ceil(d/g) always; direct routing degrades to d slots on blocked traffic",
        headers=[
            "d",
            "g",
            "workload",
            "universal slots (mean)",
            "direct slots (mean)",
            "direct/universal",
            "within bound",
        ],
        rows=rows,
        notes={"trials per point": trials},
    )


# ---------------------------------------------------------------------------
# E7 — single-slot routability
# ---------------------------------------------------------------------------


@EXPERIMENTS.register("E7")
def _one_slot_fraction(
    session: Session,
    configs: Sequence[tuple[int, int]] = ((1, 8), (2, 4), (2, 8), (4, 4), (3, 9)),
    trials: int = 200,
    seed: int = 31,
) -> ExperimentResult:
    """E7: how rare single-slot routable permutations are, and that the one-slot
    router handles exactly that class (Fact 1 / Gravenstreter–Melhem)."""
    rng = resolve_rng(seed)
    rows: list[list[Any]] = []
    for d, g in configs:
        network = POPSNetwork(d, g)
        routable = 0
        verified = True
        for _ in range(trials):
            pi = random_permutation(network.n, rng)
            if is_one_slot_routable(network, pi):
                routable += 1
                router = OneSlotRouter(network)
                schedule = router.route(pi)
                packets = [Packet(source=i, destination=pi[i]) for i in range(network.n)]
                POPSSimulator(network).route_and_verify(schedule, packets)
                verified = verified and schedule.n_slots == 1
        rows.append([d, g, network.n, trials, routable, routable / trials, verified])
    return ExperimentResult(
        experiment_id="E7",
        title="Fraction of permutations routable in a single slot",
        claim="only permutations with no same-group/same-destination-group pair need 1 slot",
        headers=["d", "g", "n", "samples", "routable", "fraction", "verified"],
        rows=rows,
        notes={},
    )


# ---------------------------------------------------------------------------
# E8 — collective algorithms on top of the router
# ---------------------------------------------------------------------------


@EXPERIMENTS.register("E8")
def _collectives_experiment(
    session: Session, seed: int | None = None
) -> ExperimentResult:
    """E8: the algorithm catalogue built on the universal router.

    Broadcast (1 slot), all-reduce and prefix sum (2⌈d/g⌉·log2 n slots), matrix
    transpose (router vs direct) and Cannon matrix multiplication, each
    executed on the simulator and checked against a local reference.  Every
    collective runs through ``session``, so its router backend and engine
    apply throughout.

    Trial seeds follow the sweep lineage: one root seed (the session's
    ``RunConfig.seed`` unless overridden) derives an independent seed per
    random section — the all-reduce/prefix data of each network and the
    Cannon operands — exactly as sharded sweeps derive per-trial seeds, so
    any section reproduces in isolation from the root seed alone.
    """
    root_seed = session.config.seed if seed is None else seed
    # One derived seed per random section: data for (4, 8), data for (8, 4),
    # and the Cannon operand matrices.
    section_seeds = derive_trial_seeds(root_seed, 3).tolist()
    rows: list[list[Any]] = []

    # Broadcast: 1 slot on any network.
    network = POPSNetwork(4, 4)
    values, slots = execute_broadcast(
        network, speaker=5, payload="token", session=session
    )
    rows.append(
        ["one-to-all broadcast", 4, 4, 1, slots, all(v == "token" for v in values)]
    )

    # All-reduce and prefix sum on d <= g and d > g networks.
    for (d, g), section_seed in zip(((4, 8), (8, 4)), section_seeds):
        rng = resolve_rng(section_seed)
        network = POPSNetwork(d, g)
        n = network.n
        data = [rng.randint(0, 100) for _ in range(n)]
        log_n = n.bit_length() - 1
        expected_slots = theorem2_slot_bound(d, g) * log_n

        reduced, slots = hypercube_allreduce(
            network, data, lambda a, b: a + b, session=session
        )
        rows.append(
            [
                "hypercube all-reduce",
                d,
                g,
                expected_slots,
                slots,
                all(value == sum(data) for value in reduced),
            ]
        )

        prefixes, slots = hypercube_prefix_sum(network, data, session=session)
        expected_prefix = list(np.cumsum(data))
        rows.append(
            [
                "hypercube prefix sum",
                d,
                g,
                expected_slots,
                slots,
                [int(p) for p in prefixes] == [int(p) for p in expected_prefix],
            ]
        )

    # Matrix transpose: router (2*ceil(d/g)) and direct (ceil(d/g)).
    network = POPSNetwork(6, 6)
    matrix = np.arange(36).reshape(6, 6)
    transposed, slots = distributed_transpose(
        network, matrix, method="router", session=session
    )
    rows.append(
        ["transpose (router)", 6, 6, theorem2_slot_bound(6, 6), slots, bool((transposed == matrix.T).all())]
    )
    transposed, slots = distributed_transpose(
        network, matrix, method="direct", session=session
    )
    rows.append(["transpose (direct)", 6, 6, 1, slots, bool((transposed == matrix.T).all())])

    # Cannon matrix multiplication on a 4x4 mesh of 16 processors.
    cannon_rng = resolve_rng(section_seeds[2])
    network = POPSNetwork(4, 4)
    a = np.array([[cannon_rng.uniform(-1, 1) for _ in range(4)] for _ in range(4)])
    b = np.array([[cannon_rng.uniform(-1, 1) for _ in range(4)] for _ in range(4)])
    product, slots = cannon_matrix_multiply(network, a, b, session=session)
    expected_cannon_slots = theorem2_slot_bound(4, 4) * (2 + 2 * 3)
    rows.append(
        [
            "Cannon matrix multiply",
            4,
            4,
            expected_cannon_slots,
            slots,
            bool(np.allclose(product, a @ b)),
        ]
    )

    return ExperimentResult(
        experiment_id="E8",
        title="Collective algorithms built on the universal router",
        claim="every collective decomposes into permutations, each 2*ceil(d/g) slots",
        headers=["algorithm", "d", "g", "expected slots", "slots", "correct"],
        rows=rows,
        notes={},
    )


# ---------------------------------------------------------------------------
# E9 — collective schedules at scale on the vectorized engines
# ---------------------------------------------------------------------------


@EXPERIMENTS.register("E9")
def _collective_scale_experiment(
    session: Session,
    broadcast_configs: Sequence[tuple[int, int]] = ((4, 4), (16, 16), (32, 32)),
    seed: int | None = None,
) -> ExperimentResult:
    """E9: the collective catalogue executed end-to-end on the compiled engines.

    Broadcast schedules run on the vectorized multi-location collective
    engine, reduction and h-relation rounds on the batched engine — no
    collective here touches the reference simulator, which is what unlocks
    the larger network sizes (the default broadcast sweep tops out at
    n = 1024).  Every row is verified against a local reference computation.

    Seeds follow the sweep lineage: one root seed (the session's
    ``RunConfig.seed`` unless overridden) derives an independent seed per
    random section, so any section reproduces from the root seed alone.
    """
    root_seed = session.config.seed if seed is None else seed
    # One derived seed per random section: the all-reduce data of each
    # network shape and the all-to-all/scatter/gather operand tables.
    section_seeds = derive_trial_seeds(root_seed, 3).tolist()
    rows: list[list[Any]] = []

    # One-slot broadcasts, growing n: the collective engine's home turf.
    for d, g in broadcast_configs:
        network = POPSNetwork(d, g)
        speaker = network.n // 2
        values, slots = execute_broadcast(
            network, speaker=speaker, payload="token", session=session,
            cache_key=("E9-broadcast", d, g, speaker),
        )
        rows.append(
            [
                "one-to-all broadcast",
                d,
                g,
                network.n,
                1,
                slots,
                all(value == "token" for value in values),
            ]
        )

    # All-reduce on d <= g and d > g shapes (permutation rounds, batched).
    for (d, g), section_seed in zip(((4, 8), (8, 4)), section_seeds):
        rng = resolve_rng(section_seed)
        network = POPSNetwork(d, g)
        data = [rng.randint(0, 100) for _ in range(network.n)]
        expected_slots = theorem2_slot_bound(d, g) * (network.n.bit_length() - 1)
        reduced, slots = hypercube_allreduce(
            network, data, lambda a, b: a + b, session=session
        )
        rows.append(
            [
                "hypercube all-reduce",
                d,
                g,
                network.n,
                expected_slots,
                slots,
                all(value == sum(data) for value in reduced),
            ]
        )

    # h-relation collectives: all-to-all, scatter, gather (batched rounds).
    rng = resolve_rng(section_seeds[2])
    network = POPSNetwork(4, 4)
    n = network.n
    table = [[rng.randint(0, 999) for _ in range(n)] for _ in range(n)]
    received, slots = all_to_all_personalized(network, table, session=session)
    bound = (n - 1) * theorem2_slot_bound(4, 4)
    rows.append(
        [
            "all-to-all personalised",
            4,
            4,
            n,
            bound,
            slots,
            slots <= bound
            and all(received[j][i] == table[i][j] for i in range(n) for j in range(n)),
        ]
    )
    flat = [rng.randint(0, 999) for _ in range(n)]
    scattered, slots = scatter(network, 3, flat, session=session)
    rows.append(
        ["scatter", 4, 4, n, bound, slots, slots <= bound and scattered == flat]
    )
    collected, slots = gather(network, 3, flat, session=session)
    rows.append(
        ["gather", 4, 4, n, bound, slots, slots <= bound and collected == flat]
    )

    return ExperimentResult(
        experiment_id="E9",
        title="Collective schedules at scale on the compiled engines",
        claim=(
            "broadcast/multi-reader schedules run on the vectorized collective "
            "engine (no reference fallback); reductions and h-relations on the "
            "batched engine"
        ),
        headers=["collective", "d", "g", "n", "expected slots", "slots", "correct"],
        rows=rows,
        notes={
            "backend": session.config.router_backend,
            "simulator backend": session.config.sim_backend,
            "largest broadcast n": max(d * g for d, g in broadcast_configs),
        },
    )


# ---------------------------------------------------------------------------
# E10 — slot degradation under coupler failures
# ---------------------------------------------------------------------------


@EXPERIMENTS.register("E10")
def _fault_degradation_experiment(
    session: Session,
    configs: Sequence[tuple[int, int]] = ((8, 4), (6, 3), (4, 8)),
    fractions: Sequence[float] = (0.0, 0.1, 0.25),
    seed: int | None = None,
) -> ExperimentResult:
    """E10: how many extra slots coupler failures cost the online rerouter.

    For each (d, g) and failed-coupler fraction, a random hub-protected
    :class:`~repro.faults.FaultSpec` is injected into the execution of a
    clean Theorem 2 schedule; the residual traffic is re-solved over the
    surviving couplers and delivery is verified on the degraded topology.
    The row verdict is *delivered* — availability under faults — and the
    slots column quantifies the degradation against the clean ``2⌈d/g⌉``
    bound (ratio 1.0 = the fault cost nothing).
    """
    from repro.faults import FaultSpec

    root_seed = session.config.seed if seed is None else seed
    table_session = _table_session(session)
    rows: list[list[Any]] = []
    for ci, (d, g) in enumerate(configs):
        network = POPSNetwork(d, g)
        config_seeds = derive_trial_seeds(root_seed + ci, len(fractions)).tolist()
        for fraction, trial_seed in zip(fractions, config_seeds):
            rng = resolve_rng(trial_seed)
            pi = random_permutation(network.n, rng)
            spec = FaultSpec.random(
                network,
                coupler_fraction=fraction,
                seed=trial_seed,
                onset_slot=1 if fraction else 0,
            )
            report = table_session.route_degraded(
                pi, network=network, faults=spec
            )
            rows.append(
                [
                    d,
                    g,
                    fraction,
                    report.failed_couplers,
                    report.theorem2_bound,
                    report.total_slots,
                    round(report.overhead_ratio, 3),
                    report.delivered,
                ]
            )
    return ExperimentResult(
        experiment_id="E10",
        title="Slot degradation under injected coupler failures",
        claim=(
            "every permutation is still delivered when a hub-protected random "
            "fraction of couplers fails; the online reroute pays a bounded "
            "slot overhead over the clean Theorem 2 bound"
        ),
        headers=[
            "d", "g", "failed fraction", "failed couplers",
            "theorem2 bound", "total slots", "overhead ratio", "delivered",
        ],
        notes={"fractions": list(fractions), "hub group": 0, "router backend": _TABLE_BACKEND_NOTE},
        rows=rows,
    )


# ---------------------------------------------------------------------------
# E11 — online recovery vs full re-route
# ---------------------------------------------------------------------------


@EXPERIMENTS.register("E11")
def _online_vs_full_reroute(
    session: Session,
    configs: Sequence[tuple[int, int]] = ((8, 4), (4, 8), (9, 3)),
    seed: int | None = None,
) -> ExperimentResult:
    """E11: online recovery of the residual vs re-routing from scratch.

    A coupler that the clean schedule provably drives one slot in fails at
    onset slot 1 (so the fault always triggers).  The online path keeps the
    slot already executed and re-solves only the residual packets from
    wherever they sit; the control arm discards all progress and re-solves
    the whole permutation from its original sources on the same degraded
    topology.  Both must deliver; the verdict also pins the online path's
    total inside twice the clean bound (the contract
    ``benchmarks/bench_faults.py`` enforces as a floor).
    """
    from repro.faults import FaultSpec, full_reroute
    from repro.routing.permutation_router import PermutationRouter

    root_seed = session.config.seed if seed is None else seed
    table_session = _table_session(session)
    rows: list[list[Any]] = []
    for ci, (d, g) in enumerate(configs):
        network = POPSNetwork(d, g)
        trial_seed = int(derive_trial_seeds(root_seed + ci, 1)[0])
        rng = resolve_rng(trial_seed)
        pi = random_permutation(network.n, rng)
        # Fail a coupler the clean plan actually drives at slot >= 1, so the
        # injection is guaranteed to trigger; prefer one not touching group 0
        # (the hub), keeping a two-hop survivor path for every group pair.
        plan = PermutationRouter(network, backend=TABLE_BACKEND).route(pi)
        driven = [
            t.coupler
            for slot in plan.schedule.slots[1:]
            for t in slot.transmissions
        ]
        target = next(
            (c for c in driven if c.dest_group != 0 and c.source_group != 0),
            driven[0],
        )
        spec = FaultSpec(
            failed_couplers=((target.dest_group, target.source_group),),
            onset_slot=1,
        )
        report = table_session.route_degraded(pi, network=network, faults=spec)
        full = full_reroute(network, pi, spec)
        ok = (
            report.delivered
            and report.overhead_ratio <= 2.0
            and report.fault_triggered
        )
        rows.append(
            [
                d,
                g,
                report.theorem2_bound,
                report.executed_slots,
                report.residual_packets,
                report.reroute_slots,
                report.total_slots,
                full.n_slots,
                ok,
            ]
        )
    return ExperimentResult(
        experiment_id="E11",
        title="Online recovery vs full re-route after a coupler failure",
        claim=(
            "re-solving only the residual traffic delivers every packet with "
            "total slots within 2x the clean bound; a full restart pays the "
            "whole degraded route again"
        ),
        headers=[
            "d", "g", "theorem2 bound", "executed slots", "residual packets",
            "reroute slots", "online total", "full re-route slots", "ok",
        ],
        notes={
            "failure": "one random non-hub coupler, onset slot 1",
            "router backend": _TABLE_BACKEND_NOTE,
        },
        rows=rows,
    )


# ---------------------------------------------------------------------------
# E12 — serving availability under injected faults
# ---------------------------------------------------------------------------


@EXPERIMENTS.register("E12")
def _serving_under_faults(
    session: Session,
    d: int = 6,
    g: int = 3,
    n_requests: int = 32,
    rate: float = 400.0,
    hotspot_fraction: float = 0.25,
    seed: int | None = None,
) -> ExperimentResult:
    """E12: the daemon stays available while every dispatch is fault-struck.

    An in-process :class:`~repro.serve.daemon.ServeDaemon` is configured
    with a permanent single-coupler fault at rate 1.0 — every dispatched
    request goes through injected execution and online recovery — and an
    open-loop Poisson load with a hot-spot arrival mix is fired at it.
    Availability is the verdict: zero transport/internal errors, every
    request either completed or explicitly shed, and every completion
    answered ``degraded`` (the faults really were injected).
    """
    from repro.faults import FaultSpec
    from repro.serve.daemon import ServeDaemon
    from repro.serve.loadgen import run_poisson_load

    root_seed = session.config.seed if seed is None else seed
    network = POPSNetwork(d, g)
    spec = FaultSpec.random(network, n_couplers=1, seed=root_seed, onset_slot=0)
    daemon = ServeDaemon(
        session.config,
        faults=spec,
        fault_rate=1.0,
    )
    with daemon:
        host, port = daemon.address
        load = run_poisson_load(
            host,
            port,
            rate=rate,
            n_requests=n_requests,
            d=d,
            g=g,
            seed=root_seed,
            connections=4,
            hotspot_fraction=hotspot_fraction,
        )
        health = daemon.health()
    answered = load.completed + load.shed
    ok = (
        load.errors == 0
        and answered == load.n_requests
        and load.degraded == load.completed
        and health["degraded_responses"] == load.completed
    )
    rows = [
        [
            d,
            g,
            spec.describe(),
            load.n_requests,
            load.completed,
            load.shed,
            load.errors,
            load.degraded,
            round(load.latency_p95_ms, 3),
            ok,
        ]
    ]
    return ExperimentResult(
        experiment_id="E12",
        title="Serving availability under injected coupler faults",
        claim=(
            "with every dispatch fault-struck, the daemon answers every "
            "accepted request through online recovery — no unanswered "
            "requests, no internal errors, degraded flagged end to end"
        ),
        headers=[
            "d", "g", "fault", "requests", "completed", "shed",
            "errors", "degraded", "p95 ms", "ok",
        ],
        notes={
            "fault_rate": 1.0,
            "hotspot_fraction": hotspot_fraction,
            "class_latency_ms": load.class_latency_ms,
        },
        rows=rows,
    )
