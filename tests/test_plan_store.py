"""Tests for the persistent content-addressed compiled-plan store.

Pinned here:

* Exact round-trip: a plan written to the store and loaded back is
  bit-identical — every array's values *and* dtype — for both
  ``CompiledSchedule`` and ``CompiledScheduleBatch``, over
  hypothesis-generated permutations (broadcast batch planes included).
* The two-tier cache: memory miss → disk probe → promote, write-through on
  fill, counters that keep the tiers separate, and the historical three-key
  ``stats()`` shape when no store is attached.
* Robustness: corrupted blobs are quarantined and fall back to recompile,
  schema mismatches refuse to open, undigestible keys skip the disk tier.
* Concurrency: N processes racing writes to one key never produce a torn
  blob (atomic rename isolation), and readers racing GC see clean misses,
  never crashes.
* The CLI surface: ``pops-repro cache stats/warm/gc/verify`` and the
  ``sweep --plan-store --cache-stats`` note distinguishing memory from disk
  hits.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import routing_cache_key, routing_cache_key_batch
from repro.api import RunConfig, Session
from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.pops.engine import CompiledSchedule, CompiledScheduleBatch, ScheduleCache
from repro.pops.plan_store import PlanStore, plan_key_digest
from repro.pops.topology import POPSNetwork
from repro.routing.permutation_router import PermutationRouter
from repro.utils.permutations import random_permutation

#: Array fields of the compiled dataclasses (network/packets/scalars excluded).
_ARRAY_FIELDS = [
    f.name
    for f in dataclasses.fields(CompiledSchedule)
    if f.name not in ("network", "packets", "n_slots")
]
_BATCH_ARRAY_FIELDS = [
    f.name
    for f in dataclasses.fields(CompiledScheduleBatch)
    if f.name not in ("network", "n_batch", "n_slots")
]


def _assert_bit_identical(a, b, fields):
    for name in fields:
        va, vb = getattr(a, name), getattr(b, name)
        assert va.dtype == vb.dtype, f"{name}: {va.dtype} != {vb.dtype}"
        assert va.shape == vb.shape, f"{name}: {va.shape} != {vb.shape}"
        assert np.array_equal(va, vb), name


def _compiled_plan(network: POPSNetwork, seed: int) -> tuple[CompiledSchedule, tuple]:
    pi = np.asarray(random_permutation(network.n, random.Random(seed)), dtype=np.int64)
    compiled = PermutationRouter(network, backend="euler-array").route_compiled(pi)
    return compiled, routing_cache_key("euler-array", network, pi)


# ---------------------------------------------------------------------------
# Round-trip bit-identity
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(
        st.tuples(
            st.sampled_from([(1, 3), (2, 2), (3, 3), (4, 4), (6, 3), (4, 8)]),
            st.randoms(use_true_random=False),
        )
    )
    def test_schedule_round_trip_bit_identical(self, tmp_path_factory, case):
        """A stored CompiledSchedule loads back value- and dtype-identical."""
        (d, g), rng = case
        store = PlanStore(tmp_path_factory.mktemp("store"))
        network = POPSNetwork(d, g)
        pi = np.asarray(random_permutation(network.n, rng), dtype=np.int64)
        compiled = PermutationRouter(network, backend="euler-array").route_compiled(pi)
        key = routing_cache_key("euler-array", network, pi)
        assert store.put(key, compiled)
        loaded = store.get(key)
        assert isinstance(loaded, CompiledSchedule)
        assert loaded.network == network
        assert loaded.n_slots == compiled.n_slots
        assert loaded.packets == compiled.packets
        _assert_bit_identical(compiled, loaded, _ARRAY_FIELDS)

    @settings(max_examples=10, deadline=None)
    @given(
        st.tuples(
            st.sampled_from([(2, 2), (3, 3), (4, 4), (6, 3)]),
            st.integers(min_value=1, max_value=5),
            st.randoms(use_true_random=False),
        )
    )
    def test_batch_round_trip_bit_identical(self, tmp_path_factory, case):
        """A stored CompiledScheduleBatch loads back bit-identical, with its
        broadcast planes restored as broadcasts (one row on disk)."""
        (d, g), n_batch, rng = case
        store = PlanStore(tmp_path_factory.mktemp("store"))
        network = POPSNetwork(d, g)
        pis = np.stack(
            [
                np.asarray(random_permutation(network.n, rng), dtype=np.int64)
                for _ in range(n_batch)
            ]
        )
        batch = PermutationRouter(network, backend="euler-array").route_compiled_batch(pis)
        key = routing_cache_key_batch("euler-array", network, pis)
        assert store.put(key, batch)
        loaded = store.get(key)
        assert isinstance(loaded, CompiledScheduleBatch)
        assert loaded.network == network
        assert loaded.n_batch == batch.n_batch
        assert loaded.n_slots == batch.n_slots
        _assert_bit_identical(batch, loaded, _BATCH_ARRAY_FIELDS)
        # The shared initial placement survives as a broadcast, not B copies.
        if batch.initial_loc.strides[0] == 0:
            assert loaded.initial_loc.strides[0] == 0

    def test_round_trip_executes_identically(self, tmp_path):
        """The loaded plan drives the engine to the same final locations."""
        from repro.pops.engine import BatchedSimulator

        network = POPSNetwork(8, 4)
        compiled, key = _compiled_plan(network, seed=7)
        store = PlanStore(tmp_path)
        store.put(key, compiled)
        loaded = store.get(key)
        engine = BatchedSimulator(network)
        assert np.array_equal(engine.execute(loaded), engine.execute(compiled))
        engine.verify_locations(loaded, engine.execute(loaded))


# ---------------------------------------------------------------------------
# Key digests
# ---------------------------------------------------------------------------


class TestKeyDigest:
    def test_digest_is_stable_and_distinct(self):
        network = POPSNetwork(4, 4)
        pi = np.arange(16, dtype=np.int64)
        key = routing_cache_key("konig", network, pi)
        assert plan_key_digest(key) == plan_key_digest(key)
        other = routing_cache_key("konig", network, np.roll(pi, 1))
        assert plan_key_digest(key) != plan_key_digest(other)
        # Batch and single keys never collide (disjoint key shapes).
        batch_key = routing_cache_key_batch("konig", network, pi[None, :])
        assert plan_key_digest(key) != plan_key_digest(batch_key)

    def test_encoding_is_prefix_free(self):
        assert plan_key_digest(("ab",)) != plan_key_digest(("a", "b"))
        assert plan_key_digest((1, 23)) != plan_key_digest((12, 3))
        assert plan_key_digest(("1",)) != plan_key_digest((1,))
        assert plan_key_digest((b"x",)) != plan_key_digest(("x",))
        assert plan_key_digest((True,)) != plan_key_digest((1,))
        assert plan_key_digest((None,)) != plan_key_digest((0,))
        assert plan_key_digest(((1, 2), 3)) != plan_key_digest((1, (2, 3)))

    def test_unsupported_keys_are_not_persistable(self, tmp_path):
        assert plan_key_digest(("x", object())) is None
        assert plan_key_digest(frozenset({1})) is None
        store = PlanStore(tmp_path)
        network = POPSNetwork(4, 4)
        compiled, _ = _compiled_plan(network, seed=1)
        assert not store.put(("bad", object()), compiled)
        assert store.get(("bad", object())) is None
        assert store.stats()["entries"] == 0


# ---------------------------------------------------------------------------
# Two-tier ScheduleCache
# ---------------------------------------------------------------------------


class TestTwoTierCache:
    def test_stats_shape_without_store_is_unchanged(self):
        cache = ScheduleCache()
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_disk_promote_and_counters(self, tmp_path):
        network = POPSNetwork(4, 4)
        compiled, key = _compiled_plan(network, seed=3)
        PlanStore(tmp_path).put(key, compiled)

        cache = ScheduleCache(store=PlanStore(tmp_path))
        loaded = cache.get(key)  # memory cold, disk warm
        assert loaded is not None
        assert cache.stats() == {
            "hits": 0,
            "misses": 0,
            "entries": 1,
            "disk_hits": 1,
            "disk_misses": 0,
        }
        assert cache.get(key) is loaded  # promoted: second access is memory
        assert cache.stats()["hits"] == 1

    def test_write_through_and_full_miss(self, tmp_path):
        network = POPSNetwork(4, 4)
        compiled, key = _compiled_plan(network, seed=4)
        cache = ScheduleCache(store=PlanStore(tmp_path))
        assert cache.get(key) is None
        assert cache.stats() == {
            "hits": 0,
            "misses": 1,
            "entries": 0,
            "disk_hits": 0,
            "disk_misses": 1,
        }
        cache.put(key, compiled)
        # A fresh cache over the same directory sees the write-through.
        fresh = ScheduleCache(store=PlanStore(tmp_path))
        assert fresh.get(key) is not None
        assert fresh.stats()["disk_hits"] == 1

    def test_oversized_plan_still_written_through(self, tmp_path):
        """A plan too big for the memory bound still reaches the disk tier."""
        network = POPSNetwork(8, 4)
        compiled, key = _compiled_plan(network, seed=5)
        cache = ScheduleCache(max_bytes=16, store=PlanStore(tmp_path))
        cache.put(key, compiled)
        assert len(cache) == 0  # memory tier rejected it
        assert PlanStore(tmp_path).get(key) is not None

    def test_session_attaches_store_from_config(self, tmp_path):
        config = RunConfig(
            sim_backend="batched", plan_store_path=str(tmp_path / "store")
        )
        session = Session(config)
        assert session.cache.store is not None
        network = POPSNetwork(8, 4)
        pi = random_permutation(network.n, random.Random(11))
        first = session.route(pi, network=network)
        warm = Session(config)  # fresh process stand-in: cold memory, warm disk
        assert warm.route(pi, network=network) == first
        stats = warm.cache_stats()
        assert stats["disk_hits"] == 1
        assert stats["hits"] == 0 and stats["misses"] == 0


# ---------------------------------------------------------------------------
# Corruption, quarantine, schema
# ---------------------------------------------------------------------------


class TestCorruption:
    def _blob_paths(self, store: PlanStore):
        return sorted(store.path.glob("objects/*/*.npz"))

    def test_corrupted_blob_quarantined_and_recompiled(self, tmp_path):
        network = POPSNetwork(4, 4)
        config = RunConfig(
            sim_backend="batched", plan_store_path=str(tmp_path)
        )
        pi = random_permutation(network.n, random.Random(13))
        expected = Session(config).route(pi, network=network)

        store = PlanStore(tmp_path)
        [blob] = self._blob_paths(store)
        blob.write_bytes(b"not a zip archive at all")

        # The poisoned blob must fall back to recompile, not crash.
        session = Session(config)
        assert session.route(pi, network=network) == expected
        stats = session.cache_stats()
        assert stats["disk_hits"] == 0 and stats["disk_misses"] == 1
        # The poisoned blob moved to quarantine/, and the recompile's
        # write-through replaced it with a fresh valid one.
        assert list(store.path.glob("quarantine/*.npz"))
        [fresh] = self._blob_paths(store)
        assert fresh.name == blob.name
        assert PlanStore(tmp_path).get(
            routing_cache_key_batch(
                config.router_backend, network, np.asarray(pi, dtype=np.int64)[None]
            )
        ) is not None

    def test_truncated_blob_quarantined(self, tmp_path):
        network = POPSNetwork(4, 4)
        compiled, key = _compiled_plan(network, seed=17)
        store = PlanStore(tmp_path)
        store.put(key, compiled)
        [blob] = self._blob_paths(store)
        blob.write_bytes(blob.read_bytes()[:100])
        assert store.get(key) is None
        assert store.stats()["quarantine_entries"] == 1
        # A rewrite restores service under the same key.
        store.put(key, compiled)
        assert store.get(key) is not None

    def test_checksum_detects_bit_flip(self, tmp_path):
        """A valid zip with altered array bytes fails the content checksum.

        Re-saving the members recomputes the zip layer's own per-member
        CRCs, so the flipped bit in the ``data`` buffer can only be caught
        by the store's embedded content checksum.
        """
        network = POPSNetwork(4, 4)
        compiled, key = _compiled_plan(network, seed=19)
        store = PlanStore(tmp_path)
        store.put(key, compiled)
        [blob] = self._blob_paths(store)
        with np.load(blob, allow_pickle=False) as data:
            arrays = {name: np.array(data[name]) for name in data.files}
        arrays["data"] = arrays["data"].copy()
        arrays["data"][-1] ^= 1
        with open(blob, "wb") as fh:
            np.savez(fh, **arrays)
        assert store.get(key) is None
        assert store.stats()["quarantine_entries"] == 1

    def test_verify_sweeps_corruption(self, tmp_path):
        network = POPSNetwork(4, 4)
        store = PlanStore(tmp_path)
        for seed in (1, 2, 3):
            compiled, key = _compiled_plan(network, seed=seed)
            store.put(key, compiled)
        blobs = self._blob_paths(store)
        blobs[0].write_bytes(b"garbage")
        report = store.verify()
        assert report == {"checked": 3, "ok": 2, "quarantined": 1}
        assert store.verify() == {"checked": 2, "ok": 2, "quarantined": 0}

    def test_schema_mismatch_refuses_to_open(self, tmp_path):
        PlanStore(tmp_path)
        (tmp_path / "store.json").write_text('{"schema": 999}\n')
        with pytest.raises(ConfigurationError, match="schema"):
            PlanStore(tmp_path)

    def test_gc_oldest_first(self, tmp_path):
        network = POPSNetwork(4, 4)
        store = PlanStore(tmp_path)
        keys = []
        for seed in (1, 2, 3):
            compiled, key = _compiled_plan(network, seed=seed)
            store.put(key, compiled)
            keys.append(key)
        blobs = {k: store._blob_path(plan_key_digest(k)) for k in keys}
        # Age the first blob so mtime ordering is deterministic.
        old = blobs[keys[0]]
        os.utime(old, ns=(0, 0))
        sizes = {k: b.stat().st_size for k, b in blobs.items()}
        budget = sizes[keys[1]] + sizes[keys[2]]
        report = store.gc(budget)
        assert report["removed"] == 1 and report["kept"] == 2
        assert store.get(keys[0]) is None
        assert store.get(keys[1]) is not None
        assert store.get(keys[2]) is not None

    def test_standing_budget_collects_after_writes(self, tmp_path):
        network = POPSNetwork(4, 4)
        compiled, key = _compiled_plan(network, seed=1)
        nbytes = None
        store = PlanStore(tmp_path)
        store.put(key, compiled)
        nbytes = store.stats()["total_bytes"]
        budgeted = PlanStore(tmp_path, max_bytes=nbytes)
        for seed in (2, 3, 4):
            c, k = _compiled_plan(network, seed=seed)
            budgeted.put(k, c)
        assert budgeted.stats()["total_bytes"] <= nbytes


# ---------------------------------------------------------------------------
# Multi-process torture: racing writers, readers during GC
# ---------------------------------------------------------------------------

#: One shared cache key all racing writers publish under.  The writers
#: deliberately violate the key contract (each writes a *different* valid
#: plan) precisely to prove rename isolation: a reader may observe any
#: candidate, but never a torn mixture of two.
_RACE_KEY = ("plan-store-race-test", 8, 4)

_TORTURE_D, _TORTURE_G = 8, 4


def _candidate_plan(seed: int) -> CompiledSchedule:
    network = POPSNetwork(_TORTURE_D, _TORTURE_G)
    pi = np.asarray(random_permutation(network.n, random.Random(seed)), dtype=np.int64)
    return PermutationRouter(network, backend="euler-array").route_compiled(pi)


def _race_writer(args: tuple[str, int, int]) -> int:
    """Worker: repeatedly (re)write this worker's candidate under the key."""
    store_path, worker_seed, rounds = args
    store = PlanStore(store_path)
    plan = _candidate_plan(worker_seed)
    written = 0
    for _ in range(rounds):
        written += bool(store.put(_RACE_KEY, plan))
    return written


def _race_reader(args: tuple[str, int, tuple[int, ...]]) -> tuple[int, int]:
    """Worker: hammer get() on the contended key; every observed plan must be
    exactly one of the candidates (checked via its destination array)."""
    store_path, rounds, candidate_seeds = args
    store = PlanStore(store_path)
    candidates = [_candidate_plan(s).pk_destination for s in candidate_seeds]
    loads = torn = 0
    for _ in range(rounds):
        plan = store.get(_RACE_KEY)
        if plan is None:
            continue
        loads += 1
        if not any(np.array_equal(plan.pk_destination, c) for c in candidates):
            torn += 1
    return loads, torn


def _gc_reader(args: tuple[str, int, int]) -> int:
    """Worker: read random keys while the parent loops GC; crashes bubble up
    through the pool, clean misses do not."""
    store_path, rounds, n_keys = args
    store = PlanStore(store_path)
    network = POPSNetwork(_TORTURE_D, _TORTURE_G)
    rng = random.Random(os.getpid())
    hits = 0
    for _ in range(rounds):
        seed = rng.randrange(n_keys)
        pi = np.asarray(
            random_permutation(network.n, random.Random(seed)), dtype=np.int64
        )
        key = routing_cache_key("euler-array", network, pi)
        hits += store.get(key) is not None
    return hits


def _pool(max_workers: int):
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


class TestConcurrency:
    def _run_tasks(self, fn, tasks, max_workers):
        from concurrent.futures.process import BrokenProcessPool

        try:
            with _pool(max_workers) as executor:
                return list(executor.map(fn, tasks))
        except (OSError, BrokenProcessPool):  # pragma: no cover - sandboxed hosts
            pytest.skip("platform cannot spawn worker processes")

    def test_racing_writers_never_produce_a_torn_blob(self, tmp_path):
        """N processes rewriting one key: the final blob (and every blob a
        concurrent reader observed) is a complete candidate, never a mix."""
        writer_seeds = (101, 202, 303, 404)
        rounds = 6
        writer_tasks = [(str(tmp_path), seed, rounds) for seed in writer_seeds]
        reader_tasks = [(str(tmp_path), 40, writer_seeds) for _ in range(2)]

        from concurrent.futures.process import BrokenProcessPool

        try:
            with _pool(len(writer_tasks) + len(reader_tasks)) as executor:
                writer_futures = [
                    executor.submit(_race_writer, task) for task in writer_tasks
                ]
                reader_futures = [
                    executor.submit(_race_reader, task) for task in reader_tasks
                ]
                writes = [f.result() for f in writer_futures]
                reads = [f.result() for f in reader_futures]
        except (OSError, BrokenProcessPool):  # pragma: no cover - sandboxed hosts
            pytest.skip("platform cannot spawn worker processes")

        assert sum(writes) == len(writer_seeds) * rounds  # every write landed
        for _, torn in reads:
            assert torn == 0
        # The survivor is one intact candidate, bit-identical to its source.
        store = PlanStore(tmp_path)
        final = store.get(_RACE_KEY)
        assert final is not None
        matches = [
            seed
            for seed in writer_seeds
            if np.array_equal(final.pk_destination, _candidate_plan(seed).pk_destination)
        ]
        assert len(matches) == 1
        _assert_bit_identical(final, _candidate_plan(matches[0]), _ARRAY_FIELDS)
        assert store.stats()["quarantine_entries"] == 0

    def test_readers_survive_concurrent_gc(self, tmp_path):
        """Readers racing a GC-and-refill loop observe misses, never errors."""
        n_keys = 6
        network = POPSNetwork(_TORTURE_D, _TORTURE_G)
        store = PlanStore(tmp_path)

        def refill():
            for seed in range(n_keys):
                pi = np.asarray(
                    random_permutation(network.n, random.Random(seed)),
                    dtype=np.int64,
                )
                store.put(routing_cache_key("euler-array", network, pi), _candidate_plan(seed))

        refill()
        reader_tasks = [(str(tmp_path), 30, n_keys) for _ in range(3)]

        from concurrent.futures.process import BrokenProcessPool

        try:
            with _pool(len(reader_tasks)) as executor:
                futures = [executor.submit(_gc_reader, task) for task in reader_tasks]
                # Churn: wipe everything, rebuild, repeatedly, while they read.
                for _ in range(5):
                    store.gc(0)
                    refill()
                hits = [f.result() for f in futures]
        except (OSError, BrokenProcessPool):  # pragma: no cover - sandboxed hosts
            pytest.skip("platform cannot spawn worker processes")

        # No reader crashed (result() would re-raise); the store is intact.
        assert len(hits) == len(reader_tasks)
        assert store.verify()["quarantined"] == 0


# ---------------------------------------------------------------------------
# Sweep notes and config plumbing
# ---------------------------------------------------------------------------


class TestPlumbing:
    def test_config_validates_plan_store_path(self):
        assert RunConfig(plan_store_path=None).plan_store_path is None
        with pytest.raises(ValueError, match="plan_store_path"):
            RunConfig(plan_store_path="")
        with pytest.raises(ValueError, match="plan_store_path"):
            RunConfig(plan_store_path=123)

    def test_config_round_trips_plan_store_path(self, tmp_path):
        config = RunConfig(plan_store_path=str(tmp_path))
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_sweep_note_distinguishes_memory_from_disk(self, tmp_path):
        config = RunConfig(
            sim_backend="batched",
            workers=0,
            trials=2,
            cache_stats=True,
            plan_store_path=str(tmp_path),
        )
        cold = Session(config).sweep([(4, 4), (8, 4)])
        assert cold.notes["schedule cache"] == (
            "0 memory hits / 0 disk hits / 2 misses"
        )
        warm = Session(config).sweep([(4, 4), (8, 4)])
        assert warm.notes["schedule cache"] == (
            "0 memory hits / 2 disk hits / 0 misses"
        )

    def test_sweep_note_without_store_keeps_historical_format(self):
        config = RunConfig(sim_backend="batched", workers=0, trials=2, cache_stats=True)
        result = Session(config).sweep([(4, 4)])
        assert result.notes["schedule cache"] == "0 hits / 1 misses"


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCacheCli:
    def test_sweep_then_stats_reports_disk_hits(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        argv = [
            "sweep", "--configs", "4:4", "--trials", "2", "--workers", "0",
            "--plan-store", store_dir, "--format", "json",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0  # the warm run
        capsys.readouterr()
        assert main(["cache", "stats", "--plan-store", store_dir, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["entries"] == 1
        assert payload["disk_hits"] > 0
        assert payload["writes"] == 1

    def test_warm_then_verify_and_gc(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(
            [
                "cache", "warm", "--plan-store", store_dir,
                "--configs", "4:4,8:4", "--trials", "2", "--format", "json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["written"] == 2 and payload["all_pass"]

        assert main(["cache", "verify", "--plan-store", store_dir, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checked"] == 2 and report["quarantined"] == 0

        assert main(
            ["cache", "gc", "--plan-store", store_dir, "--max-bytes", "0", "--format", "json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["removed"] == 2 and report["kept"] == 0

    def test_verify_exits_nonzero_on_corruption(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        network = POPSNetwork(4, 4)
        store = PlanStore(store_dir)
        compiled, key = _compiled_plan(network, seed=23)
        store.put(key, compiled)
        [blob] = sorted(store_dir.glob("objects/*/*.npz"))
        blob.write_bytes(b"junk")
        assert main(["cache", "verify", "--plan-store", str(store_dir)]) == 1

    def test_route_accepts_plan_store_flag(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        argv = [
            "route", "--d", "4", "--g", "4", "--sim-backend", "batched",
            "--plan-store", store_dir, "--format", "json",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        capsys.readouterr()
        assert PlanStore(store_dir).stats()["disk_hits"] == 1
