"""Tests for broadcast, value exchange, reduction and prefix sum algorithms."""

from __future__ import annotations

import operator

import pytest

from repro.algorithms.broadcast import execute_broadcast, one_to_all_broadcast
from repro.algorithms.exchange import PermutationEngine, permute_values
from repro.algorithms.prefix_sum import hypercube_prefix_sum
from repro.algorithms.reduction import data_sum, hypercube_allreduce
from repro.exceptions import DeliveryError, ValidationError
from repro.patterns.families import cyclic_shift, vector_reversal
from repro.pops.topology import POPSNetwork
from repro.routing.permutation_router import theorem2_slot_bound
from repro.utils.permutations import random_permutation


class TestBroadcast:
    def test_single_slot(self, small_network):
        values, slots = execute_broadcast(small_network, speaker=0, payload="hello")
        assert slots == 1
        assert values == ["hello"] * small_network.n

    def test_speaker_in_last_group(self):
        network = POPSNetwork(3, 3)
        values, slots = execute_broadcast(network, speaker=8, payload=123)
        assert slots == 1
        assert values == [123] * 9

    def test_schedule_uses_g_couplers(self):
        network = POPSNetwork(4, 5)
        schedule, _ = one_to_all_broadcast(network, speaker=2)
        assert schedule.n_slots == 1
        assert schedule.slots[0].n_packets_moved == network.g

    def test_invalid_speaker(self):
        with pytest.raises(ValidationError):
            one_to_all_broadcast(POPSNetwork(2, 2), speaker=7)


class TestPermutationEngine:
    def test_values_follow_permutation(self, rng):
        network = POPSNetwork(3, 4)
        engine = PermutationEngine(network)
        values = [f"v{i}" for i in range(network.n)]
        pi = random_permutation(network.n, rng)
        moved = engine.permute(values, pi)
        for i in range(network.n):
            assert moved[pi[i]] == values[i]

    def test_slot_accounting(self, rng):
        network = POPSNetwork(6, 3)
        engine = PermutationEngine(network)
        engine.permute(list(range(18)), random_permutation(18, rng))
        engine.permute(list(range(18)), random_permutation(18, rng))
        assert engine.rounds_executed == 2
        assert engine.slots_used == 2 * theorem2_slot_bound(6, 3)
        engine.reset_counters()
        assert engine.slots_used == 0

    def test_rejects_wrong_value_count(self):
        network = POPSNetwork(2, 2)
        with pytest.raises(DeliveryError):
            PermutationEngine(network).permute([1, 2], [1, 0, 3, 2])

    def test_one_shot_helper(self):
        network = POPSNetwork(2, 3)
        values, slots = permute_values(network, list(range(6)), vector_reversal(6))
        assert values == list(reversed(range(6)))
        assert slots == theorem2_slot_bound(2, 3)

    def test_payloads_of_arbitrary_type(self):
        network = POPSNetwork(2, 2)
        values = [{"id": i} for i in range(4)]
        moved, _ = permute_values(network, values, cyclic_shift(4, 1))
        assert moved[1] == {"id": 0}


class TestAllReduce:
    @pytest.mark.parametrize("d,g", [(4, 8), (8, 4), (2, 8), (4, 4)])
    def test_sum_reduction(self, d, g, rng):
        network = POPSNetwork(d, g)
        data = [rng.randint(0, 50) for _ in range(network.n)]
        reduced, slots = hypercube_allreduce(network, data, operator.add)
        assert all(value == sum(data) for value in reduced)
        log_n = network.n.bit_length() - 1
        assert slots == theorem2_slot_bound(d, g) * log_n

    def test_max_reduction(self, rng):
        network = POPSNetwork(4, 4)
        data = [rng.randint(0, 1000) for _ in range(16)]
        reduced, _ = hypercube_allreduce(network, data, max)
        assert all(value == max(data) for value in reduced)

    def test_requires_power_of_two(self):
        network = POPSNetwork(3, 3)
        with pytest.raises(ValidationError):
            hypercube_allreduce(network, [0] * 9, operator.add)

    def test_requires_matching_length(self):
        network = POPSNetwork(4, 4)
        with pytest.raises(ValidationError):
            hypercube_allreduce(network, [0] * 5, operator.add)

    def test_data_sum_helper(self, rng):
        network = POPSNetwork(2, 8)
        data = [float(rng.randint(0, 9)) for _ in range(16)]
        total, slots = data_sum(network, data)
        assert total == pytest.approx(sum(data))
        assert slots == theorem2_slot_bound(2, 8) * 4


class TestPrefixSum:
    @pytest.mark.parametrize("d,g", [(4, 8), (8, 4), (4, 4)])
    def test_inclusive_prefix_matches_reference(self, d, g, rng):
        network = POPSNetwork(d, g)
        data = [rng.randint(-5, 5) for _ in range(network.n)]
        prefixes, slots = hypercube_prefix_sum(network, data)
        expected = []
        running = 0
        for value in data:
            running += value
            expected.append(running)
        assert prefixes == expected
        log_n = network.n.bit_length() - 1
        assert slots == theorem2_slot_bound(d, g) * log_n

    def test_non_commutative_operator(self):
        # String concatenation is associative but not commutative: order must hold.
        network = POPSNetwork(2, 4)
        data = [chr(ord("a") + i) for i in range(8)]
        prefixes, _ = hypercube_prefix_sum(network, data, combine=operator.add)
        assert prefixes == ["a", "ab", "abc", "abcd", "abcde", "abcdef", "abcdefg", "abcdefgh"]

    def test_requires_power_of_two(self):
        with pytest.raises(ValidationError):
            hypercube_prefix_sum(POPSNetwork(3, 2), [1] * 6)

    def test_requires_matching_length(self):
        with pytest.raises(ValidationError):
            hypercube_prefix_sum(POPSNetwork(4, 4), [1] * 3)


class TestSessionInjection:
    """Collectives accept an explicit Session (engine, cache, backend)."""

    def test_broadcast_runs_on_the_collective_engine_by_default(self, monkeypatch):
        from repro.pops.simulator import POPSSimulator

        monkeypatch.setattr(
            POPSSimulator, "run_reference",
            lambda *a, **k: pytest.fail("broadcast fell back to the reference"),
        )
        network = POPSNetwork(4, 4)
        values, slots = execute_broadcast(network, speaker=2, payload="p")
        assert slots == 1 and values == ["p"] * network.n

    def test_broadcast_with_explicit_session_and_cache(self):
        from repro.api import RunConfig, Session

        network = POPSNetwork(3, 3)
        session = Session(RunConfig(sim_backend="batched"))
        key = ("bcast", 3, 3, 0, "v")
        first, _ = execute_broadcast(network, 0, "v", session=session, cache_key=key)
        second, _ = execute_broadcast(network, 0, "v", session=session, cache_key=key)
        assert first == second == ["v"] * network.n
        assert session.cache.stats()["hits"] == 1

    def test_permutation_engine_honours_session_router_backend(self, rng):
        from repro.api import RunConfig, Session

        network = POPSNetwork(2, 4)
        session = Session(RunConfig(router_backend="euler", sim_backend="batched"))
        engine = PermutationEngine(network, session=session)
        values = list(range(network.n))
        pi = random_permutation(network.n, rng)
        moved = engine.permute(values, pi)
        for i in range(network.n):
            assert moved[pi[i]] == values[i]

    def test_allreduce_with_session_matches_default(self, rng):
        from repro.api import RunConfig, Session

        network = POPSNetwork(4, 4)
        data = [rng.randint(0, 50) for _ in range(network.n)]
        session = Session(RunConfig(sim_backend="batched"))
        with_session = hypercube_allreduce(network, data, operator.add, session=session)
        default = hypercube_allreduce(network, data, operator.add)
        assert with_session == default

    def test_default_session_runs_rounds_on_the_batched_engine(
        self, monkeypatch, rng
    ):
        from repro.algorithms._session import collective_session
        from repro.pops.simulator import POPSSimulator

        session = collective_session()
        assert session.config.sim_backend == "batched"
        assert collective_session(session) is session
        monkeypatch.setattr(
            POPSSimulator, "run_reference",
            lambda *a, **k: pytest.fail("a permutation round fell back to the reference"),
        )
        network = POPSNetwork(4, 4)
        data = [rng.randint(0, 50) for _ in range(network.n)]
        reduced, _ = hypercube_allreduce(network, data, operator.add)
        assert reduced == [sum(data)] * network.n
