"""Unit tests for repro.routing.lower_bounds (Propositions 1-3)."""

from __future__ import annotations

from itertools import permutations
from math import ceil

import numpy as np
import pytest

from repro.api import Session
from repro.patterns.families import cyclic_shift, group_cyclic_shift, vector_reversal
from repro.patterns.generators import (
    random_group_blocked_permutation,
    random_group_moving_blocked_permutation,
    random_within_group_permutation,
)
from repro.pops.topology import POPSNetwork
from repro.routing.lower_bounds import (
    best_known_lower_bound,
    best_known_lower_bound_stack,
    is_group_blocked,
    is_group_moving,
    proposition1_lower_bound,
    proposition2_lower_bound,
    proposition3_lower_bound,
)
from repro.utils.permutations import random_derangement, random_permutation


class TestPredicates:
    def test_group_moving_true_for_group_shift(self):
        network = POPSNetwork(3, 4)
        assert is_group_moving(network, group_cyclic_shift(12, 3))

    def test_group_moving_false_for_identity(self, small_network):
        assert not is_group_moving(small_network, list(range(small_network.n)))

    def test_group_blocked_true_for_group_shift(self):
        network = POPSNetwork(3, 4)
        assert is_group_blocked(network, group_cyclic_shift(12, 3))

    def test_group_blocked_true_for_vector_reversal(self):
        network = POPSNetwork(4, 3)
        assert is_group_blocked(network, vector_reversal(12))

    def test_group_blocked_random_generator_consistency(self, rng):
        network = POPSNetwork(4, 3)
        assert is_group_blocked(network, random_group_blocked_permutation(network, rng))
        assert is_group_blocked(
            network, random_group_moving_blocked_permutation(network, rng)
        )
        assert is_group_blocked(network, random_within_group_permutation(network, rng))

    def test_group_blocked_false_for_generic_permutation(self, rng):
        network = POPSNetwork(4, 4)
        # A random permutation on 16 processors is essentially never blocked;
        # use a fixed counterexample to stay deterministic.
        pi = list(range(16))
        pi[0], pi[4] = pi[4], pi[0]
        assert not is_group_blocked(network, pi)


class TestProposition1:
    def test_applies_to_derangements(self, rng):
        network = POPSNetwork(8, 4)
        pi = random_derangement(network.n, rng)
        assert proposition1_lower_bound(network, pi) == ceil(8 / 4)

    def test_none_when_fixed_point_exists(self):
        network = POPSNetwork(2, 2)
        assert proposition1_lower_bound(network, [0, 1, 3, 2]) is None

    def test_bound_value_partial_round(self):
        network = POPSNetwork(7, 3)
        pi = cyclic_shift(21, 1)
        assert proposition1_lower_bound(network, pi) == 3

    def test_vector_reversal_odd_n_has_fixed_point(self):
        # With n odd the middle processor is fixed, so Proposition 1 does not apply.
        network = POPSNetwork(7, 3)
        assert proposition1_lower_bound(network, vector_reversal(21)) is None


class TestProposition2:
    def test_applies_to_group_moving_blocked(self, rng):
        network = POPSNetwork(8, 4)
        pi = random_group_moving_blocked_permutation(network, rng)
        assert proposition2_lower_bound(network, pi) == 2 * ceil(8 / 4)

    def test_none_when_not_blocked(self, rng):
        network = POPSNetwork(4, 4)
        pi = list(range(16))
        pi[0], pi[4] = pi[4], pi[0]
        assert proposition2_lower_bound(network, pi) is None

    def test_none_when_some_group_static(self, rng):
        network = POPSNetwork(4, 3)
        pi = random_within_group_permutation(network, rng)
        assert proposition2_lower_bound(network, pi) is None

    def test_vector_reversal_even_g(self):
        # The paper: vector reversal with even g meets the 2*ceil(d/g) bound.
        network = POPSNetwork(8, 4)
        assert proposition2_lower_bound(network, vector_reversal(32)) == 4

    def test_theorem2_matches_bound_exactly(self, rng):
        """On Proposition 2's class the universal router is exactly optimal."""
        for d, g in [(4, 4), (8, 4), (9, 3)]:
            network = POPSNetwork(d, g)
            pi = random_group_moving_blocked_permutation(network, rng)
            metrics = Session().route(pi, network=network)
            assert metrics.slots == proposition2_lower_bound(network, pi)


class TestProposition3:
    def test_applies_to_blocked_derangement(self, rng):
        network = POPSNetwork(8, 4)
        pi = random_group_moving_blocked_permutation(network, rng)
        assert proposition3_lower_bound(network, pi) == 2 * ceil(8 / 5)

    def test_applies_to_within_group_derangement(self):
        network = POPSNetwork(4, 2)
        # Swap neighbouring processors inside each group: fixed-point-free,
        # group map is the identity.
        pi = [1, 0, 3, 2, 5, 4, 7, 6]
        assert proposition3_lower_bound(network, pi) == 2 * ceil(4 / 3)

    def test_none_with_fixed_points(self):
        network = POPSNetwork(4, 2)
        assert proposition3_lower_bound(network, list(range(8))) is None

    def test_never_exceeds_proposition2(self, rng):
        for d, g in [(4, 4), (8, 4), (16, 4)]:
            network = POPSNetwork(d, g)
            pi = random_group_moving_blocked_permutation(network, rng)
            assert proposition3_lower_bound(network, pi) <= proposition2_lower_bound(
                network, pi
            )


class TestBestKnownLowerBound:
    def test_identity_gives_zero(self, small_network):
        assert best_known_lower_bound(small_network, list(range(small_network.n))) == 0

    def test_non_identity_gives_at_least_one(self):
        network = POPSNetwork(2, 2)
        assert best_known_lower_bound(network, [0, 1, 3, 2]) >= 1

    def test_picks_tightest_applicable(self, rng):
        network = POPSNetwork(8, 4)
        pi = random_group_moving_blocked_permutation(network, rng)
        assert best_known_lower_bound(network, pi) == 4

    def test_router_never_beats_lower_bound(self, network, rng):
        """Soundness of the bounds: measured slots are never below them."""
        pi = random_permutation(network.n, rng)
        metrics = Session().route(pi, network=network)
        assert metrics.slots >= best_known_lower_bound(network, pi)


#: Every (d, g) shape with n = d * g <= 6.
SMALL_SHAPES = [(d, n // d) for n in range(1, 7) for d in range(1, n + 1) if n % d == 0]


class TestStackBoundExhaustive:
    @pytest.mark.parametrize("d,g", SMALL_SHAPES, ids=lambda s: str(s))
    def test_stack_bound_is_the_max_of_the_scalar_predicates(self, d, g):
        """Every permutation of n <= 6: the vectorized bound equals the scalar reference."""
        network = POPSNetwork(d, g)
        pis = list(permutations(range(network.n)))
        stack = best_known_lower_bound_stack(network, np.array(pis, dtype=np.int64))
        for pi, bound in zip(pis, stack.tolist()):
            applicable = [
                predicate(network, pi)
                for predicate in (
                    proposition1_lower_bound,
                    proposition2_lower_bound,
                    proposition3_lower_bound,
                )
            ]
            if list(pi) != list(range(network.n)):
                applicable.append(1)
            expected = max((b for b in applicable if b is not None), default=0)
            assert bound == expected, pi
            assert best_known_lower_bound(network, pi) == expected
