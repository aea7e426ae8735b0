"""Error parity of the flat batched executor.

``BatchedSimulator.execute_batch`` runs a ``(B, ·)`` plan batch on one flat
location array, and a single schedule is its one-row case.  These tests
corrupt rows of a routed batch and check that the held check and the
delivery check raise exactly the error of the lowest failing row, the error
that row raises alone as a one-row batch (``element(b)``); that fault
injection refuses a batch of several rows; and that planes broadcast across
the batch are executed as well as per-element planes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.exceptions import DeliveryError, SimulationError
from repro.faults import FaultSpec
from repro.pops.engine import PLANES, BatchedSimulator
from repro.pops.topology import POPSNetwork
from repro.routing.permutation_router import PermutationRouter

SHAPES = [(4, 4), (8, 4), (3, 7)]


def routed_batch(d: int, g: int, n_batch: int = 3):
    network = POPSNetwork(d, g)
    rng = np.random.default_rng(d * 100 + g)
    images = np.argsort(rng.random((n_batch, network.n)), axis=1)
    router = PermutationRouter(network, backend="euler-array")
    return network, router.route_compiled_batch(images)


def single_error(call):
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("d,g", SHAPES)
def test_wrong_sender_raises_the_element_error(d, g):
    network, batch = routed_batch(d, g)
    engine = BatchedSimulator(network)
    tx_sender = np.array(batch.tx_sender)
    first = int(batch.tx_ptr[0])
    tx_sender[1, first] = (tx_sender[1, first] + 1) % network.n
    broken = dataclasses.replace(batch, tx_sender=tx_sender)
    expected = single_error(lambda: engine.execute_batch(broken.element(1)))
    assert expected[0] is SimulationError and "does not hold" in expected[1]
    assert single_error(lambda: engine.execute_batch(broken)) == expected


@pytest.mark.parametrize("d,g", SHAPES)
def test_lowest_failing_row_wins_over_an_earlier_slot(d, g):
    # Row 1 fails in the last slot, row 2 in slot 0: the batch raises row 1's
    # error, not the error of the earliest slot.
    network, batch = routed_batch(d, g)
    engine = BatchedSimulator(network)
    tx_sender = np.array(batch.tx_sender)
    last = int(batch.tx_ptr[-2])
    tx_sender[1, last] = (tx_sender[1, last] + 1) % network.n
    tx_sender[2, 0] = (tx_sender[2, 0] + 1) % network.n
    broken = dataclasses.replace(batch, tx_sender=tx_sender)
    row1 = single_error(lambda: engine.execute_batch(broken.element(1)))
    row2 = single_error(lambda: engine.execute_batch(broken.element(2)))
    assert row1[1].startswith(f"slot {batch.n_slots - 1}: ")
    assert row2[1].startswith("slot 0: ")
    assert single_error(lambda: engine.execute_batch(broken)) == row1


def test_faults_on_a_batch_of_several_rows_raise_value_error():
    network, batch = routed_batch(4, 4)
    spec = FaultSpec(failed_couplers=((0, 0),))
    with pytest.raises(ValueError, match="batch of 3"):
        BatchedSimulator(network).execute_batch(batch, faults=spec)


@pytest.mark.parametrize("d,g", SHAPES)
def test_wrong_receiver_fails_the_delivery_check_like_the_element(d, g):
    network, batch = routed_batch(d, g)
    engine = BatchedSimulator(network)
    del_receiver = np.array(batch.del_receiver)
    last = int(batch.del_ptr[-2])
    del_receiver[2, last] = (del_receiver[2, last] + 1) % network.n
    broken = dataclasses.replace(batch, del_receiver=del_receiver)
    loc = engine.execute_batch(broken)
    expected = single_error(
        lambda: engine.verify_locations_batch(broken.element(2), loc[2:])
    )
    assert expected[0] is DeliveryError
    assert single_error(lambda: engine.verify_locations_batch(broken, loc)) == expected


@pytest.mark.parametrize("d,g", SHAPES)
def test_broadcast_planes_execute_like_materialised_planes(d, g):
    network, batch = routed_batch(d, g, n_batch=1)
    engine = BatchedSimulator(network)
    planes = {
        name: np.broadcast_to(getattr(batch, name)[0], (4, getattr(batch, name).shape[1]))
        for name in PLANES
    }
    stacked = dataclasses.replace(batch, n_batch=4, **planes)
    loc = engine.execute_batch(stacked)
    expected = engine.execute_batch(batch.element(0))
    assert all(np.array_equal(row, expected[0]) for row in loc)
    engine.verify_locations_batch(stacked, loc)
