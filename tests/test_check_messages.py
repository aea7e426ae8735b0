"""Message parity of the routing pipeline's vectorized checks.

Every check below reports the row-major first offender of a ``(B, ...)``
stack with the message the single-row check would raise.  Each case injects
its violation into row 1 of a B = 3 stack (row 0 is clean; where row 2 is
also broken, row 1 must still win) and pins the exception class and the
exact message, so a rewrite of a check cannot change what it reports.

The round builder checks no scatter-coupler clash of its own: two packets
of one source group that share a round and an intermediate group share their
fair value, so condition 1 reports them; its coupler check covers the
delivery slots only.

The last section pins the range checks that guard the verifiers' key spaces:
a vertex, colour or list value outside the range the keys are built for is
reported as such, never as a clash.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    EdgeColoringError,
    FairnessViolationError,
    RoutingError,
    ValidationError,
)
from repro.graph.array_coloring import verify_instance_coloring_stack
from repro.pops.topology import POPSNetwork
from repro.routing.fair_distribution import (
    FairDistributionSolver,
    verify_fair_distribution_stack,
)
from repro.routing.list_system import destination_group_lists_stack
from repro.routing.permutation_router import (
    _compile_round_plan_batch,
    _compile_two_slot_plan_batch,
)


def _raises(exc_type, message, check, *args):
    with pytest.raises(exc_type) as info:
        check(*args)
    assert info.type is exc_type
    assert str(info.value) == message


# -- instance colouring properness -------------------------------------------

#: The 2-regular multigraph on 2 + 2 vertices with every edge once.
_LEFT = np.array([[0, 0, 1, 1]] * 3)
_RIGHT = np.array([[0, 1, 0, 1]] * 3)
_GOOD = [0, 1, 1, 0]


@pytest.mark.parametrize(
    "colors,message",
    [
        # Both left vertices clash in row 1; the smaller (colour, vertex) key
        # is reported, not the first instance.
        ([_GOOD, [1, 1, 0, 0], [0, 0, 1, 1]], "colour 0 uses left vertex 1 more than once"),
        ([_GOOD, [0, 1, 0, 1], _GOOD], "colour 0 uses right vertex 0 more than once"),
        # The left side is checked over every row before the right side.
        ([_GOOD, [0, 1, 0, 1], [1, 1, 0, 0]], "colour 0 uses left vertex 1 more than once"),
    ],
    ids=["left", "right", "left-side-first"],
)
def test_instance_coloring_messages(colors, message):
    _raises(
        EdgeColoringError, message,
        verify_instance_coloring_stack, _LEFT, _RIGHT, 2, 2, np.array(colors),
    )


def test_instance_coloring_message_at_eight_vertices():
    # Vertex v of either side holds instances 8v..8v+7, coloured 0..7.
    left = np.repeat(np.arange(8), 8)[None].repeat(3, axis=0)
    right = left.copy()
    colors = np.tile(np.tile(np.arange(8), 8), (3, 1))
    colors[1, 17] = colors[1, 18]  # left vertex 2 takes colour 2 twice
    _raises(
        EdgeColoringError, "colour 2 uses left vertex 2 more than once",
        verify_instance_coloring_stack, left, right, 8, 8, colors,
    )


# -- fair-distribution conditions ----------------------------------------------

_LISTS = np.array([[[0, 1], [1, 0]]] * 3)
_FAIR = [[0, 1], [0, 1]]


@pytest.mark.parametrize(
    "lists,assignment,message",
    [
        (_LISTS, [_FAIR, [[0, 1], [5, 0]], _FAIR], "target 5 of source 1 outside T = [0, 2)"),
        (_LISTS, [_FAIR, [[0, 1], [1, 1]], [[0, 0], [1, 1]]], "source 1 reuses a target: [1, 1]"),
        (_LISTS, [_FAIR, [[0, 1], [1, 0]], _FAIR], "two pairs with list value 0 share target 0"),
        (
            np.array([[[0], [1]]] * 3),
            [[[0], [1]], [[0], [0]], [[1], [1]]],
            "target 0 is assigned 2 pairs, expected Δ2=1",
        ),
    ],
    ids=["range", "condition-1", "condition-3", "condition-2"],
)
def test_fair_distribution_messages(lists, assignment, message):
    _raises(
        FairnessViolationError, message,
        verify_fair_distribution_stack, lists, np.array(assignment), 2,
    )


def test_fair_distribution_message_on_a_solved_stack():
    rng = np.random.default_rng(5)
    images = np.stack([rng.permutation(64) for _ in range(3)])
    lists = destination_group_lists_stack(images, 8, 8)
    assignment = FairDistributionSolver("euler-array").solve_array_batch(lists, 8)
    assignment[1, 3, [0, 5]] = assignment[1, 3, [5, 0]]  # still fair
    assignment[1, 2, 1] = assignment[1, 2, 2]
    _raises(
        FairnessViolationError, "source 2 reuses a target: [0, 3, 3, 4, 7, 6, 5, 1]",
        verify_fair_distribution_stack, lists, assignment, 8,
    )


# -- plan builders -----------------------------------------------------------------

_CLEAN_TWO = [0, 1, 0, 1]


@pytest.mark.parametrize(
    "images,fair,message",
    [
        (None, [0, 1, 0, 2], "fair value 2 for processor 3 is not a group"),
        (
            None, [0, 0, 0, 1],
            "intermediate group 0 receives 3 packets, expected exactly d=2 "
            "(fair-distribution condition 2 violated)",
        ),
        (
            None, [0, 0, 1, 1],
            "intermediate group 0 receives two packets from the same source "
            "group (fair-distribution condition 1 violated)",
        ),
        (
            [0, 2, 1, 3], _CLEAN_TWO,
            "delivery slot needs coupler c(0, 0) twice; the packets were not "
            "fairly distributed after the scatter slot",
        ),
    ],
    ids=["range", "condition-2", "condition-1", "delivery"],
)
def test_two_slot_builder_messages(images, fair, message):
    identity = list(range(4))
    image_stack = np.array([identity, identity if images is None else images, identity])
    fair_stack = np.array([_CLEAN_TWO, fair, _CLEAN_TWO])
    _raises(
        RoutingError, message,
        _compile_two_slot_plan_batch, POPSNetwork(2, 2), image_stack, fair_stack,
    )


_CLEAN_ROUND = [0, 1, 2, 3, 0, 1, 2, 3]


@pytest.mark.parametrize(
    "images,fair,message",
    [
        (None, [0, 1, 2, 3, 0, 1, 4, 3], "fair value 4 for processor 6 is outside N_d"),
        (
            None, [0, 1, 2, 3, 0, 0, 2, 3],
            "group 1 assigns fair value 0 twice (fair-distribution condition 1 violated)",
        ),
        (
            [0, 1, 4, 5, 2, 3, 6, 7], _CLEAN_ROUND,
            "delivery slot needs coupler c(0, 0) twice; the packets were not "
            "fairly distributed after the scatter slot",
        ),
    ],
    ids=["range", "condition-1", "delivery"],
)
def test_round_builder_messages(images, fair, message):
    identity = list(range(8))
    image_stack = np.array([identity, identity if images is None else images, identity])
    fair_stack = np.array([_CLEAN_ROUND, fair, _CLEAN_ROUND])
    _raises(
        RoutingError, message,
        _compile_round_plan_batch, POPSNetwork(4, 2), image_stack, fair_stack,
    )


# -- sparse key spaces ---------------------------------------------------------------
#
# At d << g the duplicate checks' key spaces (g² delivery couplers, n1·n2
# fair-distribution pairs) far exceed the key count; the same messages hold.


def test_two_slot_delivery_message_at_2x16():
    fair = np.empty(32, dtype=np.int64)
    fair[0::2] = np.arange(16)
    fair[1::2] = (np.arange(16) + 8) % 16
    identity = np.arange(32)
    swapped = identity.copy()
    swapped[[1, 17]] = swapped[[17, 1]]  # processor 17 (value 0) now delivers to group 0
    _raises(
        RoutingError,
        "delivery slot needs coupler c(0, 0) twice; the packets were not "
        "fairly distributed after the scatter slot",
        _compile_two_slot_plan_batch, POPSNetwork(2, 16),
        np.stack([identity, swapped, identity]), np.stack([fair] * 3),
    )


def _solved_2x16():
    rng = np.random.default_rng(3)
    images = np.stack([rng.permutation(32) for _ in range(3)])
    lists = destination_group_lists_stack(images, 2, 16)
    return lists, FairDistributionSolver("euler-array").solve_array_batch(lists, 16)


def test_fair_distribution_condition_1_message_at_2x16():
    lists, assignment = _solved_2x16()
    assignment[1, 3, 1] = assignment[1, 3, 0]
    _raises(
        FairnessViolationError, "source 3 reuses a target: [9, 9]",
        verify_fair_distribution_stack, lists, assignment, 16,
    )


def test_fair_distribution_condition_3_message_at_2x16():
    lists, assignment = _solved_2x16()
    assert lists[1, 0, 0] == lists[1, 14, 0] == 2
    assignment[1, 0, 0] = assignment[1, 14, 0]
    _raises(
        FairnessViolationError, "two pairs with list value 2 share target 7",
        verify_fair_distribution_stack, lists, assignment, 16,
    )


# -- key-space ranges ----------------------------------------------------------------


@pytest.mark.parametrize(
    "bad,message",
    [
        (4, "colours 0..4 span more values than the 4 instances of a row"),
        (-(2**62), f"colours {-(2**62)}..1 span more values than the 4 instances of a row"),
    ],
    ids=["high", "unassigned"],
)
def test_instance_coloring_rejects_a_sparse_colour_span(bad, message):
    colors = np.array([_GOOD, [0, 1, 1, bad], _GOOD])
    _raises(
        EdgeColoringError, message,
        verify_instance_coloring_stack, _LEFT, _RIGHT, 2, 2, colors,
    )


@pytest.mark.parametrize(
    "side,value,message",
    [
        ("left", 2, "left vertex 2 is outside [0, 2)"),
        ("right", -1, "right vertex -1 is outside [0, 2)"),
    ],
)
def test_instance_coloring_rejects_a_vertex_outside_its_side(side, value, message):
    vertices = {"left": _LEFT.copy(), "right": _RIGHT.copy()}
    vertices[side][1, 3] = value
    _raises(
        EdgeColoringError, message,
        verify_instance_coloring_stack, vertices["left"], vertices["right"], 2, 2,
        np.array([_GOOD] * 3),
    )


@pytest.mark.parametrize(
    "value,message",
    [
        (2, "list entry 2 of source 1 is not in S = [0, 2)"),
        (-1, "list entry -1 of source 1 is not in S = [0, 2)"),
    ],
    ids=["high", "negative"],
)
def test_fair_distribution_rejects_a_list_entry_outside_the_sources(value, message):
    lists = _LISTS.copy()
    lists[1, 1, 0] = value
    _raises(
        ValidationError, message,
        verify_fair_distribution_stack, lists, np.array([_FAIR] * 3), 2,
    )
