"""Partitioned Optical Passive Stars (POPS) network substrate.

This package models the POPS(d, g) architecture of Chiarulli/Gravenstreter/
Melhem exactly as the paper describes it: ``n = d * g`` processors partitioned
into ``g`` groups of ``d``, one optical passive star coupler ``c(b, a)`` per
ordered pair of groups, and a slot-synchronous SIMD execution model where in
each slot every processor may drive any subset of its ``g`` transmitters with
a single packet and read from exactly one of its ``g`` receivers.

The substrate is a slot-accurate simulator rather than optical hardware; it
enforces the conflict rules the paper's results depend on (one packet per
coupler per slot, one read per processor per slot) and counts slots.
"""

from repro.pops.topology import POPSNetwork, Coupler
from repro.pops.packet import Packet
from repro.pops.schedule import Transmission, Reception, SlotProgram, RoutingSchedule
from repro.pops.simulator import POPSSimulator, SimulationResult
from repro.pops.engine import (
    BatchedSimulator,
    CompiledScheduleBatch,
    ScheduleCache,
    compile_schedule,
    schedule_cache,
)
from repro.pops.collective_engine import (
    CollectiveCompiledSchedule,
    CollectiveSimulator,
    compile_collective_schedule,
)
from repro.pops.trace import SlotTrace, SimulationTrace, CompiledTrace
from repro.pops.render import (
    render_schedule,
    render_slot,
    schedule_to_dict,
    coupler_usage_grid,
)

__all__ = [
    "render_schedule",
    "render_slot",
    "schedule_to_dict",
    "coupler_usage_grid",
    "POPSNetwork",
    "Coupler",
    "Packet",
    "Transmission",
    "Reception",
    "SlotProgram",
    "RoutingSchedule",
    "POPSSimulator",
    "SimulationResult",
    "BatchedSimulator",
    "CompiledScheduleBatch",
    "CollectiveCompiledSchedule",
    "CollectiveSimulator",
    "ScheduleCache",
    "compile_schedule",
    "compile_collective_schedule",
    "schedule_cache",
    "SlotTrace",
    "SimulationTrace",
    "CompiledTrace",
]
