"""Reproduction of *Routing Permutations in Partitioned Optical Passive Stars
Networks* (Alessandro Mei and Romeo Rizzi, IPPS 2002).

The package is organised in layers:

* :mod:`repro.graph` — bipartite multigraphs, matchings, Euler splits and the
  König edge colouring behind Theorem 1;
* :mod:`repro.pops` — the POPS(d, g) network model and a slot-accurate
  simulator standing in for the optical hardware;
* :mod:`repro.routing` — the paper's contribution: fair distributions
  (Theorem 1), the universal permutation router (Theorem 2), the one-slot
  characterisation, the lower bounds (Propositions 1–3) and baseline routers;
* :mod:`repro.patterns` — the permutation families and random workloads of the
  surrounding literature;
* :mod:`repro.algorithms` — collectives built on the router (broadcast,
  reduction, prefix sum, matrix operations, hypercube/mesh emulation);
* :mod:`repro.analysis` — metrics, experiment runners and reporting.

Quickstart
----------
>>> from repro import POPSNetwork, PermutationRouter, POPSSimulator
>>> from repro.patterns import vector_reversal
>>> network = POPSNetwork(d=8, g=4)
>>> router = PermutationRouter(network)
>>> plan = router.route(vector_reversal(network.n))
>>> plan.n_slots                      # 2 * ceil(8 / 4)
4
>>> POPSSimulator(network).route_and_verify(plan.schedule, plan.packets).n_slots
4
"""

from repro.pops.topology import POPSNetwork, Coupler
from repro.pops.packet import Packet
from repro.pops.schedule import RoutingSchedule, SlotProgram
from repro.pops.simulator import POPSSimulator, SimulationResult
from repro.pops.engine import BatchedSimulator
from repro.pops.collective_engine import CollectiveSimulator
from repro.routing.permutation_router import (
    PermutationRouter,
    RoutingPlan,
    theorem2_slot_bound,
)
from repro.routing.fair_distribution import FairDistribution, FairDistributionSolver
from repro.routing.list_system import ListSystem
from repro.routing.one_slot import OneSlotRouter, is_one_slot_routable
from repro.routing.lower_bounds import (
    best_known_lower_bound,
    is_group_blocked,
    is_group_moving,
)
from repro.routing.baselines import BlockedPermutationRouter, DirectRouter
from repro.api.config import RunConfig
from repro.api.session import Session
from repro import exceptions

__version__ = "1.14.0"

__all__ = [
    "RunConfig",
    "Session",
    "POPSNetwork",
    "Coupler",
    "Packet",
    "RoutingSchedule",
    "SlotProgram",
    "POPSSimulator",
    "SimulationResult",
    "BatchedSimulator",
    "CollectiveSimulator",
    "PermutationRouter",
    "RoutingPlan",
    "theorem2_slot_bound",
    "FairDistribution",
    "FairDistributionSolver",
    "ListSystem",
    "OneSlotRouter",
    "is_one_slot_routable",
    "best_known_lower_bound",
    "is_group_blocked",
    "is_group_moving",
    "BlockedPermutationRouter",
    "DirectRouter",
    "exceptions",
    "__version__",
]
