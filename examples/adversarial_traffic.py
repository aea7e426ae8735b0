#!/usr/bin/env python3
"""Where the universal router wins: group-blocked (adversarial) traffic.

A permutation that maps every processor of a group into a single destination
group squeezes all of that group's traffic through one coupler, so any
single-hop strategy needs d slots.  The paper's two-hop algorithm scatters the
packets across intermediate groups first and always finishes in 2*ceil(d/g)
slots (Theorem 2), which Proposition 2 shows is optimal on this traffic class.

This example sweeps d for a fixed g and prints the slot counts of

* the universal router — served by a live in-process ``ServeDaemon``, the
  same daemon ``pops-repro serve`` runs standalone, queried through a
  ``ServeClient`` over a real socket,
* the specialised closed-formula router for group-blocked permutations, and
* the direct single-hop baseline,

together with the Proposition 2 lower bound — reproducing the crossover the
paper's worst-case guarantee is about.  A burst of concurrent requests then
shows the daemon's dynamic batcher coalescing the same-shape requests that
queue up while it routes into megabatch kernel calls, and a final act kills
one of the couplers the clean plan drives mid-schedule: execution trips, the
residual packets are rerouted online over the surviving couplers, and the
degraded totals are printed next to the clean Theorem 2 bound they stay
within 2x of.

Run with::

    python examples/adversarial_traffic.py
"""

from __future__ import annotations

import threading

from repro import BlockedPermutationRouter, DirectRouter, POPSNetwork
from repro.analysis.reporting import format_table
from repro.api import Session
from repro.faults import FaultSpec
from repro.patterns.generators import random_group_moving_blocked_permutation
from repro.pops.packet import Packet
from repro.pops.simulator import POPSSimulator
from repro.routing.lower_bounds import proposition2_lower_bound
from repro.routing.permutation_router import PermutationRouter, theorem2_slot_bound
from repro.serve import ServeClient, ServeDaemon


def main() -> None:
    g = 4
    rows = []
    with ServeDaemon() as daemon:
        host, port = daemon.address
        with ServeClient(host, port) as client:
            for d in (4, 8, 16, 32, 64):
                network = POPSNetwork(d, g)
                pi = random_group_moving_blocked_permutation(network, rng=d)

                # The daemon routes, simulates and verifies server-side; the
                # returned metrics equal a local Session.route bit for bit.
                outcome = client.route(pi, d=d, g=g)
                packets = [
                    Packet(source=i, destination=pi[i]) for i in range(network.n)
                ]

                blocked_schedule = BlockedPermutationRouter(network).route(pi)
                POPSSimulator(network).route_and_verify(blocked_schedule, packets)

                direct_router = DirectRouter(network)
                direct_slots = direct_router.slots_required(pi)

                rows.append(
                    [
                        d,
                        g,
                        network.n,
                        proposition2_lower_bound(network, pi),
                        outcome.metrics.slots,
                        blocked_schedule.n_slots,
                        direct_slots,
                        f"{direct_slots / outcome.metrics.slots:.1f}x",
                    ]
                )

        print("group-blocked (group-moving) traffic, g = 4")
        print(
            format_table(
                [
                    "d",
                    "g",
                    "n",
                    "lower bound (Prop 2)",
                    "universal router",
                    "blocked formula",
                    "direct baseline",
                    "direct/universal",
                ],
                rows,
            )
        )
        print()
        print("The universal and specialised routers sit exactly on the lower bound;")
        print("the single-hop baseline degrades linearly in d.")

        # Same-shape requests that queue up while the worker is busy coalesce
        # into megabatch kernel calls — the daemon's dynamic batcher at work.
        d = 16
        network = POPSNetwork(d, g)
        batch_sizes = []

        def route_one(seed: int) -> None:
            pi = random_group_moving_blocked_permutation(network, rng=seed)
            with ServeClient(host, port) as worker:
                batch_sizes.append(worker.route(pi, d=d, g=g).batch_size)

        threads = [threading.Thread(target=route_one, args=(s,)) for s in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        print()
        print(
            f"8 concurrent d={d} requests were answered in batches of "
            f"{sorted(batch_sizes, reverse=True)} (1 = routed alone)."
        )

    # Final act: a coupler fails mid-schedule.  For each d we pick a coupler
    # the clean plan provably drives after slot 0, declare it dead from
    # slot 1, and let the recovery pipeline run: clean plan, injected
    # execution up to the trip, online reroute of the residual packets over
    # the surviving couplers, verified delivery on the degraded network.
    # The coupler comes from the plan of the session's own router backend,
    # the plan route_degraded executes.
    session = Session()
    fault_rows = []
    for d in (4, 8, 16, 32):
        network = POPSNetwork(d, g)
        pi = random_group_moving_blocked_permutation(network, rng=d)
        plan = PermutationRouter(network, backend=session.config.router_backend).route(pi)
        driven = plan.schedule.slots[1].transmissions[0].coupler
        spec = FaultSpec(
            failed_couplers=((driven.dest_group, driven.source_group),),
            onset_slot=1,
        )
        report = session.route_degraded(pi, network=network, faults=spec)
        fault_rows.append(
            [
                d,
                g,
                repr(driven),
                theorem2_slot_bound(d, g),
                report.executed_slots,
                report.reroute_slots,
                report.total_slots,
                f"{report.overhead_ratio:.2f}x",
                report.delivered,
            ]
        )
    print()
    print("one driven coupler fails at slot 1 (same traffic class)")
    print(
        format_table(
            [
                "d",
                "g",
                "failed coupler",
                "clean bound",
                "executed",
                "reroute",
                "total",
                "overhead",
                "delivered",
            ],
            fault_rows,
        )
    )
    print()
    print("Every packet still arrives: the slots already executed are kept,")
    print("the residual traffic detours over the surviving couplers, and the")
    print("degraded total stays within 2x of the clean Theorem 2 bound.")


if __name__ == "__main__":
    main()
