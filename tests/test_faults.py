"""Fault model tests: specs, degraded views, injected execution, rerouting.

The fault-tolerance contract layered over the clean Theorem 2 pipeline:

* :class:`FaultSpec` is a frozen, normalised, parseable description of what
  fails and when;
* ``network.degrade(spec)`` masks the failed hardware out of every wiring
  predicate and compares unequal to the clean network (cache safety);
* both engines trip on driven failed hardware with the *same*
  :class:`CouplerFailedError` — same slot, same coupler, same residual, same
  message — so recovery code is engine-agnostic;
* the online rerouter delivers every residual packet over the survivors, and
  :func:`route_with_recovery` verifies that delivery end to end.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.config import RunConfig
from repro.api.session import Session
from repro.cli import main
from repro.exceptions import (
    ConfigurationError,
    CouplerFailedError,
    RoutingError,
    TransmitterError,
)
from repro.faults import (
    FaultRecoveryReport,
    FaultSpec,
    full_reroute,
    reroute_residual,
    route_on_survivors,
    route_with_recovery,
)
from repro.faults import reroute as reroute_module
from repro.pops.engine import BatchedSimulator, compile_schedule
from repro.pops.packet import Packet
from repro.pops.simulator import POPSSimulator
from repro.pops.topology import Coupler, POPSNetwork
from repro.routing.permutation_router import PermutationRouter, theorem2_slot_bound
from repro.utils.permutations import random_permutation


class TestFaultSpec:
    def test_normalises_sorted_and_deduped(self):
        spec = FaultSpec(
            failed_couplers=((2, 1), (1, 2), (2, 1)),
            failed_processors=(5, 3, 5),
            failed_groups=(1, 1),
        )
        assert spec.failed_couplers == ((1, 2), (2, 1))
        assert spec.failed_processors == (3, 5)
        assert spec.failed_groups == (1,)

    def test_specs_are_hashable_and_compare_by_value(self):
        a = FaultSpec(failed_couplers=((1, 2), (2, 1)))
        b = FaultSpec(failed_couplers=((2, 1), (1, 2)))
        assert a == b
        assert hash(a) == hash(b)

    def test_negative_onset_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(onset_slot=-1)

    def test_nonpositive_transient_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(transient_slots=0)

    def test_active_window_permanent(self):
        spec = FaultSpec(failed_couplers=((1, 1),), onset_slot=2)
        assert [spec.active_at(s) for s in range(5)] == [
            False, False, True, True, True,
        ]

    def test_active_window_transient(self):
        spec = FaultSpec(
            failed_couplers=((1, 1),), onset_slot=1, transient_slots=2
        )
        assert [spec.active_at(s) for s in range(5)] == [
            False, True, True, False, False,
        ]

    def test_group_expansion_masks_both_directions(self):
        spec = FaultSpec(failed_groups=(1,))
        pairs = spec.failed_coupler_pairs(3)
        assert (1, 0) in pairs and (0, 1) in pairs and (1, 1) in pairs
        assert (2, 0) not in pairs

    def test_failed_coupler_ids_match_engine_encoding(self):
        spec = FaultSpec(failed_couplers=((2, 1),))
        assert spec.failed_coupler_ids(4) == frozenset({2 * 4 + 1})

    def test_validate_for_rejects_absent_hardware(self, square_network):
        with pytest.raises(ConfigurationError):
            FaultSpec(failed_couplers=((5, 0),)).validate_for(square_network)
        with pytest.raises(ConfigurationError):
            FaultSpec(failed_processors=(99,)).validate_for(square_network)
        with pytest.raises(ConfigurationError):
            FaultSpec(failed_groups=(7,)).validate_for(square_network)

    def test_parse_grammar_roundtrip(self):
        spec = FaultSpec.parse("c1.2, c3.1, p5, g2, onset=1, transient=3")
        assert spec.failed_couplers == ((1, 2), (3, 1))
        assert spec.failed_processors == (5,)
        assert spec.failed_groups == (2,)
        assert spec.onset_slot == 1
        assert spec.transient_slots == 3

    @pytest.mark.parametrize("bad", ["x9", "c1", "c1.", "p", "onset=x", "qq=3"])
    def test_parse_rejects_bad_tokens(self, bad):
        with pytest.raises(ConfigurationError):
            FaultSpec.parse(bad)

    def test_random_is_seed_deterministic(self, square_network):
        a = FaultSpec.random(square_network, coupler_fraction=0.3, seed=7)
        b = FaultSpec.random(square_network, coupler_fraction=0.3, seed=7)
        c = FaultSpec.random(square_network, coupler_fraction=0.3, seed=8)
        assert a == b
        assert a != c or a.is_empty

    def test_random_never_touches_the_hub_group(self):
        network = POPSNetwork(4, 5)
        spec = FaultSpec.random(network, coupler_fraction=1.0, seed=3)
        for b, a in spec.failed_couplers:
            assert b != 0 and a != 0
        # The draw is therefore capped at (g-1)^2 couplers.
        assert len(spec.failed_couplers) == (network.g - 1) ** 2

    def test_describe_mentions_every_component(self):
        spec = FaultSpec.parse("c1.2,p3,g2,onset=4,transient=2")
        text = spec.describe()
        assert "c(1,2)" in text and "3" in text and "slot 4" in text
        assert "transient 2" in text


class TestDegradedNetwork:
    def test_degrade_masks_wiring_predicates(self, square_network):
        degraded = square_network.degrade(FaultSpec(failed_couplers=((1, 2),)))
        dead = Coupler(1, 2)
        assert degraded.coupler_failed(dead)
        assert dead not in degraded.couplers()
        sender = degraded.processors_in_group(2)[0]
        receiver = degraded.processors_in_group(1)[0]
        assert not degraded.can_transmit(sender, dead)
        assert not degraded.can_receive(receiver, dead)
        assert dead not in degraded.transmit_couplers(sender)
        assert dead not in degraded.receive_couplers(receiver)

    def test_failed_processor_loses_all_wiring(self, square_network):
        degraded = square_network.degrade(FaultSpec(failed_processors=(4,)))
        assert degraded.processor_failed(4)
        assert degraded.transmit_couplers(4) == []
        assert degraded.receive_couplers(4) == []

    def test_degraded_view_compares_unequal_to_clean(self, square_network):
        spec = FaultSpec(failed_couplers=((1, 2),))
        degraded = square_network.degrade(spec)
        assert degraded != square_network
        assert hash(degraded) != hash(square_network)
        assert degraded == square_network.degrade(spec)
        # Degraded and clean networks must never alias in dict/cache keys.
        lookup = {square_network: "clean", degraded: "degraded"}
        assert len(lookup) == 2

    def test_nested_degradation_rejected(self, square_network):
        degraded = square_network.degrade(FaultSpec(failed_couplers=((1, 2),)))
        with pytest.raises(ConfigurationError):
            degraded.degrade(FaultSpec(failed_couplers=((2, 1),)))

    def test_degrade_requires_a_spec(self, square_network):
        with pytest.raises(ConfigurationError):
            square_network.degrade({"failed_couplers": [(1, 2)]})

    def test_clean_network_predicates_default_false(self, square_network):
        assert square_network.fault_spec is None
        assert not square_network.coupler_failed(Coupler(1, 2))
        assert not square_network.processor_failed(0)

    def test_schedule_validation_proves_fault_avoidance(self, square_network):
        """A schedule driving a failed coupler fails *static* validation."""
        pi = [(i + 3) % square_network.n for i in range(square_network.n)]
        plan = PermutationRouter(square_network).route(pi)
        driven = plan.schedule.slots[0].transmissions[0].coupler
        spec = FaultSpec(
            failed_couplers=((driven.dest_group, driven.source_group),)
        )
        degraded_plan = PermutationRouter(square_network).route(pi)
        degraded_plan.schedule.network = square_network.degrade(spec)
        with pytest.raises(TransmitterError):
            degraded_plan.schedule.validate()


def _injected_outcomes(network, plan, spec):
    """Run both engines under ``spec``; return their CouplerFailedErrors."""
    reference_error = batched_error = None
    try:
        POPSSimulator(network).run_reference(
            plan.schedule, plan.packets, faults=spec
        )
    except CouplerFailedError as exc:
        reference_error = exc
    engine = BatchedSimulator(network)
    compiled = engine.compile(plan.schedule, plan.packets)
    try:
        engine.execute(compiled, faults=spec)
    except CouplerFailedError as exc:
        batched_error = exc
    return reference_error, batched_error


class TestEngineFaultParity:
    """Fault-aware execution is bit-identical between the engines."""

    @given(seed=st.integers(min_value=0, max_value=2**20),
           onset=st.integers(min_value=0, max_value=2))
    @settings(max_examples=15, deadline=None)
    def test_random_specs_trip_identically(self, seed, onset):
        network = POPSNetwork(4, 4)
        pi = random_permutation(network.n, random.Random(seed))
        plan = PermutationRouter(network).route(pi)
        spec = FaultSpec.random(
            network, coupler_fraction=0.25, seed=seed, onset_slot=onset
        )
        ref, bat = _injected_outcomes(network, plan, spec)
        assert (ref is None) == (bat is None)
        if ref is not None:
            assert bat.slot == ref.slot
            assert bat.coupler == ref.coupler
            assert bat.residual == ref.residual
            assert str(bat) == str(ref)

    def test_failed_driven_coupler_trips_with_residual(self):
        network = POPSNetwork(8, 4)
        pi = [(i + 8) % network.n for i in range(network.n)]
        plan = PermutationRouter(network).route(pi)
        driven = plan.schedule.slots[1].transmissions[0].coupler
        spec = FaultSpec(
            failed_couplers=((driven.dest_group, driven.source_group),),
            onset_slot=1,
        )
        ref, bat = _injected_outcomes(network, plan, spec)
        assert ref is not None and bat is not None
        assert ref.slot == 1
        assert ref.coupler == driven
        # The residual snapshot is taken at the START of the failing slot:
        # every packet short of its destination, mapped to its live holder.
        assert ref.residual == bat.residual
        assert all(
            holder != packet.destination for packet, holder in ref.residual.items()
        )
        assert "failed under the active fault spec" in str(ref)

    def test_failed_processor_parity(self):
        network = POPSNetwork(4, 4)
        pi = [(i + 4) % network.n for i in range(network.n)]
        plan = PermutationRouter(network).route(pi)
        sender = plan.schedule.slots[0].transmissions[0].sender
        spec = FaultSpec(failed_processors=(sender,))
        ref, bat = _injected_outcomes(network, plan, spec)
        assert ref is not None and bat is not None
        assert str(ref) == str(bat)
        assert "failed processor" in str(ref)

    def test_onset_after_schedule_end_never_trips(self):
        network = POPSNetwork(4, 4)
        pi = [(i + 4) % network.n for i in range(network.n)]
        plan = PermutationRouter(network).route(pi)
        spec = FaultSpec(failed_couplers=((1, 1),), onset_slot=10_000)
        ref, bat = _injected_outcomes(network, plan, spec)
        assert ref is None and bat is None

    def test_transient_window_that_misses_never_trips(self):
        # A heavily-driven coupler whose transient fault window opens only
        # after the schedule has finished never intersects any drive — while
        # the same coupler under a window covering the schedule does trip.
        # That isolates the *window* arithmetic as the thing under test.
        network = POPSNetwork(8, 4)
        pi = [(i + 8) % network.n for i in range(network.n)]
        plan = PermutationRouter(network).route(pi)
        driven = plan.schedule.slots[0].transmissions[0].coupler
        pair = (driven.dest_group, driven.source_group)
        n_slots = len(plan.schedule.slots)
        missing = FaultSpec(
            failed_couplers=(pair,), onset_slot=n_slots, transient_slots=3
        )
        ref, bat = _injected_outcomes(network, plan, missing)
        assert ref is None and bat is None
        covering = FaultSpec(
            failed_couplers=(pair,), onset_slot=0, transient_slots=n_slots
        )
        ref, bat = _injected_outcomes(network, plan, covering)
        assert ref is not None and bat is not None

    def test_empty_spec_is_a_no_op(self):
        network = POPSNetwork(4, 4)
        pi = [(i + 4) % network.n for i in range(network.n)]
        plan = PermutationRouter(network).route(pi)
        ref, bat = _injected_outcomes(network, plan, FaultSpec())
        assert ref is None and bat is None


class TestOnlineReroute:
    @pytest.mark.parametrize("shape", [(3, 3), (8, 4), (2, 8), (4, 5)])
    def test_survivor_routing_delivers_on_degraded_networks(self, shape, rng):
        d, g = shape
        network = POPSNetwork(d, g)
        spec = FaultSpec.random(network, coupler_fraction=0.25, seed=d * 31 + g)
        degraded = network.degrade(spec)
        pi = random_permutation(network.n, rng)
        packets = [Packet(i, pi[i]) for i in range(network.n) if pi[i] != i]
        schedule = route_on_survivors(degraded, packets)
        schedule.validate()  # statically proves no failed hardware is used
        result = POPSSimulator(degraded).run_reference(schedule, packets)
        result.verify_permutation_delivery(packets)

    def test_packet_on_failed_processor_is_unroutable(self, square_network):
        degraded = square_network.degrade(FaultSpec(failed_processors=(0,)))
        with pytest.raises(RoutingError, match="failed processor"):
            route_on_survivors(degraded, [Packet(0, 5)])
        with pytest.raises(RoutingError, match="destined for"):
            route_on_survivors(degraded, [Packet(5, 0)])

    def test_disconnecting_faults_raise_routing_error(self):
        # g=2 with c(1,0) dead: nothing can reach group 1 from group 0,
        # directly or through any intermediate.
        network = POPSNetwork(2, 2)
        degraded = network.degrade(FaultSpec(failed_couplers=((1, 0),)))
        with pytest.raises(RoutingError, match="unroutable"):
            route_on_survivors(degraded, [Packet(0, 2)])

    def test_reroute_residual_counts_overhead_against_clean_bound(self):
        network = POPSNetwork(8, 4)
        degraded = network.degrade(FaultSpec(failed_couplers=((1, 2),)))
        residual = {Packet(16, 8): 16, Packet(17, 9): 17}
        plan = reroute_residual(degraded, residual)
        assert plan.clean_bound == theorem2_slot_bound(8, 4)
        assert plan.n_slots >= 1
        assert plan.overhead_ratio == plan.n_slots / plan.clean_bound

    def test_reroute_residual_skips_already_delivered(self):
        network = POPSNetwork(4, 4)
        degraded = network.degrade(FaultSpec(failed_couplers=((1, 2),)))
        plan = reroute_residual(degraded, {Packet(3, 7): 7})
        assert plan.packets == ()
        assert plan.n_slots == 0


class TestRouteWithRecovery:
    def test_fault_path_delivers_and_reports(self):
        network = POPSNetwork(8, 4)
        pi = [(i + 8) % network.n for i in range(network.n)]
        spec = FaultSpec(failed_couplers=((1, 0),), onset_slot=1)
        report = route_with_recovery(network, pi, spec)
        assert report.fault_triggered
        assert report.delivered
        assert report.executed_slots == 1
        assert report.total_slots == report.executed_slots + report.reroute_slots
        assert report.overhead_ratio == report.total_slots / report.theorem2_bound
        payload = report.to_dict()
        assert payload["delivered"] is True
        assert payload["overhead_ratio"] == report.overhead_ratio

    def test_untriggered_fault_reports_clean_run(self):
        network = POPSNetwork(4, 4)
        pi = [(i + 4) % network.n for i in range(network.n)]
        spec = FaultSpec(failed_couplers=((1, 1),), onset_slot=10_000)
        report = route_with_recovery(network, pi, spec)
        assert not report.fault_triggered
        assert report.delivered
        assert report.residual_packets == 0
        assert report.total_slots == report.clean_slots

    def test_full_reroute_control_arm_delivers(self):
        network = POPSNetwork(8, 4)
        pi = [(i + 8) % network.n for i in range(network.n)]
        spec = FaultSpec(failed_couplers=((1, 0),))
        plan = full_reroute(network, pi, spec)
        assert len(plan.packets) == network.n
        result = POPSSimulator(plan.network).run_reference(
            plan.schedule, list(plan.packets)
        )
        result.verify_permutation_delivery(list(plan.packets))

    def test_spec_naming_absent_hardware_rejected(self, square_network):
        with pytest.raises(ConfigurationError):
            route_with_recovery(
                square_network,
                list(range(square_network.n)),
                FaultSpec(failed_couplers=((9, 9),)),
            )


def _object_pipeline_recovery(network, pi, spec, backend):
    """The object-route recovery pipeline, as the oracle of the batch one.

    Plans with ``router.route``, lowers with ``compile_schedule``, runs
    ``execute_batch(faults=)``, and recovers exactly as
    :func:`route_with_recovery` does.  Returns the report and the residual
    of the :class:`CouplerFailedError` (``None`` when nothing trips).
    """
    plan = PermutationRouter(network, backend=backend).route(pi)
    compiled = compile_schedule(network, plan.schedule, plan.packets)
    engine = BatchedSimulator(network)
    bound = theorem2_slot_bound(network.d, network.g)
    fields = dict(
        d=network.d,
        g=network.g,
        n=network.n,
        onset_slot=spec.onset_slot,
        failed_couplers=len(spec.failed_coupler_pairs(network.g)),
        failed_processors=len(spec.failed_processor_set(network)),
        clean_slots=compiled.n_slots,
        theorem2_bound=bound,
        delivered=True,
    )
    try:
        engine.verify_locations_batch(compiled, engine.execute_batch(compiled, faults=spec))
    except CouplerFailedError as fault:
        reroute = reroute_residual(network.degrade(spec), fault.residual)
        result = POPSSimulator(reroute.network).run_reference(
            reroute.schedule, list(reroute.packets)
        )
        result.verify_permutation_delivery(list(reroute.packets))
        report = FaultRecoveryReport(
            fault_triggered=True,
            executed_slots=fault.slot,
            residual_packets=len(reroute.packets),
            reroute_slots=reroute.n_slots,
            total_slots=fault.slot + reroute.n_slots,
            packets_moved=int(compiled.pay_ptr[fault.slot])
            + sum(len(slot.transmissions) for slot in reroute.schedule.slots),
            **fields,
        )
        return report, fault.residual
    report = FaultRecoveryReport(
        fault_triggered=False,
        executed_slots=compiled.n_slots,
        residual_packets=0,
        reroute_slots=0,
        total_slots=compiled.n_slots,
        packets_moved=int(compiled.pay_ptr[-1]),
        **fields,
    )
    return report, None


class TestRecoveryOnTheBatchPipeline:
    """``route_with_recovery`` plans on the batch pipeline for every backend
    and reports exactly what the object-route pipeline reports."""

    #: d = 1, d = g, d > g, d < g, and E11's 9×3.
    SHAPES = [(1, 8), (4, 4), (8, 4), (4, 8), (9, 3)]

    @staticmethod
    def _specs(network, pi, backend):
        """The empty spec, and one driven coupler failing at onset 0 and 1."""
        plan = PermutationRouter(network, backend=backend).route(pi)
        specs = [FaultSpec()]
        for onset in (0, 1):
            slot = plan.schedule.slots[min(onset, plan.n_slots - 1)]
            driven = slot.transmissions[0].coupler
            specs.append(
                FaultSpec(
                    failed_couplers=((driven.dest_group, driven.source_group),),
                    onset_slot=onset,
                )
            )
        return specs

    @pytest.mark.parametrize("backend", ["euler", "euler-array", "konig", "konig-array"])
    @pytest.mark.parametrize("d,g", SHAPES, ids=lambda s: str(s))
    def test_report_and_residual_equal_object_pipeline(
        self, d, g, backend, rng, monkeypatch
    ):
        network = POPSNetwork(d, g)
        pi = random_permutation(network.n, rng)
        residuals = []
        original = reroute_module.reroute_residual

        def spy(degraded, residual, **kwargs):
            residuals.append(residual)
            return original(degraded, residual, **kwargs)

        monkeypatch.setattr(reroute_module, "reroute_residual", spy)
        for spec in self._specs(network, pi, backend):
            residuals.clear()
            expected, residual = _object_pipeline_recovery(network, pi, spec, backend)
            report = route_with_recovery(network, pi, spec, router_backend=backend)
            assert report.to_dict() == expected.to_dict(), spec.describe()
            # A driven coupler trips iff its onset falls inside the plan.
            assert report.fault_triggered == (
                not spec.is_empty and spec.onset_slot < report.clean_slots
            )
            if residual is None:
                assert residuals == []
            else:
                (got,) = residuals
                assert list(got.items()) == list(residual.items())

    def test_default_backend_is_the_session_default(self, rng):
        network = POPSNetwork(8, 4)
        pi = random_permutation(network.n, rng)
        spec = FaultSpec(failed_couplers=((1, 0),), onset_slot=1)
        default = RunConfig().router_backend
        assert route_with_recovery(network, pi, spec) == route_with_recovery(
            network, pi, spec, router_backend=default
        )
        assert route_with_recovery(network, pi, spec) == Session().route_degraded(
            pi, network=network, faults=spec
        )


class TestSessionAndCLI:
    def test_session_route_degraded(self):
        session = Session(RunConfig())
        spec = FaultSpec(failed_couplers=((1, 0),), onset_slot=1)
        report = session.route_degraded(
            [(i + 8) % 32 for i in range(32)], d=8, g=4, faults=spec
        )
        assert report.delivered
        assert report.fault_triggered

    def test_session_route_degraded_requires_fault_spec(self):
        session = Session(RunConfig())
        with pytest.raises(ConfigurationError):
            session.route_degraded(
                list(range(9)), d=3, g=3, faults="c1.0"
            )

    def test_cli_route_with_faults_exits_zero(self, capsys):
        status = main(
            ["route", "--d", "6", "--g", "3", "--faults", "c1.2,onset=1"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "delivered        : True" in out

    def test_cli_rejects_malformed_fault_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(["route", "--d", "6", "--g", "3", "--faults", "zz"])

    def test_experiment_e10_passes(self):
        session = Session(RunConfig())
        result = session.experiment("E10")
        assert result.all_pass

    def test_experiment_e11_passes(self):
        session = Session(RunConfig())
        result = session.experiment("E11")
        assert result.all_pass
