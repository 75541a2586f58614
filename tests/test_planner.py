from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import slot_oracle

from awplan import (
    AmplifierType,
    Demand,
    Feasibility,
    Modulation,
    NetworkTopology,
    Node,
    PlanOption,
    PlanReport,
    PlannerPolicy,
    PlanningError,
    QEstimate,
    Span,
    SpectrumError,
    Strategy,
    SuperChannel,
    apply_plan,
    empty_grid,
    enumerate_options,
    grid_context_for,
    neighbor_context,
    place_superchannel,
    plan_link,
    superchannel_capacity,
    validate_plan,
)
from awplan.spectrum import BandConfig, NativeChannel, place_native

ALL_QPSK = (Modulation.QPSK,) * 5
ALL_BPSK = (Modulation.BPSK,) * 5


def line_topology(distance_km: float) -> NetworkTopology:
    """Two ROADMs joined by a single span of the given length."""
    return NetworkTopology(
        nodes=(
            Node(id="A", name="A", has_roadm=True),
            Node(id="B", name="B", has_roadm=True),
        ),
        spans=(
            Span(
                from_node="A",
                to_node="B",
                length_km=distance_km,
                attenuation_db=distance_km * 0.25,
                amplifier=AmplifierType.EDFA,
                dcm_present=True,
                has_inline_ola=False,
            ),
        ),
    )


def demand_fixture(fixture_dir, name: str) -> Demand:
    raw = json.loads((fixture_dir / name).read_text())
    return Demand.from_dict(raw[0])


class TestSuperchannelCapacity:
    def test_reference_capacities(self):
        assert superchannel_capacity(ALL_QPSK, 10) == 500.0
        assert superchannel_capacity(ALL_BPSK, 10) == 250.0
        assert superchannel_capacity(ALL_QPSK, 9) == 450.0

    def test_sacrifice_comes_off_the_last_pair(self):
        mixed = (Modulation.BPSK,) * 2 + (Modulation.QPSK,) * 3
        assert superchannel_capacity(mixed, 10) == 400.0
        assert superchannel_capacity(mixed, 9) == 350.0

    def test_zero_carriers_deliver_nothing(self):
        assert superchannel_capacity(ALL_QPSK, 0) == 0.0

    def test_wrong_pair_count_rejected(self):
        with pytest.raises(PlanningError, match="pair modulations"):
            superchannel_capacity(ALL_QPSK[:3], 10)

    def test_carrier_count_bounds(self):
        with pytest.raises(PlanningError, match="active_carriers"):
            superchannel_capacity(ALL_QPSK, 11)


class TestDemand:
    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="path"):
            Demand(path=(), required_capacity_gbps=100.0)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError, match="required_capacity_gbps"):
            Demand(path=("A", "B"), required_capacity_gbps=0.0)

    def test_round_trips_through_dict(self):
        demand = Demand(path=("A", "B"), required_capacity_gbps=400.0)
        assert Demand.from_dict(demand.to_dict()) == demand


class TestPlannerPolicy:
    def test_defaults(self):
        policy = PlannerPolicy()
        assert policy.guard_band_slots == 2
        assert policy.qpsk_mixed_reach_limit_km == 1000.0
        assert policy.dedicated_edge_carrier_sacrifice == 1

    def test_sacrifice_limited_to_one_edge_carrier(self):
        with pytest.raises(ValueError, match="sacrifice"):
            PlannerPolicy(dedicated_edge_carrier_sacrifice=2)

    def test_negative_guard_rejected(self):
        with pytest.raises(ValueError, match="guard_band_slots"):
            PlannerPolicy(guard_band_slots=-1)


class TestGridContext:
    def test_empty_grid_offers_everything_at_zero(self):
        context = grid_context_for(empty_grid(), guard_band_slots=2)
        assert context.mixed_start_slot == 0
        assert context.mixed_neighbors.guarded_native_count == 0
        assert context.dedicated_start_slot == 0
        assert context.dedicated_needs_carve

    def test_busy_grid_mixed_window_respects_guard(self, busy_grid):
        context = grid_context_for(busy_grid, guard_band_slots=2)
        assert context.mixed_start_slot == 20
        assert context.mixed_neighbors.guarded_native_count == 6
        assert context.mixed_neighbors.unguarded_native_count == 0
        # slots 0..7 are free of natives, so a partition can be carved there
        assert context.dedicated_start_slot == 0
        assert context.dedicated_needs_carve

    def test_existing_partition_is_reused(self):
        from awplan import carve_dedicated_partition

        grid = carve_dedicated_partition(empty_grid(), 40, 10)
        grid = place_native(grid, NativeChannel(id="n", start_slot=0))
        context = grid_context_for(grid, guard_band_slots=2)
        assert context.dedicated_start_slot == 40
        assert not context.dedicated_needs_carve

    def test_full_partition_forces_new_carve(self):
        from awplan import carve_dedicated_partition

        grid = carve_dedicated_partition(empty_grid(), 0, 8)
        grid = place_superchannel(grid, SuperChannel(id="aw", start_slot=0))
        context = grid_context_for(grid, guard_band_slots=2)
        assert context.dedicated_start_slot == 8
        assert context.dedicated_needs_carve

    def test_saturated_grid_offers_nothing(self):
        band = BandConfig(slot_count=8)
        grid = place_superchannel(empty_grid(band), SuperChannel(id="aw", start_slot=0))
        context = grid_context_for(grid, guard_band_slots=2)
        assert not context.mixed_available
        assert not context.dedicated_available

    def test_negative_guard_rejected_before_the_search(self):
        # no mixed window exists, so only the window search itself can object
        grid = empty_grid()
        for i in range(80):
            grid = place_native(grid, NativeChannel(id=f"n{i}", start_slot=2 * i))
        with pytest.raises(SpectrumError, match=r"guard_band_slots must be >= 0, got -1"):
            grid_context_for(grid, -1)

    def test_probe_leaves_no_trace(self, busy_grid):
        before = busy_grid.occupant_ids()
        grid_context_for(busy_grid, guard_band_slots=2)
        assert busy_grid.occupant_ids() == before

    @settings(max_examples=200, deadline=None)
    @given(grid=slot_oracle.random_grids(), guard=st.integers(0, 5))
    def test_matches_slot_array_probe(self, grid, guard):
        context = grid_context_for(grid, guard)
        got = (
            context.mixed_start_slot,
            context.mixed_neighbors,
            context.dedicated_start_slot,
            context.dedicated_needs_carve,
        )
        assert got == slot_oracle.grid_context(grid, guard)


class TestEnumerateOptions:
    def demand(self) -> Demand:
        return Demand(path=("A", "B"), required_capacity_gbps=400.0)

    def test_three_uniform_options_by_default(self, model, clean_metrics):
        context = grid_context_for(empty_grid(), 2)
        options = enumerate_options(self.demand(), clean_metrics(500.0), context, model)
        assert [(o.strategy, o.pair_modulations[0]) for o in options] == [
            (Strategy.MIXED_SPECTRUM, Modulation.BPSK),
            (Strategy.MIXED_SPECTRUM, Modulation.QPSK),
            (Strategy.DEDICATED_PARTITION, Modulation.QPSK),
        ]
        assert [o.capacity_gbps for o in options] == [250.0, 500.0, 450.0]

    def test_qpsk_mixed_beyond_reach_is_flagged_infeasible(self, model, clean_metrics):
        context = grid_context_for(empty_grid(), 2)
        options = enumerate_options(self.demand(), clean_metrics(1131.0), context, model)
        bpsk_mixed, qpsk_mixed, dedicated = options
        assert bpsk_mixed.feasible
        assert not qpsk_mixed.feasible
        assert qpsk_mixed.q.feasibility is not Feasibility.INFEASIBLE
        assert dedicated.feasible

    def test_reach_limit_is_inclusive(self, model, clean_metrics):
        context = grid_context_for(empty_grid(), 2)
        at_limit = enumerate_options(self.demand(), clean_metrics(1000.0), context, model)
        assert at_limit[1].feasible

    def test_dedicated_sacrifices_one_edge_carrier(self, model, clean_metrics):
        context = grid_context_for(empty_grid(), 2)
        options = enumerate_options(self.demand(), clean_metrics(500.0), context, model)
        dedicated = options[-1]
        assert dedicated.active_carriers == 9
        assert dedicated.capacity_gbps == 450.0

    def test_sacrifice_can_be_disabled(self, model, clean_metrics):
        policy = PlannerPolicy(dedicated_edge_carrier_sacrifice=0)
        context = grid_context_for(empty_grid(), 2)
        options = enumerate_options(
            self.demand(), clean_metrics(500.0), context, model, policy
        )
        assert options[-1].active_carriers == 10
        assert options[-1].capacity_gbps == 500.0

    def test_pair_mix_enumeration_is_opt_in(self, model, clean_metrics):
        policy = PlannerPolicy(enumerate_pair_mixes=True)
        context = grid_context_for(empty_grid(), 2)
        options = enumerate_options(
            self.demand(), clean_metrics(500.0), context, model, policy
        )
        assert len(options) == 7
        capacities = {o.capacity_gbps for o in options if o.strategy is Strategy.MIXED_SPECTRUM}
        assert capacities == {250.0, 300.0, 350.0, 400.0, 450.0, 500.0}

    def test_no_window_makes_mixed_infeasible(self, model, clean_metrics):
        band = BandConfig(slot_count=8)
        grid = place_superchannel(empty_grid(band), SuperChannel(id="aw", start_slot=0))
        context = grid_context_for(grid, 2)
        options = enumerate_options(self.demand(), clean_metrics(300.0), context, model)
        assert not any(o.feasible for o in options)


class TestPlanLink:
    def test_long_haul_decision(self, garr, model, fixture_dir):
        demand = demand_fixture(fixture_dir, "rm-mi2.demands.json")
        report = plan_link(demand, garr, empty_grid(), model)
        chosen = report.chosen
        assert chosen.strategy is Strategy.DEDICATED_PARTITION
        assert chosen.pair_modulations == ALL_QPSK
        assert chosen.active_carriers == 9
        assert chosen.capacity_gbps == 450.0
        assert chosen.q.value_db == pytest.approx(11.44, abs=5e-3)
        assert chosen.q.feasibility is Feasibility.OK
        assert report.warnings == ()
        assert report.native_impact_db == 0.0

    def test_long_haul_alternatives(self, garr, model, fixture_dir):
        demand = demand_fixture(fixture_dir, "rm-mi2.demands.json")
        report = plan_link(demand, garr, empty_grid(), model)
        bpsk = [
            o
            for o in report.alternatives
            if o.strategy is Strategy.MIXED_SPECTRUM and o.pair_modulations == ALL_BPSK
        ]
        qpsk = [
            o
            for o in report.alternatives
            if o.strategy is Strategy.MIXED_SPECTRUM and o.pair_modulations == ALL_QPSK
        ]
        assert len(bpsk) == 1 and len(qpsk) == 1
        assert bpsk[0].capacity_gbps == 250.0
        assert bpsk[0].feasible
        assert not qpsk[0].feasible

    def test_short_haul_prefers_mixed_qpsk(self, garr, model, fixture_dir):
        demand = demand_fixture(fixture_dir, "bo1-mi1.demands.json")
        report = plan_link(demand, garr, empty_grid(), model)
        chosen = report.chosen
        assert chosen.strategy is Strategy.MIXED_SPECTRUM
        assert chosen.pair_modulations == ALL_QPSK
        assert chosen.capacity_gbps == 500.0
        assert report.warnings == ()

    def test_rationale_names_every_option(self, garr, model, fixture_dir):
        demand = demand_fixture(fixture_dir, "rm-mi2.demands.json")
        report = plan_link(demand, garr, empty_grid(), model)
        assert report.rationale.startswith("chose DedicatedPartition all-QPSK")
        assert report.rationale.count("rejected") == 2
        assert "reach limit" in report.rationale

    def test_marginal_choice_carries_one_design_warning(self, model):
        demand = Demand(path=("A", "B"), required_capacity_gbps=400.0)
        report = plan_link(demand, line_topology(2500.0), empty_grid(), model)
        assert report.chosen.q.feasibility is Feasibility.MARGINAL
        design_warnings = [w for w in report.warnings if "design threshold" in w]
        assert len(design_warnings) == 1

    def test_capacity_shortfall_is_warned(self, garr, model, fixture_dir):
        demand = demand_fixture(fixture_dir, "bo1-mi1.demands.json")
        oversized = replace(demand, required_capacity_gbps=600.0)
        report = plan_link(oversized, garr, empty_grid(), model)
        assert any("exceeds the delivered capacity" in w for w in report.warnings)

    def test_no_feasible_option_reports_shortfall(self, model):
        demand = Demand(path=("A", "B"), required_capacity_gbps=100.0)
        report = plan_link(demand, line_topology(5000.0), empty_grid(), model)
        assert not report.chosen.feasible
        assert len(report.warnings) == 1
        assert "no feasible option" in report.warnings[0]
        assert "short of the 6.5 dB floor" in report.warnings[0]

    def test_report_round_trips_through_dict(self, garr, model, fixture_dir):
        demand = demand_fixture(fixture_dir, "rm-mi2.demands.json")
        report = plan_link(demand, garr, empty_grid(), model)
        assert PlanReport.from_dict(report.to_dict()) == report


class TestValidatePlan:
    def report(self, garr, model, fixture_dir) -> PlanReport:
        demand = demand_fixture(fixture_dir, "rm-mi2.demands.json")
        return plan_link(demand, garr, empty_grid(), model)

    def tamper(self, report: PlanReport, **chosen_changes) -> PlanReport:
        return replace(report, chosen=replace(report.chosen, **chosen_changes))

    def test_clean_report_passes(self, garr, model, fixture_dir):
        report = self.report(garr, model, fixture_dir)
        assert validate_plan(report, empty_grid()) == []

    def test_q_at_or_below_hard_floor_rejected(self, garr, model, fixture_dir):
        report = self.report(garr, model, fixture_dir)
        bad = self.tamper(
            report, q=QEstimate(value_db=6.5, feasibility=Feasibility.INFEASIBLE)
        )
        codes = [v.code for v in validate_plan(bad, empty_grid())]
        assert "Q_BELOW_HARD_MIN" in codes

    def test_class_mismatch_detected(self, garr, model, fixture_dir):
        report = self.report(garr, model, fixture_dir)
        bad = self.tamper(
            report, q=QEstimate(value_db=11.44, feasibility=Feasibility.MARGINAL)
        )
        codes = [v.code for v in validate_plan(bad, empty_grid())]
        assert codes == ["CLASS_MISMATCH"]

    def test_capacity_mismatch_detected(self, garr, model, fixture_dir):
        report = self.report(garr, model, fixture_dir)
        bad = self.tamper(report, capacity_gbps=500.0)
        codes = [v.code for v in validate_plan(bad, empty_grid())]
        assert codes == ["CAPACITY_MISMATCH"]

    def test_placement_checked_against_grid(self, garr, model, fixture_dir):
        report = self.report(garr, model, fixture_dir)
        band = BandConfig(slot_count=8)
        full = place_superchannel(empty_grid(band), SuperChannel(id="aw", start_slot=0))
        codes = [v.code for v in validate_plan(report, full)]
        assert codes == ["PLACEMENT_INFEASIBLE"]


class TestApplyPlan:
    def test_dedicated_plan_carves_and_places(self, garr, model, fixture_dir):
        demand = demand_fixture(fixture_dir, "rm-mi2.demands.json")
        report = plan_link(demand, garr, empty_grid(), model)
        grid, sc_id = apply_plan(empty_grid(), report)
        block = grid.find_superchannel(sc_id)
        assert block.active_carriers == 9
        context = neighbor_context(grid, sc_id, guard_band_slots=2)
        assert context.in_dedicated_partition

    def test_mixed_plan_places_without_carving(self, garr, model, fixture_dir):
        demand = demand_fixture(fixture_dir, "bo1-mi1.demands.json")
        report = plan_link(demand, garr, empty_grid(), model)
        grid, sc_id = apply_plan(empty_grid(), report)
        assert grid.partitions == ()
        assert grid.find_superchannel(sc_id).start_slot == 0

    def test_ids_stay_unique_across_applications(self, garr, model, fixture_dir):
        demand = demand_fixture(fixture_dir, "bo1-mi1.demands.json")
        report = plan_link(demand, garr, empty_grid(), model)
        grid, first = apply_plan(empty_grid(), report)
        grid, second = apply_plan(grid, report)
        assert first != second
        assert grid.occupant_map()  # still conflict-free

    def test_apply_on_saturated_grid_raises(self, garr, model, fixture_dir):
        demand = demand_fixture(fixture_dir, "rm-mi2.demands.json")
        report = plan_link(demand, garr, empty_grid(), model)
        band = BandConfig(slot_count=8)
        full = place_superchannel(empty_grid(band), SuperChannel(id="aw", start_slot=0))
        with pytest.raises(PlanningError, match="dedicated"):
            apply_plan(full, report)
