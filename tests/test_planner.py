from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

import slot_oracle
from record_tools import replace

from awplan import (
    AmplifierType,
    CarrierPair,
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
    SchemaError,
    Span,
    SpectrumError,
    SpectrumGrid,
    Strategy,
    SuperChannel,
    Thresholds,
    apply_plan,
    carve_dedicated_partition,
    empty_grid,
    enumerate_options,
    grid_context_for,
    neighbor_context,
    place_superchannel,
    plan_link,
    superchannel_capacity,
    unique_occupant_id,
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


def no_mixed_window_grid() -> SpectrumGrid:
    """A 16-slot band with a partition on [0, 8) and natives on the rest:
    only a dedicated block fits."""
    grid = carve_dedicated_partition(empty_grid(BandConfig(slot_count=16)), 0, 8)
    for start in (8, 10, 12, 14):
        grid = place_native(grid, NativeChannel(id=f"n{start}", start_slot=start))
    return grid


def no_dedicated_window_grid() -> SpectrumGrid:
    """A 26-slot band whose blocks on [1, 9) and [17, 25) leave one mixed
    window, at slot 9, and no even-aligned region to carve."""
    grid = place_superchannel(empty_grid(BandConfig(slot_count=26)), SuperChannel(id="x1", start_slot=1))
    return place_superchannel(grid, SuperChannel(id="x2", start_slot=17))


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

    def test_nan_reach_limit_rejected(self):
        with pytest.raises(ValueError, match="^qpsk_mixed_reach_limit_km must be a number, got nan$"):
            PlannerPolicy(qpsk_mixed_reach_limit_km=float("nan"))
        with pytest.raises(ValueError, match=r"^qpsk_mixed_reach_limit_km must be >= 0, got -1\.0$"):
            PlannerPolicy(qpsk_mixed_reach_limit_km=-1.0)

    def test_infinite_reach_limit_is_no_limit(self):
        assert PlannerPolicy(qpsk_mixed_reach_limit_km=float("inf")).qpsk_mixed_reach_limit_km == float("inf")


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
        assert context.mixed_start_slot is None
        assert context.dedicated_start_slot is None

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


    @settings(max_examples=100, deadline=None)
    @given(grid=slot_oracle.random_grids(), guard=st.integers(0, 5))
    def test_kept_context_equals_a_fresh_probe(self, grid, guard):
        first = grid_context_for(grid, guard)
        assert grid_context_for(grid, guard) is first
        try:
            fresh = SpectrumGrid.from_dict(grid.to_dict())
        except SchemaError:  # a block id used twice; the probe still reads the grid
            fresh = replace(grid)
        assert grid_context_for(fresh, guard) == first
        # equality, repr and the document ignore the kept probes
        assert grid == fresh and repr(grid) == repr(fresh) and grid.to_dict() == fresh.to_dict()

    @settings(max_examples=30, deadline=None)
    @given(grid=slot_oracle.random_grids(), guard=st.integers(-3, -1))
    def test_a_guard_that_raises_raises_on_every_call(self, grid, guard):
        for _ in range(2):
            with pytest.raises(SpectrumError, match=f"guard_band_slots must be >= 0, got {guard}"):
                grid_context_for(grid, guard)

    def test_a_float_guard_is_not_served_by_its_int_twin(self):
        grid = empty_grid()
        message = r"^guard_band_slots must be an integer, got 2\.0$"
        with pytest.raises(SpectrumError, match=message):
            grid_context_for(grid, 2.0)
        grid_context_for(grid, 2)
        with pytest.raises(SpectrumError, match=message):
            grid_context_for(grid, 2.0)


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

    def test_mixed_placement_checked_against_grid(self, garr, model, fixture_dir):
        report = plan_link(demand_fixture(fixture_dir, "bo1-mi1.demands.json"), garr, empty_grid(), model)
        assert report.chosen.strategy is Strategy.MIXED_SPECTRUM
        violations = validate_plan(report, no_mixed_window_grid())
        assert [(v.code, v.message) for v in violations] == [
            ("PLACEMENT_INFEASIBLE", "no mixed-spectrum window available on this grid")
        ]


class TestApplyPlan:
    def test_dedicated_plan_carves_and_places(self, garr, model, fixture_dir):
        demand = demand_fixture(fixture_dir, "rm-mi2.demands.json")
        report = plan_link(demand, garr, empty_grid(), model)
        grid, sc_id = apply_plan(empty_grid(), report)
        block = next(sc for sc in grid.superchannels if sc.id == sc_id)
        assert block.active_carriers == 9
        context = neighbor_context(grid, sc_id, guard_band_slots=2)
        assert context.in_dedicated_partition

    def test_mixed_plan_places_without_carving(self, garr, model, fixture_dir):
        demand = demand_fixture(fixture_dir, "bo1-mi1.demands.json")
        report = plan_link(demand, garr, empty_grid(), model)
        grid, sc_id = apply_plan(empty_grid(), report)
        assert grid.partitions == ()
        assert next(sc for sc in grid.superchannels if sc.id == sc_id).start_slot == 0

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

    def test_apply_mixed_without_a_window_raises(self, garr, model, fixture_dir):
        report = plan_link(demand_fixture(fixture_dir, "bo1-mi1.demands.json"), garr, empty_grid(), model)
        with pytest.raises(PlanningError, match="^no mixed-spectrum window available$"):
            apply_plan(no_mixed_window_grid(), report)

    @settings(max_examples=300, deadline=None)
    @given(
        grid=slot_oracle.random_grids(),
        guard=st.integers(0, 5),
        capacity=st.sampled_from([100.0, 400.0, 500.0]),
        reach=st.sampled_from([0.0, 1000.0]),  # no reach favours the dedicated option
        data=st.data(),
    )
    def test_matches_a_carve_then_place_reference(self, garr, model, grid, guard, capacity, reach, data):
        policy = PlannerPolicy(guard_band_slots=guard, qpsk_mixed_reach_limit_km=reach)
        report = plan_link(Demand(path=_garr_path(data, garr), required_capacity_gbps=capacity), garr, grid, model, policy)

        def outcome(apply):
            try:
                placed, sc_id = apply(grid, report, policy)
            except Exception as err:  # noqa: BLE001 - the type and message are compared
                return type(err), str(err)
            masks = placed.native_mask, placed.occupied_mask, placed.partition_mask, placed.occupant_ids()
            fresh = SpectrumGrid(placed.band, placed.natives, placed.superchannels, placed.partitions)
            assert masks == (fresh.native_mask, fresh.occupied_mask, fresh.partition_mask, fresh.occupant_ids())
            return placed, masks, sc_id

        got = outcome(apply_plan)
        assert got == outcome(carve_then_place)
        # a feasible report always places; an infeasible one may lack its window
        assert isinstance(got[0], SpectrumGrid) or not report.chosen.feasible


def carve_then_place(grid: SpectrumGrid, report: PlanReport, policy: PlannerPolicy) -> tuple[SpectrumGrid, str]:
    """apply_plan in two calls, each building its own grid: carve the
    context's partition if it needs one, then place the block."""
    chosen, context = report.chosen, grid_context_for(grid, policy.guard_band_slots)
    width = grid.band.superchannel_width_slots
    sc_id = unique_occupant_id(grid, "aw-block")
    if chosen.strategy is Strategy.MIXED_SPECTRUM:
        if context.mixed_start_slot is None:
            raise PlanningError("no mixed-spectrum window available")
        start = context.mixed_start_slot
    else:
        if context.dedicated_start_slot is None:
            raise PlanningError("no dedicated partition available or carvable")
        start = context.dedicated_start_slot
        if context.dedicated_needs_carve:
            grid = carve_dedicated_partition(grid, start, width + width % 2)
    pairs = tuple(CarrierPair(i, modulation) for i, modulation in enumerate(chosen.pair_modulations))
    return place_superchannel(grid, SuperChannel(sc_id, start, width, pairs, chosen.active_carriers)), sc_id


def rejections(report: PlanReport) -> list[str]:
    """The reason of each rejected option in the rationale, in order."""
    return [clause.split("): ", 1)[1] for clause in report.rationale.split("; ")[1:]]


class TestRejectionReasons:
    DEMAND = Demand(path=("A", "B"), required_capacity_gbps=400.0)

    def plan(self, model, grid: SpectrumGrid, **policy) -> PlanReport:
        return plan_link(self.DEMAND, line_topology(300.0), grid, model, PlannerPolicy(**policy))

    def test_no_mixed_window(self, model):
        report = self.plan(model, no_mixed_window_grid())
        assert report.chosen.strategy is Strategy.DEDICATED_PARTITION
        assert rejections(report) == ["no mixed-spectrum window available"] * 2

    def test_no_dedicated_window(self, model):
        report = self.plan(model, no_dedicated_window_grid())
        assert report.chosen.strategy is Strategy.MIXED_SPECTRUM
        assert rejections(report) == [
            "lower capacity (250 vs 500 Gbps)",
            "no dedicated partition available or carvable",
        ]

    def test_lower_q_margin_needs_no_sacrifice(self, model):
        # a native two slots above the mixed window costs the mixed block Q,
        # so a dedicated block of the same capacity wins on margin
        grid = place_native(empty_grid(), NativeChannel(id="n", start_slot=10))
        report = self.plan(model, grid, dedicated_edge_carrier_sacrifice=0)
        assert report.chosen.strategy is Strategy.DEDICATED_PARTITION
        mixed_qpsk = report.alternatives[1]
        assert rejections(report) == [
            "lower capacity (250 vs 500 Gbps)",
            f"lower Q margin ({mixed_qpsk.q.value_db:.2f} vs {report.chosen.q.value_db:.2f} dB)",
        ]

    def test_carve_for_no_gain_needs_no_sacrifice(self, model):
        report = self.plan(model, empty_grid(), dedicated_edge_carrier_sacrifice=0)
        assert report.chosen.strategy is Strategy.MIXED_SPECTRUM
        assert report.alternatives[1].q == report.chosen.q
        assert rejections(report) == [
            "lower capacity (250 vs 500 Gbps)",
            "would carve a dedicated partition for no capacity or margin gain",
        ]


def _garr_path(data, topology: NetworkTopology) -> tuple[str, ...]:
    """A random walk of up to 7 distinct nodes along the spans of *topology*."""
    path = [data.draw(st.sampled_from([node.id for node in topology.nodes]))]
    for _ in range(data.draw(st.integers(0, 6))):
        steps = sorted(
            {b for span in topology.spans for a, b in ((span.from_node, span.to_node), (span.to_node, span.from_node))
             if a == path[-1] and b not in path}
        )
        if not steps:
            break
        path.append(data.draw(st.sampled_from(steps)))
    return tuple(path)


class TestRationaleOracle:
    """Every option's feasible flag and every clause of the rationale,
    re-derived naively: the grid's windows from the slot-array probe, the
    distance by summing spans, the class from the floors, and the choice by
    sorting the options."""

    @settings(max_examples=200, deadline=None)
    @given(
        grid=slot_oracle.random_grids(),
        guard=st.integers(0, 5),
        sacrifice=st.integers(0, 1),
        reach=st.one_of(st.sampled_from([0.0, 600.0, 1000.0, float("inf")]), st.floats(0.0, 3000.0)),
        hard_min=st.sampled_from([6.5, 10.0, 12.5, 14.0]),
        data=st.data(),
    )
    def test_rationale_matches_a_naive_rederivation(
        self, garr, model, grid, guard, sacrifice, reach, hard_min, data
    ):
        path = _garr_path(data, garr)
        thresholds = Thresholds(hard_min_db=hard_min, design_min_db=hard_min + 2.0)
        policy = PlannerPolicy(
            guard_band_slots=guard,
            qpsk_mixed_reach_limit_km=reach,
            dedicated_edge_carrier_sacrifice=sacrifice,
            thresholds=thresholds,
        )
        report = plan_link(Demand(path=path, required_capacity_gbps=400.0), garr, grid, model, policy)

        mixed_start, _, dedicated_start, _ = slot_oracle.grid_context(grid, guard)
        distance = sum(
            span.length_km for a, b in zip(path, path[1:]) for span in garr.spans
            if {span.from_node, span.to_node} == {a, b}
        )

        def why_not(option: PlanOption) -> str | None:
            q = option.q.value_db
            if q <= hard_min:
                return f"Q {q:.2f} dB is at or below the {hard_min:g} dB floor"
            if option.strategy is Strategy.DEDICATED_PARTITION:
                return None if dedicated_start is not None else "no dedicated partition available or carvable"
            if mixed_start is None:
                return "no mixed-spectrum window available"
            if option.pair_modulations == ALL_QPSK and not distance <= reach:
                return (
                    f"distance {distance:.0f} km exceeds the {reach:g} km reach limit "
                    f"for QPSK beside IM-DD neighbors"
                )
            return None

        def describe(option: PlanOption) -> str:
            q = option.q.value_db
            label = "Infeasible" if q <= hard_min else "Marginal" if q <= hard_min + 2.0 else "Ok"
            assert option.q.feasibility.value == label
            return (
                f"{option.strategy.value} all-{option.pair_modulations[0].value} with {option.active_carriers} "
                f"carriers at {option.capacity_gbps:.0f} Gbps (Q {q:.2f} dB, {label})"
            )

        options = [report.chosen, *report.alternatives]
        assert sorted((o.strategy.value, o.pair_modulations[0].value, o.active_carriers) for o in options) == [
            ("DedicatedPartition", "QPSK", 10 - sacrifice),
            ("MixedSpectrum", "BPSK", 10),
            ("MixedSpectrum", "QPSK", 10),
        ]
        for option in options:
            assert option.feasible == (why_not(option) is None)
        feasible = [o for o in options if why_not(o) is None]
        best = sorted(
            feasible or options,
            key=lambda o: (-o.capacity_gbps, -o.q.value_db, o.strategy is not Strategy.MIXED_SPECTRUM),
        )[0]
        assert report.chosen is best

        clauses = [f"chose {describe(best)}"]
        for option in report.alternatives:
            reason = why_not(option)
            if reason is None:
                if option.capacity_gbps < best.capacity_gbps:
                    reason = f"lower capacity ({option.capacity_gbps:.0f} vs {best.capacity_gbps:.0f} Gbps)"
                elif option.q.value_db < best.q.value_db:
                    reason = f"lower Q margin ({option.q.value_db:.2f} vs {best.q.value_db:.2f} dB)"
                else:
                    # a mixed option level with the chosen one would have been chosen
                    assert option.strategy is Strategy.DEDICATED_PARTITION
                    reason = "would carve a dedicated partition for no capacity or margin gain"
            clauses.append(f"rejected {describe(option)}: {reason}")
        assert report.rationale == "; ".join(clauses)
        assert "tied" not in report.rationale
