from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings, strategies as st

import codec_oracle
import slot_oracle
from record_tools import replace

from awplan import spectrum
from awplan import (
    AllocationResult,
    AwplanError,
    BandConfig,
    CarrierPair,
    DedicatedPartition,
    Demand,
    Feasibility,
    Modulation,
    NativeChannel,
    NeighborConfig,
    OccupantKind,
    PlacementRequest,
    PlannerPolicy,
    PlanOption,
    PlanReport,
    QEstimate,
    SchemaError,
    SpectrumError,
    SpectrumGrid,
    Strategy,
    SuperChannel,
    apply_plan,
    carve_dedicated_partition,
    default_pairs,
    empty_grid,
    first_fit_allocate,
    grid_context_for,
    neighbor_context,
    place_native,
    place_superchannel,
    unique_occupant_id,
)
from awplan.spectrum import DEFAULT_PAIRS, MAX_SLOT_COUNT


def native(channel_id: str, start: int, bitrate: int = 10) -> NativeChannel:
    return NativeChannel(id=channel_id, start_slot=start, bitrate_gbps=bitrate)


def superchannel(sc_id: str, start: int, modulation: Modulation = Modulation.QPSK) -> SuperChannel:
    return SuperChannel(id=sc_id, start_slot=start, pairs=default_pairs(modulation))


class TestBandConfig:
    def test_defaults(self):
        band = BandConfig()
        assert band.slot_width_ghz == 25.0
        assert band.slot_count == 160
        assert band.native_channel_width_slots == 2
        assert band.superchannel_width_slots == 8

    def test_slot_width_is_fixed(self):
        with pytest.raises(ValueError, match="slot_width_ghz"):
            BandConfig(slot_width_ghz=12.5)

    def test_native_width_is_fixed(self):
        with pytest.raises(ValueError, match="native_channel_width_slots"):
            BandConfig(native_channel_width_slots=4)

    def test_odd_slot_count_rejected(self):
        with pytest.raises(ValueError, match="slot_count"):
            BandConfig(slot_count=33)

    def test_superchannel_width_must_fit_band(self):
        with pytest.raises(ValueError, match="superchannel_width_slots"):
            BandConfig(slot_count=4, superchannel_width_slots=8)

    # each value is refused when the band is made, before any slot mask exists
    @pytest.mark.parametrize("slot_count", [MAX_SLOT_COUNT + 2, 10**7, 2**62])
    def test_slot_count_is_bounded(self, slot_count):
        with pytest.raises(ValueError, match=rf"^slot_count must be at most 1024, got {slot_count}$"):
            BandConfig(slot_count=slot_count)

    def test_odd_slot_count_past_the_bound_keeps_its_message(self):
        with pytest.raises(ValueError, match=r"^slot_count must be a positive even integer, got 2049$"):
            BandConfig(slot_count=2049)


class TestNativeChannel:
    def test_width_is_two_slots(self):
        assert native("n", 6).end_slot == 8

    def test_bitrate_restricted_to_host_rates(self):
        native("n", 0, bitrate=40)
        with pytest.raises(ValueError, match="bitrate"):
            native("n", 0, bitrate=100)

    def test_format_is_fixed(self):
        with pytest.raises(ValueError, match="format"):
            NativeChannel(id="n", start_slot=0, format="coherent")

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError, match="id"):
            native("", 0)

    def test_document_may_omit_bitrate_and_format(self):
        assert NativeChannel.from_dict({"id": "n", "start_slot": 4}) == native("n", 4)


class TestSuperChannel:
    def test_pairs_written_in_index_order(self):
        sc = SuperChannel(id="aw", start_slot=0, pairs=tuple(reversed(default_pairs())))
        assert [pair["index"] for pair in sc.to_dict()["pairs"]] == [0, 1, 2, 3, 4]
        # and held so: the block equals one given its pairs in order
        assert sc.pairs == default_pairs() and sc == SuperChannel(id="aw", start_slot=0, pairs=default_pairs())

    def test_default_block(self):
        sc = superchannel("aw", 0)
        assert sc.width_slots == 8
        assert sc.end_slot == 8
        assert sc.active_carriers == 10
        assert len(sc.pairs) == 5

    def test_default_pairs_are_five_enabled_qpsk_pairs(self):
        assert SuperChannel("a", 0).pairs == default_pairs()

    def test_pair_indices_must_cover_range(self):
        pairs = tuple(CarrierPair(index=0, modulation=Modulation.QPSK) for _ in range(5))
        with pytest.raises(ValueError, match="indices"):
            SuperChannel(id="aw", start_slot=0, pairs=pairs)

    def test_pair_count_enforced(self):
        with pytest.raises(ValueError, match="pairs"):
            SuperChannel(id="aw", start_slot=0, pairs=default_pairs()[:4])

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError, match="super-channel width must be > 0, got -3"):
            first_fit_allocate(
                SpectrumGrid(superchannels=(SuperChannel("s", 8, width_slots=-3),)),
                [PlacementRequest(kind=OccupantKind.NATIVE, id="n")],
            )

    def test_one_sacrificed_carrier_is_legal(self):
        sc = SuperChannel(id="aw", start_slot=0, active_carriers=9)
        assert sc.active_carriers == 9

    def test_two_missing_carriers_rejected(self):
        with pytest.raises(ValueError, match="active_carriers"):
            SuperChannel(id="aw", start_slot=0, active_carriers=8)

    def test_shared_default_pairs_skip_only_the_pair_checks(self):
        assert SuperChannel("x", 0, active_carriers=9).pairs is DEFAULT_PAIRS
        with pytest.raises(ValueError, match=r"^active_carriers must be 10 or 9 for 5 enabled pairs, got 8$"):
            SuperChannel("x", 0, active_carriers=8)
        with pytest.raises(ValueError, match=r"^active_carriers must be in 0\.\.10, got 11$"):
            SuperChannel("x", 0, active_carriers=11)

    def test_pairs_equal_to_the_default_are_checked_in_full(self):
        fresh = default_pairs()
        assert fresh == DEFAULT_PAIRS and fresh is not DEFAULT_PAIRS
        assert SuperChannel("x", 0, pairs=fresh, active_carriers=9).active_carriers == 9
        with pytest.raises(ValueError, match=r"^active_carriers must be 10 or 9 for 5 enabled pairs, got 8$"):
            SuperChannel("x", 0, pairs=fresh, active_carriers=8)
        duplicate = fresh[:4] + (fresh[0],)
        with pytest.raises(ValueError, match=r"^pair indices must be 0\.\.4 with no duplicates$"):
            SuperChannel("x", 0, pairs=duplicate)

    def test_active_count_follows_disabled_pairs(self):
        pairs = tuple(
            CarrierPair(index=i, modulation=Modulation.QPSK, enabled=i != 4) for i in range(5)
        )
        assert SuperChannel(id="aw", start_slot=0, pairs=pairs, active_carriers=8).active_carriers == 8
        with pytest.raises(ValueError, match="active_carriers"):
            SuperChannel(id="aw", start_slot=0, pairs=pairs, active_carriers=10)


class TestCarrierPair:
    def test_index_range(self):
        with pytest.raises(ValueError, match="index"):
            CarrierPair(index=5, modulation=Modulation.BPSK)


class TestDedicatedPartition:
    def test_boundaries_align_to_native_grid(self):
        DedicatedPartition(start_slot=4, width_slots=8)
        with pytest.raises(ValueError, match="align"):
            DedicatedPartition(start_slot=3, width_slots=8)
        with pytest.raises(ValueError, match="align"):
            DedicatedPartition(start_slot=4, width_slots=7)

    def test_contains_and_overlaps(self):
        part = DedicatedPartition(start_slot=10, width_slots=10)
        assert part.overlaps(8, 12)
        assert not part.overlaps(20, 24)


class TestNeighborConfig:
    def test_dedicated_implies_no_neighbors(self):
        NeighborConfig(in_dedicated_partition=True)
        with pytest.raises(ValueError, match="dedicated"):
            NeighborConfig(guarded_native_count=1, in_dedicated_partition=True)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            NeighborConfig(guarded_native_count=-1)

    @pytest.mark.parametrize("field", ["guarded_native_count", "unguarded_native_count"])
    def test_counts_are_bounded_by_the_natives_a_band_can_hold(self, field):
        assert getattr(NeighborConfig(**{field: 512}), field) == 512  # MAX_SLOT_COUNT // 2
        for count in (513, 10**400):
            with pytest.raises(ValueError, match="^neighbor counts must be at most 512$"):
                NeighborConfig(**{field: count})


class TestPlacement:
    def test_native_must_align_to_even_slots(self):
        with pytest.raises(SpectrumError, match="aligned"):
            place_native(empty_grid(), native("n", 3))

    def test_native_must_stay_in_band(self):
        with pytest.raises(SpectrumError, match="outside"):
            place_native(empty_grid(), native("n", 160))

    def test_native_overlap_rejected(self):
        grid = place_native(empty_grid(), native("a", 0))
        with pytest.raises(SpectrumError, match="overlap"):
            place_native(grid, native("b", 0))

    def test_duplicate_occupant_id_rejected(self):
        grid = place_native(empty_grid(), native("a", 0))
        with pytest.raises(SpectrumError, match="already present"):
            place_native(grid, native("a", 4))

    def test_native_kept_out_of_partition(self):
        grid = carve_dedicated_partition(empty_grid(), 10, 10)
        with pytest.raises(SpectrumError, match="partition"):
            place_native(grid, native("n", 12))

    def test_superchannel_any_parity_start(self):
        grid = place_superchannel(empty_grid(), superchannel("aw", 13))
        assert next(sc for sc in grid.superchannels if sc.id == "aw").start_slot == 13

    def test_superchannel_width_must_match_band(self):
        sc = SuperChannel(id="aw", start_slot=0, width_slots=6)
        with pytest.raises(SpectrumError, match="width"):
            place_superchannel(empty_grid(), sc)

    def test_superchannel_may_not_straddle_partition(self):
        grid = carve_dedicated_partition(empty_grid(), 10, 10)
        with pytest.raises(SpectrumError, match="straddle"):
            place_superchannel(grid, superchannel("aw", 6))

    def test_superchannel_may_not_straddle_abutting_partitions(self):
        # together the two partitions cover [4, 12), but neither holds it
        grid = carve_dedicated_partition(empty_grid(), 0, 8)
        grid = carve_dedicated_partition(grid, 8, 8)
        with pytest.raises(SpectrumError, match="straddle"):
            place_superchannel(grid, superchannel("aw", 4))

    def test_superchannel_fits_fully_inside_partition(self):
        grid = carve_dedicated_partition(empty_grid(), 10, 10)
        grid = place_superchannel(grid, superchannel("aw", 11))
        assert next(sc for sc in grid.superchannels if sc.id == "aw").start_slot == 11

    def test_placement_is_persistent_style(self):
        base = empty_grid()
        place_native(base, native("n", 0))
        assert base.natives == ()


class TestCarvePartition:
    def test_region_must_be_native_free(self):
        grid = place_native(empty_grid(), native("n", 12))
        with pytest.raises(SpectrumError, match="native"):
            carve_dedicated_partition(grid, 10, 10)

    def test_existing_superchannel_is_absorbed(self):
        grid = place_superchannel(empty_grid(), superchannel("aw", 11))
        grid = carve_dedicated_partition(grid, 10, 10)
        assert any(p.start_slot <= 11 and 19 <= p.end_slot for p in grid.partitions)

    def test_region_may_not_cut_a_superchannel(self):
        grid = place_superchannel(empty_grid(), superchannel("aw", 3))
        for start, width in ((0, 8), (4, 10)):
            with pytest.raises(SpectrumError, match=r"would cut super-channel 'aw' at \[3, 11\)"):
                carve_dedicated_partition(grid, start, width)

    def test_partitions_may_not_overlap(self):
        grid = carve_dedicated_partition(empty_grid(), 10, 10)
        with pytest.raises(SpectrumError, match="overlaps"):
            carve_dedicated_partition(grid, 18, 4)

    def test_alignment_enforced(self):
        with pytest.raises(SpectrumError, match=r"^partition boundaries must align to the 50GHz grid, got \[1, 9\)$"):
            carve_dedicated_partition(empty_grid(), 1, 8)


class TestOccupantMap:
    def test_conflicting_grid_raises(self):
        grid = SpectrumGrid(
            natives=(native("a", 0),),
            superchannels=(SuperChannel(id="b", start_slot=1),),
        )
        with pytest.raises(SpectrumError, match="owned by both"):
            grid.occupant_map()

    def test_natives_sharing_a_slot_raise(self):
        grid = SpectrumGrid(natives=(native("a", 4), native("b", 4)))
        with pytest.raises(SpectrumError, match="^slot 4 owned by both 'a' and 'b'$"):
            grid.occupant_map()

    @pytest.mark.parametrize(
        "call",
        [
            lambda grid: place_native(grid, native("c", 40)),
            lambda grid: place_superchannel(grid, superchannel("c", 40)),
            lambda grid: first_fit_allocate(grid, [PlacementRequest(kind=OccupantKind.NATIVE, id="c")]),
            lambda grid: grid_context_for(grid, guard_band_slots=2),
            lambda grid: carve_dedicated_partition(grid, 40, 8),
        ],
        ids=["place_native", "place_superchannel", "first_fit_allocate", "grid_context_for", "carve"],
    )
    def test_conflicting_grid_fails_occupancy_calls(self, call):
        grid = SpectrumGrid(
            natives=(native("a", 0),),
            superchannels=(SuperChannel(id="b", start_slot=1),),
        )
        with pytest.raises(SpectrumError, match="^'b' would overlap 'a' at slot 1$"):
            call(grid)

    def test_out_of_band_occupant_named(self):
        grid = SpectrumGrid(natives=(NativeChannel("a", -2),))
        with pytest.raises(SpectrumError, match=r"^native 'a': slots \[-2, 0\) fall outside the 160-slot band$"):
            place_native(grid, NativeChannel("b", 4))

    @pytest.mark.parametrize(
        "grid",
        [
            SpectrumGrid(superchannels=(SuperChannel(id="s", start_slot=156),)),
            SpectrumGrid(natives=(native("a", 4),), superchannels=(SuperChannel(id="s", start_slot=-1),)),
        ],
        ids=["past_band_end", "negative_start"],
    )
    def test_out_of_band_superchannel_fails_occupancy_calls(self, grid):
        for call in (
            lambda: grid_context_for(grid, guard_band_slots=2),
            lambda: first_fit_allocate(grid, [PlacementRequest(kind=OccupantKind.NATIVE, id="c")]),
            lambda: neighbor_context(grid, "s", 2),
        ):
            with pytest.raises(SpectrumError, match="^super-channel 's': slots .* fall outside the 160-slot band$"):
                call()

    def test_out_of_band_partition_rejected(self):
        grid = SpectrumGrid(partitions=(DedicatedPartition(start_slot=-2, width_slots=4),))
        with pytest.raises(SpectrumError, match=r"^partition \[-2, 2\) falls outside the 160-slot band$"):
            place_native(grid, native("b", 4))

    def test_map_covers_all_occupied_slots(self, busy_grid):
        owners = busy_grid.occupant_map()
        assert owners[8] == (OccupantKind.NATIVE, "N1")
        assert len(owners) == 6 * 2

    def test_from_dict_replays_invariants(self, busy_grid):
        data = busy_grid.to_dict()
        assert SpectrumGrid.from_dict(data) == busy_grid
        data["natives"].append(native("N9", 8).to_dict())
        with pytest.raises(SchemaError, match="overlap"):
            SpectrumGrid.from_dict(data)


class TestNeighborContext:
    def test_chain_with_guard_gap_counts_guarded(self):
        grid = place_native(empty_grid(), native("a", 10))
        grid = place_native(grid, native("b", 12))
        grid = place_superchannel(grid, superchannel("aw", 16))
        ctx = neighbor_context(grid, "aw", guard_band_slots=2)
        assert ctx == NeighborConfig(guarded_native_count=2, unguarded_native_count=0)

    def test_abutting_chain_counts_unguarded(self):
        grid = empty_grid()
        for i, start in enumerate(range(8, 18, 2)):
            grid = place_native(grid, native(f"n{i}", start))
        grid = place_superchannel(grid, superchannel("aw", 18))
        ctx = neighbor_context(grid, "aw", guard_band_slots=2)
        assert ctx == NeighborConfig(guarded_native_count=0, unguarded_native_count=5)

    def test_both_sides_are_combined(self):
        grid = place_native(empty_grid(), native("left", 8))
        grid = place_native(grid, native("right", 20))
        grid = place_superchannel(grid, superchannel("aw", 12))
        ctx = neighbor_context(grid, "aw", guard_band_slots=2)
        # left native has 2 free slots, right native abuts the block
        assert ctx.guarded_native_count == 1
        assert ctx.unguarded_native_count == 1

    def test_scan_stops_at_other_superchannel(self):
        grid = place_native(empty_grid(), native("hidden", 0))
        grid = place_superchannel(grid, superchannel("wall", 4))
        grid = place_superchannel(grid, superchannel("aw", 14))
        ctx = neighbor_context(grid, "aw", guard_band_slots=2)
        assert ctx == NeighborConfig()

    def test_a_block_that_shares_the_id_is_refused(self):
        grid = place_superchannel(empty_grid(BandConfig(slot_count=32)), superchannel("aw", 0))
        grid = replace(grid, superchannels=grid.superchannels + (superchannel("aw", 10),))
        with pytest.raises(SpectrumError, match="^occupant id 'aw' already present in grid$"):
            neighbor_context(grid, "aw", guard_band_slots=2)

    def test_beyond_chain_native_inside_guard_window_counts(self):
        # "far" does not abut "near", but its own gap still sits inside a
        # wide guard window, so it is counted as unguarded too
        grid = place_native(empty_grid(), native("far", 12))
        grid = place_native(grid, native("near", 16))
        grid = place_superchannel(grid, superchannel("aw", 20))
        ctx = neighbor_context(grid, "aw", guard_band_slots=7)
        assert ctx == NeighborConfig(guarded_native_count=0, unguarded_native_count=2)

    def test_partition_member_reports_dedicated(self):
        grid = carve_dedicated_partition(empty_grid(), 10, 10)
        grid = place_superchannel(grid, superchannel("aw", 11))
        grid = place_native(grid, native("n", 20))
        ctx = neighbor_context(grid, "aw", guard_band_slots=2)
        assert ctx == NeighborConfig(in_dedicated_partition=True)

    def test_block_in_the_second_of_abutting_partitions_reports_dedicated(self):
        grid = carve_dedicated_partition(empty_grid(BandConfig(slot_count=32)), 0, 8)
        grid = carve_dedicated_partition(grid, 8, 8)
        grid = place_superchannel(grid, superchannel("aw", 8))
        grid = place_native(grid, native("n", 16))
        assert neighbor_context(grid, "aw", guard_band_slots=2) == NeighborConfig(in_dedicated_partition=True)

    def test_block_just_outside_a_partition_reports_its_natives(self):
        # the block abuts the partition [0, 8), so it meets none of its slots
        grid = carve_dedicated_partition(empty_grid(BandConfig(slot_count=32)), 0, 8)
        grid = place_superchannel(grid, superchannel("aw", 8))
        grid = place_native(grid, native("near", 16))
        grid = place_native(grid, native("far", 22))
        expected = NeighborConfig(guarded_native_count=0, unguarded_native_count=1)
        assert neighbor_context(grid, "aw", guard_band_slots=2) == expected
        assert slot_oracle.neighbor_context(grid, "aw", 2) == expected

    def test_unknown_superchannel_rejected(self, busy_grid):
        with pytest.raises(SpectrumError, match="unknown"):
            neighbor_context(busy_grid, "ghost", guard_band_slots=2)

    def test_negative_guard_rejected(self, busy_grid):
        with pytest.raises(SpectrumError, match="guard_band_slots"):
            neighbor_context(busy_grid, "N1", guard_band_slots=-1)

    def test_busy_grid_probe(self, busy_grid):
        request = PlacementRequest(kind=OccupantKind.SUPERCHANNEL, id="probe", guard_band_slots=2)
        result = first_fit_allocate(busy_grid, [request])
        assert result.assignments[0].start_slot == 20
        ctx = neighbor_context(result.grid, "probe", guard_band_slots=2)
        assert ctx == NeighborConfig(guarded_native_count=6, unguarded_native_count=0)

    @settings(max_examples=200, deadline=None)
    @given(grid=slot_oracle.random_grids(), guard=st.integers(0, 5))
    def test_matches_slot_array_walk(self, grid, guard):
        for sc in grid.superchannels:
            expected = slot_oracle.neighbor_context(grid, sc.id, guard)
            assert neighbor_context(grid, sc.id, guard) == expected


class TestGuardBound:
    """A guard band wider than any band is refused before a mask is shifted
    by it; each value here is refused."""

    TOO_WIDE = [MAX_SLOT_COUNT + 1, 10**7, 10**12]

    @pytest.mark.parametrize("guard", TOO_WIDE)
    def test_request_and_policy_reject(self, guard):
        message = rf"^guard_band_slots must be at most 1024, got {guard}$"
        with pytest.raises(ValueError, match=message):
            PlacementRequest(kind=OccupantKind.SUPERCHANNEL, id="aw", guard_band_slots=guard)
        with pytest.raises(ValueError, match=message):
            PlannerPolicy(guard_band_slots=guard)

    @pytest.mark.parametrize("guard", [2.0, 1.0, True, "2"])
    def test_a_guard_that_is_not_an_int_is_refused(self, busy_grid, guard):
        message = rf"^guard_band_slots must be an integer, got {guard!r}$"
        with pytest.raises(ValueError, match=message):
            PlacementRequest(kind=OccupantKind.SUPERCHANNEL, id="aw", guard_band_slots=guard)
        with pytest.raises(ValueError, match=message):
            PlannerPolicy(guard_band_slots=guard)
        for call in (
            lambda: spectrum.blocked_starts(busy_grid.native_mask, 8, guard),
            lambda: spectrum.window_neighbors(busy_grid, 60, 68, guard, 0),
            lambda: grid_context_for(busy_grid, guard),
        ):
            with pytest.raises(SpectrumError, match=message):
                call()

    @pytest.mark.parametrize("guard", TOO_WIDE)
    def test_mask_calls_reject(self, busy_grid, guard):
        grid = place_superchannel(busy_grid, superchannel("aw", 60))
        for call in (
            lambda: spectrum.blocked_starts(grid.native_mask, 8, guard),
            lambda: spectrum.window_neighbors(grid, 60, 68, guard, 0),
            lambda: neighbor_context(grid, "aw", guard),
            lambda: grid_context_for(grid, guard),
        ):
            with pytest.raises(SpectrumError, match=rf"^guard_band_slots must be at most 1024, got {guard}$"):
                call()


class TestFreeStart:
    """The one window search against the slot-by-slot walk of the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(grid=slot_oracle.random_grids(), data=st.data())
    def test_matches_the_slot_walk(self, grid, data):
        working = spectrum.WorkingGrid.of(grid)
        count, block = grid.band.slot_count, grid.band.superchannel_width_slots
        blocks = grid.occupied_mask & ~grid.native_mask
        windows = data.draw(st.integers(0, (1 << count) - 1), label="windows")
        width = data.draw(st.sampled_from([2, 8, spectrum.carve_width(block)]), label="width")
        guard = data.draw(st.integers(0, 4), label="guard")
        # the masks the search is asked to keep clear of: none, the natives,
        # the blocks, and the partitions (the carve search)
        kept_from = data.draw(st.sampled_from([0, grid.native_mask, blocks, grid.partition_mask]), label="kept_from")
        expected = slot_oracle.free_start(grid.occupied_mask, windows, width, guard, kept_from)
        assert working.free_start(windows, width, guard, kept_from) == expected


# (is_native, guard, partition_only, id) per request: ids that random_grids
# may already hold, and fresh ones
_BATCHES = st.lists(
    st.tuples(st.booleans(), st.integers(0, 4), st.booleans(), st.sampled_from(["n0", "s1", "r0", "r1"])),
    max_size=8,
)


class TestFirstFit:
    def test_trial_requests_oracle(self, busy_grid, fixture_dir):
        raw = json.loads((fixture_dir / "trial.requests.json").read_text())
        requests = [PlacementRequest.from_dict(item) for item in raw]
        result = first_fit_allocate(busy_grid, requests)
        starts = {a.request.id: a.start_slot for a in result.assignments}
        assert starts == {"n-100": 0, "aw-1": 20, "aw-2": 28}
        result.grid.occupant_map()  # no conflicts

    def test_straddling_starts_are_skipped(self):
        # [8, 16) is free and inside the partition mask, but crosses the
        # boundary between two abutting partitions
        grid = carve_dedicated_partition(empty_grid(), 0, 12)
        grid = carve_dedicated_partition(grid, 12, 12)
        grid = place_superchannel(grid, superchannel("a", 0))
        for partition_only in (False, True):
            request = PlacementRequest(kind=OccupantKind.SUPERCHANNEL, id="b", partition_only=partition_only)
            assert first_fit_allocate(grid, [request]).assignments[0].start_slot == 12

    def test_native_starts_stay_even(self):
        grid = place_native(empty_grid(), native("a", 0))
        result = first_fit_allocate(
            grid, [PlacementRequest(kind=OccupantKind.NATIVE, id="b")]
        )
        assert result.assignments[0].start_slot == 2

    def test_superchannel_may_start_odd(self):
        grid = place_superchannel(empty_grid(), superchannel("x", 3))
        result = first_fit_allocate(
            grid, [PlacementRequest(kind=OccupantKind.SUPERCHANNEL, id="y")]
        )
        assert result.assignments[0].start_slot == 11

    def test_unplaced_request_reported_not_fatal(self):
        band = BandConfig(slot_count=8)
        grid = place_superchannel(empty_grid(band), superchannel("aw", 0))
        result = first_fit_allocate(
            grid, [PlacementRequest(kind=OccupantKind.SUPERCHANNEL, id="more")]
        )
        assignment = result.assignments[0]
        assert not assignment.placed
        assert assignment.start_slot is None
        assert assignment.reason == "no feasible window"
        assert result.grid == grid

    def test_partition_only_superchannel(self):
        grid = carve_dedicated_partition(empty_grid(), 20, 10)
        request = PlacementRequest(
            kind=OccupantKind.SUPERCHANNEL, id="aw", partition_only=True
        )
        result = first_fit_allocate(grid, [request])
        assert result.assignments[0].start_slot == 20

    def test_partition_only_native_never_fits(self):
        grid = carve_dedicated_partition(empty_grid(), 20, 10)
        request = PlacementRequest(kind=OccupantKind.NATIVE, id="n", partition_only=True)
        result = first_fit_allocate(grid, [request])
        assert not result.assignments[0].placed

    def test_requests_processed_in_order(self):
        requests = [
            PlacementRequest(kind=OccupantKind.NATIVE, id="a"),
            PlacementRequest(kind=OccupantKind.NATIVE, id="b"),
        ]
        result = first_fit_allocate(empty_grid(), requests)
        assert [a.start_slot for a in result.assignments] == [0, 2]

    @given(
        st.lists(
            st.tuples(st.sampled_from(["native", "superchannel"]), st.integers(0, 3)),
            max_size=8,
        )
    )
    def test_result_grid_never_conflicts(self, shapes):
        requests = [
            PlacementRequest(kind=OccupantKind(kind), id=f"r{i}", guard_band_slots=guard)
            for i, (kind, guard) in enumerate(shapes)
        ]
        result = first_fit_allocate(empty_grid(BandConfig(slot_count=32)), requests)
        owners = result.grid.occupant_map()
        placed = [a for a in result.assignments if a.placed]
        assert len(owners) == sum(
            2 if a.request.kind is OccupantKind.NATIVE else 8 for a in placed
        )

    @settings(max_examples=300, deadline=None)
    @given(
        grid=slot_oracle.random_grids(),
        shapes=_BATCHES,
    )
    def test_matches_slot_by_slot_first_fit(self, grid, shapes):
        requests = _requests(shapes)
        result = first_fit_allocate(grid, requests)
        assert [a.start_slot for a in result.assignments] == slot_oracle.first_fit(grid, requests)

    @settings(max_examples=300, deadline=None)
    @given(grid=slot_oracle.random_grids(), shapes=_BATCHES)
    def test_result_grid_matches_a_replay(self, grid, shapes):
        result = first_fit_allocate(grid, _requests(shapes))
        replayed = grid
        for a in result.assignments:
            request, start = a.request, a.start_slot
            if start is None:
                continue
            if request.kind is OccupantKind.NATIVE:
                replayed = place_native(replayed, NativeChannel(request.id, start, request.bitrate_gbps))
            else:
                width = grid.band.superchannel_width_slots
                replayed = place_superchannel(replayed, SuperChannel(request.id, start, width))
        assert result.grid == replayed
        assert _state(result.grid) == _state(_rebuilt(result.grid))
        if not any(a.placed for a in result.assignments):
            assert result.grid is grid
        assert first_fit_allocate(grid, []).grid is grid

    def test_placed_id_does_not_mark_its_shape_failed(self):
        grid = place_native(empty_grid(), native("a", 0))
        requests = [PlacementRequest(kind=OccupantKind.NATIVE, id=i) for i in ("a", "b")]
        assert [a.start_slot for a in first_fit_allocate(grid, requests).assignments] == [None, 2]

    @settings(max_examples=300, deadline=None)
    @given(
        grid=slot_oracle.random_grids(),
        shapes=st.lists(
            # few shapes and ids, so shapes repeat and ids are reused, both
            # ids the grid holds and ids placed earlier in the batch
            st.tuples(
                st.booleans(), st.sampled_from([0, 2]), st.booleans(),
                st.sampled_from(["n0", "s1", "r0", "r1", "r2", "r3"]),
            ),
            max_size=16,
        ),
    )
    def test_failed_shape_is_not_searched_again(self, grid, shapes):
        requests = _requests(shapes)
        searched = []
        search = spectrum._first_fit_start

        def recorded(grid, request):
            start = search(grid, request)
            searched.append(((request.kind, request.guard_band_slots, request.partition_only), start))
            return start

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectrum, "_first_fit_start", recorded)
            result = first_fit_allocate(grid, requests)
        expected_starts = slot_oracle.first_fit(grid, requests)
        assert [a.start_slot for a in result.assignments] == expected_starts
        failed = set()
        for shape, start in searched:
            assert shape not in failed
            if start is None:
                failed.add(shape)
        # every request with a fresh id and a shape not yet failed is searched,
        # counted from the oracle's starts: a first fit that bypassed the
        # search would record none
        ids = {n.id for n in grid.natives} | {sc.id for sc in grid.superchannels}
        failed_shapes, fresh = set(), 0
        for request, start in zip(requests, expected_starts):
            shape = (request.kind, request.guard_band_slots, request.partition_only)
            if request.id in ids or shape in failed_shapes:
                continue
            fresh += 1
            if start is None:
                failed_shapes.add(shape)
            else:
                ids.add(request.id)
        assert len(searched) == fresh


def _requests(shapes) -> list[PlacementRequest]:
    """One request per (is_native, guard, partition_only, id) tuple."""
    return [
        PlacementRequest(
            kind=OccupantKind.NATIVE if is_native else OccupantKind.SUPERCHANNEL,
            id=request_id,
            guard_band_slots=guard,
            partition_only=partition_only,
        )
        for is_native, guard, partition_only, request_id in shapes
    ]


def _rebuilt(grid: SpectrumGrid) -> SpectrumGrid:
    """The same grid built directly, so its masks and id set are computed afresh."""
    return SpectrumGrid(grid.band, grid.natives, grid.superchannels, grid.partitions)


# the values a grid's occupancy is held in, in _state's order
_SEEDED = ("native_mask", "occupied_mask", "partition_mask", "_occupant_ids")


def _state(grid: SpectrumGrid) -> tuple:
    return grid.native_mask, grid.occupied_mask, grid.partition_mask, grid.occupant_ids()


_IDS = st.sampled_from(["a", "b", "c", "d", "e", "f"])  # few ids, so some repeat
_STEPS = st.one_of(
    st.tuples(st.just("carve"), st.integers(-1, 24), st.integers(0, 6)),
    st.tuples(st.just("native"), st.integers(-1, 24), _IDS),
    st.tuples(st.just("superchannel"), st.integers(-1, 48), _IDS),
    st.tuples(
        st.just("first_fit"),
        st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.booleans(), _IDS), max_size=6),
    ),
    st.tuples(st.just("replay")),
)


def _step(grid: SpectrumGrid, step: tuple) -> SpectrumGrid:
    kind = step[0]
    if kind == "carve":
        return carve_dedicated_partition(grid, 2 * step[1], 2 * step[2])
    if kind == "native":
        return place_native(grid, native(step[2], 2 * step[1]))
    width = grid.band.superchannel_width_slots
    if kind == "superchannel":
        return place_superchannel(grid, SuperChannel(id=step[2], start_slot=step[1], width_slots=width))
    if kind == "first_fit":
        return first_fit_allocate(grid, _requests(step[1])).grid
    return SpectrumGrid.from_dict(grid.to_dict())


class TestSeededState:
    """A placement's grid takes its masks and id set from its parent's plus
    the one addition, and a grid built any other way from the replay of its
    placements; they must equal the slot oracle's."""

    @settings(max_examples=300, deadline=None)
    @given(width=st.integers(1, 11), steps=st.lists(_STEPS, max_size=20))
    def test_seeded_state_matches_a_rebuild(self, width, steps):
        grid = empty_grid(BandConfig(slot_count=48, superchannel_width_slots=width))
        for step in steps:
            try:
                grid = _step(grid, step)
            except SpectrumError:
                pass  # a rejected step leaves the grid as it was
            assert _state(grid) == slot_oracle.state_masks(*slot_oracle.slot_state(grid))

    @settings(max_examples=100, deadline=None)
    @given(grid=slot_oracle.random_grids(), first=st.sampled_from(_SEEDED))
    def test_any_value_read_first_seeds_them_all(self, grid, first):
        fresh = _rebuilt(grid)
        expected = slot_oracle.state_masks(*slot_oracle.slot_state(grid))
        assert getattr(fresh, first) == expected[_SEEDED.index(first)]
        assert all(name in vars(fresh) for name in _SEEDED)
        assert _state(fresh) == expected

    def test_a_load_replays_once(self, monkeypatch):
        replays = []
        empty = spectrum.WorkingGrid.empty

        def counted(band):
            replays.append(band)
            return empty(band)

        monkeypatch.setattr(spectrum.WorkingGrid, "empty", counted)

        def document(natives: int) -> dict:
            return SpectrumGrid(natives=tuple(native(f"n{i}", 2 * i) for i in range(natives))).to_dict()

        for natives in (1, 10, 40, 80):
            doc = document(natives)
            replays.clear()
            grid = SpectrumGrid.from_dict(doc)
            _state(grid)
            assert len(replays) == 1, natives

        # first fit on a loaded grid places every request without a replay
        grid = SpectrumGrid.from_dict(document(40))
        replays.clear()
        requests = [PlacementRequest(kind=OccupantKind.NATIVE, id=f"r{i}") for i in range(30)]
        result = first_fit_allocate(grid, requests)
        assert all(a.placed for a in result.assignments)
        _state(result.grid)
        assert replays == []


def _valid_grid(draw) -> SpectrumGrid:
    """A valid grid over a random band, built by placements."""
    slot_count = draw(st.integers(1, 24)) * 2
    width = draw(st.integers(1, min(11, slot_count)))
    grid = empty_grid(BandConfig(slot_count=slot_count, superchannel_width_slots=width))
    for start, size in draw(st.lists(st.tuples(st.integers(0, slot_count // 2), st.integers(1, 6)), max_size=3)):
        try:
            grid = carve_dedicated_partition(grid, 2 * start, 2 * size)
        except SpectrumError:
            pass
    placements = draw(st.lists(st.tuples(st.booleans(), st.integers(0, slot_count - 1)), min_size=2, max_size=16))
    for i, (is_native, start) in enumerate(placements):
        try:
            if is_native:
                grid = place_native(grid, native(f"n{i}", start - start % 2))
            else:
                grid = place_superchannel(grid, SuperChannel(id=f"s{i}", start_slot=start, width_slots=width))
        except SpectrumError:
            pass
    return grid


_FAULTS = (
    "misaligned", "native out of band", "block out of band", "partition out of band", "overlap",
    "native in partition", "straddle", "wrong width", "duplicate id", "overlapping partitions",
)


def _add_fault(draw, grid: SpectrumGrid, doc: dict, fault: str) -> None:
    """Break one placement rule of *doc*, the document of *grid*, in place;
    a few draws may leave it valid."""
    count, width = doc["band"]["slot_count"], doc["band"]["superchannel_width_slots"]
    natives, blocks, partitions = doc["natives"], doc["superchannels"], doc["partitions"]
    fresh = f"x{len(natives)}-{len(blocks)}-{len(partitions)}"
    block = SuperChannel(id=fresh, start_slot=0, width_slots=width).to_dict()
    # far starts, even ones for natives and partitions: no mask may be built at them
    far = draw(st.sampled_from([-2**62, 2**62, -2, count]))
    if fault == "misaligned":
        natives.append({"id": fresh, "start_slot": 2 * draw(st.integers(0, count // 2 - 1)) + 1})
    elif fault == "native out of band":
        natives.append({"id": fresh, "start_slot": draw(st.sampled_from([far, -1, count - 1]))})
    elif fault == "block out of band":
        blocks.append(dict(block, start_slot=draw(st.sampled_from([far, -1, count - width + 1]))))
    elif fault == "partition out of band":
        partitions.append({"start_slot": draw(st.sampled_from([far, count - 2])), "width_slots": 4})
    elif fault == "overlap":
        taken = [item["start_slot"] for item in natives + blocks]
        start = draw(st.sampled_from(taken)) if taken else 0
        if draw(st.booleans()) or start > count - width:
            natives.append({"id": fresh, "start_slot": start - start % 2})
        else:
            blocks.append(dict(block, start_slot=start))
    elif fault == "native in partition":
        if partitions:
            natives.append({"id": fresh, "start_slot": draw(st.sampled_from(partitions))["start_slot"]})
        elif natives:
            partitions.append({"start_slot": draw(st.sampled_from(natives))["start_slot"], "width_slots": 2})
    elif fault == "straddle":  # at a window of free slots, so nothing but the straddle is wrong
        owners, reserved = slot_oracle.slot_owners(grid), slot_oracle.partition_slots(grid)
        starts = [
            start for start in range(count - width + 1)
            if all(owners[slot] is None for slot in range(start, start + width))
            and any(reserved[slot] for slot in range(start, start + width))
            and not any(p.start_slot <= start and start + width <= p.end_slot for p in grid.partitions)
        ]
        if starts:
            blocks.append(dict(block, start_slot=draw(st.sampled_from(starts))))
    elif fault == "wrong width":
        wrong = draw(st.sampled_from([0, -3, width + 1, 2**62]))
        if blocks:
            draw(st.sampled_from(blocks))["width_slots"] = wrong
        else:
            blocks.append(dict(block, width_slots=wrong))
    elif fault == "duplicate id":  # within a kind or across kinds
        occupants = natives + blocks
        if len(occupants) >= 2:
            source, target = draw(st.permutations(occupants))[:2]
            target["id"] = source["id"]
    elif partitions:  # overlapping partitions
        partitions.append({"start_slot": draw(st.sampled_from(partitions))["start_slot"], "width_slots": 2})
    else:
        partitions.extend([{"start_slot": 0, "width_slots": 4}, {"start_slot": 2, "width_slots": 4}])


@st.composite
def grid_documents(draw) -> dict:
    """A grid document over a random band: valid, or about half the time
    with one to three placement faults."""
    grid = _valid_grid(draw)
    doc = grid.to_dict()
    if draw(st.booleans()):
        # mostly one fault, so that each rule is often the only one broken
        count = draw(st.sampled_from([1, 1, 2, 3]))
        for fault in draw(st.lists(st.sampled_from(_FAULTS), min_size=count, max_size=count)):
            _add_fault(draw, grid, doc, fault)
    return doc


def _outcome(load) -> tuple:
    try:
        grid = load()
    except Exception as err:  # the type and message are the outcome
        return type(err), str(err)
    return grid, _state(grid)


def _grid_doc(natives=(), blocks=(), partitions=()) -> dict:
    """A 48-slot grid document with 8-slot blocks; *natives* and *blocks*
    are (id, start) pairs, *partitions* (start, width) pairs."""
    return SpectrumGrid(
        band=BandConfig(slot_count=48),
        natives=tuple(native(*item) for item in natives),
        superchannels=tuple(SuperChannel(id=i, start_slot=start) for i, start in blocks),
        partitions=tuple(DedicatedPartition(*item) for item in partitions),
    ).to_dict()


# one fault each, next to occupants that break no rule
_SINGLE_FAULTS = {
    "misaligned": _grid_doc(natives=[("a", 0), ("b", 5)], blocks=[("s", 20)]),
    "native past the band": _grid_doc(natives=[("a", 0), ("b", 2**62)]),
    "native below the band": _grid_doc(natives=[("a", -2**62), ("b", 4)]),
    "block below the band": _grid_doc(natives=[("a", 0)], blocks=[("s", -2**62)]),
    "block past the band": _grid_doc(blocks=[("s", 41)]),
    "partition past the band": _grid_doc(natives=[("a", 0)], partitions=[(2**62, 4)]),
    "natives overlap": _grid_doc(natives=[("a", 4), ("b", 4)]),
    "blocks overlap": _grid_doc(blocks=[("s", 3), ("t", 10)]),
    "native under a block": _grid_doc(natives=[("a", 10)], blocks=[("s", 3)]),
    "native in a partition": _grid_doc(natives=[("a", 0), ("b", 20)], partitions=[(16, 16)]),
    "block straddles": _grid_doc(natives=[("a", 0)], blocks=[("s", 12)], partitions=[(16, 16)]),
    "block straddles abutting partitions": _grid_doc(blocks=[("s", 12)], partitions=[(8, 8), (16, 16)]),
    "wrong width": dict(
        _grid_doc(natives=[("a", 0)]),
        superchannels=[dict(SuperChannel(id="s", start_slot=8).to_dict(), width_slots=-3)],
    ),
    "native ids repeat": _grid_doc(natives=[("a", 0), ("a", 4)]),
    "block ids repeat": _grid_doc(blocks=[("s", 0), ("s", 20)]),
    "ids repeat across kinds": _grid_doc(natives=[("a", 0)], blocks=[("a", 20)]),
    "partitions overlap": _grid_doc(natives=[("a", 0)], partitions=[(8, 8), (12, 8)]),
}


def _assert_loads_like_the_replay(doc: dict) -> None:
    expected = _outcome(lambda: codec_oracle.read(SpectrumGrid, doc, "grid"))
    assert _outcome(lambda: SpectrumGrid.from_dict(doc)) == expected
    if isinstance(expected[0], SpectrumGrid):
        assert expected[1] == _state(_rebuilt(expected[0]))
        # a valid document's grid comes with its masks and id set seeded
        seeded = vars(SpectrumGrid.from_dict(doc))
        keys = ("native_mask", "occupied_mask", "partition_mask", "_occupant_ids")
        assert all(key in seeded for key in keys)
        assert tuple(seeded[key] for key in keys) == expected[1]


class TestOnePassLoad:
    """``from_dict`` checks every occupant at once on masks; the replay of
    the placements, one by one, is its oracle."""

    @settings(max_examples=400, deadline=None)
    @given(doc=grid_documents())
    def test_matches_the_replay(self, doc):
        _assert_loads_like_the_replay(doc)

    @pytest.mark.parametrize("fault", sorted(_SINGLE_FAULTS))
    def test_single_fault_matches_the_replay(self, fault):
        doc = _SINGLE_FAULTS[fault]
        with pytest.raises(SchemaError):
            SpectrumGrid.from_dict(doc)
        _assert_loads_like_the_replay(doc)

    def test_a_grid_nested_in_an_allocation_is_read_by_the_grid_from_dict(self, monkeypatch, busy_grid):
        # looked up at each call, so a wrapper put on SpectrumGrid.from_dict
        # (as the benchmark's tracer puts one) sees the nested grid too
        seen = []
        own = SpectrumGrid.from_dict

        def wrapped(data, path="grid"):
            seen.append(path)
            return own(data, path)

        result = AllocationResult(assignments=(), grid=busy_grid)
        monkeypatch.setattr(SpectrumGrid, "from_dict", wrapped)
        assert AllocationResult.from_dict(result.to_dict(), "doc") == result
        assert seen == ["doc.grid"]


def _records_of(doc: dict) -> SpectrumGrid:
    """The grid of *doc* built with the constructor from its records, so
    that no mask is read and no placement rule checked."""
    return SpectrumGrid(
        BandConfig.from_dict(doc["band"]),
        tuple(NativeChannel.from_dict(item) for item in doc["natives"]),
        tuple(SuperChannel.from_dict(item) for item in doc["superchannels"]),
        tuple(DedicatedPartition.from_dict(item) for item in doc["partitions"]),
    )


def _records_read(doc: dict) -> bool:
    try:
        _records_of(doc)
    except SchemaError:
        return False
    return True


_FRESH = [
    PlacementRequest(kind=OccupantKind.NATIVE, id="fresh-n"),
    PlacementRequest(kind=OccupantKind.SUPERCHANNEL, id="fresh-s"),
]
_DEDICATED_PLAN = PlanReport(
    demand=Demand(path=("A", "B"), required_capacity_gbps=100.0),
    chosen=PlanOption(
        strategy=Strategy.DEDICATED_PARTITION, pair_modulations=(Modulation.QPSK,) * 5, active_carriers=9,
        capacity_gbps=900.0, q=QEstimate(value_db=12.0, feasibility=Feasibility.OK), feasible=True,
    ),
    alternatives=(), warnings=(), rationale="", native_impact_db=0.0,
)


def _occupancy_calls(doc: dict, loaded: SpectrumGrid | None) -> dict:
    """Each public call that reads a grid's occupancy, by name, as a function
    of the grid. On a grid that loads, each start is one the slot oracle
    finds room at, where there is room."""
    native_start = block_start = carve_start = 0
    if loaded is not None:
        native_start, block_start = (start or 0 for start in slot_oracle.first_fit(loaded, _FRESH))
        _, _, dedicated_start, needs_carve = slot_oracle.grid_context(loaded, 0)
        carve_start = dedicated_start if needs_carve else 0
    width = doc["band"]["superchannel_width_slots"]
    calls = {
        "grid_context_for": lambda grid: grid_context_for(grid, guard_band_slots=2),
        "first_fit_allocate": lambda grid: first_fit_allocate(grid, _FRESH),
        "place_native": lambda grid: place_native(grid, native("fresh-n", native_start)),
        "place_superchannel": lambda grid: place_superchannel(
            grid, SuperChannel(id="fresh-s", start_slot=block_start, width_slots=width)
        ),
        "carve_dedicated_partition": lambda grid: carve_dedicated_partition(grid, carve_start, width + width % 2),
        "apply_plan": lambda grid: apply_plan(grid, _DEDICATED_PLAN),
    }
    if doc["superchannels"]:
        block = doc["superchannels"][0]["id"]
        calls["neighbor_context"] = lambda grid: neighbor_context(grid, block, guard_band_slots=2)
    return calls


def _returned(call) -> tuple:
    """What *call* returns, or the type and message of what it raises."""
    try:
        return ("returned", call())
    except AwplanError as err:
        return type(err), str(err)


def _assert_one_definition_of_valid(doc: dict) -> None:
    """A grid built with the constructor from *doc*'s records holds to the
    load's rules: each occupancy call raises the load's error, without its
    ``grid: `` prefix, or, when the document loads, does what it does on
    the loaded grid."""
    try:
        loaded, refusal = SpectrumGrid.from_dict(doc), None
    except SchemaError as err:
        loaded, refusal = None, str(err)
        assert refusal.startswith("grid: ")
    for name, call in _occupancy_calls(doc, loaded).items():
        grid = _records_of(doc)  # fresh each time, so each call makes the first read
        if loaded is None:
            assert _returned(lambda: call(grid)) == (SpectrumError, refusal.removeprefix("grid: ")), name
        else:
            assert _returned(lambda: call(grid)) == _returned(lambda: call(loaded)), name


class TestOneDefinitionOfValid:
    """Every grid gets its masks from the replay that loads a grid document,
    so a grid built with the constructor is refused where its document is."""

    @settings(max_examples=300, deadline=None)
    @given(doc=grid_documents().filter(_records_read))
    def test_a_built_grid_holds_to_the_load(self, doc):
        _assert_one_definition_of_valid(doc)

    @pytest.mark.parametrize("fault", sorted(fault for fault, doc in _SINGLE_FAULTS.items() if _records_read(doc)))
    def test_a_built_grid_with_one_fault_is_refused(self, fault):
        _assert_one_definition_of_valid(_SINGLE_FAULTS[fault])

    @pytest.mark.parametrize(
        "grid, refusal",
        [
            (SpectrumGrid(natives=(native("n", 4),), partitions=(DedicatedPartition(0, 8),)),
             "native 'n': placement inside dedicated partition [0, 8)"),
            (SpectrumGrid(natives=(native("n", 5),)),
             "native 'n': start_slot 5 is not aligned to the 50GHz native grid"),
            (SpectrumGrid(superchannels=(superchannel("s", 4),), partitions=(DedicatedPartition(0, 8),)),
             "super-channel 's': straddles the partition boundary at [0, 8)"),
            (SpectrumGrid(natives=(native("x", 0),), superchannels=(superchannel("x", 20),)),
             "occupant id 'x' already present in grid"),
            (SpectrumGrid(BandConfig(slot_count=8), superchannels=(SuperChannel(id="s", start_slot=0, width_slots=6),)),
             "super-channel 's': width 6 does not match the configured block width 8"),
            (SpectrumGrid(partitions=(DedicatedPartition(0, 8), DedicatedPartition(4, 8))),
             "partition [4, 12) overlaps existing partition [0, 8)"),
            (SpectrumGrid(natives=(native("a", 4), native("b", 4))), "'b' would overlap 'a' at slot 4"),
        ],
        ids=[
            "native_in_partition", "odd_native", "straddle", "shared_id", "wrong_width", "partitions_overlap",
            "double_booked",
        ],
    )
    def test_grids_the_library_used_to_plan_on_are_refused(self, grid, refusal):
        with pytest.raises(SchemaError) as loaded:
            SpectrumGrid.from_dict(grid.to_dict())
        assert str(loaded.value) == f"grid: {refusal}"
        for call in (
            lambda: grid_context_for(grid, guard_band_slots=2),
            lambda: first_fit_allocate(grid, _FRESH),
            lambda: place_native(grid, native("fresh-n", 40)),
        ):
            assert _returned(call) == (SpectrumError, refusal)


# ids that random_grids may hold ("n<i>", "s<i>"), and fresh ones
_PLACED_IDS = st.sampled_from(["n0", "n1", "s0", "s1", "x", "y"])


def _near_grid(data, low: int, high: int) -> int:
    """A start in [low, high], on the 50 GHz grid four times in five."""
    return 2 * data.draw(st.integers(low // 2, high // 2)) + data.draw(st.sampled_from([0, 0, 0, 0, 1]))


class TestPlacementRules:
    """The placement calls and the grid load against the slot-by-slot rules
    of ``slot_oracle.place`` and ``slot_oracle.carve``, which share no code
    with ``WorkingGrid``: the same message, or the same slots, ids and
    masks."""

    @settings(max_examples=300, deadline=None)
    @given(grid=slot_oracle.random_grids(), data=st.data())
    def test_placements_match_the_slot_rules(self, grid, data):
        band = grid.band
        count, width = band.slot_count, band.superchannel_width_slots
        state = slot_oracle.slot_state(grid)
        for _ in range(data.draw(st.integers(1, 8))):
            kind = data.draw(st.sampled_from(["native", "superchannel", "carve"]))
            if kind == "native":
                channel = native(data.draw(_PLACED_IDS), _near_grid(data, -4, count + 2))
                expected = slot_oracle.place(band, *state, channel)
                call = lambda grid: place_native(grid, channel)  # noqa: E731
            elif kind == "superchannel":
                size = data.draw(st.sampled_from([width, width, width, width + 1, max(width - 1, 1)]))
                sc = SuperChannel(data.draw(_PLACED_IDS), data.draw(st.integers(-2, count + 1)), width_slots=size)
                expected = slot_oracle.place(band, *state, sc)
                call = lambda grid: place_superchannel(grid, sc)  # noqa: E731
            else:
                start, size = _near_grid(data, -4, count + 2), _near_grid(data, -2, 14)
                expected = slot_oracle.carve(band, *state, start, size)
                call = lambda grid: carve_dedicated_partition(grid, start, size)  # noqa: E731
            try:
                placed = call(grid)
            except SpectrumError as err:
                assert str(err) == expected
                continue
            assert not isinstance(expected, str), expected
            grid, state = placed, expected
            assert slot_oracle.slot_state(grid) == state
            assert _state(grid) == slot_oracle.state_masks(*state)

    @pytest.mark.parametrize("width", [3, 8, 9])
    def test_every_start_beside_abutting_partitions(self, width):
        # [0, 8) and [8, 16) together cover [0, 16); a block must lie in one of them
        band = BandConfig(slot_count=32, superchannel_width_slots=width)
        grid = carve_dedicated_partition(carve_dedicated_partition(empty_grid(band), 0, 8), 8, 8)
        state = slot_oracle.slot_state(grid)
        for start in range(-1, band.slot_count - width + 2):
            sc = SuperChannel("aw", start, width_slots=width)
            expected = slot_oracle.place(band, *state, sc)
            try:
                placed = place_superchannel(grid, sc)
            except SpectrumError as err:
                assert str(err) == expected
                continue
            assert slot_oracle.slot_state(placed) == expected

    def test_a_carve_drops_the_search_starts(self):
        band = BandConfig(slot_count=32)
        working = spectrum.WorkingGrid.of(empty_grid(band))
        before = working.search_starts()
        working.carve((DedicatedPartition(8, 8),))
        assert working.starts is None
        after = spectrum.WorkingGrid.of(carve_dedicated_partition(empty_grid(band), 8, 8)).search_starts()
        assert working.search_starts() == after != before

    @settings(max_examples=300, deadline=None)
    @given(doc=grid_documents())
    # an id repeated within one load, which no single placement call can do
    @example(doc=_SINGLE_FAULTS["native ids repeat"])
    @example(doc=_SINGLE_FAULTS["block ids repeat"])
    @example(doc=_SINGLE_FAULTS["ids repeat across kinds"])
    def test_load_matches_the_slot_rules(self, doc):
        try:
            parsed = SpectrumGrid._read_fields(doc, "grid")
        except SchemaError as err:  # a record's own fault, before any placement
            with pytest.raises(SchemaError) as caught:
                SpectrumGrid.from_dict(doc)
            assert str(caught.value) == str(err)
            return
        expected = slot_oracle.load(parsed)
        if isinstance(expected, str):
            with pytest.raises(SchemaError) as caught:
                SpectrumGrid.from_dict(doc)
            assert str(caught.value) == f"grid: {expected}"
            return
        grid = SpectrumGrid.from_dict(doc)
        assert grid == parsed
        assert slot_oracle.slot_state(grid) == expected
        assert _state(grid) == slot_oracle.state_masks(*expected)


class TestPlacementRequest:
    def test_native_bitrate_checked_on_construction(self):
        with pytest.raises(ValueError, match=r"native bitrate must be one of \(10, 40\), got 25"):
            PlacementRequest(kind=OccupantKind.NATIVE, id="n", bitrate_gbps=25)

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            PlacementRequest(kind=OccupantKind.SUPERCHANNEL, id="")


class TestUniqueOccupantId:
    def test_fresh_stem_passes_through(self, busy_grid):
        assert unique_occupant_id(busy_grid, "aw") == "aw"

    def test_collision_appends_counter(self, busy_grid):
        assert unique_occupant_id(busy_grid, "N1") == "N1-2"
