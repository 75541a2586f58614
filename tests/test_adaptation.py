from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from awplan import (
    AdaptationError,
    EqualizationReport,
    EqualizationResult,
    PowerReading,
    VoaSetting,
    compute_voa_settings,
    equalization_report,
)


def reading(ref: str, dbm: float) -> PowerReading:
    return PowerReading(channel_ref=ref, power_dbm=dbm)


class TestPowerReading:
    def test_infinite_power_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            reading("c1", float("inf"))

    def test_empty_ref_rejected(self):
        with pytest.raises(ValueError, match="channel_ref"):
            reading("", 0.0)


class TestVoaSetting:
    def test_attenuator_cannot_amplify(self):
        with pytest.raises(ValueError, match="attenuation_db"):
            VoaSetting(channel_ref="c1", attenuation_db=-0.5)


class TestComputeVoaSettings:
    def test_levels_hot_channels_exactly(self):
        result = compute_voa_settings(
            [reading("c1", 3.0), reading("c2", 1.5), reading("c3", 0.0)], target_dbm=0.0
        )
        by_ref = {s.channel_ref: s.attenuation_db for s in result.settings}
        assert by_ref == {"c1": 3.0, "c2": 1.5, "c3": 0.0}
        assert result.max_residual_db == 0.0
        assert result.clipped_channels == ()

    def test_cold_channels_are_clipped_not_raised(self):
        result = compute_voa_settings(
            [reading("hot", 2.0), reading("cold", -1.5)], target_dbm=0.0
        )
        by_ref = {s.channel_ref: s.attenuation_db for s in result.settings}
        assert by_ref == {"hot": 2.0, "cold": 0.0}
        assert result.clipped_channels == ("cold",)
        assert result.max_residual_db == 1.5

    def test_residual_is_worst_case_over_channels(self):
        result = compute_voa_settings(
            [reading("a", -0.2), reading("b", -2.0)], target_dbm=0.0
        )
        assert result.max_residual_db == 2.0

    def test_empty_readings_rejected(self):
        with pytest.raises(AdaptationError, match="empty"):
            compute_voa_settings([], target_dbm=0.0)

    def test_non_finite_target_rejected(self):
        with pytest.raises(AdaptationError, match="target_dbm"):
            compute_voa_settings([reading("c1", 0.0)], target_dbm=float("nan"))

    def test_result_round_trips_through_dict(self):
        result = compute_voa_settings(
            [reading("c1", 3.0), reading("c2", -1.0)], target_dbm=0.0
        )
        assert EqualizationResult.from_dict(result.to_dict()) == result

    @given(
        powers=st.lists(
            st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=10,
        ),
        target=st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False),
    )
    def test_settings_never_amplify_and_level_or_clip(self, powers, target):
        readings = [reading(f"c{i}", p) for i, p in enumerate(powers)]
        result = compute_voa_settings(readings, target)
        for r, s in zip(readings, result.settings):
            assert s.attenuation_db >= 0.0
            leveled = r.power_dbm - s.attenuation_db
            assert leveled <= target + 1e-9
            clipped = r.channel_ref in result.clipped_channels
            assert clipped == (r.power_dbm < target)


def loop_voa_settings(readings, target_dbm):
    """The settings, residual and clipped ids of compute_voa_settings, one
    reading at a time, with the residual as a running maximum."""
    settings, clipped, max_residual = [], [], 0.0
    for r in readings:
        settings.append((r.channel_ref, max(0.0, r.power_dbm - target_dbm)))
        if r.power_dbm < target_dbm:
            clipped.append(r.channel_ref)
        max_residual = max(max_residual, target_dbm - r.power_dbm)
    return settings, max_residual, clipped


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def powers_and_target(draw):
    target = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-20.0, 20.0), _FINITE))
    # readings equal to the target, its negation and both zeros tie the comparisons
    power = st.one_of(st.sampled_from([target, -target, 0.0, -0.0]), st.floats(-30.0, 30.0), _FINITE)
    return draw(st.lists(power, min_size=1, max_size=8)), target


class TestVoaSettingsOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=powers_and_target())
    @example(case=([0.0, -0.0, 1.0], -0.0))
    @example(case=([-0.0, 0.0], 0.0))
    @example(case=([-1e308, 1e308], 1e308))
    def test_matches_the_reading_by_reading_loop(self, case):
        powers, target = case
        readings = [reading(f"c{i}", p) for i, p in enumerate(powers)]
        settings, residual, clipped = loop_voa_settings(readings, target)
        # a result holds only finite reals: the first attenuation, else the
        # residual, that overflows is refused
        overflow = [("attenuation_db", value) for _, value in settings] + [("max_residual_db", residual)]
        refused = next(((name, value) for name, value in overflow if not math.isfinite(value)), None)
        if refused is not None:
            with pytest.raises(ValueError) as raised:
                compute_voa_settings(readings, target)
            assert str(raised.value) == "{} must be finite, got {}".format(*refused)
            return
        result = compute_voa_settings(readings, target)
        # float.hex tells -0.0 from 0.0, so the values match bit for bit
        assert [(s.channel_ref, s.attenuation_db.hex()) for s in result.settings] == [
            (ref, value.hex()) for ref, value in settings
        ]
        assert result.max_residual_db.hex() == residual.hex()
        assert result.clipped_channels == tuple(clipped)


class TestEqualizationReport:
    def test_node_passes_inside_tolerance(self, busy_grid):
        results = {
            "BO1": compute_voa_settings([reading("N1", 2.0), reading("N2", 0.5)], 0.0)
        }
        report = equalization_report(busy_grid, results)
        assert report.all_passed
        assert report.nodes[0].node_id == "BO1"

    def test_residual_beyond_tolerance_fails_node(self, busy_grid):
        results = {
            "BO1": EqualizationResult(
                settings=(VoaSetting(channel_ref="N1", attenuation_db=0.0),),
                max_residual_db=1.7,
                clipped_channels=(),
            )
        }
        report = equalization_report(busy_grid, results, flatness_tolerance_db=1.0)
        assert not report.all_passed
        assert [n.node_id for n in report.nodes if not n.passed] == ["BO1"]

    def test_clipped_channel_fails_node_even_inside_tolerance(self, busy_grid):
        results = {
            "BO1": compute_voa_settings([reading("N1", -0.5)], target_dbm=0.0)
        }
        report = equalization_report(busy_grid, results, flatness_tolerance_db=1.0)
        assert report.nodes[0].max_residual_db <= 1.0
        assert not report.nodes[0].passed

    def test_unknown_channel_refs_surfaced_not_fatal(self, busy_grid):
        results = {
            "BO1": compute_voa_settings([reading("N1", 1.0), reading("ghost", 1.0)], 0.0)
        }
        report = equalization_report(busy_grid, results)
        node = report.nodes[0]
        assert node.unknown_channel_refs == ("ghost",)
        assert node.passed

    def test_nodes_reported_in_sorted_order(self, busy_grid):
        results = {
            name: compute_voa_settings([reading("N1", 0.5)], 0.0)
            for name in ("MI1", "BO1", "RM2")
        }
        report = equalization_report(busy_grid, results)
        assert [n.node_id for n in report.nodes] == ["BO1", "MI1", "RM2"]

    def test_nonpositive_tolerance_rejected(self, busy_grid):
        with pytest.raises(AdaptationError, match="flatness_tolerance_db"):
            equalization_report(busy_grid, {}, flatness_tolerance_db=0.0)

    def test_report_round_trips_through_dict(self, busy_grid):
        results = {
            "BO1": compute_voa_settings([reading("N1", 1.0), reading("ghost", -0.5)], 0.0)
        }
        report = equalization_report(busy_grid, results)
        assert EqualizationReport.from_dict(report.to_dict()) == report
