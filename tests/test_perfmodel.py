from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import awplan
from awplan.perfmodel import _least_squares

from awplan import (
    NATIVE_IMPACT_DB,
    CalibrationError,
    CalibrationPoint,
    Feasibility,
    Modulation,
    NeighborConfig,
    PathMetrics,
    QEstimate,
    QModel,
    SchemaError,
    Thresholds,
    calibrate,
    classify_q,
    estimate_q,
    neighbor_penalty,
)

CLEAN = NeighborConfig()
DEDICATED = NeighborConfig(in_dedicated_partition=True)


def _metrics(distance_km: float) -> PathMetrics:
    return PathMetrics(
        distance_km=distance_km,
        attenuation_db=0.0,
        ola_count=0,
        roadm_count=0,
        raman_span_count=0,
    )


def point(
    q_db: float,
    distance: float = 345.0,
    modulation: Modulation = Modulation.QPSK,
    neighbors: NeighborConfig = CLEAN,
) -> CalibrationPoint:
    return CalibrationPoint(
        distance_km=distance,
        modulation=modulation,
        neighbor_config=neighbors,
        measured_q_db=q_db,
    )


class TestThresholds:
    def test_defaults(self):
        t = Thresholds()
        assert t.hard_min_db == 6.5
        assert t.design_min_db == 8.5

    def test_hard_floor_must_stay_below_design_floor(self):
        with pytest.raises(ValueError, match="hard_min_db"):
            Thresholds(hard_min_db=9.0, design_min_db=8.5)

    @pytest.mark.parametrize("field", ["hard_min_db", "design_min_db"])
    def test_nan_floor_is_named(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got nan$"):
            Thresholds(**{field: float("nan")})

    # each infinity on its own would keep the floors ordered
    @pytest.mark.parametrize(
        "field, value", [("hard_min_db", float("-inf")), ("design_min_db", float("inf"))]
    )
    def test_infinite_floor_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            Thresholds(**{field: value})

    def test_round_trips_through_dict(self):
        t = Thresholds(hard_min_db=5.0, design_min_db=7.0)
        assert Thresholds.from_dict(t.to_dict()) == t


class TestClassifyQ:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (6.5, Feasibility.INFEASIBLE),
            (6.51, Feasibility.MARGINAL),
            (8.5, Feasibility.MARGINAL),
            (8.51, Feasibility.OK),
            (-1.0, Feasibility.INFEASIBLE),
            (20.0, Feasibility.OK),
        ],
    )
    def test_floor_boundaries(self, value, expected):
        assert classify_q(value) is expected

    def test_custom_thresholds(self):
        relaxed = Thresholds(hard_min_db=3.0, design_min_db=5.0)
        assert classify_q(4.0, relaxed) is Feasibility.MARGINAL
        assert classify_q(6.0, relaxed) is Feasibility.OK


class TestQEstimate:
    def test_dict_uses_class_key(self):
        estimate = QEstimate(value_db=9.0, feasibility=Feasibility.OK)
        data = estimate.to_dict()
        assert data == {"value_db": 9.0, "class": "Ok"}
        assert QEstimate.from_dict(data) == estimate

    def test_unknown_class_rejected(self):
        with pytest.raises(SchemaError, match="class"):
            QEstimate.from_dict({"value_db": 9.0, "class": "Great"})


class TestCalibrationPoint:
    def test_nonpositive_q_rejected(self):
        with pytest.raises(ValueError, match="measured_q_db"):
            point(0.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="distance_km"):
            point(10.0, distance=-1.0)

    def test_numbers_are_bounded(self):
        assert point(100.0, distance=40_000.0).distance_km == 40_000.0
        with pytest.raises(ValueError, match="^distance_km must be at most 40000, got 40000.5$"):
            point(10.0, distance=40_000.5)
        with pytest.raises(ValueError, match="^measured_q_db must be at most 100, got 100.5$"):
            point(100.5)

    def test_a_calibration_of_bounded_points_is_finite(self):
        # the largest numbers a point may hold do not overflow the solve
        far = 40_000.0
        points = [
            point(q - penalty, modulation=m, neighbors=n)
            for m, q in ((Modulation.BPSK, 100.0), (Modulation.QPSK, 90.0))
            for n, penalty in ((CLEAN, 0), (NeighborConfig(guarded_native_count=1), 1), (NeighborConfig(0, 1), 2))
        ] + [point(1e-9, distance=far, modulation=m) for m in Modulation]
        model = calibrate(points)
        assert all(math.isfinite(v) for v in model.slope_db_per_km.values())

    def test_round_trips_through_dict(self):
        p = point(13.77, neighbors=NeighborConfig(guarded_native_count=2))
        assert CalibrationPoint.from_dict(p.to_dict()) == p


class TestCalibrate:
    def test_solves_reference_table_exactly(self, model):
        q = Modulation.QPSK
        b = Modulation.BPSK
        assert model.l_ref_km == 345.0
        assert model.q_ref_db[q] == pytest.approx(13.77, abs=1e-9)
        assert model.p_guard_db[q] == pytest.approx(0.225, abs=1e-9)
        assert model.p_unguard_db[q] == pytest.approx(0.23, abs=1e-9)
        assert model.q_ref_db[b] == pytest.approx(16.37, abs=1e-9)
        assert model.p_guard_db[b] == pytest.approx(0.03, abs=1e-9)
        assert model.p_unguard_db[b] == pytest.approx(0.16 / 3, abs=1e-9)
        assert model.slope_db_per_km[q] == pytest.approx(2.33 / 786, abs=1e-12)
        assert model.roadm_penalty_db == 0.0

    def test_import_leaves_numpy_unloaded(self):
        src = str(Path(awplan.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = "import sys, awplan, awplan.cli; print('numpy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        assert result.stdout == "False\n"

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(3, 4).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.lists(st.integers(0, 5), min_size=2, max_size=2),
                    st.integers(-500, 800),
                    st.integers(0, 3000),
                ),
                min_size=n - 1,
                max_size=8,
            ).map(lambda rows: (n, rows))
        )
    )
    def test_least_squares_matches_exact_normal_equations(self, case):
        # calibration-shaped systems: q_ref, neighbor counts, distance offset
        n, raw = case
        rows = [[1.0, -float(g), -float(u), -float(d)][:n] for (g, u), d, _ in raw]
        rhs = [q / 100 for _, _, q in raw]
        expected, expected_rank = _exact_least_squares(rows, rhs)
        solution, rank = _least_squares(rows, rhs)
        assert rank == expected_rank
        if expected is not None:
            for got, want in zip(solution, expected):
                assert got == pytest.approx(float(want), rel=1e-9, abs=1e-9)

    def test_slope_inherited_by_modulation_without_distance_diversity(self, model):
        assert (
            model.slope_db_per_km[Modulation.BPSK]
            == model.slope_db_per_km[Modulation.QPSK]
        )

    def test_missing_baseline_point_named(self, calib_points):
        remaining = [
            p
            for p in calib_points
            if not (
                p.modulation is Modulation.QPSK
                and p.distance_km == 345.0
                and p.neighbor_config == CLEAN
            )
        ]
        with pytest.raises(CalibrationError, match="QPSK.*baseline"):
            calibrate(remaining)

    def test_missing_guarded_point_named(self, calib_points):
        remaining = [
            p
            for p in calib_points
            if not (
                p.modulation is Modulation.BPSK
                and p.neighbor_config.guarded_native_count > 0
            )
        ]
        with pytest.raises(CalibrationError, match="BPSK.*guarded"):
            calibrate(remaining)

    def test_missing_unguarded_point_named(self, calib_points):
        remaining = [
            p
            for p in calib_points
            if p.neighbor_config.unguarded_native_count == 0
            or p.modulation is not Modulation.QPSK
        ]
        with pytest.raises(CalibrationError, match="QPSK.*unguarded"):
            calibrate(remaining)

    @pytest.mark.parametrize("l_ref_km", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_reference_distance_named(self, calib_points, l_ref_km):
        with pytest.raises(CalibrationError, match=f"^l_ref_km must be finite, got {l_ref_km}$"):
            calibrate(calib_points, l_ref_km)

    def test_negative_reference_distance_named(self, calib_points):
        with pytest.raises(CalibrationError, match=r"^l_ref_km must be >= 0, got -1\.0$"):
            calibrate(calib_points, -1.0)
        # a point can lie at 0 km, so there the fit fails, not the flag
        with pytest.raises(CalibrationError, match=r"^BPSK: missing zero-neighbor baseline point at 0\.0 km$"):
            calibrate(calib_points, 0.0)

    def test_missing_long_distance_point_named(self, calib_points):
        remaining = [p for p in calib_points if p.distance_km == 345.0]
        with pytest.raises(CalibrationError, match="long-distance"):
            calibrate(remaining)

    def test_inconsistent_duplicates_rejected(self, calib_points):
        conflicting = calib_points + [point(13.0)]
        with pytest.raises(CalibrationError, match="inconsistent"):
            calibrate(conflicting)

    def test_duplicate_off_by_a_microdecibel_rejected(self, calib_points):
        with pytest.raises(CalibrationError, match="inconsistent"):
            calibrate(calib_points + [point(13.77 + 1e-6)])

    def test_consistent_duplicates_tolerated(self, calib_points, model):
        duplicated = calib_points + [point(13.77)]
        refit = calibrate(duplicated)
        for modulation in Modulation:
            assert refit.q_ref_db[modulation] == pytest.approx(
                model.q_ref_db[modulation], abs=1e-9
            )
            assert refit.p_guard_db[modulation] == pytest.approx(
                model.p_guard_db[modulation], abs=1e-9
            )

    def test_underdetermined_points_rejected(self):
        # the only neighbor point mixes guarded and unguarded, so the two
        # penalties cannot be separated
        points = [
            point(13.77),
            point(12.63, neighbors=NeighborConfig(2, 3)),
            point(11.44, distance=1131.0),
            point(16.37, modulation=Modulation.BPSK),
            point(16.31, modulation=Modulation.BPSK, neighbors=NeighborConfig(2, 0)),
            point(16.15, modulation=Modulation.BPSK, neighbors=NeighborConfig(2, 3)),
        ]
        with pytest.raises(CalibrationError, match="separate"):
            calibrate(points)

    def test_coherent_gain_ordering_enforced(self, calib_points):
        # shift all BPSK measurements below the QPSK baseline while keeping
        # the per-neighbor penalties intact
        lowered = [
            p
            if p.modulation is Modulation.QPSK
            else point(p.measured_q_db - 4.37, modulation=Modulation.BPSK, neighbors=p.neighbor_config)
            for p in calib_points
        ]
        with pytest.raises(CalibrationError, match="q_ref_db"):
            calibrate(lowered)

    def test_runs_well_under_a_second(self, calib_points):
        import time

        start = time.perf_counter()
        calibrate(calib_points)
        assert time.perf_counter() - start < 1.0


def _exact_least_squares(rows, rhs):
    """Oracle: the normal equations in exact rational arithmetic. Returns the
    rank and, when it is full, the unique least-squares solution."""
    a = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    n = len(a[0])
    m = [
        [sum(r[i] * r[j] for r in a) for j in range(n)] + [sum(r[i] * y for r, y in zip(a, b))]
        for i in range(n)
    ]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(n):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / m[rank][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
    if rank < n:
        return None, rank
    return [m[i][n] / m[i][i] for i in range(n)], rank


class TestEstimateQ:
    @pytest.mark.parametrize(
        "distance, neighbors, expected",
        [
            (277.0, CLEAN, 13.9716),
            (345.0, CLEAN, 13.77),
            (495.0, CLEAN, 13.3253),
            (813.0, CLEAN, 12.3827),
            (1131.0, DEDICATED, 11.44),
        ],
    )
    def test_reference_distances(self, model, clean_metrics, distance, neighbors, expected):
        estimate = estimate_q(model, clean_metrics(distance), Modulation.QPSK, neighbors)
        assert estimate.value_db == pytest.approx(expected, abs=5e-5)
        assert estimate.feasibility is Feasibility.OK

    def test_long_haul_becomes_marginal_then_infeasible(self, model, clean_metrics):
        marginal = estimate_q(model, clean_metrics(2500.0), Modulation.QPSK, DEDICATED)
        assert marginal.feasibility is Feasibility.MARGINAL
        assert marginal.value_db == pytest.approx(7.3818, abs=5e-5)
        dead = estimate_q(model, clean_metrics(5000.0), Modulation.QPSK, DEDICATED)
        assert dead.feasibility is Feasibility.INFEASIBLE
        assert dead.value_db < 0

    def test_neighbor_penalties_reproduce_measurements(self, model, clean_metrics):
        guarded = estimate_q(
            model,
            clean_metrics(345.0),
            Modulation.QPSK,
            NeighborConfig(guarded_native_count=2),
        )
        assert guarded.value_db == pytest.approx(13.32, abs=1e-9)
        mixed = estimate_q(
            model,
            clean_metrics(345.0),
            Modulation.BPSK,
            NeighborConfig(guarded_native_count=2, unguarded_native_count=3),
        )
        assert mixed.value_db == pytest.approx(16.15, abs=1e-9)

    def test_roadm_penalty_applies_per_traversal(self, model, clean_metrics):
        taxed = QModel(
            l_ref_km=model.l_ref_km,
            q_ref_db=model.q_ref_db,
            slope_db_per_km=model.slope_db_per_km,
            p_guard_db=model.p_guard_db,
            p_unguard_db=model.p_unguard_db,
            roadm_penalty_db=0.1,
        )
        base = estimate_q(taxed, clean_metrics(345.0), Modulation.QPSK, CLEAN)
        routed = estimate_q(taxed, clean_metrics(345.0, roadm_count=3), Modulation.QPSK, CLEAN)
        assert base.value_db - routed.value_db == pytest.approx(0.3, abs=1e-9)

    def test_custom_thresholds_change_classification(self, model, clean_metrics):
        strict = Thresholds(hard_min_db=6.5, design_min_db=14.0)
        estimate = estimate_q(
            model, clean_metrics(345.0), Modulation.QPSK, CLEAN, thresholds=strict
        )
        assert estimate.feasibility is Feasibility.MARGINAL

    @given(
        base_km=st.floats(0.0, 4000.0),
        extra_km=st.floats(1.0, 500.0),
        modulation=st.sampled_from(Modulation),
    )
    def test_strictly_decreasing_in_distance(self, model, base_km, extra_km, modulation):
        near = estimate_q(model, _metrics(base_km), modulation, CLEAN)
        far = estimate_q(model, _metrics(base_km + extra_km), modulation, CLEAN)
        assert far.value_db < near.value_db

    @given(
        guarded=st.integers(0, 6),
        unguarded=st.integers(0, 6),
        modulation=st.sampled_from(Modulation),
    )
    def test_non_increasing_in_neighbor_counts(self, model, guarded, unguarded, modulation):
        base = estimate_q(
            model, _metrics(500.0), modulation, NeighborConfig(guarded, unguarded)
        )
        more_guarded = estimate_q(
            model, _metrics(500.0), modulation, NeighborConfig(guarded + 1, unguarded)
        )
        more_unguarded = estimate_q(
            model, _metrics(500.0), modulation, NeighborConfig(guarded, unguarded + 1)
        )
        assert more_guarded.value_db <= base.value_db
        assert more_unguarded.value_db <= base.value_db

    @given(
        distance=st.floats(0.0, 4000.0),
        guarded=st.integers(0, 6),
        unguarded=st.integers(0, 6),
    )
    def test_bpsk_never_below_qpsk(self, model, distance, guarded, unguarded):
        neighbors = NeighborConfig(guarded, unguarded)
        bpsk = estimate_q(model, _metrics(distance), Modulation.BPSK, neighbors)
        qpsk = estimate_q(model, _metrics(distance), Modulation.QPSK, neighbors)
        assert bpsk.value_db >= qpsk.value_db


class TestNeighborPenalty:
    def test_dedicated_partition_has_no_penalty(self, model):
        busy = NeighborConfig(in_dedicated_partition=True)
        assert neighbor_penalty(model, busy, Modulation.QPSK) == 0.0

    def test_counts_scale_linearly(self, model):
        cfg = NeighborConfig(guarded_native_count=3, unguarded_native_count=2)
        expected = 3 * 0.225 + 2 * 0.23
        assert neighbor_penalty(model, cfg, Modulation.QPSK) == pytest.approx(expected, abs=1e-9)


class TestQModelSerialization:
    def test_round_trips_through_dict(self, model):
        assert QModel.from_dict(model.to_dict()) == model

    def test_missing_modulation_rejected(self, model):
        data = model.to_dict()
        del data["q_ref_db"]["BPSK"]
        with pytest.raises(SchemaError, match="BPSK"):
            QModel.from_dict(data)

    def test_negative_penalty_rejected(self, model):
        data = model.to_dict()
        data["p_guard_db"]["QPSK"] = -0.1
        with pytest.raises(SchemaError, match="p_guard_db"):
            QModel.from_dict(data)

    def test_negative_roadm_penalty_rejected(self, model):
        data = {**model.to_dict(), "roadm_penalty_db": -0.1}
        with pytest.raises(SchemaError, match=r"^model: roadm_penalty_db must be >= 0, got -0\.1$"):
            QModel.from_dict(data)


class TestNativeImpact:
    def test_coherent_block_leaves_natives_untouched(self):
        assert NATIVE_IMPACT_DB == 0.0
