"""End-to-end acceptance checks.

Each test prints one `[criterion N] PASS/FAIL` line on the terminal (through
pytest's capture) so a full run doubles as a checklist of the shipped
guarantees: calibration fidelity, decision reproduction, capacity and
threshold arithmetic, aggregation, property suites, allocation equivalence,
and byte-stable serialization.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from record_tools import replace

from awplan import (
    AllocationResult,
    BandConfig,
    CalibrationPoint,
    Demand,
    Feasibility,
    Modulation,
    NeighborConfig,
    OccupantKind,
    PathMetrics,
    PlacementRequest,
    PowerReading,
    QEstimate,
    SpectrumGrid,
    Strategy,
    aggregate_path,
    calibrate,
    canonical_json,
    carve_dedicated_partition,
    classify_q,
    compute_voa_settings,
    empty_grid,
    equalization_report,
    estimate_q,
    export_q_vs_distance,
    first_fit_allocate,
    parse_topology,
    plan_link,
    plot_series_to_csv,
    round_trip,
    serialize,
    superchannel_capacity,
    validate_plan,
)
from awplan.topology import AmplifierType, NetworkTopology, Node, Span

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "awplan" / "fixtures"

ALL_QPSK = (Modulation.QPSK,) * 5
ALL_BPSK = (Modulation.BPSK,) * 5
CLEAN = NeighborConfig()
DEDICATED = NeighborConfig(in_dedicated_partition=True)


@contextmanager
def criterion(capfd, number: int, title: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capfd.disabled():
            print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} {title}")


def metrics(distance_km: float) -> PathMetrics:
    return PathMetrics(
        distance_km=distance_km,
        attenuation_db=0.0,
        ola_count=0,
        roadm_count=0,
        raman_span_count=0,
    )


def line_topology(distance_km: float) -> NetworkTopology:
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


def load_demand(name: str) -> Demand:
    return Demand.from_dict(json.loads((FIXTURES / name).read_text())[0])


def test_criterion_01_calibration_fidelity(capfd, calib_points):
    with criterion(capfd, 1, "calibration reproduces all measured Q values"):
        started = time.perf_counter()
        model = calibrate(calib_points)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0

        expectations = [
            (345.0, Modulation.QPSK, CLEAN, 13.77),
            (345.0, Modulation.QPSK, NeighborConfig(2, 0), 13.32),
            (345.0, Modulation.QPSK, NeighborConfig(2, 3), 12.63),
            (345.0, Modulation.BPSK, CLEAN, 16.37),
            (345.0, Modulation.BPSK, NeighborConfig(2, 0), 16.31),
            (345.0, Modulation.BPSK, NeighborConfig(2, 3), 16.15),
            (1131.0, Modulation.QPSK, DEDICATED, 11.44),
        ]
        for distance, modulation, neighbors, expected in expectations:
            estimate = estimate_q(model, metrics(distance), modulation, neighbors)
            assert abs(estimate.value_db - expected) < 0.005, (
                f"{modulation.value} at {distance} km: "
                f"{estimate.value_db} vs {expected}"
            )


def test_criterion_02_long_haul_decision(capfd, garr, model):
    with criterion(capfd, 2, "long-haul demand resolves to dedicated all-QPSK 9x50G"):
        report = plan_link(load_demand("rm-mi2.demands.json"), garr, empty_grid(), model)
        chosen = report.chosen
        assert chosen.strategy is Strategy.DEDICATED_PARTITION
        assert chosen.pair_modulations == ALL_QPSK
        assert chosen.active_carriers == 9
        assert chosen.capacity_gbps == 450.0

        mixed_bpsk = [
            o
            for o in report.alternatives
            if o.strategy is Strategy.MIXED_SPECTRUM and o.pair_modulations == ALL_BPSK
        ]
        mixed_qpsk = [
            o
            for o in report.alternatives
            if o.strategy is Strategy.MIXED_SPECTRUM and o.pair_modulations == ALL_QPSK
        ]
        assert len(mixed_bpsk) == 1
        assert mixed_bpsk[0].capacity_gbps == 250.0
        assert len(mixed_qpsk) == 1
        assert not mixed_qpsk[0].feasible


def test_criterion_03_capacity_arithmetic(capfd):
    with criterion(capfd, 3, "super-channel capacities are exact"):
        assert superchannel_capacity(ALL_QPSK, 10) == 500.0
        assert superchannel_capacity(ALL_BPSK, 10) == 250.0
        assert superchannel_capacity(ALL_QPSK, 9) == 450.0


def test_criterion_04_threshold_behavior(capfd, garr, model):
    with criterion(capfd, 4, "Q floors classify, validate, and warn correctly"):
        assert classify_q(6.5) is Feasibility.INFEASIBLE
        assert classify_q(6.51) is Feasibility.MARGINAL
        assert classify_q(8.51) is Feasibility.OK

        template = plan_link(load_demand("rm-mi2.demands.json"), garr, empty_grid(), model)
        for q_db in (6.5, 6.4, 3.0, 0.5):
            tampered = replace(
                template,
                chosen=replace(
                    template.chosen,
                    q=QEstimate(value_db=q_db, feasibility=classify_q(q_db)),
                ),
            )
            codes = [v.code for v in validate_plan(tampered, empty_grid())]
            assert "Q_BELOW_HARD_MIN" in codes, f"Q {q_db} dB not rejected"
        assert validate_plan(template, empty_grid()) == []

        for distance in (2500.0, 2700.0):
            report = plan_link(
                Demand(path=("A", "B"), required_capacity_gbps=100.0),
                line_topology(distance),
                empty_grid(),
                model,
            )
            assert report.chosen.q.feasibility is Feasibility.MARGINAL
            design_warnings = [w for w in report.warnings if "design threshold" in w]
            assert len(design_warnings) == 1


def test_criterion_05_link_table_aggregation(capfd, garr):
    with criterion(capfd, 5, "path aggregation matches the reference link table"):
        expected_rows = {
            ("BO1", "MI1"): (277.0, 78.0, 2, 2, 1),
            ("RM2", "H1", "BO1"): (495.0, 105.0, 4, 3, 3),
            ("BA1", "H2", "H3", "H4", "H5", "BO1"): (813.0, 232.0, 10, 6, 2),
            ("RM", "H6", "H7", "H8", "MI2"): (1131.0, 325.0, 12, 5, 3),
        }
        for path_nodes, expected in expected_rows.items():
            m = aggregate_path(garr, list(path_nodes))
            got = (
                m.distance_km,
                m.attenuation_db,
                m.ola_count,
                m.roadm_count,
                m.raman_span_count,
            )
            assert got == expected, f"{path_nodes}: {got} != {expected}"


def test_criterion_06_guarded_penalty_bound(capfd, model):
    with criterion(capfd, 6, "one more guarded neighbor never costs over 0.5 dB"):
        for modulation in Modulation:
            assert model.p_guard_db[modulation] <= 0.5
            for count in range(6):
                for distance in (277.0, 345.0, 1131.0):
                    before = estimate_q(
                        model, metrics(distance), modulation, NeighborConfig(count, 0)
                    )
                    after = estimate_q(
                        model, metrics(distance), modulation, NeighborConfig(count + 1, 0)
                    )
                    assert 0.0 <= before.value_db - after.value_db <= 0.5


def test_criterion_07_monotonicity_properties(capfd, model):
    with criterion(capfd, 7, "Q is monotone in distance, neighbors, and format"):
        rng = random.Random(7)

        for _ in range(1000):
            modulation = rng.choice(list(Modulation))
            near = rng.uniform(0.0, 4000.0)
            far = near + rng.uniform(1e-3, 2000.0)
            neighbors = NeighborConfig(rng.randrange(8), rng.randrange(8))
            q_near = estimate_q(model, metrics(near), modulation, neighbors)
            q_far = estimate_q(model, metrics(far), modulation, neighbors)
            assert q_far.value_db < q_near.value_db

        for _ in range(1000):
            modulation = rng.choice(list(Modulation))
            distance = rng.uniform(0.0, 4000.0)
            guarded = rng.randrange(8)
            unguarded = rng.randrange(8)
            base = estimate_q(
                model, metrics(distance), modulation, NeighborConfig(guarded, unguarded)
            )
            if rng.random() < 0.5:
                bumped = NeighborConfig(guarded + 1, unguarded)
            else:
                bumped = NeighborConfig(guarded, unguarded + 1)
            worse = estimate_q(model, metrics(distance), modulation, bumped)
            assert worse.value_db <= base.value_db

        for _ in range(1000):
            distance = rng.uniform(0.0, 4000.0)
            neighbors = NeighborConfig(rng.randrange(8), rng.randrange(8))
            bpsk = estimate_q(model, metrics(distance), Modulation.BPSK, neighbors)
            qpsk = estimate_q(model, metrics(distance), Modulation.QPSK, neighbors)
            assert bpsk.value_db >= qpsk.value_db


def _oracle_allocate(
    slot_count: int,
    partitions: list[tuple[int, int]],
    requests: list[PlacementRequest],
) -> list[int | None]:
    """Lowest-feasible-slot placement computed from first principles with a
    plain occupancy set; the reference the production allocator must match."""
    occupied: set[int] = set()
    native_spans: list[tuple[int, int]] = []
    sc_spans: list[tuple[int, int]] = []
    starts_found: list[int | None] = []

    def guard_ok(start: int, end: int, others: list[tuple[int, int]], guard: int) -> bool:
        for other_start, other_end in others:
            if other_start < end and start < other_end:
                return False
            gap = start - other_end if other_end <= start else other_start - end
            if gap < guard:
                return False
        return True

    for request in requests:
        width = 2 if request.kind is OccupantKind.NATIVE else 8
        candidates = (
            range(0, slot_count - width + 1, 2)
            if request.kind is OccupantKind.NATIVE
            else range(0, slot_count - width + 1)
        )
        found = None
        for start in candidates:
            end = start + width
            if any(slot in occupied for slot in range(start, end)):
                continue
            if request.kind is OccupantKind.NATIVE:
                if request.partition_only:
                    continue  # natives never live inside partitions
                if any(ps < end and start < pe for ps, pe in partitions):
                    continue
                if request.guard_band_slots and not guard_ok(
                    start, end, sc_spans, request.guard_band_slots
                ):
                    continue
            else:
                inside = any(ps <= start and end <= pe for ps, pe in partitions)
                straddles = any(
                    (ps < end and start < pe) and not (ps <= start and end <= pe)
                    for ps, pe in partitions
                )
                if straddles:
                    continue
                if request.partition_only and not inside:
                    continue
                if request.guard_band_slots and not guard_ok(
                    start, end, native_spans, request.guard_band_slots
                ):
                    continue
            found = start
            break
        starts_found.append(found)
        if found is not None:
            end = found + width
            occupied.update(range(found, end))
            if request.kind is OccupantKind.NATIVE:
                native_spans.append((found, end))
            else:
                sc_spans.append((found, end))
    return starts_found


def test_criterion_08_allocation_oracle_equivalence(capfd):
    with criterion(capfd, 8, "first-fit matches the brute-force oracle"):
        rng = random.Random(20260822)
        for _ in range(500):
            slot_count = rng.choice(range(8, 33, 2))
            grid = empty_grid(BandConfig(slot_count=slot_count))
            partitions: list[tuple[int, int]] = []
            if slot_count >= 12 and rng.random() < 0.5:
                width = rng.choice([w for w in (8, 10, 12) if w <= slot_count - 2])
                start = rng.choice(range(0, slot_count - width + 1, 2))
                grid = carve_dedicated_partition(grid, start, width)
                partitions.append((start, start + width))

            requests = []
            for i in range(rng.randrange(3, 11)):
                kind = (
                    OccupantKind.NATIVE
                    if rng.random() < 0.7
                    else OccupantKind.SUPERCHANNEL
                )
                requests.append(
                    PlacementRequest(
                        kind=kind,
                        id=f"r{i}",
                        guard_band_slots=rng.randrange(4),
                        partition_only=rng.random() < 0.1,
                    )
                )

            result = first_fit_allocate(grid, requests)
            got = [a.start_slot for a in result.assignments]
            expected = _oracle_allocate(slot_count, partitions, requests)
            assert got == expected, (
                f"slot_count={slot_count} partitions={partitions} "
                f"requests={[r.to_dict() for r in requests]}: {got} != {expected}"
            )

            owners = result.grid.occupant_map()  # raises on any double-booking
            placed_width = sum(
                2 if a.request.kind is OccupantKind.NATIVE else 8
                for a in result.assignments
                if a.placed
            )
            assert len(owners) == placed_width


def test_criterion_09_round_trip_stability(capfd, garr, model, busy_grid):
    with criterion(capfd, 9, "all fixtures and reports serialize byte-stably"):
        list_builders = {
            "reference.calib.json": CalibrationPoint,
            "bo1-mi1.demands.json": Demand,
            "rm2-bo1.demands.json": Demand,
            "ba1-bo1.demands.json": Demand,
            "rm-mi2.demands.json": Demand,
            "trial.requests.json": PlacementRequest,
        }
        for name, cls in list_builders.items():
            text = (FIXTURES / name).read_text()
            items = [cls.from_dict(item) for item in json.loads(text)]
            assert canonical_json([item.to_dict() for item in items]) == text, name

        topo_text = (FIXTURES / "garr.topo.json").read_text()
        assert serialize(parse_topology(topo_text)) == topo_text
        grid_text = (FIXTURES / "busy.grid.json").read_text()
        assert serialize(SpectrumGrid.from_dict(json.loads(grid_text))) == grid_text

        round_trip(model)
        round_trip(busy_grid)
        round_trip(garr)
        for demands_file in (
            "bo1-mi1.demands.json",
            "rm2-bo1.demands.json",
            "ba1-bo1.demands.json",
            "rm-mi2.demands.json",
        ):
            report = plan_link(load_demand(demands_file), garr, empty_grid(), model)
            round_trip(report)

        requests = [
            PlacementRequest.from_dict(item)
            for item in json.loads((FIXTURES / "trial.requests.json").read_text())
        ]
        allocation = first_fit_allocate(busy_grid, requests)
        assert isinstance(round_trip(allocation), AllocationResult)

        series = export_q_vs_distance(
            model, Modulation.BPSK, CLEAN, (277.0, 345.0, 495.0)
        )
        round_trip(series)

        leveling = compute_voa_settings(
            [PowerReading("aw-1", -1.0), PowerReading("N1", -2.5)], -3.0
        )
        round_trip(equalization_report(busy_grid, {"BO1": leveling}))


def test_criterion_10_plot_export(capfd, model):
    with criterion(capfd, 10, "Q-vs-distance export is sorted and ordered by context"):
        distances = (813.0, 277.0, 1131.0, 345.0, 495.0)
        dedicated = export_q_vs_distance(model, Modulation.QPSK, DEDICATED, distances)
        csv = plot_series_to_csv(dedicated)
        lines = csv.strip().split("\n")
        assert len(lines) == 6
        assert lines[0] == "distance_km,q_db"
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        assert xs == [277.0, 345.0, 495.0, 813.0, 1131.0]
        by_x = {x: float(line.split(",")[1]) for x, line in zip(xs, lines[1:])}
        assert abs(by_x[345.0] - 13.77) < 0.005
        assert abs(by_x[1131.0] - 11.44) < 0.005

        crowded = export_q_vs_distance(
            model,
            Modulation.QPSK,
            NeighborConfig(unguarded_native_count=5),
            distances,
        )
        for (x1, q_dedicated), (x2, q_crowded) in zip(dedicated.points, crowded.points):
            assert x1 == x2
            assert q_dedicated > q_crowded
