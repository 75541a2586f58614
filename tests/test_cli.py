from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import slot_oracle
from awplan import OccupantKind, PlacementRequest, canonical_json, cli, first_fit_allocate, perfmodel, planner
from awplan.cli import _build_parser, main
from conftest import FIXTURE_DIR
from record_tools import replace

CALIB = "reference.calib.json"
TOPO = "garr.topo.json"


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("AWPLAN_NO_COLOR", "1")


@pytest.fixture()
def fx(fixture_dir):
    def path(name: str) -> str:
        return str(fixture_dir / name)

    return path


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def garr_with_bo1_mi1_span(tmp_path: Path, fixture_dir: Path, field: str, text: str) -> Path:
    """A copy of the bundled topology with one field of the first BO1-MI1 span
    replaced by the JSON *text*."""
    document = json.loads((fixture_dir / TOPO).read_text())
    assert (document["spans"][0]["from"], document["spans"][0]["to"]) == ("BO1", "MI1")
    document["spans"][0][field] = "<value>"
    path = tmp_path / "garr.topo.json"
    path.write_text(json.dumps(document).replace('"<value>"', text, 1))
    return path


# JSON has no NaN or infinity. A real too large for a float is read as an
# infinity, which the span's own check refuses, naming the span; the token
# NaN is refused by the reader, naming the file.
NON_FINITE_SPANS = [
    pytest.param("length_km", "NaN", ": invalid JSON: NaN is not a JSON number", id="length-NaN"),
    pytest.param("length_km", "1e999", ".spans[0]: length_km must be finite, got inf", id="length-Infinity"),
    pytest.param("attenuation_db", "-1e999", ".spans[0]: attenuation_db must be finite, got -inf",
                 id="attenuation-minus-Infinity"),
]


class TestCalibrate:
    def test_writes_canonical_model(self, capsys, fx):
        code, out, err = run(capsys, "calibrate", "--points", fx(CALIB))
        assert code == 0
        assert err == ""
        model = json.loads(out)
        assert model["q_ref_db"]["QPSK"] == pytest.approx(13.77)
        assert model["l_ref_km"] == 345.0
        assert out.endswith("\n")

    def test_output_is_deterministic(self, capsys, fx):
        _, first, _ = run(capsys, "calibrate", "--points", fx(CALIB))
        _, second, _ = run(capsys, "calibrate", "--points", fx(CALIB))
        assert first == second

    def test_out_flag_writes_file(self, capsys, fx, tmp_path):
        target = tmp_path / "model.json"
        code, out, _ = run(
            capsys, "calibrate", "--points", fx(CALIB), "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["l_ref_km"] == 345.0

    def test_stamp_adds_metadata(self, capsys, fx):
        code, out, _ = run(capsys, "--stamp", "calibrate", "--points", fx(CALIB))
        assert code == 0
        meta = json.loads(out)["_meta"]
        assert meta["generator"].startswith("awplan ")

    def test_nan_reference_distance_exits_two_naming_the_field(self, capsys, fx):
        code, out, err = run(capsys, "calibrate", "--points", fx(CALIB), "--l-ref", "nan")
        assert code == 2
        assert out == ""
        assert err == "error: l_ref_km must be finite, got nan\n"


@pytest.mark.parametrize("command", ["calibrate", "estimate", "plan", "export-plot", "validate"])
def test_negative_reference_distance_exits_two_naming_the_flag(capsys, fx, command):
    # no calibration point lies below 0 km, so the flag is at fault, not the file
    argv = {
        "calibrate": ["calibrate", "--points", fx(CALIB)],
        "estimate": ["estimate", "--calib", fx(CALIB), "--distance", "1131", "--modulation", "qpsk"],
        "plan": ["plan", "--calib", fx(CALIB), "--topology", fx(TOPO), "--demands", fx("rm-mi2.demands.json")],
        "export-plot": ["export-plot", "--calib", fx(CALIB), "--modulation", "qpsk", "--distances", "345"],
        "validate": ["validate", fx(CALIB)],
    }[command]
    assert run(capsys, *argv, "--l-ref", "-1") == (2, "", "error: l_ref_km must be >= 0, got -1.0\n")


@pytest.mark.parametrize("command", [("calibrate", "--points"), ("validate",)], ids=["calibrate", "validate"])
def test_non_finite_calibration_point_exits_two_naming_the_point(capsys, fixture_dir, tmp_path, command):
    points = json.loads((fixture_dir / CALIB).read_text())
    points[0]["measured_q_db"] = "<value>"
    path = tmp_path / "inf.calib.json"
    # a real too large for a float, read as an infinity (the token NaN is refused
    # by the reader: test_a_non_finite_constant_exits_two_naming_the_file)
    path.write_text(json.dumps(points).replace('"<value>"', "1e999"))
    code, out, err = run(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}[0]: measured_q_db must be finite, got inf\n"


@pytest.mark.parametrize("field", ["distance_km", "measured_q_db"])
@pytest.mark.parametrize("command", ["calibrate", "estimate", "plan", "export-plot", "validate"])
def test_huge_calibration_number_exits_two_naming_the_point(capsys, fx, fixture_dir, tmp_path, command, field):
    points = json.loads((fixture_dir / CALIB).read_text())
    points[3][field] = 1e308
    path = tmp_path / "huge.calib.json"
    path.write_text(json.dumps(points))
    argv = {
        "calibrate": ["calibrate", "--points", str(path)],
        "estimate": ["estimate", "--calib", str(path), "--distance", "1131", "--modulation", "qpsk"],
        "plan": ["plan", "--calib", str(path), "--topology", fx(TOPO), "--demands", fx("rm-mi2.demands.json")],
        "export-plot": ["export-plot", "--calib", str(path), "--modulation", "qpsk", "--distances", "345"],
        "validate": ["validate", str(path)],
    }[command]
    bound = {"distance_km": "40000", "measured_q_db": "100"}[field]
    assert run(capsys, *argv) == (2, "", f"error: {path}[3]: {field} must be at most {bound}, got 1e+308\n")


@pytest.mark.parametrize("field", ["guarded_native_count", "unguarded_native_count"])
@pytest.mark.parametrize("command", ["calibrate", "estimate", "plan", "export-plot", "validate"])
def test_huge_neighbor_count_exits_two_naming_the_point(capsys, fx, fixture_dir, tmp_path, command, field):
    points = json.loads((fixture_dir / CALIB).read_text())
    points[2]["neighbor_config"][field] = 10**400
    path = tmp_path / "huge.calib.json"
    path.write_text(json.dumps(points))
    argv = {
        "calibrate": ["calibrate", "--points", str(path)],
        "estimate": ["estimate", "--calib", str(path), "--distance", "1131", "--modulation", "qpsk"],
        "plan": ["plan", "--calib", str(path), "--topology", fx(TOPO), "--demands", fx("rm-mi2.demands.json")],
        "export-plot": ["export-plot", "--calib", str(path), "--modulation", "qpsk", "--distances", "345"],
        "validate": ["validate", str(path)],
    }[command]
    assert run(capsys, *argv) == (
        2, "", f"error: {path}[2].neighbor_config: neighbor counts must be at most 512\n"
    )


def test_a_failed_fit_names_the_points_file(capsys, fixture_dir, tmp_path):
    points = [
        point for point in json.loads((fixture_dir / CALIB).read_text())
        if not (point["modulation"] == "QPSK" and point["distance_km"] == 345.0 and not any(point["neighbor_config"].values()))
    ]
    path = tmp_path / "no-baseline.calib.json"
    path.write_text(json.dumps(points))
    message = "QPSK: missing zero-neighbor baseline point at 345.0 km"
    assert run(capsys, "calibrate", "--points", str(path)) == (2, "", f"error: {path}: {message}\n")
    # validate reports the fit as a finding about the document it was given
    assert run(capsys, "validate", str(path)) == (1, f"CALIBRATION: {message}\n", "")
    # a bad flag is checked before the file is read, and names no file
    assert run(capsys, "calibrate", "--points", str(path), "--l-ref", "nan") == (
        2, "", "error: l_ref_km must be finite, got nan\n"
    )


def test_cli_defaults_are_the_library_defaults():
    args = _build_parser().parse_args(["plan", "--topology", "t", "--demands", "d", "--calib", "c"])
    assert args.l_ref == perfmodel.DEFAULT_L_REF_KM
    assert (args.hard_min, args.design_min) == (perfmodel.HARD_MIN_DB, perfmodel.DESIGN_MIN_DB)
    assert args.guard_band_slots == planner.DEFAULT_GUARD_BAND_SLOTS
    assert args.qpsk_reach_limit == planner.DEFAULT_QPSK_MIXED_REACH_LIMIT_KM
    policy = planner.PlannerPolicy(
        guard_band_slots=args.guard_band_slots,
        qpsk_mixed_reach_limit_km=args.qpsk_reach_limit,
        dedicated_edge_carrier_sacrifice=args.sacrifice,
        thresholds=perfmodel.Thresholds(args.hard_min, args.design_min),
    )
    assert policy == planner.PlannerPolicy()


class TestEstimate:
    def test_reference_baseline(self, capsys, fx):
        code, out, err = run(
            capsys,
            "estimate", "--distance", "345", "--modulation", "qpsk",
            "--calib", fx(CALIB),
        )
        assert code == 0
        assert out == "13.77 / Ok\n"
        assert "\x1b[" not in out

    def test_neighbor_counts_accepted(self, capsys, fx):
        code, out, _ = run(
            capsys,
            "estimate", "--distance", "345", "--modulation", "qpsk",
            "--neighbors", "2,3", "--calib", fx(CALIB),
        )
        assert code == 0
        assert out == "12.63 / Ok\n"

    def test_json_output(self, capsys, fx):
        code, out, _ = run(
            capsys,
            "estimate", "--distance", "1131", "--modulation", "qpsk",
            "--neighbors", "dedicated", "--calib", fx(CALIB), "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["class"] == "Ok"
        assert data["value_db"] == pytest.approx(11.44, abs=5e-3)

    def test_marginal_still_exits_zero(self, capsys, fx):
        code, out, _ = run(
            capsys,
            "estimate", "--distance", "2500", "--modulation", "qpsk",
            "--neighbors", "dedicated", "--calib", fx(CALIB),
        )
        assert code == 0
        assert out.endswith("/ Marginal\n")

    def test_infeasible_exits_one(self, capsys, fx):
        code, out, _ = run(
            capsys,
            "estimate", "--distance", "5000", "--modulation", "qpsk",
            "--neighbors", "dedicated", "--calib", fx(CALIB),
        )
        assert code == 1
        assert out.endswith("/ Infeasible\n")

    def test_bad_modulation_exits_two(self, capsys, fx):
        code, out, err = run(
            capsys,
            "estimate", "--distance", "345", "--modulation", "8psk",
            "--calib", fx(CALIB),
        )
        assert code == 2
        assert err.startswith("error: ")
        assert "8psk" in err

    @pytest.mark.parametrize("distance", ["nan", "inf"])
    def test_non_finite_distance_exits_two(self, capsys, fx, distance):
        code, out, err = run(
            capsys,
            "estimate", "--calib", fx(CALIB),
            "--distance", distance, "--modulation", "qpsk", "--neighbors", "dedicated",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: distance_km must be finite")

    def test_huge_roadm_count_exits_two(self, capsys, fx):
        code, out, err = run(
            capsys,
            "estimate", "--calib", fx(CALIB), "--distance", "345", "--modulation", "qpsk",
            "--roadm-count", "9" * 400,
        )
        assert (code, out, err) == (2, "", "error: roadm_count must be at most 9007199254740992\n")

    def test_json_errors_flag(self, capsys, fx):
        code, _, err = run(
            capsys,
            "--json-errors",
            "estimate", "--distance", "345", "--modulation", "8psk",
            "--calib", fx(CALIB),
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "SchemaError"


BAD_NEIGHBORS = {
    "two": "neighbors must be 'none', 'dedicated', or '<guarded>,<unguarded>', got 'two'",
    "a,1": "neighbors 'a,1': invalid literal for int() with base 10: 'a'",
    "-1,0": "neighbors '-1,0': neighbor counts must be >= 0",
    "600,0": "neighbors '600,0': neighbor counts must be at most 512",
    "0,513": "neighbors '0,513': neighbor counts must be at most 512",
    f"{10**400},0": f"neighbors '{10**400},0': neighbor counts must be at most 512",
}


@pytest.mark.parametrize("neighbors", BAD_NEIGHBORS, ids=["word", "not-int", "negative", "600", "513", "400-digits"])
@pytest.mark.parametrize("command", ["estimate", "export-plot"])
def test_bad_neighbors_flag_exits_two(capsys, fx, command, neighbors):
    argv = [command, "--calib", fx(CALIB), "--modulation", "qpsk", f"--neighbors={neighbors}"]
    argv += ["--distance", "345"] if command == "estimate" else ["--distances", "345"]
    assert run(capsys, *argv) == (2, "", f"error: {BAD_NEIGHBORS[neighbors]}\n")


@pytest.mark.parametrize(
    ("distances", "message"),
    [
        ("345,x", "distances must be comma-separated numbers, got '345,x'"),
        (",", "distances must be non-empty"),
    ],
    ids=["not-a-number", "empty"],
)
def test_bad_distances_flag_exits_two(capsys, fx, distances, message):
    argv = ["export-plot", "--calib", fx(CALIB), "--modulation", "qpsk", "--distances", distances]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_color_on_a_terminal(capsys, fx, monkeypatch):
    argv = ["estimate", "--distance", "345", "--modulation", "qpsk", "--calib", fx(CALIB)]
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    assert run(capsys, *argv) == (0, "13.77 / Ok\n", "")  # AWPLAN_NO_COLOR is set
    monkeypatch.delenv("AWPLAN_NO_COLOR")
    assert run(capsys, *argv) == (0, "13.77 / \x1b[32mOk\x1b[0m\n", "")


class TestAllocate:
    def test_trial_requests(self, capsys, fx):
        code, out, _ = run(
            capsys,
            "allocate", "--grid", fx("busy.grid.json"),
            "--requests", fx("trial.requests.json"),
        )
        assert code == 0
        result = json.loads(out)
        starts = {
            a["request"]["id"]: a["start_slot"] for a in result["assignments"]
        }
        assert starts == {"n-100": 0, "aw-1": 20, "aw-2": 28}

    def test_unplaced_request_exits_one(self, capsys, fx, tmp_path):
        requests = tmp_path / "requests.json"
        requests.write_text(
            json.dumps(
                [
                    {"kind": "superchannel", "id": f"aw-{i}", "guard_band_slots": 2}
                    for i in range(30)
                ]
            )
        )
        code, out, _ = run(
            capsys,
            "allocate", "--grid", fx("busy.grid.json"), "--requests", str(requests),
        )
        assert code == 1
        result = json.loads(out)
        reasons = {a["reason"] for a in result["assignments"] if a["start_slot"] is None}
        assert reasons == {"no feasible window"}

    def test_bad_native_bitrate_exits_two_with_path(self, capsys, fx, tmp_path):
        requests = tmp_path / "requests.json"
        requests.write_text(json.dumps([{"kind": "native", "id": "x", "bitrate_gbps": 25}]))
        code, out, err = run(
            capsys,
            "allocate", "--grid", fx("busy.grid.json"), "--requests", str(requests),
        )
        assert code == 2
        assert out == ""
        assert f"{requests}[0]: native bitrate must be one of (10, 40), got 25" in err


    def test_bad_native_format_exits_two_with_path(self, capsys, fx, tmp_path):
        grid = tmp_path / "grid.json"
        document = json.loads(Path(fx("busy.grid.json")).read_text())
        document["natives"][0]["format"] = "OOK"
        grid.write_text(json.dumps(document))
        code, out, err = run(
            capsys,
            "allocate", "--grid", str(grid), "--requests", fx("trial.requests.json"),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {grid}.natives[0].format: expected one of 'IM-DD', got 'OOK'")


    def test_guard_wider_than_any_band_exits_two_with_path(self, capsys, fx, tmp_path):
        requests = tmp_path / "requests.json"
        requests.write_text(json.dumps([{"kind": "superchannel", "id": "aw", "guard_band_slots": 10**12}]))
        code, out, err = run(
            capsys,
            "allocate", "--grid", fx("busy.grid.json"), "--requests", str(requests),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {requests}[0]: guard_band_slots must be at most 1024, got 1000000000000\n"

    @pytest.mark.parametrize("subcommand", ["allocate", "validate"])
    def test_band_past_the_slot_bound_exits_two_with_path(self, capsys, fx, tmp_path, subcommand):
        grid = tmp_path / "grid.json"
        document = json.loads(Path(fx("busy.grid.json")).read_text())
        document["band"]["slot_count"] = 10**12
        grid.write_text(json.dumps(document))
        argv = ["validate", str(grid)]
        if subcommand == "allocate":
            argv = ["allocate", "--grid", str(grid), "--requests", fx("trial.requests.json")]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {grid}.band: slot_count must be at most 1024, got 1000000000000\n"

    def test_requests_that_are_not_an_array_exit_two(self, capsys, fx, tmp_path):
        requests = tmp_path / "requests.json"
        requests.write_text('{"kind": "native", "id": "n"}')
        argv = ["allocate", "--grid", fx("busy.grid.json"), "--requests", str(requests)]
        assert run(capsys, *argv) == (2, "", f"error: {requests}: expected array, got dict\n")


class TestPlan:
    def test_long_haul_plan_document(self, capsys, fx):
        code, out, _ = run(
            capsys,
            "plan", "--topology", fx(TOPO), "--demands", fx("rm-mi2.demands.json"),
            "--calib", fx(CALIB),
        )
        assert code == 0
        document = json.loads(out)
        digest = document["model_provenance"]["calibration_sha256"]
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
        chosen = document["reports"][0]["chosen"]
        assert chosen["strategy"] == "DedicatedPartition"
        assert chosen["pair_modulations"] == ["QPSK"] * 5
        assert chosen["active_carriers"] == 9
        assert chosen["capacity_gbps"] == 450.0

    def test_unknown_node_names_the_demand(self, capsys, fx, fixture_dir, tmp_path):
        demands = json.loads((fixture_dir / "rm-mi2.demands.json").read_text())
        demands.append({**demands[0], "path": ["RM", "XX"]})
        path = tmp_path / "unknown.demands.json"
        path.write_text(json.dumps(demands))
        code, out, err = run(capsys, "plan", "--topology", fx(TOPO), "--demands", str(path), "--calib", fx(CALIB))
        assert (code, out, err) == (2, "", f"error: {path}[1]: unknown node 'XX' in path\n")

    def test_plan_output_is_deterministic(self, capsys, fx):
        argv = (
            "plan", "--topology", fx(TOPO), "--demands", fx("rm-mi2.demands.json"),
            "--calib", fx(CALIB),
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_infeasible_demand_exits_one(self, capsys, fx, tmp_path):
        topology = tmp_path / "line.topo.json"
        topology.write_text(
            json.dumps(
                {
                    "nodes": [
                        {"id": "A", "name": "A", "has_roadm": True},
                        {"id": "B", "name": "B", "has_roadm": True},
                    ],
                    "spans": [
                        {
                            "from": "A", "to": "B", "length_km": 5000.0,
                            "attenuation_db": 1250.0, "amplifier": "EDFA",
                            "dcm_present": True, "has_inline_ola": False,
                        }
                    ],
                }
            )
        )
        demands = tmp_path / "demands.json"
        demands.write_text(
            json.dumps([{"path": ["A", "B"], "required_capacity_gbps": 100.0}])
        )
        code, out, _ = run(
            capsys,
            "plan", "--topology", str(topology), "--demands", str(demands),
            "--calib", fx(CALIB),
        )
        assert code == 1
        report = json.loads(out)["reports"][0]
        assert report["chosen"]["feasible"] is False
        assert any("no feasible option" in w for w in report["warnings"])

    @pytest.mark.parametrize("field, text, message", NON_FINITE_SPANS)
    def test_non_finite_span_exits_two_naming_the_span(
        self, capsys, fx, fixture_dir, tmp_path, field, text, message
    ):
        topology = garr_with_bo1_mi1_span(tmp_path, fixture_dir, field, text)
        code, out, err = run(
            capsys,
            "plan", "--topology", str(topology), "--demands", fx("bo1-mi1.demands.json"),
            "--calib", fx(CALIB),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {topology}{message}\n"

    def test_guard_wider_than_any_band_exits_two(self, capsys, fx):
        code, out, err = run(
            capsys,
            "plan", "--topology", fx(TOPO), "--demands", fx("rm-mi2.demands.json"),
            "--calib", fx(CALIB), "--guard-band-slots", str(10**12),
        )
        assert code == 2
        assert out == ""
        assert err == "error: guard_band_slots must be at most 1024, got 1000000000000\n"

    def test_nan_reach_limit_exits_two(self, capsys, fx):
        code, out, err = run(
            capsys,
            "plan", "--topology", fx(TOPO), "--demands", fx("rm-mi2.demands.json"),
            "--calib", fx(CALIB), "--qpsk-reach-limit", "nan",
        )
        assert code == 2
        assert out == ""
        assert err == "error: qpsk_mixed_reach_limit_km must be a number, got nan\n"

    def test_infinite_reach_limit_rejects_nothing_for_reach(self, capsys, fx):
        code, out, _ = run(
            capsys,
            "plan", "--topology", fx(TOPO), "--demands", fx("rm-mi2.demands.json"),
            "--calib", fx(CALIB), "--qpsk-reach-limit", "inf",
        )
        assert code == 0
        assert "reach limit" not in out

    @pytest.mark.parametrize("flag, field", [("--hard-min", "hard_min_db"), ("--design-min", "design_min_db")])
    def test_nan_threshold_exits_two_naming_the_field(self, capsys, fx, flag, field):
        code, out, err = run(
            capsys,
            "plan", "--topology", fx(TOPO), "--demands", fx("rm-mi2.demands.json"),
            "--calib", fx(CALIB), flag, "nan",
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {field} must be finite, got nan\n"

    @pytest.mark.parametrize("flag, value", [("--hard-min", "-inf"), ("--design-min", "inf")])
    def test_infinite_threshold_exits_two_naming_the_field(self, capsys, fx, flag, value):
        field = flag[2:].replace("-", "_") + "_db"
        for argv in (
            ("plan", "--topology", fx(TOPO), "--demands", fx("rm-mi2.demands.json")),
            ("estimate", "--distance", "345", "--modulation", "qpsk"),
        ):
            code, out, err = run(capsys, *argv, "--calib", fx(CALIB), f"{flag}={value}")
            assert code == 2
            assert out == ""
            assert err == f"error: {field} must be finite, got {value}\n"


    @pytest.mark.parametrize(
        ("grid", "reasons"),
        [
            (None, ["lower capacity (250 vs 500 Gbps)",
                    "would carve a dedicated partition for no capacity or margin gain"]),
            ("busy.grid.json", ["lower capacity (250 vs 500 Gbps)", "lower Q margin (12.62 vs 13.97 dB)"]),
        ],
        ids=["empty-grid", "busy-grid"],
    )
    def test_without_sacrifice_a_tie_on_capacity_is_explained(self, capsys, fx, grid, reasons):
        argv = ["plan", "--topology", fx(TOPO), "--demands", fx("bo1-mi1.demands.json"), "--calib", fx(CALIB)]
        argv += ["--sacrifice", "0"] + (["--grid", fx(grid)] if grid else [])
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        rationale = json.loads(out)["reports"][0]["rationale"]
        assert [clause.split("): ", 1)[1] for clause in rationale.split("; ")[1:]] == reasons


class TestExportPlot:
    def test_csv_is_sorted_with_reference_values(self, capsys, fx):
        code, out, _ = run(
            capsys,
            "export-plot", "--calib", fx(CALIB), "--modulation", "qpsk",
            "--distances", "813,277,1131,345,495",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "distance_km,q_db"
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        assert xs == sorted(xs) == [277.0, 345.0, 495.0, 813.0, 1131.0]
        values = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
        assert values["345.0000"] == "13.7700"

    def test_json_format(self, capsys, fx):
        code, out, _ = run(
            capsys,
            "export-plot", "--calib", fx(CALIB), "--modulation", "bpsk",
            "--neighbors", "dedicated", "--distances", "500", "--format", "json",
        )
        assert code == 0
        series = json.loads(out)
        assert series["label"] == "BPSK (dedicated)"
        assert series["points"][0][0] == 500.0


@pytest.mark.parametrize("subcommand", ["calibrate", "estimate", "plan", "export-plot", "validate"])
def test_every_l_ref_flag_has_its_help(capsys, monkeypatch, subcommand):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as excinfo:
        main([subcommand, "--help"])
    assert excinfo.value.code == 0
    assert re.search(r"--l-ref L_REF +reference distance in km \(default 345\)\n", capsys.readouterr().out)


# every command whose JSON output validate must accept, its input files named by fixture
OUTPUTS = {
    "calibrate": ("calibrate", "--points", CALIB),
    "estimate": ("estimate", "--calib", CALIB, "--distance", "1131", "--modulation", "qpsk", "--json"),
    "plan": ("plan", "--calib", CALIB, "--topology", TOPO, "--demands", "rm-mi2.demands.json"),
    "allocate": ("allocate", "--grid", "busy.grid.json", "--requests", "trial.requests.json"),
    "export-plot": ("export-plot", "--calib", CALIB, "--modulation", "qpsk", "--distances", "345,1131", "--format", "json"),
}
# the row of cli._KINDS that reads each output
OUTPUT_KINDS = {
    "calibrate": "model", "estimate": "estimate", "plan": "plan", "allocate": "allocation", "export-plot": "plot series",
}


class TestValidate:
    @pytest.mark.parametrize("name", sorted(path.name for path in FIXTURE_DIR.iterdir()))
    def test_every_bundled_fixture_validates(self, capsys, fx, name):
        assert run(capsys, "validate", fx(name)) == (0, "ok\n", "")

    @pytest.mark.parametrize("stamp", [(), ("--stamp",)], ids=["plain", "stamped"])
    @pytest.mark.parametrize("argv", OUTPUTS.values(), ids=OUTPUTS)
    def test_every_output_validates(self, capsys, fx, tmp_path, argv, stamp):
        output = tmp_path / "output.json"
        argv = [fx(arg) if arg.endswith(".json") else arg for arg in argv]
        assert run(capsys, *stamp, *argv, "--out", str(output)) == (0, "", "")
        assert ("_meta" in json.loads(output.read_text())) == bool(stamp)
        assert run(capsys, "validate", str(output)) == (0, "ok\n", "")

    @pytest.mark.parametrize("stamp", [(), ("--stamp",)], ids=["plain", "stamped"])
    @pytest.mark.parametrize("name", OUTPUTS)
    def test_every_output_reads_back_through_its_row_to_the_same_bytes(self, capsys, fx, name, stamp):
        argv = [fx(arg) if arg.endswith(".json") else arg for arg in OUTPUTS[name]]
        code, plain, _ = run(capsys, *argv)
        assert code == 0
        _, out, _ = run(capsys, *stamp, *argv)
        data = json.loads(out)
        kind = cli._KINDS[OUTPUT_KINDS[name]]
        assert cli._identify(data, "out") is kind
        assert canonical_json(kind.cls.from_dict(data, "out").to_dict()) == plain
        data.pop("_meta", None)
        assert canonical_json(data) == plain

    def test_empty_array_is_read_as_calibration_points(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        assert run(capsys, "validate", str(empty)) == (
            1, "CALIBRATION: BPSK: missing zero-neighbor baseline point at 345.0 km\n", ""
        )

    def test_unidentified_array_is_read_as_calibration_points(self, capsys, fixture_dir, tmp_path):
        points = json.loads((fixture_dir / CALIB).read_text())
        del points[0]["distance_km"]
        broken = tmp_path / "points.json"
        broken.write_text(json.dumps(points))
        assert run(capsys, "validate", str(broken)) == (2, "", f"error: {broken}[0].distance_km: missing required field\n")

    @pytest.mark.parametrize(
        "fixture, command, dropped",
        [
            ("trial.requests.json", ["allocate", "--grid", "busy.grid.json", "--requests"], "kind"),
            ("trial.requests.json", ["allocate", "--grid", "busy.grid.json", "--requests"], "id"),
            ("rm-mi2.demands.json", ["plan", "--topology", TOPO, "--calib", CALIB, "--demands"], "path"),
            ("rm-mi2.demands.json", ["plan", "--topology", TOPO, "--calib", CALIB, "--demands"], "required_capacity_gbps"),
        ],
    )
    def test_a_missing_identifying_key_is_blamed_as_the_reading_command_does(
        self, capsys, fx, fixture_dir, tmp_path, fixture, command, dropped
    ):
        items = json.loads((fixture_dir / fixture).read_text())
        del items[0][dropped]
        path = tmp_path / fixture
        path.write_text(json.dumps(items))
        message = f"error: {path}[0].{dropped}: missing required field\n"
        assert run(capsys, "validate", str(path)) == (2, "", message)
        argv = [fx(arg) if arg.endswith(".json") else arg for arg in command]
        assert run(capsys, *argv, str(path)) == (2, "", message)

    def test_a_missing_identifying_key_of_an_object_is_blamed(self, capsys, fixture_dir, tmp_path):
        topology = json.loads((fixture_dir / TOPO).read_text())
        del topology["nodes"]
        path = tmp_path / "no-nodes.topo.json"
        path.write_text(json.dumps(topology))
        assert run(capsys, "validate", str(path)) == (2, "", f"error: {path}.nodes: missing required field\n")

    def test_calibration_file_ok(self, capsys, fx):
        code, out, _ = run(capsys, "validate", fx(CALIB))
        assert code == 0
        assert out == "ok\n"

    def test_nan_reference_distance_exits_two_like_calibrate(self, capsys, fx):
        code, out, err = run(capsys, "validate", fx(CALIB), "--l-ref", "nan")
        assert code == 2
        assert out == ""
        assert err == "error: l_ref_km must be finite, got nan\n"

    @pytest.mark.parametrize("document", [TOPO, "busy.grid.json"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            pytest.param(("--l-ref", "nan", "--hard-min=-inf"), "l_ref_km must be finite, got nan", id="l-ref-first"),
            pytest.param(("--hard-min=-inf",), "hard_min_db must be finite, got -inf", id="hard-min"),
            pytest.param(("--design-min", "nan"), "design_min_db must be finite, got nan", id="design-min"),
        ],
    )
    def test_bad_flags_exit_two_whatever_the_document(self, capsys, fx, document, flags, message):
        code, out, err = run(capsys, "validate", fx(document), *flags)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_grid_file_ok(self, capsys, fx):
        code, out, _ = run(capsys, "validate", fx("busy.grid.json"))
        assert code == 0
        assert out == "ok\n"

    def test_plan_document_ok(self, capsys, fx, tmp_path):
        plan_file = tmp_path / "plan.json"
        run(
            capsys,
            "plan", "--topology", fx(TOPO), "--demands", fx("rm-mi2.demands.json"),
            "--calib", fx(CALIB), "--out", str(plan_file),
        )
        code, out, _ = run(capsys, "validate", str(plan_file))
        assert code == 0
        assert out == "ok\n"

    def test_tampered_plan_document_fails(self, capsys, fx, tmp_path):
        plan_file = tmp_path / "plan.json"
        run(
            capsys,
            "plan", "--topology", fx(TOPO), "--demands", fx("rm-mi2.demands.json"),
            "--calib", fx(CALIB), "--out", str(plan_file),
        )
        document = json.loads(plan_file.read_text())
        document["reports"][0]["chosen"]["capacity_gbps"] = 500.0
        plan_file.write_text(json.dumps(document))
        code, out, _ = run(capsys, "validate", str(plan_file))
        assert code == 1
        assert "CAPACITY_MISMATCH" in out

    @pytest.mark.parametrize(
        "provenance, message",
        [
            pytest.param(None, ".model_provenance: missing required field", id="dropped"),
            pytest.param(5, ".model_provenance: expected object, got integer", id="number"),
            pytest.param({}, ".model_provenance.calibration_sha256: missing required field", id="empty"),
            pytest.param({"calibration_sha256": 5}, ".model_provenance.calibration_sha256: expected string, got integer",
                         id="digest-number"),
            pytest.param({"calibration_sha256": "z" * 64},
                         f".model_provenance: calibration_sha256 must be 64 lowercase hex digits, got '{'z' * 64}'",
                         id="not-hex"),
            pytest.param({"calibration_sha256": "AB" * 32},
                         f".model_provenance: calibration_sha256 must be 64 lowercase hex digits, got '{'AB' * 32}'",
                         id="upper-case"),
            pytest.param({"calibration_sha256": "ab" * 31},
                         f".model_provenance: calibration_sha256 must be 64 lowercase hex digits, got '{'ab' * 31}'",
                         id="short"),
        ],
    )
    def test_plan_without_a_valid_provenance_exits_two_naming_the_field(
        self, capsys, fx, tmp_path, provenance, message
    ):
        plan_file = tmp_path / "plan.json"
        run(
            capsys,
            "plan", "--topology", fx(TOPO), "--demands", fx("rm-mi2.demands.json"),
            "--calib", fx(CALIB), "--out", str(plan_file),
        )
        document = json.loads(plan_file.read_text())
        if provenance is None:
            del document["model_provenance"]
        else:
            document["model_provenance"] = provenance
        plan_file.write_text(json.dumps(document))
        assert run(capsys, "validate", str(plan_file)) == (2, "", f"error: {plan_file}{message}\n")

    @pytest.mark.parametrize("grid", ["missing.grid.json", "busy.grid.json"])
    def test_grid_is_refused_for_a_document_that_is_not_a_plan(self, capsys, fx, tmp_path, grid):
        grid_path = str(tmp_path / grid) if grid.startswith("missing") else fx(grid)
        assert run(capsys, "validate", fx(TOPO), "--grid", grid_path) == (
            2, "", f"error: {fx(TOPO)}: --grid applies only to a plan or an allocation document\n"
        )

    def test_a_bad_document_is_reported_before_a_refused_grid(self, capsys, fixture_dir, tmp_path):
        topology = json.loads((fixture_dir / TOPO).read_text())
        del topology["nodes"]
        path = tmp_path / "no-nodes.topo.json"
        path.write_text(json.dumps(topology))
        assert run(capsys, "validate", str(path), "--grid", str(tmp_path / "missing.grid.json")) == (
            2, "", f"error: {path}.nodes: missing required field\n"
        )

    def test_invalid_topology_lists_violations(self, capsys, tmp_path):
        bad = tmp_path / "bad.topo.json"
        bad.write_text(
            json.dumps(
                {
                    "nodes": [{"id": "A", "name": "A", "has_roadm": True}],
                    "spans": [
                        {
                            "from": "A", "to": "X", "length_km": 10.0,
                            "attenuation_db": 3.0, "amplifier": "EDFA",
                            "dcm_present": True, "has_inline_ola": False,
                        }
                    ],
                }
            )
        )
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        assert "DANGLING_ENDPOINT" in out

    @pytest.mark.parametrize("field, text, message", NON_FINITE_SPANS)
    def test_non_finite_span_exits_two_naming_the_span(
        self, capsys, fixture_dir, tmp_path, field, text, message
    ):
        topology = garr_with_bo1_mi1_span(tmp_path, fixture_dir, field, text)
        code, out, err = run(capsys, "validate", str(topology))
        assert code == 2
        assert out == ""
        assert err == f"error: {topology}{message}\n"

    def test_plan_whose_reports_are_not_an_array_exits_two(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"model_provenance": {"calibration_sha256": "%s"}, "reports": {}}' % ("0" * 64))
        assert run(capsys, "validate", str(plan)) == (2, "", f"error: {plan}.reports: expected array, got dict\n")

    def test_unrecognized_document_exits_two(self, capsys, tmp_path):
        stray = tmp_path / "stray.json"
        stray.write_text('{"weird": true}')
        code, _, err = run(capsys, "validate", str(stray))
        assert code == 2
        assert "unrecognized" in err


DEMANDS, GRID, REQUESTS = "rm-mi2.demands.json", "busy.grid.json", "trial.requests.json"
# every subcommand that reads each kind of input file: the file, and the
# command line with "{f}" for it and "{plan}" for the output of OUTPUTS["plan"]
FILE_READERS = {
    "calibrate": (CALIB, ("calibrate", "--points", "{f}")),
    "estimate": (CALIB, ("estimate", "--calib", "{f}", "--distance", "345", "--modulation", "qpsk")),
    "export-plot": (CALIB, ("export-plot", "--calib", "{f}", "--modulation", "qpsk", "--distances", "345")),
    "plan-calib": (CALIB, ("plan", "--calib", "{f}", "--topology", TOPO, "--demands", DEMANDS)),
    "plan-topology": (TOPO, ("plan", "--calib", CALIB, "--topology", "{f}", "--demands", DEMANDS)),
    "plan-demands": (DEMANDS, ("plan", "--calib", CALIB, "--topology", TOPO, "--demands", "{f}")),
    "plan-grid": (GRID, ("plan", "--calib", CALIB, "--topology", TOPO, "--demands", DEMANDS, "--grid", "{f}")),
    "allocate-grid": (GRID, ("allocate", "--grid", "{f}", "--requests", REQUESTS)),
    "allocate-requests": (REQUESTS, ("allocate", "--grid", GRID, "--requests", "{f}")),
    **{f"validate-{name}": (name, ("validate", "{f}")) for name in (CALIB, TOPO, DEMANDS, GRID, REQUESTS, "plan")},
    "validate-plan-grid": (GRID, ("validate", "{plan}", "--grid", "{f}")),
}


def run_with_first_number(capsys, fx, tmp_path, reader: str, replacement: str):
    """Run *reader* on a copy of its file whose first number is replaced by
    the text *replacement*; the path of the copy and the run's result."""
    name, argv = FILE_READERS[reader]
    plan = tmp_path / "plan.json"
    assert run(capsys, *[fx(a) if a.endswith(".json") else a for a in OUTPUTS["plan"]], "--out", str(plan))[0] == 0
    bad = tmp_path / "bad.json"
    text = plan.read_text() if name == "plan" else Path(fx(name)).read_text()
    bad.write_text(re.sub(r"(?<=: )\d+(\.\d+)?", replacement, text, count=1))
    files = {"{f}": str(bad), "{plan}": str(plan)}
    return bad, run(capsys, *[files.get(a) or (fx(a) if a.endswith(".json") else a) for a in argv])


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit")
@pytest.mark.parametrize("reader", FILE_READERS)
def test_an_integer_past_the_digit_limit_exits_two_naming_the_file(capsys, fx, tmp_path, reader):
    digits = "7" * (sys.get_int_max_str_digits() + 700)  # more than int() may read
    huge, (code, out, err) = run_with_first_number(capsys, fx, tmp_path, reader, digits)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {huge}: invalid JSON: Exceeds the limit")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("reader", FILE_READERS)
def test_a_non_finite_constant_exits_two_naming_the_file(capsys, fx, tmp_path, reader, token):
    # a token json.loads takes and JSON does not
    bad, result = run_with_first_number(capsys, fx, tmp_path, reader, token)
    assert result == (2, "", f"error: {bad}: invalid JSON: {token} is not a JSON number\n")


def validate_document(document: dict) -> tuple[int, str]:
    """Exit code and output of ``awplan validate`` on *document*, written to a
    temporary file (no pytest fixture, so Hypothesis may call it)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(canonical_json(document))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["validate", str(path)])
    return code, out.getvalue()


def _unique_ids(grid) -> bool:
    ids = [n.id for n in grid.natives] + [sc.id for sc in grid.superchannels]
    return len(set(ids)) == len(ids)


def mismatch(i: int, request_id: str, ours: tuple, theirs: tuple) -> str:
    """validate's line for assignment *i*: its (start_slot, reason), then first fit's."""
    return (
        f"ASSIGNMENT_MISMATCH: assignments[{i}]: {request_id!r} has start_slot {ours[0]}, reason {ours[1]!r}; "
        f"first fit gives start_slot {theirs[0]}, reason {theirs[1]!r}"
    )


GRID_MISMATCH = "ASSIGNMENT_MISMATCH: grid: differs from the grid first fit gives"


class TestValidateAllocation:
    """validate re-runs first fit on an allocation's requests, from its grid
    without the occupants that its placed assignments name: each assignment
    and the grid must be what first fit gives."""

    def test_trial_allocation_with_a_moved_block_is_a_finding(self, capsys, fx):
        code, out, _ = run(capsys, "allocate", "--grid", fx("busy.grid.json"), "--requests", fx("trial.requests.json"))
        document = json.loads(out)
        assert validate_document(document) == (0, "ok\n")
        assert document["assignments"][1]["request"]["id"] == "aw-1"
        document["assignments"][1]["start_slot"] += 2
        message = mismatch(1, "aw-1", (22, None), (20, None)) + "\n"
        assert validate_document(document) == (1, message)

    def test_a_block_moved_with_its_occupant_is_a_finding(self, capsys, fx):
        code, out, _ = run(capsys, "allocate", "--grid", fx("busy.grid.json"), "--requests", fx("trial.requests.json"))
        document = json.loads(out)
        assert document["assignments"][2]["request"]["id"] == "aw-2"
        document["assignments"][2]["start_slot"] = 100
        (block,) = [sc for sc in document["grid"]["superchannels"] if sc["id"] == "aw-2"]
        block["start_slot"] = 100
        assert validate_document(document) == (1, f"{mismatch(2, 'aw-2', (100, None), (28, None))}\n{GRID_MISMATCH}\n")

    def test_native_at_another_bitrate_and_a_repeated_id_are_findings(self, fx):
        requests = [PlacementRequest(kind=OccupantKind.NATIVE, id=i) for i in ("a", "b")]
        document = first_fit_allocate(cli._load("grid", fx("busy.grid.json")), requests).to_dict()
        document["assignments"][0]["request"]["bitrate_gbps"] = 40
        document["assignments"][1]["request"]["id"] = "a"
        code, out = validate_document(document)
        assert code == 1
        assert out.splitlines() == [
            mismatch(1, "a", (2, None), (None, "no feasible window")),
            GRID_MISMATCH,
        ]

    def test_a_placed_assignment_that_gives_a_reason_is_a_finding(self, capsys, fx):
        code, out, _ = run(capsys, "allocate", "--grid", fx("busy.grid.json"), "--requests", fx("trial.requests.json"))
        document = json.loads(out)
        assert document["assignments"][0]["start_slot"] == 0
        document["assignments"][0]["reason"] = "no feasible window"
        message = mismatch(0, "n-100", (0, "no feasible window"), (0, None)) + "\n"
        assert validate_document(document) == (1, message)

    def test_a_placed_assignment_edited_to_unplaced_is_a_finding_against_its_grid(self, capsys, fx, tmp_path):
        code, out, _ = run(capsys, "allocate", "--grid", fx("busy.grid.json"), "--requests", fx("trial.requests.json"))
        path = tmp_path / "trial.alloc.json"
        path.write_text(out)
        assert run(capsys, "validate", str(path), "--grid", fx("busy.grid.json")) == (0, "ok\n", "")
        document = json.loads(out)
        assert document["assignments"][0]["request"]["id"] == "n-100"
        document["assignments"][0].update(start_slot=None, reason="no feasible window")
        # its occupant stays in the result grid, so the start grid derived from it holds n-100
        assert validate_document(document) == (0, "ok\n")
        path.write_text(json.dumps(document))
        message = mismatch(0, "n-100", (None, "no feasible window"), (0, None)) + "\n"
        assert run(capsys, "validate", str(path), "--grid", fx("busy.grid.json")) == (1, message, "")

    @pytest.mark.parametrize("edit", ["null", "deleted", "placed at slot 4 after all"])
    def test_an_unplaced_assignment_without_its_reason_is_a_finding(self, fx, edit):
        # natives are kept out of partitions, so first fit never places this one
        request = PlacementRequest(kind=OccupantKind.NATIVE, id="p", partition_only=True)
        document = first_fit_allocate(cli._load("grid", fx("busy.grid.json")), [request]).to_dict()
        assert validate_document(document) == (0, "ok\n")
        reason = None if edit in ("null", "deleted") else edit
        if edit == "deleted":
            del document["assignments"][0]["reason"]
        else:
            document["assignments"][0]["reason"] = reason
        message = mismatch(0, "p", (None, reason), (None, "no feasible window")) + "\n"
        assert validate_document(document) == (1, message)

    @settings(max_examples=150, deadline=None)
    @given(
        grid=slot_oracle.random_grids().filter(_unique_ids),
        shapes=st.lists(
            # ids the grid may hold, which first fit leaves unplaced, and fresh ones
            st.tuples(st.booleans(), st.integers(0, 3), st.booleans(), st.sampled_from(["n0", "s1", "r0", "r1", "r2"])),
            max_size=8,
        ),
        data=st.data(),
    )
    def test_first_fit_output_validates_and_a_moved_start_does_not(self, grid, shapes, data):
        requests = [
            PlacementRequest(
                kind=OccupantKind.NATIVE if is_native else OccupantKind.SUPERCHANNEL,
                id=request_id, guard_band_slots=guard, partition_only=partition_only,
            )
            for is_native, guard, partition_only, request_id in shapes
        ]
        result = first_fit_allocate(grid, requests)
        document = result.to_dict()
        assert validate_document(document) == (0, "ok\n")
        if not shapes:
            return
        # a placed assignment given a reason, or an unplaced one given another
        turned = copy.deepcopy(document)
        j = data.draw(st.integers(0, len(shapes) - 1))
        assignment = turned["assignments"][j]
        request_id, start, reason = assignment["request"]["id"], assignment["start_slot"], assignment["reason"]
        if start is None:
            assignment["reason"] = data.draw(st.none() | st.text().filter(lambda text: text != reason))
        else:
            assignment["reason"] = data.draw(st.text())
        message = mismatch(j, request_id, (start, assignment["reason"]), (start, reason))
        assert validate_document(turned) == (1, message + "\n")
        placed = [i for i, a in enumerate(document["assignments"]) if a["start_slot"] is not None]
        if not placed:
            return
        i = data.draw(st.sampled_from(placed))
        request_id, start = requests[i].id, document["assignments"][i]["start_slot"]
        # the occupant moved with it, to another start that the placement rules accept
        natives, blocks = result.grid.natives, result.grid.superchannels
        (occupant,) = [o for o in natives + blocks if o.id == request_id]
        without = replace(
            result.grid,
            natives=tuple(o for o in natives if o.id != request_id),
            superchannels=tuple(o for o in blocks if o.id != request_id),
        )
        state = slot_oracle.slot_state(without)
        accepted = [
            s for s in range(grid.band.slot_count)
            if s != start and not isinstance(slot_oracle.place(grid.band, *state, replace(occupant, start_slot=s)), str)
        ]
        if accepted:
            moved, to = copy.deepcopy(document), data.draw(st.sampled_from(accepted))
            moved["assignments"][i]["start_slot"] = to
            kind = "natives" if occupant in natives else "superchannels"
            (held,) = [o for o in moved["grid"][kind] if o["id"] == request_id]
            held["start_slot"] = to
            expected = f"{mismatch(i, request_id, (to, None), (start, None))}\n{GRID_MISMATCH}\n"
            assert validate_document(moved) == (1, expected)
        shift = data.draw(st.sampled_from([-2, -1, 1, 2]))
        document["assignments"][i]["start_slot"] += shift
        assert validate_document(document) == (1, mismatch(i, request_id, (start + shift, None), (start, None)) + "\n")


class TestErrors:
    def test_missing_file_exits_two_and_names_path(self, capsys):
        code, _, err = run(
            capsys, "calibrate", "--points", "/nonexistent/points.json"
        )
        assert code == 2
        assert "/nonexistent/points.json" in err

    def test_invalid_json_exits_two(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{nope")
        code, _, err = run(capsys, "calibrate", "--points", str(broken))
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize("subcommand", ["validate", "plan"])
    def test_deep_nesting_exits_two_naming_the_file(self, capsys, fx, tmp_path, subcommand):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        argv = ["validate", str(deep)]
        if subcommand == "plan":  # the topology is parsed apart from the other inputs
            argv = ["plan", "--topology", str(deep), "--demands", fx("rm-mi2.demands.json"), "--calib", fx(CALIB)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {deep}: invalid JSON: nested too deeply\n"

    def test_non_utf8_file_exits_two_naming_the_file(self, capsys, tmp_path):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b'{"a": "\xff"}')
        code, out, err = run(capsys, "validate", str(binary))
        assert code == 2
        assert out == ""
        assert err == f"error: {binary}: not UTF-8 at byte 7\n"

    @pytest.mark.parametrize("subcommand", ["validate", "plan"])
    def test_topology_schema_error_names_the_file(self, capsys, fx, fixture_dir, tmp_path, subcommand):
        document = json.loads((fixture_dir / TOPO).read_text())
        document["spans"][0]["length_km"] = "80"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        argv = ["validate", str(bad)]
        if subcommand == "plan":
            argv = ["plan", "--topology", str(bad), "--demands", fx("rm-mi2.demands.json"), "--calib", fx(CALIB)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}.spans[0].length_km: expected number, got str\n"

    def test_invalid_topology_names_the_file(self, capsys, fx, fixture_dir, tmp_path):
        document = json.loads((fixture_dir / TOPO).read_text())
        document["spans"][0]["to"] = "NOWHERE"
        bad = tmp_path / "dangling.json"
        bad.write_text(json.dumps(document))
        code, out, err = run(
            capsys,
            "plan", "--topology", str(bad), "--demands", fx("rm-mi2.demands.json"), "--calib", fx(CALIB),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {bad}: invalid topology: DANGLING_ENDPOINT: span[0] BO1-NOWHERE")

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
