from __future__ import annotations

import json
from pathlib import Path

import pytest

from awplan.cli import main

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


def garr_with_bo1_mi1_span(tmp_path: Path, fixture_dir: Path, field: str, value: float) -> Path:
    """A copy of the bundled topology with one field of the first BO1-MI1 span replaced."""
    document = json.loads((fixture_dir / TOPO).read_text())
    assert (document["spans"][0]["from"], document["spans"][0]["to"]) == ("BO1", "MI1")
    document["spans"][0][field] = value
    path = tmp_path / "garr.topo.json"
    path.write_text(json.dumps(document))
    return path


NON_FINITE_SPANS = [
    pytest.param("length_km", float("nan"), "length_km must be finite, got nan", id="length-NaN"),
    pytest.param("length_km", float("inf"), "length_km must be finite, got inf", id="length-Infinity"),
    pytest.param("attenuation_db", float("-inf"), "attenuation_db must be finite, got -inf",
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

    @pytest.mark.parametrize("field, value, message", NON_FINITE_SPANS)
    def test_non_finite_span_exits_two_naming_the_span(
        self, capsys, fx, fixture_dir, tmp_path, field, value, message
    ):
        topology = garr_with_bo1_mi1_span(tmp_path, fixture_dir, field, value)
        code, out, err = run(
            capsys,
            "plan", "--topology", str(topology), "--demands", fx("bo1-mi1.demands.json"),
            "--calib", fx(CALIB),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {topology}.spans[0]: {message}\n"

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
        assert err == "error: qpsk_mixed_reach_limit_km must be >= 0, got nan\n"

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


class TestValidate:
    def test_calibration_file_ok(self, capsys, fx):
        code, out, _ = run(capsys, "validate", fx(CALIB))
        assert code == 0
        assert out == "ok\n"

    def test_nan_reference_distance_exits_two_like_calibrate(self, capsys, fx):
        code, out, err = run(capsys, "validate", fx(CALIB), "--l-ref", "nan")
        assert code == 2
        assert out == ""
        assert err == "error: l_ref_km must be finite, got nan\n"

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

    @pytest.mark.parametrize("field, value, message", NON_FINITE_SPANS)
    def test_non_finite_span_exits_two_naming_the_span(
        self, capsys, fixture_dir, tmp_path, field, value, message
    ):
        topology = garr_with_bo1_mi1_span(tmp_path, fixture_dir, field, value)
        code, out, err = run(capsys, "validate", str(topology))
        assert code == 2
        assert out == ""
        assert err == f"error: {topology}.spans[0]: {message}\n"

    def test_unrecognized_document_exits_two(self, capsys, tmp_path):
        stray = tmp_path / "stray.json"
        stray.write_text('{"weird": true}')
        code, _, err = run(capsys, "validate", str(stray))
        assert code == 2
        assert "unrecognized" in err


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
