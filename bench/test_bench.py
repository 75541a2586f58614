"""Self-test of the benchmark: its checkers catch wrong answers, its inputs
are deterministic per seed, and a short run of each workload is clean.

Run from the root of a checkout: ``python3 -m pytest bench -q``. It is not
part of the package's own test suite, which collects ``tests/`` only.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import generators as gen  # noqa: E402
import oracles  # noqa: E402
from awplan import (  # noqa: E402
    Demand,
    PlacementRequest,
    SpectrumGrid,
    canonical_json,
    empty_grid,
    first_fit_allocate,
    parse_topology,
    plan_link,
)
from workloads import Context  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def ctx() -> Context:
    return Context(ROOT, seed=5)


def _docs(seed: int) -> str:
    rng = gen.rng_for(seed, "test")
    mesh = gen.make_mesh(rng)
    garr = json.loads((ROOT / "src/awplan/fixtures/garr.topo.json").read_text(encoding="utf-8"))
    topologies = {"garr": garr, "mesh": mesh}
    demands = gen.make_demands(rng, 20, topologies, {"garr": 8, "mesh": 15})
    return json.dumps(
        {
            "grids": [gen.make_grid(rng, d, layout) for d in gen.NATIVE_DENSITIES for layout in gen.PARTITION_LAYOUTS],
            "requests": gen.make_requests(rng, 80, "t"),
            "mesh": mesh,
            "demands": demands,
            "readings": gen.make_readings(rng, demands[0][1]["path"], ["a", "b", "c", "d"], -2.0),
        },
        sort_keys=True,
    )


def test_generators_are_deterministic_per_seed():
    assert _docs(7) == _docs(7)
    assert _docs(7) != _docs(8)


def test_generated_documents_load_through_the_program():
    data = json.loads(_docs(7))
    for grid in data["grids"]:
        SpectrumGrid.from_dict(grid)
        assert oracles.check_grid(grid, "grid") == []
    [PlacementRequest.from_dict(r) for r in data["requests"]]
    parse_topology(data["mesh"])  # strict: raises on any invariant violation
    assert len(data["mesh"]["nodes"]) == 100
    for _, demand in data["demands"]:
        Demand.from_dict(demand)


def _allocation(seed: int) -> tuple[dict, list[dict], dict]:
    rng = gen.rng_for(seed, "alloc")
    grid = gen.make_grid(rng, 40, "dedicated")
    requests = gen.make_requests(rng, 20, "a")
    result = first_fit_allocate(SpectrumGrid.from_dict(grid), [PlacementRequest.from_dict(r) for r in requests])
    return grid, requests, json.loads(canonical_json(result.to_dict()))


def test_allocation_checker_rejects_a_start_shifted_by_one():
    grid, requests, result = _allocation(3)
    assert oracles.check_allocation(grid, requests, result, "ok") == []
    placed = [i for i, a in enumerate(result["assignments"]) if a["start_slot"] is not None]
    assert placed
    for i in placed:
        for shift in (-1, 1):
            bad = copy.deepcopy(result)
            bad["assignments"][i]["start_slot"] += shift
            assert oracles.check_allocation(grid, requests, bad, "bad"), (i, shift)


def test_grid_checker_rejects_each_broken_invariant():
    base = gen.make_grid(gen.rng_for(1, "g"), 0, "dedicated")
    part = base["partitions"][0]
    native = {"id": "n", "start_slot": 0, "bitrate_gbps": 10, "format": "IM-DD"}
    block = {"id": "b", "start_slot": 0, "width_slots": 8, "pairs": [], "active_carriers": 10}
    outside = 0 if part["start_slot"] >= 10 else part["start_slot"] + part["width_slots"]
    straddle = part["start_slot"] - 4 if part["start_slot"] >= 4 else part["start_slot"] + part["width_slots"] - 4
    cases = {
        "overlap": ([native, dict(native, id="m")], []),
        "odd native": ([dict(native, start_slot=outside + 1)], []),
        "native in partition": ([dict(native, start_slot=part["start_slot"])], []),
        "straddle": ([], [dict(block, start_slot=straddle)]),
        "out of band": ([dict(native, start_slot=160)], []),
    }
    for name, (natives, blocks) in cases.items():
        grid = dict(base, natives=natives, superchannels=blocks)
        assert oracles.check_grid(grid, name), name


def test_report_checker_rejects_inflated_q(ctx):
    demand = Demand(path=("RM", "H6", "H7", "H8", "MI2"), required_capacity_gbps=400.0)
    report = plan_link(demand, ctx.topologies["garr"], empty_grid(), ctx.model)
    doc = json.loads(canonical_json(report.to_dict()))
    garr = ctx.topology_docs["garr"]
    assert oracles.check_report(doc, garr, ctx.model_doc, "ok") == []
    assert doc["chosen"]["strategy"] == "DedicatedPartition"
    bad = copy.deepcopy(doc)
    bad["chosen"]["q"] = {"value_db": 30.0, "class": "Ok"}
    assert any("dedicated Q" in p for p in oracles.check_report(bad, garr, ctx.model_doc, "bad"))
    mixed = next(o for o in doc["alternatives"] if o["strategy"] == "MixedSpectrum")
    bad_mixed = copy.deepcopy(doc)
    bad_mixed["alternatives"][doc["alternatives"].index(mixed)]["q"] = {"value_db": 30.0, "class": "Ok"}
    assert oracles.check_report(bad_mixed, garr, ctx.model_doc, "bad")
    wrong_capacity = copy.deepcopy(doc)
    wrong_capacity["chosen"]["capacity_gbps"] = 500.0
    assert oracles.check_report(wrong_capacity, garr, ctx.model_doc, "bad")


def test_path_metrics_come_from_the_raw_topology(ctx):
    distance, roadms = oracles.path_metrics(ctx.topology_docs["garr"], ["RM", "H6", "H7", "H8", "MI2"])
    assert roadms == 5
    assert distance == pytest.approx(1131.0)


def test_canonical_checker_rejects_one_changed_byte():
    _, _, result = _allocation(4)
    text = oracles.canonical_text(result)
    assert text == canonical_json(result)
    assert oracles.check_canonical(text, "ok") == []
    mutations = [
        text.replace("  ", " ", 1),
        text.replace(".0000", ".000", 1),
        text.replace("\n", " \n", 1),
        text[:-1],
        text.replace('"band"', '"band" ', 1),
    ]
    for mutated in mutations:
        assert mutated != text
        assert oracles.check_canonical(mutated, "bad"), mutated[:80]
    assert oracles.check_csv("distance_km,q_db\n100.0000,1.0000\n", "ok") == []
    assert oracles.check_csv("distance_km,q_db\n100.000,1.0000\n", "bad")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_is_clean(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout[-2000:]
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    if trace == "1":
        record = json.loads((BENCH / "out" / f"{workload}-seed3-trace1.json").read_text(encoding="utf-8"))
        # every module that imports a traced function gets the wrapper
        assert {"awplan.planner.grid_context_for", "awplan.cli.first_fit_allocate", "SpectrumGrid.occupant_map"} <= set(
            record["binding_sites"]
        )
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "--workload", "fill_band", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
