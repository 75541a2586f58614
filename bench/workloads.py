"""The benchmark's workloads, and the CLI ops of the traced run.

Each workload turns a seed into a pool of cycles. A cycle is a list of
sessions and a session is a list of ops; state (the spectrum grid) threads
through the ops of a session only. ``step`` is the timed part of an op;
``check`` runs the independent oracles on an op's output after the timed
loop. Ops repeat when the loop wraps around the pool, and a repeated op must
give exactly the output that was checked the first time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import generators as gen
import oracles

import awplan.cli
from awplan import (
    AllocationResult,
    CalibrationPoint,
    Demand,
    EqualizationReport,
    PlacementRequest,
    PlanReport,
    PowerReading,
    SpectrumGrid,
    apply_plan,
    calibrate,
    canonical_json,
    compute_voa_settings,
    equalization_report,
    first_fit_allocate,
    parse_topology,
    plan_link,
    round_trip,
    serialize,
    validate_plan,
)
from awplan.errors import PlanningError, SpectrumError

FILL_BATCHES = (1, 20, 80)
PLAN_SESSIONS = (1, 10, 50)
MAX_HOPS = {"garr": 8, "mesh": 15}
FLATNESS_TOLERANCE_DB = 1.0


@dataclass
class Op:
    key: tuple  # identical keys mean identical inputs
    label: str  # op type, for the per-type latency table
    data: dict = field(default_factory=dict)


@dataclass
class Session:
    start: object  # initial state handed to the first op
    ops: list[Op]


@dataclass
class Result:
    signature: object  # what a repeat of the op must reproduce exactly
    detail: dict = field(default_factory=dict)  # kept for the first occurrence only


class Context:
    """Inputs shared by every workload: bundled fixtures and the seeded mesh."""

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.fixtures = root / "src" / "awplan" / "fixtures"
        self.calib_text = (self.fixtures / "reference.calib.json").read_text(encoding="utf-8")
        self.calib_points = json.loads(self.calib_text)
        self.model = calibrate([CalibrationPoint.from_dict(p) for p in self.calib_points])
        self.model_doc = self.model.to_dict()
        self.topology_docs = {
            "garr": json.loads((self.fixtures / "garr.topo.json").read_text(encoding="utf-8")),
            "mesh": gen.make_mesh(gen.rng_for(seed, "mesh")),
        }
        # the strict parser rejects a generated mesh that breaks any invariant
        self.topologies = {name: parse_topology(doc) for name, doc in self.topology_docs.items()}

    def add_mesh(self, index: int) -> str:
        """Name of the seed's mesh number *index*, made and parsed on first use."""
        name = f"mesh{index}"
        if name not in self.topologies:
            self.topology_docs[name] = gen.make_mesh(gen.rng_for(self.seed, "mesh", index))
            self.topologies[name] = parse_topology(self.topology_docs[name])
        return name


# -- fill_band ----------------------------------------------------------------


class FillBand:
    """In-process first fit: load a grid document, allocate a batch,
    serialize the result. Writes and occupancy checks in ``spectrum``."""

    name = "fill_band"
    pool_cycles = 10

    def __init__(self, ctx: Context, seed: int) -> None:
        self.cycles = []
        for c in range(self.pool_cycles):
            sessions = []
            for layout in gen.PARTITION_LAYOUTS:
                for density in gen.NATIVE_DENSITIES:
                    for size in FILL_BATCHES:
                        rng = gen.rng_for(seed, self.name, c, layout, density, size)
                        grid_doc = gen.make_grid(rng, density, layout)
                        request_docs = gen.make_requests(rng, size, f"r{c}")
                        SpectrumGrid.from_dict(grid_doc)  # loaded once before timing
                        requests = [PlacementRequest.from_dict(r) for r in request_docs]
                        op = Op(
                            key=(c, layout, density, size),
                            label=f"{size}req@{density}n/{layout}",
                            data={"grid_doc": grid_doc, "request_docs": request_docs, "requests": requests},
                        )
                        sessions.append(Session(start=None, ops=[op]))
            self.cycles.append(sessions)

    def step(self, state, op: Op):
        grid = SpectrumGrid.from_dict(op.data["grid_doc"])
        result = first_fit_allocate(grid, op.data["requests"])
        text = canonical_json(result.to_dict())
        return state, Result(signature=text)

    def check(self, op: Op, result: Result) -> list[str]:
        text = result.signature
        label = f"fill_band {op.label}"
        problems = oracles.check_canonical(text, label)
        if problems:
            return problems
        data = json.loads(text)
        problems += oracles.check_allocation(op.data["grid_doc"], op.data["request_docs"], data, label)
        if serialize(AllocationResult.from_dict(data)) != text:
            problems.append(f"{label}: serialize(parse(text)) differs from text")
        return problems


# -- plan_batch ---------------------------------------------------------------


class PlanBatch:
    """In-process planning sessions with the grid threaded forward: plan,
    validate, apply, level power, serialize. Spectrum probes plus every
    library layer; first fit is never called."""

    name = "plan_batch"
    pool_cycles = 12

    def __init__(self, ctx: Context, seed: int) -> None:
        self.ctx = ctx
        self.cycles = []
        for c in range(self.pool_cycles):
            # A mesh of its own per cycle: how hard a mesh's paths are to
            # plan varies from mesh to mesh, and a run spans many cycles.
            mesh = ctx.add_mesh(c)
            topologies = {"garr": ctx.topology_docs["garr"], mesh: ctx.topology_docs[mesh]}
            max_hops = {"garr": MAX_HOPS["garr"], mesh: MAX_HOPS["mesh"]}
            sessions = []
            for layout in gen.PARTITION_LAYOUTS:
                for density in gen.NATIVE_DENSITIES:
                    for size in PLAN_SESSIONS:
                        rng = gen.rng_for(seed, self.name, c, layout, density, size)
                        grid_doc = gen.make_grid(rng, density, layout)
                        grid = SpectrumGrid.from_dict(grid_doc)
                        refs = [n["id"] for n in grid_doc["natives"]] + ["aw-block", "aw-block-2", "aw-block-3"]
                        ops = []
                        for i, (topo, demand_doc) in enumerate(
                            gen.make_demands(rng, size, topologies, max_hops)
                        ):
                            target = round(rng.uniform(-4.0, 0.0), 2)
                            reading_docs = gen.make_readings(rng, demand_doc["path"], refs, target)
                            ops.append(
                                Op(
                                    key=(c, layout, density, size, i),
                                    label=f"{size}dem@{density}n/{layout}",
                                    data={
                                        "topology": topo,
                                        "demand": Demand.from_dict(demand_doc),
                                        "target": target,
                                        "reading_docs": reading_docs,
                                        "readings": {
                                            node: [PowerReading.from_dict(r) for r in items]
                                            for node, items in reading_docs.items()
                                        },
                                    },
                                )
                            )
                        sessions.append(Session(start=grid, ops=ops))
            self.cycles.append(sessions)

    def step(self, grid, op: Op):
        d = op.data
        report = plan_link(d["demand"], self.ctx.topologies[d["topology"]], grid, self.ctx.model)
        violations = validate_plan(report, grid)
        after, block = grid, None
        if report.chosen.feasible:
            after, block = apply_plan(grid, report)
        results = {node: compute_voa_settings(items, d["target"]) for node, items in d["readings"].items()}
        eq = equalization_report(after, results, FLATNESS_TOLERANCE_DB)
        text = canonical_json(report.to_dict())
        eq_text = canonical_json(eq.to_dict())
        round_trip(report)
        signature = (text, eq_text, tuple(v.code for v in violations), block)
        return after, Result(signature=signature, detail={"before": grid, "after": after})

    def check(self, op: Op, result: Result) -> list[str]:
        text, eq_text, codes, block = result.signature
        label = f"plan_batch {op.label}#{op.key[-1]}"
        problems = oracles.check_canonical(text, label) + oracles.check_canonical(eq_text, label + " eq")
        if problems:
            return problems
        report = json.loads(text)
        eq = json.loads(eq_text)
        problems += oracles.check_report(report, self.ctx.topology_docs[op.data["topology"]], self.ctx.model_doc, label)
        if serialize(PlanReport.from_dict(report)) != text:
            problems.append(f"{label}: serialize(parse(report)) differs")
        if serialize(EqualizationReport.from_dict(eq)) != eq_text:
            problems.append(f"{label}: serialize(parse(equalization)) differs")
        before = result.detail["before"].to_dict()
        after = result.detail["after"].to_dict()
        if report["chosen"]["feasible"]:
            if codes:
                problems.append(f"{label}: validate_plan flags a feasible plan on its own grid: {codes}")
            problems += oracles.check_placement(before, after, report["chosen"]["strategy"], label)
        elif block is not None or after != before:
            problems.append(f"{label}: an infeasible plan changed the grid")
        known = {o["id"] for o in after["natives"]} | {o["id"] for o in after["superchannels"]}
        problems += oracles.check_equalization(
            op.data["reading_docs"], op.data["target"], eq, known, FLATNESS_TOLERANCE_DB, label
        )
        return problems


# -- cli ----------------------------------------------------------------------


def joint_apply_conflicts(plan_text: str, grid_doc: dict) -> int:
    """Replay a multi-demand plan document in order on its input grid and
    count feasible reports that apply_plan cannot commit. ``awplan plan``
    plans every demand against the same grid, so later reports can collide
    with earlier ones; this counts that, it does not fail the op."""
    grid = SpectrumGrid.from_dict(grid_doc)
    conflicts = 0
    for item in json.loads(plan_text)["reports"]:
        report = PlanReport.from_dict(item)
        if not report.chosen.feasible:
            continue
        try:
            grid, _ = apply_plan(grid, report)
        except (PlanningError, SpectrumError):
            conflicts += 1
    return conflicts


class CliOps:
    """One op per ``awplan`` command line, over all six subcommands, each
    called in-process through ``awplan.cli.main`` with its own seeded input
    files. The traced run times and checks them for the ``cli`` layer."""

    def __init__(self, ctx: Context, seed: int, workdir: Path) -> None:
        self.ctx = ctx
        rng = gen.rng_for(seed, "cli")
        fx = ctx.fixtures
        files = {
            "grid_a": gen.make_grid(rng, 40, "none"),
            "grid_b": gen.make_grid(rng, 40, "dedicated"),
            "req_20": gen.make_requests(rng, 20, "c"),
            "req_80": gen.make_requests(rng, 80, "c"),
            "mesh": ctx.topology_docs["mesh"],
            "dem_1": [d for _, d in gen.make_demands(rng, 1, {"garr": ctx.topology_docs["garr"]}, MAX_HOPS)],
            "dem_10": [d for _, d in gen.make_demands(rng, 10, {"garr": ctx.topology_docs["garr"]}, MAX_HOPS)],
            "dem_50": [d for _, d in gen.make_demands(rng, 50, {"mesh": ctx.topology_docs["mesh"]}, MAX_HOPS)],
        }
        # every generated document goes through the program's parser once
        for name in ("grid_a", "grid_b"):
            SpectrumGrid.from_dict(files[name])
        for name in ("req_20", "req_80"):
            [PlacementRequest.from_dict(r) for r in files[name]]
        for name in ("dem_1", "dem_10", "dem_50"):
            [Demand.from_dict(d) for d in files[name]]
        self.docs = files
        self.paths = {}
        for name, doc in files.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            self.paths[name] = str(path)
        self.plan10_path = str(workdir / "plan_10.out.json")
        calib = str(fx / "reference.calib.json")
        garr = str(fx / "garr.topo.json")
        distance = round(rng.uniform(200.0, 2500.0), 1)
        modulation = rng.choice(("bpsk", "qpsk"))
        guarded, unguarded = rng.randint(0, 4), rng.randint(0, 4)
        distances = sorted(rng.sample(range(100, 3000, 25), 12))
        p = self.paths
        specs = [
            ("calibrate", ["calibrate", "--points", calib]),
            ("estimate-ref", ["estimate", "--calib", calib, "--distance", "1131", "--modulation", "qpsk", "--neighbors", "dedicated"]),
            ("estimate", ["estimate", "--calib", calib, "--distance", str(distance), "--modulation", modulation,
                          "--neighbors", f"{guarded},{unguarded}", "--json"]),
            ("plan-ref", ["plan", "--calib", calib, "--topology", garr, "--demands", str(fx / "rm-mi2.demands.json")]),
            ("plan-1", ["plan", "--calib", calib, "--topology", garr, "--demands", p["dem_1"], "--grid", p["grid_a"]]),
            ("plan-10", ["plan", "--calib", calib, "--topology", garr, "--demands", p["dem_10"], "--grid", p["grid_a"]]),
            ("plan-50", ["plan", "--calib", calib, "--topology", p["mesh"], "--demands", p["dem_50"], "--grid", p["grid_b"]]),
            ("allocate-20", ["allocate", "--grid", p["grid_a"], "--requests", p["req_20"]]),
            ("allocate-80", ["allocate", "--grid", p["grid_b"], "--requests", p["req_80"]]),
            ("export-plot-csv", ["export-plot", "--calib", calib, "--modulation", modulation,
                                 "--neighbors", f"{guarded},{unguarded}", "--distances", ",".join(map(str, distances))]),
            ("export-plot-json", ["export-plot", "--calib", calib, "--modulation", "qpsk", "--neighbors", "dedicated",
                                  "--distances", ",".join(map(str, distances)), "--format", "json"]),
            ("validate-topology", ["validate", p["mesh"]]),
            ("validate-plan", ["validate", self.plan10_path, "--grid", p["grid_a"]]),
        ]
        self.estimate_args = (distance, modulation.upper(), guarded, unguarded)
        self.distances = distances
        self.plot_modulation = modulation.upper()
        self.ops = [Op(key=(label,), label=label, data={"argv": argv}) for label, argv in specs]
        self.conflicts: dict[str, int] = {}

    def invoke(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = awplan.cli.main(argv)
            except SystemExit as exit_:  # argparse rejects a command line
                code = exit_.code
        return code, out.getvalue(), err.getvalue()

    def step(self, state, op: Op):
        code, out, err = self.invoke(op.data["argv"])
        if op.label == "plan-10" and code != 2:
            # the document the validate-plan op reads; written outside the op's own timing
            Path(self.plan10_path).write_text(out, encoding="utf-8")
        return state, Result(signature=(code, out), detail={"stderr": err})

    def check(self, op: Op, result: Result) -> list[str]:
        code, out = result.signature
        label = f"cli {op.label}"
        if code == 2:
            return [f"{label}: exit code 2: {result.detail['stderr'].strip()[:200]}"]
        kind = op.label.split("-")[0]
        if op.label == "estimate-ref":
            return [] if (code, out) == (0, "11.44 / Ok\n") else [f"{label}: {out!r} (exit {code}), README says '11.44 / Ok'"]
        if op.label == "export-plot-csv":
            return oracles.check_csv(out, label) + self._check_series(out, label)
        if op.label == "validate-topology":
            return [] if (code, out) == (0, "ok\n") else [f"{label}: {out!r} (exit {code})"]
        if op.label == "validate-plan":
            return self._check_validate(code, out, label)
        problems = oracles.check_canonical(out, label)
        if problems:
            return problems
        data = json.loads(out)
        if kind == "calibrate":
            problems += oracles.check_calibration(data, self.ctx.calib_points, label)
            if code != 0:
                problems.append(f"{label}: exit {code}")
        elif kind == "estimate":
            distance, modulation, g, u = self.estimate_args
            q = oracles.q_linear(self.ctx.model_doc, modulation, distance, 0, g, u)
            if abs(data["value_db"] - q) > oracles.Q_TOLERANCE_DB:
                problems.append(f"{label}: Q {data['value_db']} != {q:.4f} from the model")
            if code != (1 if data["class"] == "Infeasible" else 0):
                problems.append(f"{label}: exit {code} for class {data['class']}")
        elif kind == "plan":
            problems += self._check_plan(op.label, op.data["argv"], code, out, label)
        elif kind == "allocate":
            grid_name, req_name = ("grid_a", "req_20") if op.label == "allocate-20" else ("grid_b", "req_80")
            problems += oracles.check_allocation(self.docs[grid_name], self.docs[req_name], data, label)
            if code != (0 if all(a["start_slot"] is not None for a in data["assignments"]) else 1):
                problems.append(f"{label}: exit {code} disagrees with the assignments")
        elif kind == "export":
            problems += self._check_series(data, label)
        return problems

    def _check_series(self, out, label: str) -> list[str]:
        if isinstance(out, str):
            rows = [line.split(",") for line in out.splitlines()[1:]]
            modulation, g, u = self.plot_modulation, self.estimate_args[2], self.estimate_args[3]
        else:
            rows = out["points"]
            modulation, g, u = "QPSK", 0, 0
        problems = []
        if [float(r[0]) for r in rows] != [float(d) for d in self.distances]:
            problems.append(f"{label}: distances differ from the request")
        for x, y in rows:
            q = oracles.q_linear(self.ctx.model_doc, modulation, float(x), 0, g, u)
            if abs(float(y) - q) > oracles.Q_TOLERANCE_DB:
                problems.append(f"{label}: Q at {x} km is {y}, model says {q:.4f}")
        return problems

    def _check_plan(self, name: str, argv: list[str], code: int, out: str, label: str) -> list[str]:
        data = json.loads(out)
        problems = []
        digest = hashlib.sha256(self.ctx.calib_text.encode("utf-8")).hexdigest()
        if data["model_provenance"]["calibration_sha256"] != digest:
            problems.append(f"{label}: calibration digest differs")
        topology = self.ctx.topology_docs["mesh" if argv[argv.index("--topology") + 1] == self.paths["mesh"] else "garr"]
        for i, report in enumerate(data["reports"]):
            problems += oracles.check_report(report, topology, self.ctx.model_doc, f"{label}.reports[{i}]")
        if code != (0 if all(r["chosen"]["feasible"] for r in data["reports"]) else 1):
            problems.append(f"{label}: exit {code} disagrees with the reports")
        if name == "plan-ref":
            chosen = data["reports"][0]["chosen"]
            if (chosen["strategy"], chosen["capacity_gbps"]) != ("DedicatedPartition", 450.0):
                problems.append(f"{label}: RM-MI2 chose {chosen['strategy']} at {chosen['capacity_gbps']}, README says DedicatedPartition at 450")
        if name in ("plan-10", "plan-50"):
            grid_doc = self.docs["grid_a" if name == "plan-10" else "grid_b"]
            self.conflicts[name] = joint_apply_conflicts(out, grid_doc)
        return problems

    def _check_validate(self, code: int, out: str, label: str) -> list[str]:
        plan = json.loads(Path(self.plan10_path).read_text(encoding="utf-8"))
        infeasible = {i for i, r in enumerate(plan["reports"]) if not r["chosen"]["feasible"]}
        if out == "ok\n":
            return [] if code == 0 else [f"{label}: 'ok' with exit {code}"]
        flagged = set()
        for line in out.splitlines():
            head, _, rest = line.partition(": reports[")
            if not rest or not head.isupper():
                return [f"{label}: unexpected line {line!r}"]
            flagged.add(int(rest.split("]", 1)[0]))
        problems = [] if code == 1 else [f"{label}: findings with exit {code}"]
        if not flagged <= infeasible:
            problems.append(f"{label}: feasible reports {sorted(flagged - infeasible)} flagged on their own grid")
        return problems
