"""Command-line front end: calibrate, estimate, allocate, plan, export, validate.

All results are canonical JSON or CSV, byte-identical across runs for the
same inputs. Diagnostics go to standard error, never as stack traces for
user mistakes. Exit codes: 0 success with a feasible result, 1 completed
but without a feasible result, 2 unusable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__, _schema
from .errors import AwplanError, CalibrationError, SchemaError, TopologyError
from .iofmt import PlotSeries, canonical_json, export_q_vs_distance, parse_json, plot_series_to_csv
from .perfmodel import (
    DEFAULT_L_REF_KM, DESIGN_MIN_DB, HARD_MIN_DB, CalibrationPoint, Feasibility, Modulation, NeighborConfig, QEstimate,
    QModel, Thresholds, calibrate, check_l_ref, estimate_q,
)
from .planner import DEFAULT_POLICY, Demand, ModelProvenance, PlanDocument, PlannerPolicy, plan_link, validate_plan
from .spectrum import AllocationResult, PlacementRequest, SpectrumGrid, empty_grid, first_fit_allocate
from .topology import NetworkTopology, PathMetrics, check_topology, validate_topology

_CLASS_COLORS = {
    Feasibility.OK.value: "\x1b[32m",
    Feasibility.MARGINAL.value: "\x1b[33m",
    Feasibility.INFEASIBLE.value: "\x1b[31m",
}
_RESET = "\x1b[0m"


def _color_enabled() -> bool:
    if os.environ.get("AWPLAN_NO_COLOR"):
        return False
    return sys.stdout.isatty()


def _paint(word: str) -> str:
    color = _CLASS_COLORS.get(word)
    if color and _color_enabled():
        return f"{color}{word}{_RESET}"
    return word


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise SchemaError(f"{path}: not UTF-8 at byte {err.start}") from None


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _stamped(document: dict, args: argparse.Namespace) -> dict:
    if not getattr(args, "stamp", False):
        return document
    from datetime import datetime, timezone  # only --stamp pays the import

    meta = {
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "generator": f"awplan {__version__}",
    }
    return {**document, "_meta": meta}


def _calibration_findings(points: list, args: argparse.Namespace) -> list:
    try:
        calibrate(points, args.l_ref)
    except CalibrationError as err:
        return [("CALIBRATION", str(err))]
    return []


def _plan_findings(plan: PlanDocument, args: argparse.Namespace) -> list:
    grid = _load_grid(args.grid)
    policy = PlannerPolicy(thresholds=_thresholds_from(args))
    return [
        (violation.code, f"reports[{i}]: {violation.message}")
        for i, report in enumerate(plan.reports)
        for violation in validate_plan(report, grid, policy)
    ]


def _allocation_findings(allocation: AllocationResult, args: argparse.Namespace) -> list:
    """First fit re-run on the document's requests, from the ``--grid`` grid,
    else from the result grid without the occupants its placed assignments
    name: each assignment, and the grid, must be what the re-run gives. First
    fit never places an id the grid already holds and appends what it places,
    so for its own output the derived grid is the one it ran on."""
    grid = allocation.grid
    if args.grid is not None:
        start = _load("grid", args.grid)
    else:
        placed = {assignment.request.id for assignment in allocation.assignments if assignment.placed}
        start = SpectrumGrid(
            band=grid.band,
            natives=tuple(native for native in grid.natives if native.id not in placed),
            superchannels=tuple(sc for sc in grid.superchannels if sc.id not in placed),
            partitions=grid.partitions,
        )
    rerun = first_fit_allocate(start, [assignment.request for assignment in allocation.assignments])
    where = "start_slot {0.start_slot}, reason {0.reason!r}".format
    findings = []
    for i, (ours, theirs) in enumerate(zip(allocation.assignments, rerun.assignments)):
        if ours != theirs:
            message = f"{ours.request.id!r} has {where(ours)}; first fit gives {where(theirs)}"
            findings.append(("ASSIGNMENT_MISMATCH", f"assignments[{i}]: {message}"))
    if rerun.grid != grid:
        findings.append(("ASSIGNMENT_MISMATCH", "grid: differs from the grid first fit gives"))
    return findings


def _topology_findings(topology: NetworkTopology, args: argparse.Namespace) -> list:
    return [(violation.code, violation.message) for violation in validate_topology(topology)]


class _Kind(NamedTuple):
    """A row of the table of document kinds: the keys that identify a document
    (for a listed kind, an array of records, those of its first item), its
    record class, whether it is listed, and validate's check, which takes the
    decoded document and the arguments and returns findings."""

    keys: tuple[str, ...]
    cls: type
    listed: bool = False
    check: Callable | None = None


# validate takes the first row whose keys a document has: the order matters
_KINDS = {
    "calibration points": _Kind(("distance_km", "measured_q_db"), CalibrationPoint, True, _calibration_findings),
    "plan": _Kind(("reports",), PlanDocument, check=_plan_findings),
    "topology": _Kind(("nodes", "spans"), NetworkTopology, check=_topology_findings),
    "grid": _Kind(("band",), SpectrumGrid),
    "allocation": _Kind(("assignments",), AllocationResult, check=_allocation_findings),
    "demands": _Kind(("path", "required_capacity_gbps"), Demand, True),
    "requests": _Kind(("kind", "id"), PlacementRequest, True),
    "model": _Kind(("l_ref_km", "q_ref_db"), QModel),
    "estimate": _Kind(("value_db", "class"), QEstimate),
    "plot series": _Kind(("label", "points"), PlotSeries),
}


def _identify(data, path: str) -> _Kind:
    """The first row whose keys *data* has (for an array, its first item),
    else the first row that has some of them, so that its reader names the
    missing key; an array that no row identifies is read as calibration
    points."""
    array = isinstance(data, list)
    head = data[0] if array and data else data
    rows = [kind for kind in _KINDS.values() if kind.listed == array]
    if isinstance(head, dict):
        for test in (all, any):
            for kind in rows:
                if test(key in head for key in kind.keys):
                    return kind
    if array:
        return _KINDS["calibration points"]
    raise SchemaError(f"{path}: unrecognized document type")


def _decode(kind: _Kind, data, path: str):
    """The record, or the list of records, that a document of *kind* holds."""
    if not kind.listed:
        return kind.cls.from_dict(data, path)
    return [kind.cls.from_dict(item, f"{path}[{i}]") for i, item in enumerate(_schema.get_list(data, path))]


def _load(name: str, path: str):
    return _decode(_KINDS[name], parse_json(_read_text(path), label=path), path)


def _load_grid(path: str | None) -> SpectrumGrid:
    return empty_grid() if path is None else _load("grid", path)


def _load_model(path: str, l_ref_km: float):
    """The model calibrated from the points file at *path*, and the file's text."""
    check_l_ref(l_ref_km)  # a bad flag is no fault of the file
    text = _read_text(path)
    points = _decode(_KINDS["calibration points"], parse_json(text, label=path), path)
    try:
        model = calibrate(points, l_ref_km)
    except CalibrationError as err:
        raise CalibrationError(f"{path}: {err}") from None
    return model, text


def _digest(text: str) -> str:
    """The SHA-256 of a calibration file's text, which only a plan records."""
    import hashlib  # only plan pays the import

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _parse_modulation(text: str) -> Modulation:
    try:
        return Modulation(text.upper())
    except ValueError:
        raise SchemaError(f"modulation must be 'bpsk' or 'qpsk', got {text!r}") from None


def _parse_neighbors(text: str) -> NeighborConfig:
    """Accepts 'none', 'dedicated', or '<guarded>,<unguarded>'."""
    if text == "none":
        return NeighborConfig()
    if text == "dedicated":
        return NeighborConfig(in_dedicated_partition=True)
    cells = text.split(",")
    if len(cells) == 2:
        try:
            return NeighborConfig(
                guarded_native_count=int(cells[0]), unguarded_native_count=int(cells[1])
            )
        except ValueError as err:
            raise SchemaError(f"neighbors {text!r}: {err}") from None
    raise SchemaError(
        f"neighbors must be 'none', 'dedicated', or '<guarded>,<unguarded>', got {text!r}"
    )


def _parse_distances(text: str) -> list[float]:
    try:
        values = [float(cell) for cell in text.split(",") if cell]
    except ValueError:
        raise SchemaError(f"distances must be comma-separated numbers, got {text!r}") from None
    if not values:
        raise SchemaError("distances must be non-empty")
    return values


def _thresholds_from(args: argparse.Namespace) -> Thresholds:
    return Thresholds(hard_min_db=args.hard_min, design_min_db=args.design_min)


def _policy_from(args: argparse.Namespace) -> PlannerPolicy:
    return PlannerPolicy(
        guard_band_slots=args.guard_band_slots,
        qpsk_mixed_reach_limit_km=args.qpsk_reach_limit,
        dedicated_edge_carrier_sacrifice=args.sacrifice,
        thresholds=_thresholds_from(args),
    )


def _cmd_calibrate(args: argparse.Namespace) -> int:
    model, _ = _load_model(args.points, args.l_ref)
    _write_output(canonical_json(_stamped(model.to_dict(), args)), args.out)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    model, _ = _load_model(args.calib, args.l_ref)
    metrics = PathMetrics(
        distance_km=args.distance,
        attenuation_db=0.0,
        ola_count=0,
        roadm_count=args.roadm_count,
        raman_span_count=0,
    )
    estimate = estimate_q(
        model,
        metrics,
        _parse_modulation(args.modulation),
        _parse_neighbors(args.neighbors),
        _thresholds_from(args),
    )
    if args.json:
        _write_output(canonical_json(_stamped(estimate.to_dict(), args)), args.out)
    else:
        line = f"{estimate.value_db:.2f} / {_paint(estimate.feasibility.value)}\n"
        _write_output(line, args.out)
    return 0 if estimate.feasibility is not Feasibility.INFEASIBLE else 1


def _cmd_allocate(args: argparse.Namespace) -> int:
    grid = _load("grid", args.grid)
    requests = _load("requests", args.requests)
    result = first_fit_allocate(grid, requests)
    _write_output(canonical_json(_stamped(result.to_dict(), args)), args.out)
    return 0 if all(a.placed for a in result.assignments) else 1


def _cmd_plan(args: argparse.Namespace) -> int:
    topology = check_topology(_load("topology", args.topology), args.topology)
    model, calibration_text = _load_model(args.calib, args.l_ref)
    grid = _load_grid(args.grid)
    demands = _load("demands", args.demands)
    policy = _policy_from(args)
    reports = []
    for i, demand in enumerate(demands):
        try:
            reports.append(plan_link(demand, topology, grid, model, policy))
        except TopologyError as err:
            raise TopologyError(f"{args.demands}[{i}]: {err}") from None
        except ValueError as err:  # finite spans whose length along the path, or Q there, overflows a float
            raise TopologyError(f"{args.topology}: {args.demands}[{i}] runs along spans too long to plan: {err}") from None
    document = PlanDocument(ModelProvenance(_digest(calibration_text)), tuple(reports))
    _write_output(canonical_json(_stamped(document.to_dict(), args)), args.out)
    return 0 if all(report.chosen.feasible for report in reports) else 1


def _cmd_export_plot(args: argparse.Namespace) -> int:
    model, _ = _load_model(args.calib, args.l_ref)
    series = export_q_vs_distance(
        model,
        _parse_modulation(args.modulation),
        _parse_neighbors(args.neighbors),
        _parse_distances(args.distances),
    )
    if args.format == "csv":
        _write_output(plot_series_to_csv(series), args.out)
    else:
        _write_output(canonical_json(_stamped(series.to_dict(), args)), args.out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    # bad flags are usage errors, whatever the document, not findings about it
    check_l_ref(args.l_ref)
    _thresholds_from(args)
    data = parse_json(_read_text(args.file), label=args.file)
    kind = _identify(data, args.file)
    document = _decode(kind, data, args.file)
    if args.grid is not None and kind not in (_KINDS["plan"], _KINDS["allocation"]):
        raise SchemaError(f"{args.file}: --grid applies only to a plan or an allocation document")
    findings = kind.check(document, args) if kind.check else []
    if findings:
        for code, message in findings:
            sys.stdout.write(f"{code}: {message}\n")
        return 1
    sys.stdout.write("ok\n")
    return 0


def _add_calib_args(parser: argparse.ArgumentParser, flag: str | None = "--calib") -> None:
    """The calibration points file under *flag* (validate reads none) and its reference distance."""
    if flag:
        parser.add_argument(flag, required=True, help="calibration points file (JSON list)")
    parser.add_argument(
        "--l-ref", type=float, default=DEFAULT_L_REF_KM, help="reference distance in km (default %(default)g)"
    )


def _add_threshold_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hard-min", type=float, default=HARD_MIN_DB, help="hard Q floor in dB (default %(default)g)")
    parser.add_argument(
        "--design-min", type=float, default=DESIGN_MIN_DB, help="design Q floor in dB (default %(default)g)"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="awplan",
        description="Plan coherent super-channel deployments over a fixed-grid host network.",
    )
    parser.add_argument(
        "--json-errors", action="store_true", help="emit diagnostics as JSON on stderr"
    )
    parser.add_argument(
        "--stamp",
        action="store_true",
        help="add generation metadata to JSON outputs (breaks byte reproducibility)",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    cal = subparsers.add_parser("calibrate", help="fit the Q model from measured points")
    _add_calib_args(cal, "--points")
    cal.add_argument("--out", help="output path (default stdout)")
    cal.set_defaults(handler=_cmd_calibrate)

    est = subparsers.add_parser("estimate", help="estimate Q for one configuration")
    est.add_argument("--distance", type=float, required=True, help="path length in km")
    est.add_argument("--modulation", required=True, help="bpsk or qpsk")
    est.add_argument(
        "--neighbors",
        default="none",
        help="'none', 'dedicated', or '<guarded>,<unguarded>' (default none)",
    )
    est.add_argument(
        "--roadm-count",
        type=int,
        default=0,
        help="ROADMs along the path; each takes the calibrated roadm_penalty_db off Q (default %(default)s)",
    )
    _add_calib_args(est)
    _add_threshold_args(est)
    est.add_argument("--json", action="store_true", help="emit the estimate as JSON")
    est.add_argument("--out", help="output path (default stdout)")
    est.set_defaults(handler=_cmd_estimate)

    alloc = subparsers.add_parser("allocate", help="first-fit placement of requests on a grid")
    alloc.add_argument("--grid", required=True, help="spectrum grid file")
    alloc.add_argument("--requests", required=True, help="placement requests file (JSON list)")
    alloc.add_argument("--out", help="output path (default stdout)")
    alloc.set_defaults(handler=_cmd_allocate)

    plan = subparsers.add_parser("plan", help="plan demands over a topology")
    plan.add_argument("--topology", required=True, help="topology file")
    plan.add_argument("--demands", required=True, help="demands file (JSON list)")
    _add_calib_args(plan)
    plan.add_argument("--grid", help="spectrum grid file (default: empty C-band)")
    plan.add_argument("--out", help="output path (default stdout)")
    plan.add_argument("--guard-band-slots", type=int, default=DEFAULT_POLICY.guard_band_slots)
    plan.add_argument("--qpsk-reach-limit", type=float, default=DEFAULT_POLICY.qpsk_mixed_reach_limit_km)
    plan.add_argument(
        "--sacrifice",
        type=int,
        default=DEFAULT_POLICY.dedicated_edge_carrier_sacrifice,
        help="edge carriers given up in a dedicated partition (0 or 1)",
    )
    _add_threshold_args(plan)
    plan.set_defaults(handler=_cmd_plan)

    plot = subparsers.add_parser("export-plot", help="export a Q-vs-distance series")
    _add_calib_args(plot)
    plot.add_argument("--modulation", required=True, help="bpsk or qpsk")
    plot.add_argument("--neighbors", default="none")
    plot.add_argument("--distances", required=True, help="comma-separated km values")
    plot.add_argument("--format", choices=("csv", "json"), default="csv")
    plot.add_argument("--out", help="output path (default stdout)")
    plot.set_defaults(handler=_cmd_export_plot)

    val = subparsers.add_parser("validate", help="validate any file this tool reads or writes")
    val.add_argument("file", help="document to validate")
    val.add_argument("--grid", help="grid file for plan placement checks, or that an allocation started from")
    _add_calib_args(val, None)
    _add_threshold_args(val)
    val.set_defaults(handler=_cmd_validate)

    return parser


def _report_error(err: Exception, json_errors: bool) -> None:
    if json_errors:
        payload = {"error": type(err).__name__, "message": str(err)}
        sys.stderr.write(json.dumps(payload) + "\n")
    else:
        sys.stderr.write(f"error: {err}\n")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (AwplanError, ValueError, OSError) as err:
        _report_error(err, args.json_errors)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
