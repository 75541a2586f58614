"""Command-line front end: calibrate, estimate, allocate, plan, export, validate.

All results are canonical JSON or CSV, byte-identical across runs for the
same inputs. Diagnostics go to standard error, never as stack traces for
user mistakes. Exit codes: 0 success with a feasible result, 1 completed
but without a feasible result, 2 unusable input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, _schema
from .errors import AwplanError, CalibrationError, SchemaError
from .iofmt import (
    canonical_json,
    export_q_vs_distance,
    parse_json,
    plot_series_to_csv,
)
from .perfmodel import (
    CalibrationPoint,
    Feasibility,
    Thresholds,
    calibrate,
    check_l_ref,
    estimate_q,
)
from .planner import (
    Demand,
    PlannerPolicy,
    PlanReport,
    plan_link,
    validate_plan,
)
from .spectrum import (
    AllocationResult,
    Modulation,
    NeighborConfig,
    PlacementRequest,
    SpectrumGrid,
    empty_grid,
    first_fit_allocate,
)
from .topology import PathMetrics, parse_topology, validate_topology

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
    meta = {
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "generator": f"awplan {__version__}",
    }
    return {**document, "_meta": meta}


def _load_calibration_points(path: str) -> tuple[list[CalibrationPoint], str]:
    text = _read_text(path)
    data = parse_json(text, label=path)
    items = _schema.get_list(data, path)
    points = [
        CalibrationPoint.from_dict(item, f"{path}[{i}]") for i, item in enumerate(items)
    ]
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return points, digest


def _load_model(path: str, l_ref_km: float):
    points, digest = _load_calibration_points(path)
    return calibrate(points, l_ref_km), digest


def _load_grid(path: str | None) -> SpectrumGrid:
    if path is None:
        return empty_grid()
    data = parse_json(_read_text(path), label=path)
    return SpectrumGrid.from_dict(_schema.get_object(data, path), path)


def _load_demands(path: str) -> list[Demand]:
    data = parse_json(_read_text(path), label=path)
    items = _schema.get_list(data, path)
    return [Demand.from_dict(item, f"{path}[{i}]") for i, item in enumerate(items)]


def _load_requests(path: str) -> list[PlacementRequest]:
    data = parse_json(_read_text(path), label=path)
    items = _schema.get_list(data, path)
    return [
        PlacementRequest.from_dict(item, f"{path}[{i}]") for i, item in enumerate(items)
    ]


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
    grid = _load_grid(args.grid)
    requests = _load_requests(args.requests)
    result = first_fit_allocate(grid, requests)
    _write_output(canonical_json(_stamped(result.to_dict(), args)), args.out)
    return 0 if all(a.placed for a in result.assignments) else 1


def _cmd_plan(args: argparse.Namespace) -> int:
    topology = parse_topology(_read_text(args.topology), path=args.topology)
    model, digest = _load_model(args.calib, args.l_ref)
    grid = _load_grid(args.grid)
    demands = _load_demands(args.demands)
    policy = _policy_from(args)
    reports = [plan_link(demand, topology, grid, model, policy) for demand in demands]
    document = {
        "model_provenance": {"calibration_sha256": digest},
        "reports": [report.to_dict() for report in reports],
    }
    _write_output(canonical_json(_stamped(document, args)), args.out)
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
    text = _read_text(args.file)
    data = parse_json(text, label=args.file)
    findings: list[tuple[str, str]] = []

    if isinstance(data, list):
        points = [
            CalibrationPoint.from_dict(item, f"{args.file}[{i}]")
            for i, item in enumerate(_schema.get_list(data, args.file))
        ]
        check_l_ref(args.l_ref)  # a bad flag is a usage error, not a finding about the file
        try:
            calibrate(points, args.l_ref)
        except CalibrationError as err:
            findings.append(("CALIBRATION", str(err)))
    elif isinstance(data, dict) and "reports" in data:
        grid = _load_grid(args.grid)
        policy = PlannerPolicy(thresholds=_thresholds_from(args))
        reports_raw = _schema.get_list(data["reports"], f"{args.file}.reports")
        for i, item in enumerate(reports_raw):
            report = PlanReport.from_dict(item, f"{args.file}.reports[{i}]")
            for violation in validate_plan(report, grid, policy):
                findings.append((violation.code, f"reports[{i}]: {violation.message}"))
    elif isinstance(data, dict) and "nodes" in data and "spans" in data:
        topology = parse_topology(data, strict=False, path=args.file)
        for violation in validate_topology(topology):
            findings.append((violation.code, violation.message))
    elif isinstance(data, dict) and "band" in data:
        SpectrumGrid.from_dict(data, args.file)
    elif isinstance(data, dict) and "assignments" in data:
        AllocationResult.from_dict(data, args.file)
    else:
        raise SchemaError(f"{args.file}: unrecognized document type")

    if findings:
        for code, message in findings:
            sys.stdout.write(f"{code}: {message}\n")
        return 1
    sys.stdout.write("ok\n")
    return 0


def _add_calib_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--calib", required=True, help="calibration points file (JSON list)")
    parser.add_argument(
        "--l-ref", type=float, default=345.0, help="reference distance in km (default 345)"
    )


def _add_threshold_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--hard-min", type=float, default=6.5, help="hard Q floor in dB (default 6.5)"
    )
    parser.add_argument(
        "--design-min", type=float, default=8.5, help="design Q floor in dB (default 8.5)"
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
    cal.add_argument("--points", required=True, help="calibration points file (JSON list)")
    cal.add_argument("--l-ref", type=float, default=345.0)
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
    est.add_argument("--roadm-count", type=int, default=0)
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
    plan.add_argument("--guard-band-slots", type=int, default=2)
    plan.add_argument("--qpsk-reach-limit", type=float, default=1000.0)
    plan.add_argument(
        "--sacrifice",
        type=int,
        default=1,
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
    val.add_argument("--grid", help="grid file for plan placement checks")
    val.add_argument("--l-ref", type=float, default=345.0)
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
