"""awplan benchmark: one seeded workload per run, checked against oracles.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {fill_band,plan_batch} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures the end-to-end metrics (tracing off):
set-up time, per-op latency p50/p90, ops per second, peak RSS. With
``--trace 1`` it reports per-layer numbers from the outside-in tracer. Both
check every output, print a readable summary, write a result file under
``bench/out/`` and end with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Load comes from this one process as a single client in a closed loop: the
next op starts when the previous one has finished.

A third workload, ``cli_session`` (one ``python -m awplan`` child per op), was
dropped: the time to start a child drifted by a fifth between back-to-back
runs of the same input on a shared 2-vCPU host, more than any bound allows.
The ``cli`` layer is still measured, by the probes of the traced run, and
``setup_s`` times a fresh interpreter in every workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("fill_band", "plan_batch")
MIN_SETUPS = 11
MIN_SAMPLES = 110  # so that p90 has at least ten samples beyond it
PROBE_REPEATS = 5
SPAN_FILE_LIMIT = 50_000

# A fresh interpreter doing what every session needs before its first op.
SETUP_CODE = """\
import json
from awplan import CalibrationPoint, calibrate, fixture_path, parse_topology
points = json.loads(fixture_path("reference.calib.json").read_text(encoding="utf-8"))
calibrate([CalibrationPoint.from_dict(p) for p in points])
parse_topology(fixture_path("garr.topo.json").read_text(encoding="utf-8"))
"""

# Representative op of each subcommand for the in-process cli.main timings.
CLI_PROBES = {
    "calibrate": "calibrate",
    "estimate": "estimate",
    "plan": "plan-10",
    "allocate": "allocate-20",
    "export-plot": "export-plot-csv",
    "validate": "validate-topology",
}

PER_LAYER_CALLS = (
    "topology.aggregate_path",
    "spectrum.first_fit_allocate",
    "spectrum.occupant_map",
    "spectrum.place_native",
    "spectrum.place_superchannel",
    "spectrum.neighbor_context",
    "perfmodel.estimate_q",
    "planner.grid_context_for",
)
PER_LAYER_BUSY = (
    "topology.parse_topology",
    "topology.aggregate_path",
    "spectrum.grid_from_dict",
    "spectrum.first_fit_allocate",
    "spectrum.occupant_map",
    "spectrum.place_native",
    "spectrum.place_superchannel",
    "spectrum.neighbor_context",
    "perfmodel.calibrate",
    "perfmodel.estimate_q",
    "planner.plan_link",
    "planner.grid_context_for",
    "planner.enumerate_options",
    "planner.apply_plan",
    "planner.validate_plan",
    "adaptation.compute_voa_settings",
    "adaptation.equalization_report",
    "iofmt.canonical_json",
    "iofmt.parse_json",
    "iofmt.round_trip",
)
# inclusive time (self plus children), to show what share of plan_link the probe takes
PER_LAYER_TOTAL = ("planner.plan_link", "planner.grid_context_for")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), AWPLAN_NO_COLOR="1")
    env.pop("PYTHONSTARTUP", None)
    return env


def wall(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
    return time.perf_counter() - start, proc


def import_times() -> dict[str, float]:
    """Cumulative import time in ms per module of ``import awplan``, from -X importtime."""
    _, proc = wall([sys.executable, "-X", "importtime", "-c", "import awplan"])
    if proc.returncode != 0:
        raise RuntimeError(f"import awplan failed in a fresh interpreter: {proc.stderr.strip()[-300:]}")
    times = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = (cell.strip() for cell in line[len("import time:"):].split("|"))
        times[name] = int(cumulative) / 1000.0
    return times


def git_commit() -> str:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "not a git checkout"


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast this host ran
    plain bytecode when the run started, for comparing results across runs."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def environment() -> dict:
    import numpy

    imports = import_times()
    breakdown = {
        name: ms for name, ms in imports.items() if name == "numpy" or name == "awplan" or name.startswith("awplan.")
    }
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "reference_loop_ms": reference_loop_ms(),
        "importtime_ms": breakdown,
    }


# -- running ops --------------------------------------------------------------


class Book:
    """Attempts and failures. The first output of each distinct op is kept
    for the oracles; every repeat must reproduce it exactly."""

    def __init__(self) -> None:
        self.first: dict = {}
        self.repeats: dict = defaultdict(int)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def record(self, op, result) -> None:
        first = self.first.get(op.key)
        if first is None:
            self.first[op.key] = (op, result)
        elif first[1].signature == result.signature:
            self.repeats[op.key] += 1
        else:
            self.fail(f"{op.label}: output differs from an earlier run of the same input")

    def check_all(self, workload) -> None:
        for key, (op, result) in self.first.items():
            try:
                problems = workload.check(op, result)
            except Exception as err:  # a checker crash on odd output is a failed op, not a crashed run
                problems = [f"{op.label}: checker raised {type(err).__name__}: {err}"]
            if problems:
                self.fail("; ".join(problems[:3]), 1 + self.repeats[key])


def run_cycle(workload, cycle, book: Book, latencies: list, tracer=None) -> None:
    clock = time.perf_counter
    for session in cycle:
        state = session.start
        for op in session.ops:
            book.attempted += 1
            if tracer is not None:
                tracer.op_id = book.attempted
            start = clock()
            try:
                state, result = workload.step(state, op)
            except Exception as err:  # a raising op is a failed op; its session cannot go on
                latencies.append((op.label, clock() - start))
                book.fail(f"{op.label}: raised {type(err).__name__}: {err}")
                break
            latencies.append((op.label, clock() - start))
            book.record(op, result)


def measure_setup() -> float:
    elapsed, proc = wall([sys.executable, "-c", SETUP_CODE])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-300:]}")
    return elapsed


def measure_loop(workload, seconds: float, book: Book) -> tuple[list, float, list]:
    """Whole cycles, wrapping around the pool, until the ops have taken
    *seconds* and there are MIN_SAMPLES of them. Stopping only between
    cycles keeps the op mix the same in every run. One untimed cycle warms
    up first. Set-up children run between cycles, outside the op time, about
    MIN_SETUPS of them spread evenly over the run as the op samples are."""
    run_cycle(workload, workload.cycles[-1], book, [])
    latencies: list = []
    setups: list[float] = []
    busy = 0.0
    n = 0
    while busy < seconds or len(latencies) < MIN_SAMPLES:
        start = time.perf_counter()
        run_cycle(workload, workload.cycles[n % len(workload.cycles)], book, latencies)
        busy += time.perf_counter() - start
        n += 1
        if busy >= (len(setups) + 1) * seconds / MIN_SETUPS:
            setups.append(measure_setup())
    while len(setups) < MIN_SETUPS:
        setups.append(measure_setup())
    return latencies, busy, setups


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- traced run ---------------------------------------------------------------


def cli_probes(cli, book: Book) -> dict[str, float]:
    """The cli layer: interpreter start, import times, and every command
    line of ``cli`` run once in-process and checked, then timed."""
    from workloads import Session

    floor = statistics.median(wall([sys.executable, "-c", "pass"])[0] for _ in range(PROBE_REPEATS))
    imports = [import_times() for _ in range(PROBE_REPEATS)]
    metrics = {
        "cli.interp_floor_ms": floor * 1000.0,
        "cli.import_awplan_ms": statistics.median(t["awplan"] for t in imports),
        "cli.import_numpy_ms": statistics.median(t.get("numpy", 0.0) for t in imports),
    }
    # a book of its own: the workload's checker must not see these ops
    own = Book()
    run_cycle(cli, [Session(start=None, ops=cli.ops)], own, [])
    own.check_all(cli)
    book.attempted += own.attempted
    book.failed += own.failed
    book.errors += own.errors
    ops = {op.label: op for op in cli.ops}
    for subcommand, label in CLI_PROBES.items():
        times = []
        for _ in range(3):
            start = time.perf_counter()
            code, _, err = cli.invoke(ops[label].data["argv"])
            times.append(time.perf_counter() - start)
            if code == 2:
                raise RuntimeError(f"cli {label} exited 2: {err.strip()[:200]}")
        metrics[f"cli.main_ms.{subcommand}"] = statistics.median(times) * 1000.0
    return metrics


def starts_tried(kind: str, start: int | None, band) -> int:
    """Candidate starts first fit examines for one request: up to and
    including the one it took, or all of them when the request is unplaced."""
    if kind == "native":
        total = (band.slot_count - 2) // 2 + 1
        return total if start is None else start // 2 + 1
    total = band.slot_count - band.superchannel_width_slots + 1
    return total if start is None else start + 1


def trace_hooks() -> dict:
    """Counters derived from the arguments and results of traced calls."""

    def first_fit(tr, args, result, error):
        if error is not None:
            return
        band = args[0].band
        for a in result.assignments:
            tr.counters["spectrum.first_fit.requests"] += 1
            tr.counters["spectrum.first_fit.placed"] += a.placed
            tr.counters["spectrum.first_fit.starts_tried"] += starts_tried(a.request.kind.value, a.start_slot, band)

    def place_superchannel(tr, args, result, error):
        # rejected trial placements raise, and they count too
        if tr.inside("planner.grid_context_for"):
            tr.counters["planner.trial_placements"] += 1

    def plan_link(tr, args, result, error):
        if error is None:
            tr.counters["planner.feasible"] += result.chosen.feasible

    def canonical_json(tr, args, result, error):
        if error is None:
            tr.counters["iofmt.bytes_out"] += len(result.encode("utf-8"))

    return {
        "spectrum.first_fit_allocate": first_fit,
        "spectrum.place_superchannel": place_superchannel,
        "planner.plan_link": plan_link,
        "iofmt.canonical_json": canonical_json,
    }


def timed_passes(workload, seconds: float, book: Book, tracer=None) -> tuple[list[float], int]:
    """Repeat the pool's first cycle until *seconds* pass (at least once)."""
    times = []
    ops = 0
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        latencies: list = []
        t0 = time.perf_counter()
        run_cycle(workload, workload.cycles[0], book, latencies, tracer)
        times.append(time.perf_counter() - t0)
        ops += len(latencies)
    return times, ops


def layer_metrics(tracer, passes: int) -> dict[str, tuple[float, str]]:
    per = 1.0 / passes
    m: dict[str, tuple[float, str]] = {}
    for name in PER_LAYER_CALLS:
        m[f"{name}.calls"] = (tracer.calls.get(name, 0) * per, "count")
    for name in PER_LAYER_BUSY:
        m[f"{name}.busy_ms"] = (tracer.self_s.get(name, 0.0) * 1000.0 * per, "ms")
    for name in PER_LAYER_TOTAL:
        m[f"{name}.total_ms"] = (tracer.total_s.get(name, 0.0) * 1000.0 * per, "ms")
    c = tracer.counters
    requests = c.get("spectrum.first_fit.requests", 0)
    plans = tracer.calls.get("planner.plan_link", 0)
    m["spectrum.first_fit.requests"] = (requests * per, "count")
    m["spectrum.first_fit.starts_tried"] = (c.get("spectrum.first_fit.starts_tried", 0) * per, "count")
    m["spectrum.first_fit.placed_ratio"] = (c.get("spectrum.first_fit.placed", 0) / requests if requests else 0.0, "ratio")
    m["planner.trial_placements"] = (c.get("planner.trial_placements", 0) * per, "count")
    m["planner.feasible_ratio"] = (c.get("planner.feasible", 0) / plans if plans else 0.0, "ratio")
    m["iofmt.bytes_out"] = (c.get("iofmt.bytes_out", 0) * per, "bytes")
    plan_total = tracer.total_s.get("planner.plan_link", 0.0)
    probe = tracer.total_under.get(("planner.plan_link", "planner.grid_context_for"), 0.0)
    m["planner.plan_link.probe_share"] = (probe / plan_total if plan_total else 0.0, "ratio")
    return m


# -- main ---------------------------------------------------------------------


def build(workload_name: str, seed: int):
    from workloads import Context, FillBand, PlanBatch

    ctx = Context(ROOT, seed)
    cls = FillBand if workload_name == "fill_band" else PlanBatch
    return cls(ctx, seed), ctx


def run_untraced(workload, seconds: float) -> tuple[dict, Book, dict]:
    book = Book()
    latencies, elapsed, setups = measure_loop(workload, seconds, book)
    book.check_all(workload)
    values = [t for _, t in latencies]
    p90 = percentile(values, 90)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (percentile(values, 50) * 1000.0, "ms"),
        "latency_p90_ms": (p90 * 1000.0, "ms"),
        "ops_per_s": (len(values) / elapsed, "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    by_label = defaultdict(list)
    for label, t in latencies:
        by_label[label].append(t)
    extra = {
        "samples": len(values),
        "beyond_p90": sum(1 for v in values if v > p90),
        "elapsed_s": elapsed,
        "cycles_in_pool": len(workload.cycles),
        "median_ms_by_op": {k: statistics.median(v) * 1000.0 for k, v in sorted(by_label.items())},
        "setup_samples": len(setups),
    }
    return metrics, book, extra


def run_traced(workload, cli, seconds: float, spans_path: Path) -> tuple[dict, Book, dict]:
    import workloads

    book = Book()
    metrics = {k: (v, "ms") for k, v in cli_probes(cli, book).items()}
    plain, _ = timed_passes(workload, seconds / 2, book)
    tracer = Tracer(max_spans=SPAN_FILE_LIMIT)
    tracer.install(trace_hooks(), callers=(workloads,))
    try:
        traced, traced_ops = timed_passes(workload, seconds / 2, book, tracer)
    finally:
        tracer.uninstall()
    book.check_all(workload)
    tracer.write_spans(spans_path)
    passes = len(traced)
    metrics.update(layer_metrics(tracer, passes))
    metrics["planner.joint_apply_conflicts"] = (sum(cli.conflicts.values()), "count")
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["bench.trace_overhead_frac"] = (overhead, "ratio")
    extra = {
        "untraced_passes": len(plain),
        "traced_passes": passes,
        "ops_per_pass": traced_ops // passes,
        "binding_sites": sorted(tracer.binding_sites),
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "per_layer_unit": "per pass over the seed's first cycle",
    }
    return metrics, book, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "awplan" / "__init__.py"
    if not package.is_file():
        print(f"error: {package.relative_to(ROOT)} not found; run from an awplan checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import awplan

    if Path(awplan.__file__).resolve() != package.resolve():
        print(f"error: imported awplan from {awplan.__file__}, not from this checkout", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    conflicts: dict[str, int] = {}
    try:
        env = environment()
        workload, ctx = build(args.workload, args.seed)
        # The input pool is the benchmark's, not the program's: keep the
        # collector from rescanning it during every timed op.
        gc.collect()
        gc.freeze()
        if args.trace:
            from workloads import CliOps

            cli = CliOps(ctx, args.seed, workdir)
            metrics, book, extra = run_traced(workload, cli, args.seconds, OUT_DIR / f"{tag}.spans.jsonl")
            conflicts = dict(cli.conflicts)
        else:
            metrics, book, extra = run_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = book.failed / book.attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": book.attempted,
        "failed": book.failed,
        "failed_frac": failed_frac,
        "errors": book.errors,
        "joint_apply_conflicts": conflicts,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"awplan benchmark: workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}")
    print(
        f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"commit {env['git_commit']}, reference loop {env['reference_loop_ms']:.1f} ms"
    )
    print("  import ms: " + ", ".join(f"{k} {v:.1f}" for k, v in sorted(env["importtime_ms"].items())))
    if not args.trace:
        print(f"  samples: {extra['samples']} ops in {extra['elapsed_s']:.1f} s, {extra['beyond_p90']} beyond p90")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    print(f"  {'failed_frac':40s} {failed_frac:14.4f} ratio ({book.failed}/{book.attempted})")
    if conflicts:
        print(f"  joint apply conflicts in cli plan documents (known defect, not a failure): {conflicts}")
    for message in book.errors:
        print(f"  FAILED {message}")
    print(
        json.dumps(
            {
                "correct": book.failed == 0,
                "attempted": book.attempted,
                "failed": book.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
