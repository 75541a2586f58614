"""A/B runs of the benchmark: a base revision against the working tree.

Usage, from the root of a checkout:

    python3 tools/bench_ab.py --base <rev> [--workload fill_band ...] \
        [--seeds 1 2 3] [--seconds 45]

The base revision is exported with ``git archive`` into a temporary
directory, so neither ``.git`` nor the working tree is touched. For each
workload and seed, the base's and the working tree's ``bench/run.py --trace
0`` run one after the other, and which side goes first alternates from one
pair to the next. Each run's last line, its JSON result, is parsed.

The summary gives, per workload and metric, the base median and
interquartile range, the change median, the relative change of the medians,
the pairs the change won and a verdict (``verdict``). A metric's better
direction and its bound come from ``BENCHMARK.json``. The exit code is 1 when any run exits nonzero, reads
``correct: false`` or has ``failed > 0``; otherwise it is 0. Standard
library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("fill_band", "plan_batch")


def export(rev: str, into: Path) -> None:
    """Write the tree of *rev* into *into* through ``git archive``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        # the "data" filter exists from Python 3.12 and in later 3.10/3.11 patch releases
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict | None, str]:
    """One untraced benchmark run: its parsed result line, or None and why not."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, "no result line"
    if result.get("correct") is not True or result.get("failed", 0) > 0:
        return result, f"correct {result.get('correct')}, failed {result.get('failed')}"
    return result, ""


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[dict]:
    """One row per metric of the (base, change) result pairs of a workload:
    base median and quartiles, change median, the change's relative
    difference of medians, the pairs it won and whether every change run
    beat every base run. *better* maps a metric to
    ``"lower"`` or ``"higher"``; an unlisted metric counts lower as better.
    A pair where the metric is missing on either side is left out."""
    names = [name for name in pairs[0][0]["metrics"]] if pairs else []
    rows = []
    for name in names:
        both = [
            (base["metrics"][name]["value"], change["metrics"][name]["value"])
            for base, change in pairs
            if name in base["metrics"] and name in change["metrics"]
        ]
        if not both:
            continue
        base_values, change_values = [b for b, _ in both], [c for _, c in both]
        q1, base_median, q3 = _quartiles(base_values)
        change_median = statistics.median(change_values)
        higher = better.get(name) == "higher"
        beats = (lambda c, b: c > b) if higher else (lambda c, b: c < b)
        wins = sum(1 for b, c in both if beats(c, b))
        rows.append(
            {
                "metric": name,
                "unit": pairs[0][0]["metrics"][name]["unit"],
                "better": "higher" if higher else "lower",
                "base_median": base_median,
                "base_q1": q1,
                "base_q3": q3,
                "change_median": change_median,
                "relative": change_median / base_median - 1 if base_median else float("nan"),
                "wins": wins,
                "pairs": len(both),
                # every change run beats every base run
                "separated": all(beats(c, b) for c in change_values for b in base_values),
            }
        )
    return rows


def verdict(row: dict, bound: float | None) -> str:
    """The row's verdict against the metric's relative *bound*: ``worse``
    when the change's median is worse than the base median by more than the
    bound; ``unresolved`` when the base interquartile range is wider than the
    bound, unless every change run beats every base run; ``gain`` when the
    change won at least nine tenths of the pairs and its median is better by
    more than the base interquartile range; ``within`` otherwise. ``-`` for a
    metric without a bound."""
    if bound is None:
        return "-"
    sign = 1 if row["better"] == "higher" else -1
    base, iqr = row["base_median"], row["base_q3"] - row["base_q1"]
    if sign * (base - row["change_median"]) > bound * abs(base):
        return "worse"
    if iqr > bound * abs(base) and not row["separated"]:
        return "unresolved"
    if 10 * row["wins"] >= 9 * row["pairs"] and sign * (row["change_median"] - base) > iqr:
        return "gain"
    return "within"


def format_rows(workload: str, rows: list[dict]) -> str:
    lines = [
        f"{workload}:",
        f"  {'metric':16s} {'base median':>12s} {'base IQR':>21s} {'change':>12s} {'rel':>8s}  {'verdict':10s} wins",
    ]
    for row in rows:
        iqr = f"[{row['base_q1']:.4g}, {row['base_q3']:.4g}]"
        lines.append(
            f"  {row['metric']:16s} {row['base_median']:12.4g} {iqr:>21s} {row['change_median']:12.4g} "
            f"{row['relative']:+8.2%}  {row.get('verdict', '-'):10s} {row['wins']}/{row['pairs']} ({row['better']} is better)"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree against")
    parser.add_argument("--workload", choices=WORKLOADS, action="append", help="repeat for several; default all")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=45.0)
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end}

    faults = []
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        base = Path(tmp)
        export(args.base, base)
        for workload in workloads:
            pairs = []
            for i, seed in enumerate(args.seeds):
                sides = [("base", base), ("change", ROOT)]
                results = {}
                for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                    result, fault = run(checkout, workload, seed, args.seconds)
                    if fault:
                        faults.append(f"{workload} seed {seed} {side}: {fault}")
                    results[side] = result
                    print(f"{workload} seed {seed} {side}: {'FAULT ' + fault if fault else 'ok'}", file=sys.stderr)
                if results["base"] is not None and results["change"] is not None:
                    pairs.append((results["base"], results["change"]))
            rows = summarize(pairs, better)
            for row in rows:
                row["verdict"] = verdict(row, bounds.get(row["metric"]))
            print(format_rows(workload, rows))
    for fault in faults:
        print(f"FAULT {fault}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
