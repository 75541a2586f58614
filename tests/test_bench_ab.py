"""The summary of ``tools/bench_ab.py``, on made-up results (no benchmark runs)."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)


def result(**values: float) -> dict:
    return {"correct": True, "failed": 0, "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}


BETTER = {"ops_per_s": "higher", "latency_p50_ms": "lower"}


def test_medians_quartiles_relative_change_and_wins():
    pairs = [
        (result(ops_per_s=base, latency_p50_ms=10.0), result(ops_per_s=change, latency_p50_ms=lat))
        for base, change, lat in [(100, 110, 9.0), (120, 115, 11.0), (110, 130, 10.0), (90, 100, 8.0)]
    ]
    rows = {row["metric"]: row for row in bench_ab.summarize(pairs, BETTER)}
    ops = rows["ops_per_s"]
    assert ops["base_median"] == 105 and ops["change_median"] == 112.5
    assert (ops["base_q1"], ops["base_q3"]) == (92.5, 117.5)  # statistics.quantiles, exclusive method
    assert ops["relative"] == pytest.approx(112.5 / 105 - 1)
    assert (ops["wins"], ops["pairs"], ops["better"]) == (3, 4, "higher")
    latency = rows["latency_p50_ms"]
    # lower is better; a tie is no win
    assert (latency["wins"], latency["pairs"], latency["better"]) == (2, 4, "lower")
    assert latency["relative"] == pytest.approx(-0.05)


def test_unlisted_metric_counts_lower_as_better_and_missing_values_are_left_out():
    pairs = [
        (result(peak_rss_mb=100.0), result(peak_rss_mb=90.0)),
        (result(peak_rss_mb=100.0), result()),
    ]
    (row,) = bench_ab.summarize(pairs, {})
    assert (row["better"], row["wins"], row["pairs"]) == ("lower", 1, 1)
    assert row["base_q1"] == row["base_q3"] == row["base_median"] == 100.0


def test_zero_base_median_and_empty_input():
    (row,) = bench_ab.summarize([(result(x=0.0), result(x=1.0))], {})
    assert math.isnan(row["relative"])
    assert bench_ab.summarize([], BETTER) == []


def test_format_names_every_metric():
    pairs = [(result(ops_per_s=100.0), result(ops_per_s=110.0))]
    text = bench_ab.format_rows("fill_band", bench_ab.summarize(pairs, BETTER))
    assert text.splitlines()[0] == "fill_band:"
    assert "ops_per_s" in text and "+10.00%" in text and "1/1 (higher is better)" in text


def _row(base: list[float], change: list[float], better: str = "lower") -> dict:
    pairs = [(result(m=b), result(m=c)) for b, c in zip(base, change)]
    (row,) = bench_ab.summarize(pairs, {"m": better})
    return row


TIGHT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


@pytest.mark.parametrize(
    "base, change, better, expected",
    [
        # lower is better: 30% slower is past a 25% bound
        (TIGHT, [c * 1.3 for c in TIGHT], "lower", "worse"),
        # higher is better: 30% fewer is past the bound too
        (TIGHT, [c * 0.7 for c in TIGHT], "higher", "worse"),
        # 10% slower is inside the bound
        (TIGHT, [c * 1.1 for c in TIGHT], "lower", "within"),
        # faster in every pair by more than the base IQR
        (TIGHT, [c * 0.9 for c in TIGHT], "lower", "gain"),
        (TIGHT, [c * 1.1 for c in TIGHT], "higher", "gain"),
        # faster in only 8 of 10 pairs: no gain
        (TIGHT, [c * 0.9 for c in TIGHT[:8]] + [c * 1.01 for c in TIGHT[8:]], "lower", "within"),
        # faster in every pair, but by less than the base IQR
        ([90.0, 110.0] * 5, [89.0, 109.0] * 5, "lower", "within"),
        # base runs spread wider than the bound
        ([80.0, 120.0] * 5, [70.0, 130.0] * 5, "lower", "unresolved"),
        # ... unless every change run beats every base run; then the other tests apply
        ([80.0, 120.0] * 5, [30.0, 35.0] * 5, "lower", "gain"),
        ([80.0, 120.0] * 5, [60.0, 75.0] * 5, "lower", "within"),
    ],
)
def test_verdict(base, change, better, expected):
    assert bench_ab.verdict(_row(base, change, better), 0.25) == expected


def test_verdict_without_a_bound_and_in_the_summary_table():
    row = _row(TIGHT, TIGHT)
    assert bench_ab.verdict(row, None) == "-"
    row["verdict"] = bench_ab.verdict(row, 0.25)
    assert "within" in bench_ab.format_rows("fill_band", [row])
