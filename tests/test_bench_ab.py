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
