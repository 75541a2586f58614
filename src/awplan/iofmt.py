"""Canonical serialization and plot-series export.

Every document this package writes is canonical: stable key order, two-space
indentation, and reals fixed at four decimal places. Serializing the same
object twice is byte-identical, and serialize-parse-serialize is stable, so
outputs can be diffed and checked into fixtures.
"""

from __future__ import annotations

import math

from . import _schema
from ._schema import parse_json
from ._writer import _text, format_real
from .perfmodel import Modulation, NeighborConfig, QModel, estimate_q
from .topology import PathMetrics


def canonical_json(data) -> str:
    """Render plain JSON data (dicts, lists, scalars) canonically, with a
    trailing newline for file output."""
    return _text(data, "\n") + "\n"


def serialize(obj) -> str:
    """Canonical text for any domain object exposing to_dict."""
    return canonical_json(obj.to_dict())


def round_trip(value):
    """Serialize, parse, and rebuild an object of the same type.

    The rebuilt object re-serializes byte-identically; numeric fields are
    equal at serialization precision. Returns the rebuilt object.
    """
    first = serialize(value)
    rebuilt = type(value).from_dict(parse_json(first))
    second = serialize(rebuilt)
    if first != second:
        raise AssertionError(
            f"canonical serialization of {type(value).__name__} is not stable"
        )
    return rebuilt


@_schema.document("series")
class PlotSeries:
    """An x-sorted series of finite points ready for any plotting tool."""

    label: str
    x_name: str
    y_name: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for x, y in self.points:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"plot points must be finite, got ({x}, {y})")
        xs = [x for x, _ in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("plot points must be strictly ascending in x")


def _neighbor_label(neighbors: NeighborConfig) -> str:
    if neighbors.in_dedicated_partition:
        return "dedicated"
    if neighbors.guarded_native_count == 0 and neighbors.unguarded_native_count == 0:
        return "clean"
    return (
        f"{neighbors.guarded_native_count} guarded, "
        f"{neighbors.unguarded_native_count} unguarded"
    )


def export_q_vs_distance(
    model: QModel,
    modulation: Modulation,
    neighbors: NeighborConfig,
    distances: list[float] | tuple[float, ...],
) -> PlotSeries:
    """Predicted Q across distances for one modulation and neighbor context,
    sorted ascending by distance."""
    if not distances:
        raise ValueError("distances must be non-empty")
    if len(set(distances)) != len(tuple(distances)):
        raise ValueError("distances must be unique")
    points = []
    for distance in sorted(distances):
        metrics = PathMetrics(
            distance_km=float(distance),
            attenuation_db=0.0,
            ola_count=0,
            roadm_count=0,
            raman_span_count=0,
        )
        points.append((float(distance), estimate_q(model, metrics, modulation, neighbors).value_db))
    return PlotSeries(
        label=f"{modulation.value} ({_neighbor_label(neighbors)})",
        points=tuple(points),
        x_name="distance_km",
        y_name="q_db",
    )


def plot_series_to_csv(series: PlotSeries) -> str:
    """Header plus one 4-decimal row per point; exactly len(points)+1 lines."""
    lines = [f"{series.x_name},{series.y_name}"]
    for x, y in series.points:
        lines.append(f"{format_real(x)},{format_real(y)}")
    return "\n".join(lines) + "\n"

