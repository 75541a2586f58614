"""Canonical serialization and plot-series export.

Every document this package writes is canonical: stable key order, two-space
indentation, and reals fixed at four decimal places. Serializing the same
object twice is byte-identical, and serialize-parse-serialize is stable, so
outputs can be diffed and checked into fixtures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import _schema
from .errors import SchemaError
from .perfmodel import QModel, Thresholds, estimate_q
from .spectrum import Modulation, NeighborConfig
from .topology import PathMetrics

REAL_DECIMALS = 4


def format_real(value: float) -> str:
    """Fixed 4-decimal rendering; negative zero normalizes to zero."""
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite real {value!r}")
    text = f"{value:.{REAL_DECIMALS}f}"
    return "0.0000" if text == "-0.0000" else text


_quote = json.encoder.encode_basestring_ascii  # what json.dumps applies to a str


def _write(value, pad: str, out: list[str]) -> None:
    """Append the canonical text of *value* to *out*. *pad* is a newline and
    the indentation of the line the value ends on."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        lead = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"document keys must be strings, got {type(key).__name__}")
            head = lead + _quote(key) + ": "
            # most values are plain strings and ints: write them without a call
            kind = type(item)
            if kind is str:
                out.append(head + _quote(item))
            elif kind is int:
                out.append(head + str(item))
            else:
                out.append(head)
                _write(item, inner, out)
            lead = "," + inner
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        lead = "[" + inner
        for item in value:
            out.append(lead)
            _write(item, inner, out)
            lead = "," + inner
        out.append(pad + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(format_real(value))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} into a document")


def canonical_json(data) -> str:
    """Render plain JSON data (dicts, lists, scalars) canonically, with a
    trailing newline for file output."""
    out: list[str] = []
    _write(data, "\n", out)
    out.append("\n")
    return "".join(out)


def serialize(obj) -> str:
    """Canonical text for any domain object exposing to_dict."""
    return canonical_json(obj.to_dict())


def parse_json(text: str, label: str = "document"):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(
            f"{label}: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from None


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


@dataclass(frozen=True)
class PlotSeries:
    """An x-sorted series of finite points ready for any plotting tool."""

    label: str
    points: tuple[tuple[float, float], ...]
    x_name: str
    y_name: str

    def __post_init__(self) -> None:
        for x, y in self.points:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"plot points must be finite, got ({x}, {y})")
        xs = [x for x, _ in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("plot points must be strictly ascending in x")

    # hand-written: points are [x, y] pairs, written after the names
    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "x_name": self.x_name,
            "y_name": self.y_name,
            "points": [[float(x), float(y)] for x, y in self.points],
        }

    # hand-written: each point is checked as an [x, y] pair of numbers
    @classmethod
    def from_dict(cls, data: dict, path: str = "series") -> "PlotSeries":
        points_raw = _schema.get_list(_schema.require(data, "points", path), f"{path}.points")
        points = []
        for i, item in enumerate(points_raw):
            if (
                not isinstance(item, list)
                or len(item) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in item)
            ):
                raise SchemaError(f"{path}.points[{i}]: expected a [x, y] pair of numbers")
            points.append((float(item[0]), float(item[1])))
        try:
            return cls(
                label=_schema.require_str(data, "label", path),
                points=tuple(points),
                x_name=_schema.require_str(data, "x_name", path),
                y_name=_schema.require_str(data, "y_name", path),
            )
        except ValueError as err:
            raise SchemaError(f"{path}: {err}") from None


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
    thresholds: Thresholds | None = None,
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
        estimate = (
            estimate_q(model, metrics, modulation, neighbors)
            if thresholds is None
            else estimate_q(model, metrics, modulation, neighbors, thresholds)
        )
        points.append((float(distance), estimate.value_db))
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


def plot_series_from_csv(text: str, label: str = "") -> PlotSeries:
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise SchemaError("csv: empty document")
    header = lines[0].split(",")
    if len(header) != 2:
        raise SchemaError(f"csv: expected a two-column header, got {lines[0]!r}")
    points = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 2:
            raise SchemaError(f"csv line {i}: expected two cells, got {line!r}")
        try:
            points.append((float(cells[0]), float(cells[1])))
        except ValueError:
            raise SchemaError(f"csv line {i}: non-numeric cell in {line!r}") from None
    try:
        return PlotSeries(
            label=label, points=tuple(points), x_name=header[0], y_name=header[1]
        )
    except ValueError as err:
        raise SchemaError(f"csv: {err}") from None
