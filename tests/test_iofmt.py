from __future__ import annotations

import csv
import io
import json
import re
import sys
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from awplan import _writer
from awplan import (
    Modulation,
    NeighborConfig,
    PlotSeries,
    SchemaError,
    canonical_json,
    export_q_vs_distance,
    format_real,
    parse_json,
    plot_series_to_csv,
    round_trip,
    serialize,
)


def _emit(value, indent: int) -> str:
    """The recursive emitter canonical_json once was, kept as a naive
    reference: it builds each level's text as a nested string."""
    pad = " " * indent
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_real(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"document keys must be strings, got {type(key).__name__}")
            rows.append(f"{pad}  {json.dumps(key)}: {_emit(item, indent + 2)}")
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{pad}  {_emit(item, indent + 2)}" for item in value]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__} into a document")


def _outcome(render, data):
    try:
        return render(data)
    except (TypeError, ValueError) as err:
        return type(err), str(err)


# strings with escapes, control characters and non-ASCII (including astral) code points
_TEXT = st.text(st.characters(), max_size=8) | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é€", "\U0001f600"])
_FAULTS = st.sampled_from([float("nan"), float("inf"), float("-inf"), {1, 2}, b"x", object()])


class TestFormatReal:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (0.0, "0.0000"),
            (-0.0, "0.0000"),
            (13.77, "13.7700"),
            (-1.5, "-1.5000"),
            (2.33 / 786, "0.0030"),
            (0.00004, "0.0000"),
        ],
    )
    def test_fixed_four_decimals(self, value, expected):
        assert format_real(value) == expected

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            format_real(float("inf"))


class TestCanonicalJson:
    def test_scalars(self):
        assert canonical_json(None) == "null\n"
        assert canonical_json(True) == "true\n"
        assert canonical_json(42) == "42\n"
        assert canonical_json(1.5) == "1.5000\n"
        assert canonical_json("x") == '"x"\n'

    def test_nested_layout(self):
        data = {"a": [1, {"b": 2.5}], "empty": {}, "none": []}
        expected = (
            "{\n"
            '  "a": [\n'
            "    1,\n"
            "    {\n"
            '      "b": 2.5000\n'
            "    }\n"
            "  ],\n"
            '  "empty": {},\n'
            '  "none": []\n'
            "}\n"
        )
        assert canonical_json(data) == expected

    def test_insertion_order_is_preserved(self):
        assert canonical_json({"b": 1, "a": 2}).index('"b"') < canonical_json(
            {"b": 1, "a": 2}
        ).index('"a"')

    def test_bools_are_not_ints(self):
        assert canonical_json([True, 1]) == "[\n  true,\n  1\n]\n"

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError, match="set"):
            canonical_json({"x": {1, 2}})

    def test_output_is_valid_json(self):
        data = {"a": [1, 2.5, "s", None, False], "b": {"c": []}}
        assert json.loads(canonical_json(data)) == {
            "a": [1, 2.5, "s", None, False],
            "b": {"c": []},
        }

    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers(-(10**6), 10**6)
            | st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=8), children, max_size=4),
            max_leaves=12,
        )
    )
    def test_serialize_parse_serialize_is_stable(self, data):
        first = canonical_json(data)
        second = canonical_json(json.loads(first))
        assert first == second

    @settings(max_examples=300, deadline=None)
    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.just(-0.0)
            | _TEXT,
            lambda children: st.lists(children, max_size=4)
            | st.lists(children, max_size=3).map(tuple)
            | st.dictionaries(_TEXT, children, max_size=4),
            max_leaves=16,
        )
    )
    def test_matches_the_recursive_emitter(self, data):
        assert canonical_json(data) == _emit(data, 0) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(
        st.recursive(
            st.none() | st.integers() | st.floats() | _TEXT | _FAULTS,
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.one_of(_TEXT, st.integers(), st.none()), children, max_size=4),
            max_leaves=12,
        )
    )
    def test_raises_what_the_recursive_emitter_raises(self, data):
        assert _outcome(canonical_json, data) == _outcome(lambda d: _emit(d, 0) + "\n", data)


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _Dict(dict):
    pass


class _Level(IntEnum):
    LOW = 1
    HIGH = 2


# a few shapes, so that shapes repeat; one is another's keys reordered, and
# some hold keys that are not strings
_KEYS = st.sampled_from([
    ("id",),
    ("id", "start_slot", "format"),
    ("format", "id", "start_slot"),
    ("a", "b"),
    ("b", "a"),
    ("x", 1),
    (None, "x"),
    (_Str("id"),),
])
_SCALAR = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-10, 10, allow_nan=False)
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | _TEXT
    | st.sampled_from([_Str("s"), _Int(7), _Float(2.5), _Level.HIGH])
)


def _records(children):
    """Dicts of one of the shapes above, some of them a dict subclass."""
    def of(keys):
        values = st.lists(children, min_size=len(keys), max_size=len(keys))
        return st.tuples(values, st.booleans()).map(lambda vb: (_Dict if vb[1] else dict)(zip(keys, vb[0])))

    return _KEYS.flatmap(of)


_SHAPED = st.recursive(
    _SCALAR,
    lambda children: _records(children)
    | st.lists(_records(children), min_size=2, max_size=4)
    | st.lists(_records(children) | children, max_size=4)
    | st.lists(children, max_size=3).map(tuple),
    max_leaves=16,
)


def _generic(value):
    """canonical_json by the generic emitter alone, from as deep a frame."""
    return _writer._written(value, "\n") + "\n"


@pytest.fixture(scope="class")
def shape_cache():
    """Empties the shape cache on each call; puts it back afterwards."""
    saved = dict(_writer._shape_writers)
    yield _writer._shape_writers.clear
    _writer._shape_writers.clear()
    _writer._shape_writers.update(saved)


def _nested(kind: str, depth: int):
    value = 0
    for level in range(depth):
        value = [value] if kind == "list" or (kind == "mixed" and level % 2) else {"k": value}
    return value


def _deepest(write, kind: str) -> int:
    """The deepest nesting of *kind* that *write* writes from this frame."""
    low, high = 1, 2 * sys.getrecursionlimit()
    while low < high:
        mid = (low + high + 1) // 2
        try:
            write(_nested(kind, mid))
            low = mid
        except RecursionError:
            high = mid - 1
    return low


class TestShapeWriters:
    """The writers compiled per dict shape against the recursive emitter and
    the generic one."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_SHAPED, min_size=2, max_size=2))
    def test_matches_both_emitters_as_value_types_drift(self, shape_cache, values):
        shape_cache()
        # the first value compiles the shapes with its value types; the
        # second reuses them with its own
        for value in values:
            outcome = _outcome(canonical_json, value)
            assert outcome == _outcome(lambda d: _emit(d, 0) + "\n", value)
            assert outcome == _outcome(_generic, value)

    def test_a_list_that_mixes_shapes(self, shape_cache):
        shape_cache()
        data = [{"a": 1, "b": 2}, {"b": 3, "a": 4}, {"a": 5}, [], {"a": 6, "b": 7, "c": 8}, _Dict(a=9, b=0), {"a": 1}]
        assert canonical_json(data) == _generic(data)

    def test_past_the_cap_output_is_unchanged(self, shape_cache):
        shape_cache()
        for i in range(_writer.SHAPE_CAP):
            canonical_json({f"k{i}": i})
        assert len(_writer._shape_writers) == _writer.SHAPE_CAP
        data = [{"late": 1.5, "shape": [{"x": None}]}, {"late": True, "shape": []}]
        assert canonical_json(data) == _generic(data)
        assert len(_writer._shape_writers) == _writer.SHAPE_CAP

    def test_a_map_of_many_keys_is_written_but_not_compiled(self, shape_cache):
        shape_cache()
        data = {f"node-{i}": i for i in range(_writer.SHAPE_MAX_KEYS + 1)}
        assert canonical_json(data) == _generic(data)
        assert not _writer._shape_writers

    @pytest.mark.parametrize("kind", ["list", "dict", "mixed"])
    def test_deepest_document_is_the_generic_emitters(self, shape_cache, kind):
        shape_cache()
        limit = sys.getrecursionlimit()
        # room for 990 levels above this frame
        sys.setrecursionlimit(limit + 990 - _deepest(_generic, kind))
        try:
            deepest = _deepest(_generic, kind)
            assert deepest >= 990
            assert _deepest(canonical_json, kind) == deepest
            value = _nested(kind, deepest)
            assert canonical_json(value) == _generic(value)
        finally:
            sys.setrecursionlimit(limit)


class TestParseJson:
    def test_error_carries_label_and_position(self):
        with pytest.raises(SchemaError, match=r"grid: invalid JSON at line 1"):
            parse_json("{oops", label="grid")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_a_non_finite_constant_is_refused_by_name(self, token):
        # json.loads takes these tokens; RFC 8259 section 6 does not
        with pytest.raises(SchemaError, match=f"^grid: invalid JSON: {token} is not a JSON number$"):
            parse_json(f'{{"a": [1, {token}]}}', label="grid")

    def test_a_byte_order_mark_is_refused_as_json_loads_refuses_it(self):
        message = "grid: invalid JSON at line 1 column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            parse_json("\ufeff[1]", label="grid")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit")
    def test_an_integer_past_the_digit_limit_carries_the_label(self):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(SchemaError, match=r"^grid: invalid JSON: Exceeds the limit"):
            parse_json(f"[{digits}]", label="grid")


class TestRoundTrip:
    def test_model_is_stable_after_one_quantization(self, model):
        # A freshly solved model carries floating-point residue beyond the
        # serializer's 4-decimal quantum, so the rebuilt object differs from
        # the original in the last ulps; after one pass it is a fixed point.
        rebuilt = round_trip(model)
        assert round_trip(rebuilt) == rebuilt
        assert rebuilt.q_ref_db[Modulation.QPSK] == 13.77

    def test_grid_round_trip(self, busy_grid):
        assert round_trip(busy_grid) == busy_grid

    def test_topology_round_trip(self, garr):
        assert round_trip(garr) == garr


class TestPlotSeries:
    def test_points_must_ascend_strictly(self):
        with pytest.raises(ValueError, match="ascending"):
            PlotSeries(
                label="s", points=((1.0, 0.0), (1.0, 1.0)), x_name="x", y_name="y"
            )

    def test_points_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            PlotSeries(
                label="s", points=((1.0, float("nan")),), x_name="x", y_name="y"
            )

    def test_round_trips_through_dict(self):
        series = PlotSeries(
            label="s", points=((1.0, 2.0), (3.0, 4.0)), x_name="x", y_name="y"
        )
        assert PlotSeries.from_dict(series.to_dict()) == series


class TestExportQVsDistance:
    DISTANCES = (813.0, 277.0, 1131.0, 345.0, 495.0)

    def test_sorted_output_with_reference_values(self, model):
        series = export_q_vs_distance(
            model, Modulation.QPSK, NeighborConfig(), self.DISTANCES
        )
        xs = [x for x, _ in series.points]
        assert xs == [277.0, 345.0, 495.0, 813.0, 1131.0]
        values = {x: y for x, y in series.points}
        assert values[345.0] == pytest.approx(13.77, abs=1e-9)
        assert values[277.0] == pytest.approx(13.9716, abs=5e-5)

    def test_label_names_modulation_and_context(self, model):
        clean = export_q_vs_distance(model, Modulation.BPSK, NeighborConfig(), [100.0])
        assert clean.label == "BPSK (clean)"
        dedicated = export_q_vs_distance(
            model, Modulation.QPSK, NeighborConfig(in_dedicated_partition=True), [100.0]
        )
        assert dedicated.label == "QPSK (dedicated)"
        busy = export_q_vs_distance(
            model,
            Modulation.QPSK,
            NeighborConfig(guarded_native_count=2, unguarded_native_count=3),
            [100.0],
        )
        assert busy.label == "QPSK (2 guarded, 3 unguarded)"
        assert clean.x_name == "distance_km"
        assert clean.y_name == "q_db"

    def test_empty_distances_rejected(self, model):
        with pytest.raises(ValueError, match="non-empty"):
            export_q_vs_distance(model, Modulation.QPSK, NeighborConfig(), [])

    def test_duplicate_distances_rejected(self, model):
        with pytest.raises(ValueError, match="unique"):
            export_q_vs_distance(model, Modulation.QPSK, NeighborConfig(), [345.0, 345.0])


class TestCsv:
    def series(self) -> PlotSeries:
        return PlotSeries(
            label="QPSK (clean)",
            points=((277.0, 13.9716), (345.0, 13.77)),
            x_name="distance_km",
            y_name="q_db",
        )

    @staticmethod
    def read(text: str) -> PlotSeries:
        """The series a CSV holds, read by the csv module; the package writes
        CSV and does not read it."""
        header, *rows = csv.reader(io.StringIO(text))
        points = tuple((float(x), float(y)) for x, y in rows)
        return PlotSeries(label="", points=points, x_name=header[0], y_name=header[1])

    def test_header_and_rows(self):
        text = plot_series_to_csv(self.series())
        assert text == "distance_km,q_db\n277.0000,13.9716\n345.0000,13.7700\n"

    def test_parse_rebuilds_points(self):
        parsed = self.read(plot_series_to_csv(self.series()))
        assert parsed.x_name == "distance_km"
        assert parsed.points == ((277.0, 13.9716), (345.0, 13.77))

    def test_csv_round_trip_is_byte_stable(self):
        first = plot_series_to_csv(self.series())
        second = plot_series_to_csv(self.read(first))
        assert first == second
