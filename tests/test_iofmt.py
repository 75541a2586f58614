from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from awplan import (
    Modulation,
    NeighborConfig,
    PlotSeries,
    SchemaError,
    Thresholds,
    canonical_json,
    export_q_vs_distance,
    format_real,
    parse_json,
    plot_series_from_csv,
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


class TestParseJson:
    def test_error_carries_label_and_position(self):
        with pytest.raises(SchemaError, match=r"grid: invalid JSON at line 1"):
            parse_json("{oops", label="grid")


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

    def test_thresholds_do_not_change_values(self, model):
        strict = Thresholds(hard_min_db=1.0, design_min_db=20.0)
        default = export_q_vs_distance(model, Modulation.QPSK, NeighborConfig(), [345.0])
        relabeled = export_q_vs_distance(
            model, Modulation.QPSK, NeighborConfig(), [345.0], thresholds=strict
        )
        assert default.points == relabeled.points


class TestCsv:
    def series(self) -> PlotSeries:
        return PlotSeries(
            label="QPSK (clean)",
            points=((277.0, 13.9716), (345.0, 13.77)),
            x_name="distance_km",
            y_name="q_db",
        )

    def test_header_and_rows(self):
        csv = plot_series_to_csv(self.series())
        assert csv == "distance_km,q_db\n277.0000,13.9716\n345.0000,13.7700\n"

    def test_parse_rebuilds_points(self):
        series = self.series()
        parsed = plot_series_from_csv(plot_series_to_csv(series), label=series.label)
        assert parsed.x_name == "distance_km"
        assert parsed.points == ((277.0, 13.9716), (345.0, 13.77))

    def test_csv_round_trip_is_byte_stable(self):
        first = plot_series_to_csv(self.series())
        second = plot_series_to_csv(plot_series_from_csv(first))
        assert first == second

    def test_malformed_row_rejected(self):
        with pytest.raises(SchemaError, match="line 2"):
            plot_series_from_csv("x,y\n1.0\n")

    def test_non_numeric_cell_rejected(self):
        with pytest.raises(SchemaError, match="non-numeric"):
            plot_series_from_csv("x,y\n1.0,abc\n")

    def test_empty_document_rejected(self):
        with pytest.raises(SchemaError, match="empty"):
            plot_series_from_csv("")
