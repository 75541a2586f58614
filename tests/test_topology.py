from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

import topology_oracle
from awplan import (
    AmplifierType,
    NetworkTopology,
    Node,
    PathMetrics,
    SchemaError,
    Span,
    TopologyError,
    aggregate_path,
    parse_topology,
    serialize,
    validate_topology,
)
from awplan.topology import (
    VIOLATION_DANGLING_ENDPOINT,
    VIOLATION_DUPLICATE_NODE,
    VIOLATION_EMPTY_NODE_ID,
    VIOLATION_NEGATIVE_ATTENUATION,
    VIOLATION_NEGATIVE_LENGTH,
    VIOLATION_SELF_LOOP,
)


def node(node_id: str) -> Node:
    return Node(id=node_id, name=node_id, has_roadm=True)


def span(a: str, b: str, km: float = 80.0, att: float = 20.0, **kwargs) -> Span:
    defaults = dict(
        amplifier=AmplifierType.EDFA, dcm_present=True, has_inline_ola=False
    )
    defaults.update(kwargs)
    return Span(from_node=a, to_node=b, length_km=km, attenuation_db=att, **defaults)


def topo(nodes: list[Node], spans: list[Span]) -> NetworkTopology:
    return NetworkTopology(nodes=tuple(nodes), spans=tuple(spans))


class TestValidateTopology:
    def test_valid_topology_has_no_violations(self):
        t = topo([node("A"), node("B")], [span("A", "B")])
        assert validate_topology(t) == []

    def test_duplicate_node_id(self):
        t = topo([node("A"), node("A")], [])
        codes = [v.code for v in validate_topology(t)]
        assert codes == [VIOLATION_DUPLICATE_NODE]

    def test_empty_node_id(self):
        t = topo([node("")], [])
        codes = [v.code for v in validate_topology(t)]
        assert codes == [VIOLATION_EMPTY_NODE_ID]

    def test_nonpositive_span_length(self):
        t = topo([node("A"), node("B")], [span("A", "B", km=0.0)])
        codes = [v.code for v in validate_topology(t)]
        assert codes == [VIOLATION_NEGATIVE_LENGTH]

    def test_nonpositive_span_attenuation(self):
        t = topo([node("A"), node("B")], [span("A", "B", att=-1.0)])
        codes = [v.code for v in validate_topology(t)]
        assert codes == [VIOLATION_NEGATIVE_ATTENUATION]

    def test_self_loop(self):
        t = topo([node("A")], [span("A", "A")])
        codes = [v.code for v in validate_topology(t)]
        assert codes == [VIOLATION_SELF_LOOP]

    def test_dangling_endpoint(self):
        t = topo([node("A")], [span("A", "B")])
        codes = [v.code for v in validate_topology(t)]
        assert codes == [VIOLATION_DANGLING_ENDPOINT]

    def test_one_violation_per_offence(self):
        t = topo(
            [node("A"), node("A"), node("")],
            [span("A", "A", km=-5.0, att=0.0), span("A", "X")],
        )
        codes = sorted(v.code for v in validate_topology(t))
        assert codes == sorted(
            [
                VIOLATION_DUPLICATE_NODE,
                VIOLATION_EMPTY_NODE_ID,
                VIOLATION_NEGATIVE_LENGTH,
                VIOLATION_NEGATIVE_ATTENUATION,
                VIOLATION_SELF_LOOP,
                VIOLATION_DANGLING_ENDPOINT,
            ]
        )


class TestParseTopology:
    def test_accepts_json_text_and_decoded_dict(self, fixture_dir):
        text = (fixture_dir / "garr.topo.json").read_text()
        assert parse_topology(text) == parse_topology(json.loads(text))

    def test_invalid_json_raises_schema_error_with_position(self):
        with pytest.raises(SchemaError, match="line"):
            parse_topology("{not json")

    def test_missing_field_names_path(self):
        with pytest.raises(SchemaError, match=r"nodes\[0\]"):
            parse_topology({"nodes": [{"id": "A"}], "spans": []})

    def test_bad_amplifier_value_rejected(self):
        doc = {
            "nodes": [node("A").to_dict(), node("B").to_dict()],
            "spans": [dict(span("A", "B").to_dict(), amplifier="SOA")],
        }
        with pytest.raises(SchemaError, match="amplifier"):
            parse_topology(doc)

    def test_strict_rejects_invalid_topology(self):
        doc = {"nodes": [node("A").to_dict()], "spans": [span("A", "B").to_dict()]}
        with pytest.raises(TopologyError, match=VIOLATION_DANGLING_ENDPOINT):
            parse_topology(doc)

    def test_lenient_defers_invariants_to_validate(self):
        doc = {"nodes": [node("A").to_dict()], "spans": [span("A", "B").to_dict()]}
        t = parse_topology(doc, strict=False)
        assert [v.code for v in validate_topology(t)] == [VIOLATION_DANGLING_ENDPOINT]

    def test_garr_fixture_is_strictly_valid(self, garr):
        assert validate_topology(garr) == []


class TestSpansBetween:
    def test_orientation_insensitive(self):
        s = span("A", "B")
        t = topo([node("A"), node("B")], [s])
        assert t.spans_between("B", "A") == (s,)

    def test_returns_all_segments_in_order(self):
        s1 = span("A", "B", km=50.0)
        s2 = span("B", "A", km=60.0)
        t = topo([node("A"), node("B")], [s1, s2])
        assert t.spans_between("A", "B") == (s1, s2)


class TestAggregatePath:
    def test_sums_every_segment_between_consecutive_nodes(self):
        t = topo(
            [node("A"), node("B")],
            [
                span("A", "B", km=40.0, att=10.0, has_inline_ola=True),
                span("A", "B", km=35.0, att=9.0, amplifier=AmplifierType.RAMAN),
            ],
        )
        m = aggregate_path(t, ["A", "B"])
        assert m.distance_km == 75.0
        assert m.attenuation_db == 19.0
        assert m.ola_count == 1
        assert m.roadm_count == 2
        assert m.raman_span_count == 1

    def test_roadm_counted_per_occurrence(self):
        t = topo([node("A"), node("B")], [span("A", "B")])
        m = aggregate_path(t, ["A", "B", "A"])
        assert m.roadm_count == 3

    def test_first_node_with_a_duplicate_id_wins(self):
        hut = Node(id="A", name="hut", has_roadm=False)
        t = topo([hut, node("A"), node("B")], [span("A", "B")])
        assert aggregate_path(t, ["A", "B"]).roadm_count == 1

    def test_unknown_node_reported_before_missing_link(self):
        t = topo([node("A"), node("B"), node("C")], [span("A", "B")])
        with pytest.raises(TopologyError, match=r"^unknown node 'Z' in path$"):
            aggregate_path(t, ["A", "C", "Z"])

    def test_non_roadm_node_not_counted(self):
        hut = Node(id="X", name="X", has_roadm=False)
        t = topo([node("A"), hut], [span("A", "X")])
        m = aggregate_path(t, ["A", "X"])
        assert m.roadm_count == 1

    def test_empty_sequence_rejected(self, garr):
        with pytest.raises(TopologyError, match="empty"):
            aggregate_path(garr, [])

    def test_unknown_node_rejected(self, garr):
        with pytest.raises(TopologyError, match="ZZ"):
            aggregate_path(garr, ["BO1", "ZZ"])

    def test_disconnected_pair_rejected(self, garr):
        with pytest.raises(TopologyError, match="no span"):
            aggregate_path(garr, ["BO1", "MI2"])

    @pytest.mark.parametrize(
        "path_nodes, expected",
        [
            (("BO1", "MI1"), (277.0, 78.0, 2, 2, 1)),
            (("RM2", "H1", "BO1"), (495.0, 105.0, 4, 3, 3)),
            (("BA1", "H2", "H3", "H4", "H5", "BO1"), (813.0, 232.0, 10, 6, 2)),
            (("RM", "H6", "H7", "H8", "MI2"), (1131.0, 325.0, 12, 5, 3)),
        ],
    )
    def test_reference_link_table(self, garr, path_nodes, expected):
        m = aggregate_path(garr, list(path_nodes))
        got = (
            m.distance_km,
            m.attenuation_db,
            m.ola_count,
            m.roadm_count,
            m.raman_span_count,
        )
        assert got == expected


class TestPathMetrics:
    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="distance_km"):
            PathMetrics(
                distance_km=-1.0,
                attenuation_db=0.0,
                ola_count=0,
                roadm_count=0,
                raman_span_count=0,
            )

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="roadm_count"):
            PathMetrics(
                distance_km=1.0,
                attenuation_db=0.0,
                ola_count=0,
                roadm_count=-2,
                raman_span_count=0,
            )

    def test_round_trips_through_dict(self):
        m = PathMetrics(
            distance_km=277.0,
            attenuation_db=78.0,
            ola_count=2,
            roadm_count=2,
            raman_span_count=1,
        )
        assert PathMetrics.from_dict(m.to_dict()) == m


def _outcome(aggregate, topology, path):
    try:
        return aggregate(topology, path)
    except TopologyError as err:
        return type(err), str(err)


class TestIndexAgainstScans:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_scan_oracle(self, data):
        t = data.draw(topology_oracle.random_topologies())
        path = data.draw(topology_oracle.random_paths(t))
        # PathMetrics compares its floats exactly, so the summing order must match.
        assert _outcome(aggregate_path, t, path) == _outcome(topology_oracle.aggregate_path, t, path)
        ids = topology_oracle.NODE_IDS + topology_oracle.UNKNOWN_IDS
        for a in ids:
            for b in ids:
                assert t.spans_between(a, b) == topology_oracle.spans_between(t, a, b)
        declared = {n.id for n in t.nodes}
        dangling = [v.message for v in validate_topology(t) if v.code == VIOLATION_DANGLING_ENDPOINT]
        assert dangling == [
            f"span[{i}] {s.from_node}-{s.to_node}: endpoint {endpoint!r} is not a declared node"
            for i, s in enumerate(t.spans)
            for endpoint in (s.from_node, s.to_node)
            if endpoint not in declared
        ]

    @settings(max_examples=100, deadline=None)
    @given(t=topology_oracle.random_topologies())
    def test_built_maps_leave_equality_and_bytes_alone(self, t):
        fresh = NetworkTopology(nodes=t.nodes, spans=t.spans)
        _outcome(aggregate_path, t, ["A", "B"])
        t.spans_between("A", "B")
        assert {"_node_by_id", "_spans_by_pair"} <= vars(t).keys()
        assert t == fresh and hash(t) == hash(fresh)
        assert repr(t) == repr(fresh)
        assert t.to_dict() == fresh.to_dict()
        assert serialize(t) == serialize(fresh)
