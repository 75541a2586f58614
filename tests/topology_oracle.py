"""Scan-based references for path aggregation, and random topologies.

``find_node``, ``spans_between`` and ``aggregate_path`` are the list scans
that ``awplan.topology`` replaced with its node and link maps: every lookup
walks the whole node or span tuple. ``random_topologies`` draws non-strict
topologies with duplicate node ids, parallel spans in both orientations and
self-loops; ``random_paths`` draws node sequences over them that repeat
nodes, name unknown nodes and cross pairs no span joins.
"""

from __future__ import annotations

from hypothesis import strategies as st

from awplan import AmplifierType, NetworkTopology, Node, PathMetrics, Span, TopologyError

NODE_IDS = ("A", "B", "C", "D", "E")
UNKNOWN_IDS = ("X", "")


def find_node(topology: NetworkTopology, node_id: str) -> Node | None:
    for node in topology.nodes:
        if node.id == node_id:
            return node
    return None


def spans_between(topology: NetworkTopology, a: str, b: str) -> tuple[Span, ...]:
    """All spans joining *a* and *b* in either orientation, in list order."""
    key = frozenset((a, b))
    return tuple(
        s for s in topology.spans if frozenset((s.from_node, s.to_node)) == key
    )


def aggregate_path(topology: NetworkTopology, node_sequence: list[str] | tuple[str, ...]) -> PathMetrics:
    if not node_sequence:
        raise TopologyError("empty node sequence")
    for node_id in node_sequence:
        if find_node(topology, node_id) is None:
            raise TopologyError(f"unknown node {node_id!r} in path")

    roadm_count = sum(
        1 for node_id in node_sequence if find_node(topology, node_id).has_roadm
    )
    distance = 0.0
    attenuation = 0.0
    ola_count = 0
    raman_count = 0
    for a, b in zip(node_sequence, node_sequence[1:]):
        segments = spans_between(topology, a, b)
        if not segments:
            raise TopologyError(f"no span connects {a!r} and {b!r}")
        for span in segments:
            distance += span.length_km
            attenuation += span.attenuation_db
            if span.has_inline_ola:
                ola_count += 1
            if span.amplifier is AmplifierType.RAMAN:
                raman_count += 1
    return PathMetrics(
        distance_km=distance,
        attenuation_db=attenuation,
        ola_count=ola_count,
        roadm_count=roadm_count,
        raman_span_count=raman_count,
    )


_nodes = st.builds(
    Node,
    id=st.sampled_from(NODE_IDS),
    name=st.sampled_from(("n1", "n2")),
    has_roadm=st.booleans(),
)

def _spans(endpoints: list[str]):
    return st.builds(
        Span,
        from_node=st.sampled_from(endpoints),
        to_node=st.sampled_from(endpoints),
        # Fractional lengths make the sum depend on the order of the terms.
        length_km=st.floats(0.1, 900.0, allow_nan=False, allow_infinity=False),
        attenuation_db=st.floats(0.1, 300.0, allow_nan=False, allow_infinity=False),
        amplifier=st.sampled_from(AmplifierType),
        dcm_present=st.booleans(),
        has_inline_ola=st.booleans(),
    )


@st.composite
def random_topologies(draw) -> NetworkTopology:
    nodes = draw(st.lists(_nodes, min_size=2, max_size=8))
    endpoints = sorted({n.id for n in nodes}) + list(UNKNOWN_IDS[:1])
    spans = draw(st.lists(_spans(endpoints), min_size=1, max_size=14))
    # Repeat some spans in reverse orientation, so parallel links meet both ways.
    for span in draw(st.lists(st.sampled_from(spans), max_size=4)):
        spans.insert(
            draw(st.integers(0, len(spans))),
            Span(span.to_node, span.from_node, span.length_km + 1.5, span.attenuation_db,
                 span.amplifier, span.dcm_present, not span.has_inline_ola),
        )
    return NetworkTopology(nodes=tuple(nodes), spans=tuple(spans))


def random_paths(topology: NetworkTopology):
    """Node sequences that mostly walk along spans from a declared node and
    now and then jump to any node, declared or not."""
    declared = sorted({n.id for n in topology.nodes})
    anywhere = declared + list(UNKNOWN_IDS)

    @st.composite
    def walk(draw) -> list[str]:
        path = [draw(st.sampled_from(declared))]
        for _ in range(draw(st.integers(0, 6))):
            nexts = [
                s.to_node if s.from_node == path[-1] else s.from_node
                for s in topology.spans
                if path[-1] in (s.from_node, s.to_node)
            ]
            if nexts and draw(st.integers(0, 9)) < 8:
                path.append(draw(st.sampled_from(nexts)))
            else:
                path.append(draw(st.sampled_from(anywhere)))
        return path

    return walk()
