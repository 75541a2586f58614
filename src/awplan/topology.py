"""Host optical network model: nodes, fiber spans, and per-path metric aggregation.

The graph stays at ROADM-node granularity. Inline amplifier sites are not
nodes; a span that terminates on an optical line amplifier hut instead of a
ROADM carries ``has_inline_ola=True``, and a multi-hut link between two
ROADM nodes is encoded as several consecutive spans sharing the same
endpoint pair. Spans are bidirectional.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from . import _schema
from .errors import SchemaError, TopologyError

VIOLATION_DUPLICATE_NODE = "DUPLICATE_NODE"
VIOLATION_EMPTY_NODE_ID = "EMPTY_NODE_ID"
VIOLATION_NEGATIVE_LENGTH = "NEGATIVE_LENGTH"
VIOLATION_NEGATIVE_ATTENUATION = "NEGATIVE_ATTENUATION"
VIOLATION_SELF_LOOP = "SELF_LOOP"
VIOLATION_DANGLING_ENDPOINT = "DANGLING_ENDPOINT"


class AmplifierType(Enum):
    EDFA = "EDFA"
    RAMAN = "Raman"


@_schema.document("violation")
@dataclass(frozen=True)
class Violation:
    """A single invariant violation with a stable machine code."""

    code: str
    message: str


@_schema.document("node")
@dataclass(frozen=True)
class Node:
    id: str
    name: str
    has_roadm: bool


@_schema.document("span", keys={"from_node": "from", "to_node": "to"})
@dataclass(frozen=True)
class Span:
    """One fiber segment between two ROADM nodes, or between a ROADM node and
    an anonymous inline amplifier site on the way to the far node."""

    from_node: str
    to_node: str
    length_km: float
    attenuation_db: float
    amplifier: AmplifierType
    dcm_present: bool
    has_inline_ola: bool

    def __post_init__(self) -> None:
        for field_name in ("length_km", "attenuation_db"):
            value = getattr(self, field_name)
            if not math.isfinite(value):
                raise ValueError(f"{field_name} must be finite, got {value}")


@_schema.document("topology")
@dataclass(frozen=True)
class NetworkTopology:
    """Immutable container of nodes and spans.

    Construction does not enforce invariants; use :func:`validate_topology`
    to collect violations, or :func:`parse_topology` which rejects invalid
    documents outright.
    """

    nodes: tuple[Node, ...]
    spans: tuple[Span, ...]

    @cached_property
    def _node_by_id(self) -> dict[str, Node]:
        """Node by id; of duplicate ids the first in list order wins."""
        return {node.id: node for node in reversed(self.nodes)}

    @cached_property
    def _spans_by_pair(self) -> dict[frozenset[str], tuple[Span, ...]]:
        by_pair: dict[frozenset[str], tuple[Span, ...]] = {}
        for span in self.spans:
            key = frozenset((span.from_node, span.to_node))
            by_pair[key] = by_pair.get(key, ()) + (span,)
        return by_pair

    def spans_between(self, a: str, b: str) -> tuple[Span, ...]:
        """All spans joining *a* and *b* in either orientation, in list order."""
        return self._spans_by_pair.get(frozenset((a, b)), ())


@_schema.document("metrics")
@dataclass(frozen=True)
class PathMetrics:
    """Aggregated link-table metrics for one path."""

    distance_km: float
    attenuation_db: float
    ola_count: int
    roadm_count: int
    raman_span_count: int

    def __post_init__(self) -> None:
        for field_name in ("distance_km", "attenuation_db"):
            value = getattr(self, field_name)
            if not math.isfinite(value):
                raise ValueError(f"{field_name} must be finite, got {value}")
            if value < 0:
                raise ValueError(f"{field_name} must be >= 0, got {value}")
        for field_name in ("ola_count", "roadm_count", "raman_span_count"):
            value = getattr(self, field_name)
            if value < 0:
                raise ValueError(f"{field_name} must be >= 0, got {value}")


def validate_topology(topology: NetworkTopology) -> list[Violation]:
    """Collect every invariant violation; an empty list means the topology is valid."""
    violations: list[Violation] = []
    seen: set[str] = set()
    for node in topology.nodes:
        if not node.id:
            violations.append(Violation(VIOLATION_EMPTY_NODE_ID, "node with empty id"))
        elif node.id in seen:
            violations.append(
                Violation(VIOLATION_DUPLICATE_NODE, f"duplicate node id {node.id!r}")
            )
        else:
            seen.add(node.id)
    for index, span in enumerate(topology.spans):
        label = f"span[{index}] {span.from_node}-{span.to_node}"
        if span.length_km <= 0:
            violations.append(
                Violation(VIOLATION_NEGATIVE_LENGTH, f"{label}: length_km must be > 0, got {span.length_km}")
            )
        if span.attenuation_db <= 0:
            violations.append(
                Violation(
                    VIOLATION_NEGATIVE_ATTENUATION,
                    f"{label}: attenuation_db must be > 0, got {span.attenuation_db}",
                )
            )
        if span.from_node == span.to_node:
            violations.append(Violation(VIOLATION_SELF_LOOP, f"{label}: span endpoints are identical"))
        for endpoint in (span.from_node, span.to_node):
            if endpoint not in topology._node_by_id:
                violations.append(
                    Violation(
                        VIOLATION_DANGLING_ENDPOINT,
                        f"{label}: endpoint {endpoint!r} is not a declared node",
                    )
                )
    return violations


def parse_topology(document: str | dict, *, strict: bool = True) -> NetworkTopology:
    """Parse a topology document (JSON text or an already-decoded object).

    With ``strict=True`` (the default) any invariant violation raises
    :class:`TopologyError`; ``strict=False`` only enforces the structural
    schema, so the result can be fed to :func:`validate_topology`.
    """
    if isinstance(document, str):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as err:
            raise SchemaError(f"topology: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}") from None
    else:
        data = document
    topology = NetworkTopology.from_dict(data)
    if strict:
        violations = validate_topology(topology)
        if violations:
            detail = "; ".join(f"{v.code}: {v.message}" for v in violations)
            raise TopologyError(f"invalid topology: {detail}")
    return topology


def aggregate_path(topology: NetworkTopology, node_sequence: list[str] | tuple[str, ...]) -> PathMetrics:
    """Aggregate link-table metrics along an explicit node sequence.

    Consecutive nodes must be joined by at least one span; all spans between
    a pair are treated as segments of the same link and summed. ROADM count
    is over traversed nodes, one per occurrence.
    """
    if not node_sequence:
        raise TopologyError("empty node sequence")
    roadm_count = 0
    for node_id in node_sequence:
        node = topology._node_by_id.get(node_id)
        if node is None:
            raise TopologyError(f"unknown node {node_id!r} in path")
        if node.has_roadm:
            roadm_count += 1

    distance = 0.0
    attenuation = 0.0
    ola_count = 0
    raman_count = 0
    for a, b in zip(node_sequence, node_sequence[1:]):
        segments = topology.spans_between(a, b)
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
