"""Error paths of every decodable document type.

Each row takes a valid document, breaks it in one place and expects a
SchemaError whose message starts with the dotted path of the break: a
missing required key, a wrong scalar type, and a bad enum value or a
constructor-invariant violation where the type has one. The last tests
pin the codec's reading of reals and its enum wording.
"""

from __future__ import annotations

import copy
import json

import pytest

from awplan import (
    AllocationResult,
    AmplifierType,
    Assignment,
    BandConfig,
    CalibrationPoint,
    CarrierPair,
    DedicatedPartition,
    Demand,
    EqualizationReport,
    EqualizationResult,
    Feasibility,
    Modulation,
    NativeChannel,
    NeighborConfig,
    NetworkTopology,
    Node,
    NodeEqualizationSummary,
    OccupantKind,
    PathMetrics,
    PlacementRequest,
    PlanOption,
    PlanReport,
    PlotSeries,
    PowerReading,
    QEstimate,
    QModel,
    SchemaError,
    Span,
    SpectrumGrid,
    Strategy,
    SuperChannel,
    Thresholds,
    VoaSetting,
    serialize,
)
from awplan.planner import ModelProvenance, PlanDocument

DROP = object()

_node = Node(id="A", name="Alpha", has_roadm=True)
_span = Span(
    from_node="A", to_node="B", length_km=80.0, attenuation_db=20.0,
    amplifier=AmplifierType.EDFA, dcm_present=False, has_inline_ola=True,
)
_native = NativeChannel(id="n1", start_slot=0)
_sc = SuperChannel(id="sc1", start_slot=10)
_partition = DedicatedPartition(start_slot=40, width_slots=8)
_grid = SpectrumGrid(
    natives=(_native, NativeChannel(id="n2", start_slot=4, bitrate_gbps=40)),
    superchannels=(_sc,),
    partitions=(_partition,),
)
_request = PlacementRequest(kind=OccupantKind.NATIVE, id="r1", guard_band_slots=2)
_assignment = Assignment(request=_request, start_slot=20)
_q = QEstimate(value_db=10.5, feasibility=Feasibility.OK)
_per_mod = {Modulation.BPSK: 0.2, Modulation.QPSK: 0.3}
_option = PlanOption(
    strategy=Strategy.MIXED_SPECTRUM, pair_modulations=(Modulation.BPSK,) * 5,
    active_carriers=10, capacity_gbps=250.0, q=_q, feasible=True,
)
_report = PlanReport(Demand(("RM", "MI2"), 400.0), _option, (_option,), ("w",), "r", 0.0)
_point = CalibrationPoint(345.0, Modulation.QPSK, NeighborConfig(), 13.77)
_voa = VoaSetting(channel_ref="c1", attenuation_db=1.5)
_summary = NodeEqualizationSummary(
    node_id="A", passed=False, max_residual_db=0.5,
    clipped_channels=("c2",), unknown_channel_refs=("c9",),
)

# type, valid object, [(case, key path, new value or DROP, expected message prefix)]
TABLE = [
    (Node, _node, [
        ("missing", ("id",), DROP, "doc.id: missing required field"),
        ("wrong type", ("has_roadm",), 1, "doc.has_roadm: expected boolean"),
    ]),
    (Span, _span, [
        ("missing", ("from",), DROP, "doc.from: missing required field"),
        ("wrong type", ("length_km",), "80", "doc.length_km: expected number"),
        ("bad enum", ("amplifier",), "SOA", "doc.amplifier: expected one of 'EDFA', 'Raman', got 'SOA'"),
        ("not a number", ("length_km",), float("nan"), "doc: length_km must be finite, got nan"),
        ("infinite", ("attenuation_db",), float("inf"), "doc: attenuation_db must be finite, got inf"),
    ]),
    (NetworkTopology, NetworkTopology(nodes=(_node,), spans=(_span,)), [
        ("missing", ("spans",), DROP, "doc.spans: missing required field"),
        ("wrong type", ("nodes", 0, "id"), 7, "doc.nodes[0].id: expected string"),
        ("bad enum", ("spans", 0, "amplifier"), "x", "doc.spans[0].amplifier: expected one of"),
        ("invariant", ("spans", 0, "length_km"), float("-inf"), "doc.spans[0]: length_km must be finite, got -inf"),
    ]),
    (PathMetrics, PathMetrics(100.0, 20.0, 1, 2, 0), [
        ("missing", ("distance_km",), DROP, "doc.distance_km: missing required field"),
        ("wrong type", ("ola_count",), 1.5, "doc.ola_count: expected integer"),
        ("invariant", ("distance_km",), -1, "doc: distance_km must be >= 0"),
        ("not a number", ("distance_km",), float("nan"), "doc: distance_km must be finite"),
        ("infinite", ("attenuation_db",), float("inf"), "doc: attenuation_db must be finite"),
    ]),
    (BandConfig, BandConfig(), [
        ("missing", ("slot_count",), DROP, "doc.slot_count: missing required field"),
        ("wrong type", ("slot_count",), "160", "doc.slot_count: expected integer"),
        ("invariant", ("slot_count",), 3, "doc: slot_count must be a positive even integer"),
        ("too many slots", ("slot_count",), 2048, "doc: slot_count must be at most 1024, got 2048"),
    ]),
    (NativeChannel, _native, [
        ("missing", ("start_slot",), DROP, "doc.start_slot: missing required field"),
        ("wrong type", ("start_slot",), 1.5, "doc.start_slot: expected integer"),
        ("invariant", ("bitrate_gbps",), 25, "doc: native bitrate must be one of (10, 40)"),
        ("bad enum", ("format",), "OOK", "doc.format: expected one of 'IM-DD', got 'OOK'"),
    ]),
    (CarrierPair, CarrierPair(index=1, modulation=Modulation.QPSK), [
        ("missing", ("index",), DROP, "doc.index: missing required field"),
        ("wrong type", ("enabled",), "yes", "doc.enabled: expected boolean"),
        ("bad enum", ("modulation",), "8QAM", "doc.modulation: expected one of 'BPSK', 'QPSK', got '8QAM'"),
        ("invariant", ("index",), 5, "doc: pair index must be in 0..4"),
    ]),
    (SuperChannel, _sc, [
        ("missing", ("pairs",), DROP, "doc.pairs: missing required field"),
        ("wrong type", ("width_slots",), "8", "doc.width_slots: expected integer"),
        ("bad enum", ("pairs", 2, "modulation"), "x", "doc.pairs[2].modulation: expected one of"),
        ("invariant", ("active_carriers",), 3, "doc: active_carriers must be 10 or 9"),
        ("nonpositive width", ("width_slots",), -3, "doc: super-channel width must be > 0, got -3"),
    ]),
    (DedicatedPartition, _partition, [
        ("missing", ("width_slots",), DROP, "doc.width_slots: missing required field"),
        ("wrong type", ("start_slot",), True, "doc.start_slot: expected integer, got boolean"),
        ("invariant", ("start_slot",), 41, "doc: partition boundaries must align"),
    ]),
    (NeighborConfig, NeighborConfig(guarded_native_count=1, unguarded_native_count=2), [
        ("missing", ("in_dedicated_partition",), DROP, "doc.in_dedicated_partition: missing required field"),
        ("wrong type", ("guarded_native_count",), "1", "doc.guarded_native_count: expected integer"),
        ("invariant", ("guarded_native_count",), -1, "doc: neighbor counts must be >= 0"),
    ]),
    (SpectrumGrid, _grid, [
        ("missing", ("band",), DROP, "doc.band: missing required field"),
        ("wrong type", ("natives", 1, "start_slot"), "4", "doc.natives[1].start_slot: expected integer"),
        ("invariant", ("natives", 1, "start_slot"), 0, "doc: 'n2' would overlap 'n1'"),
    ]),
    (PlacementRequest, _request, [
        ("missing", ("kind",), DROP, "doc.kind: missing required field"),
        ("wrong type", ("guard_band_slots",), "2", "doc.guard_band_slots: expected integer"),
        ("bad enum", ("kind",), "alien", "doc.kind: expected"),
        ("invariant", ("id",), "", "doc: request id must be non-empty"),
        ("guard too wide", ("guard_band_slots",), 10**12,
         "doc: guard_band_slots must be at most 1024, got 1000000000000"),
    ]),
    (Assignment, _assignment, [
        ("missing", ("start_slot",), DROP, "doc.start_slot: missing required field"),
        ("wrong type", ("start_slot",), "20", "doc.start_slot: expected integer or null"),
        ("bad enum", ("request", "kind"), "alien", "doc.request.kind: expected"),
    ]),
    (AllocationResult, AllocationResult(assignments=(_assignment,), grid=_grid), [
        ("missing", ("grid",), DROP, "doc.grid: missing required field"),
        ("wrong type", ("assignments", 0, "reason"), 5, "doc.assignments[0].reason: expected string"),
        ("invariant", ("grid", "superchannels", 0, "start_slot"), 0, "doc.grid: 'sc1' would overlap"),
    ]),
    (Thresholds, Thresholds(), [
        ("missing", ("design_min_db",), DROP, "doc.design_min_db: missing required field"),
        ("wrong type", ("hard_min_db",), None, "doc.hard_min_db: expected number, got null"),
        ("invariant", ("hard_min_db",), 9.0, "doc: hard_min_db must be below design_min_db"),
    ]),
    (QEstimate, _q, [
        ("missing", ("value_db",), DROP, "doc.value_db: missing required field"),
        ("wrong type", ("value_db",), "10", "doc.value_db: expected number"),
        ("bad enum", ("class",), "Great", "doc.class: expected one of 'Infeasible', 'Marginal', 'Ok', got 'Great'"),
    ]),
    (CalibrationPoint, _point, [
        ("missing", ("neighbor_config",), DROP, "doc.neighbor_config: missing required field"),
        ("wrong type", ("measured_q_db",), "13", "doc.measured_q_db: expected number"),
        ("bad enum", ("modulation",), "8QAM", "doc.modulation: expected"),
        ("invariant", ("measured_q_db",), 0, "doc: measured_q_db must be > 0"),
        ("not a number", ("measured_q_db",), float("nan"), "doc: measured_q_db must be finite, got nan"),
        ("infinite", ("measured_q_db",), float("inf"), "doc: measured_q_db must be finite, got inf"),
        ("infinite distance", ("distance_km",), float("-inf"), "doc: distance_km must be finite, got -inf"),
        ("wrong count type", ("roadm_count",), 1.5, "doc.roadm_count: expected integer"),
        ("negative count", ("roadm_count",), -1, "doc: roadm_count must be >= 0, got -1"),
    ]),
    (QModel, QModel(345.0, {Modulation.BPSK: 17.0, Modulation.QPSK: 13.8}, _per_mod, _per_mod, _per_mod), [
        ("missing", ("q_ref_db", "BPSK"), DROP, "doc.q_ref_db.BPSK: missing required field"),
        ("wrong type", ("roadm_penalty_db",), "0", "doc.roadm_penalty_db: expected number"),
        ("invariant", ("p_guard_db", "QPSK"), -0.1, "doc: p_guard_db[QPSK] must be >= 0"),
    ]),
    (Demand, Demand(path=("RM", "MI2"), required_capacity_gbps=400.0), [
        ("missing", ("path",), DROP, "doc.path: missing required field"),
        ("wrong type", ("path", 1), 5, "doc.path[1]: expected string"),
        ("invariant", ("required_capacity_gbps",), 0, "doc: required_capacity_gbps must be > 0"),
    ]),
    (PlanOption, _option, [
        ("missing", ("q",), DROP, "doc.q: missing required field"),
        ("wrong type", ("feasible",), "yes", "doc.feasible: expected boolean"),
        ("bad enum", ("pair_modulations", 2), "8QAM", "doc.pair_modulations[2]: expected"),
        ("invariant", ("active_carriers",), 6, "doc: active_carriers must be 10 or 9 for 5 enabled pairs, got 6"),
    ]),
    (PlanReport, PlanReport(Demand(("RM", "MI2"), 400.0), _option, (_option,), ("w",), "r", 0.0), [
        ("missing", ("rationale",), DROP, "doc.rationale: missing required field"),
        ("wrong type", ("warnings", 0), 5, "doc.warnings[0]: expected string"),
        ("bad enum", ("chosen", "strategy"), "Hybrid", "doc.chosen.strategy: expected"),
    ]),
    (PlanDocument, PlanDocument(ModelProvenance("ab" * 32), (_report,)), [
        ("missing", ("model_provenance",), DROP, "doc.model_provenance: missing required field"),
        ("wrong type", ("model_provenance",), 5, "doc.model_provenance: expected object, got integer"),
        ("not hex", ("model_provenance", "calibration_sha256"), "AB" * 32,
         "doc.model_provenance: calibration_sha256 must be 64 lowercase hex digits"),
        ("too short", ("model_provenance", "calibration_sha256"), "ab",
         "doc.model_provenance: calibration_sha256 must be 64 lowercase hex digits"),
        ("nested wrong type", ("reports", 0, "native_impact_db"), "0", "doc.reports[0].native_impact_db: expected number"),
    ]),
    (PowerReading, PowerReading(channel_ref="c1", power_dbm=-3.0), [
        ("missing", ("power_dbm",), DROP, "doc.power_dbm: missing required field"),
        ("wrong type", ("channel_ref",), 1, "doc.channel_ref: expected string"),
        ("invariant", ("channel_ref",), "", "doc: channel_ref must be non-empty"),
    ]),
    (VoaSetting, _voa, [
        ("missing", ("channel_ref",), DROP, "doc.channel_ref: missing required field"),
        ("wrong type", ("attenuation_db",), [1], "doc.attenuation_db: expected number"),
        ("invariant", ("attenuation_db",), -1, "doc: attenuation_db must be >= 0"),
    ]),
    (EqualizationResult, EqualizationResult((_voa,), 0.5, ("c2",)), [
        ("missing", ("settings",), DROP, "doc.settings: missing required field"),
        ("wrong type", ("clipped_channels", 0), 5, "doc.clipped_channels[0]: expected string"),
        ("invariant", ("max_residual_db",), -1, "doc: max_residual_db must be >= 0"),
    ]),
    (NodeEqualizationSummary, _summary, [
        ("missing", ("node_id",), DROP, "doc.node_id: missing required field"),
        ("wrong type", ("passed",), "no", "doc.passed: expected boolean"),
        ("wrong item type", ("unknown_channel_refs", 0), 9, "doc.unknown_channel_refs[0]: expected string"),
    ]),
    (EqualizationReport, EqualizationReport(1.0, (_summary,)), [
        ("missing", ("nodes",), DROP, "doc.nodes: missing required field"),
        ("wrong type", ("flatness_tolerance_db",), "1", "doc.flatness_tolerance_db: expected number"),
        ("nested wrong type", ("nodes", 0, "max_residual_db"), True, "doc.nodes[0].max_residual_db: expected number"),
    ]),
    (PlotSeries, PlotSeries("s", "x", "y", ((1.0, 2.0), (3.0, 4.0))), [
        ("missing", ("label",), DROP, "doc.label: missing required field"),
        ("wrong type", ("x_name",), 5, "doc.x_name: expected string"),
        ("bad point", ("points", 1), [3.0], "doc.points[1]: expected 2 items, got 1"),
        ("point not an array", ("points", 0), {"x": 1.0}, "doc.points[0]: expected array, got dict"),
        ("point not a number", ("points", 1, 1), "4", "doc.points[1][1]: expected number, got str"),
        ("invariant", ("points", 1, 0), 0.5, "doc: plot points must be strictly ascending in x"),
    ]),
]

CASES = [
    pytest.param(cls, valid, keys, value, prefix, id=f"{cls.__name__}-{case}")
    for cls, valid, rows in TABLE
    for case, keys, value, prefix in rows
]


def _broken(document, keys, value):
    document = copy.deepcopy(document)
    target = document
    for key in keys[:-1]:
        target = target[key]
    if value is DROP:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    return document


@pytest.mark.parametrize(
    "cls, valid", [pytest.param(cls, valid, id=cls.__name__) for cls, valid, _ in TABLE]
)
def test_valid_document_decodes(cls, valid):
    assert cls.from_dict(valid.to_dict(), "doc") == valid


@pytest.mark.parametrize("cls, valid, keys, value, prefix", CASES)
def test_error_names_dotted_path(cls, valid, keys, value, prefix):
    document = _broken(valid.to_dict(), keys, value)
    with pytest.raises(SchemaError) as excinfo:
        cls.from_dict(document, "doc")
    assert str(excinfo.value).startswith(prefix)


@pytest.mark.parametrize(
    "cls", [pytest.param(cls, id=cls.__name__) for cls, _, _ in TABLE]
)
def test_non_object_document_rejected(cls):
    with pytest.raises(SchemaError, match=r"^doc: expected object, got list"):
        cls.from_dict([], "doc")


def test_json_nan_metrics_rejected():
    text = '{"distance_km": NaN, "attenuation_db": 20, "ola_count": 1, "roadm_count": 2, "raman_span_count": 0}'
    with pytest.raises(SchemaError, match=r"^metrics: distance_km must be finite"):
        PathMetrics.from_dict(json.loads(text))


def test_integer_reals_read_as_float():
    document = {"distance_km": 100, "attenuation_db": 20, "ola_count": 1, "roadm_count": 2, "raman_span_count": 0}
    metrics = PathMetrics.from_dict(document)
    assert type(metrics.distance_km) is float
    assert '"distance_km": 100.0000' in serialize(metrics)


ENUM_FIELDS = [
    (Span, _span, ("amplifier",), "'EDFA', 'Raman'"),
    (CarrierPair, CarrierPair(index=0, modulation=Modulation.BPSK), ("modulation",), "'BPSK', 'QPSK'"),
    (CalibrationPoint, _point, ("modulation",), "'BPSK', 'QPSK'"),
    (PlacementRequest, _request, ("kind",), "'native', 'superchannel'"),
    (QEstimate, _q, ("class",), "'Infeasible', 'Marginal', 'Ok'"),
    (PlanOption, _option, ("strategy",), "'MixedSpectrum', 'DedicatedPartition'"),
    (PlanOption, _option, ("pair_modulations", 0), "'BPSK', 'QPSK'"),
]


@pytest.mark.parametrize(
    "cls, valid, keys, allowed",
    [pytest.param(*row, id=f"{row[0].__name__}-{row[2][0]}") for row in ENUM_FIELDS],
)
def test_enum_errors_share_one_wording(cls, valid, keys, allowed):
    dotted = "doc" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
    with pytest.raises(SchemaError) as excinfo:
        cls.from_dict(_broken(valid.to_dict(), keys, "bogus"), "doc")
    assert str(excinfo.value) == f"{dotted}: expected one of {allowed}, got 'bogus'"


_full_grid = SpectrumGrid(natives=tuple(NativeChannel(id=f"n{i}", start_slot=2 * i) for i in range(80)))
_allocation = AllocationResult(
    assignments=tuple(
        Assignment(request=PlacementRequest(kind=OccupantKind.NATIVE, id=f"r{i}"), start_slot=None, reason="full")
        for i in range(6)
    ),
    grid=_full_grid,
)


# lists of nested documents are read without the items' paths, and again
# with them only on a fault
@pytest.mark.parametrize(
    "cls, valid, breaks, message",
    [
        pytest.param(SpectrumGrid, _full_grid, [(("natives", 37, "start_slot"), "74")],
                     "doc.natives[37].start_slot: expected integer, got str", id="natives-37-type"),
        pytest.param(SpectrumGrid, _full_grid, [(("natives", 37, "bitrate_gbps"), 25)],
                     "doc.natives[37]: native bitrate must be one of (10, 40), got 25", id="natives-37-invariant"),
        pytest.param(SpectrumGrid, _full_grid, [(("natives", 50, "id"), 5), (("natives", 37, "id"), DROP)],
                     "doc.natives[37].id: missing required field", id="natives-first-of-two"),
        pytest.param(AllocationResult, _allocation, [(("assignments", 3, "request", "kind"), "alien")],
                     "doc.assignments[3].request.kind: expected one of 'native', 'superchannel', got 'alien'",
                     id="assignments-3-request-kind"),
    ],
)
def test_fault_deep_in_a_list_names_its_item(cls, valid, breaks, message):
    document = valid.to_dict()
    for keys, value in breaks:
        document = _broken(document, keys, value)
    with pytest.raises(SchemaError) as excinfo:
        cls.from_dict(document, "doc")
    assert str(excinfo.value) == message
