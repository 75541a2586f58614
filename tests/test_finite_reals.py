"""The one rule for reals in a document: each is a finite double.

Every document record with a ``float`` field, or an enum-keyed map of
reals, refuses an infinity or a NaN there when built, with the message
``<field> must be finite, got <value>`` (``<field>[<member>] ...`` for a map
value); its reader words the refusal with the document path. A JSON integer
that no float holds is refused as it is read (RFC 7493 section 2.2).
"""

from __future__ import annotations

import math
import typing

import pytest

from awplan import (
    AmplifierType, BandConfig, CalibrationPoint, Demand, EqualizationReport, EqualizationResult, Feasibility,
    Modulation, NeighborConfig, NodeEqualizationSummary, PathMetrics, PlanOption, PlanReport, PowerReading, QEstimate,
    QModel, SchemaError, Span, Strategy, Thresholds, VoaSetting, adaptation, iofmt, perfmodel, planner, spectrum,
    topology,
)

_q = QEstimate(10.5, Feasibility.OK)
_option = PlanOption(Strategy.MIXED_SPECTRUM, (Modulation.BPSK,) * 5, 10, 250.0, _q, True)
_summary = NodeEqualizationSummary("A", True, 0.5, (), ())
_per_mod = {Modulation.BPSK: 0.2, Modulation.QPSK: 0.3}

# a valid record of each document type that holds a real
EXAMPLES = [
    Span("A", "B", 80.0, 20.0, AmplifierType.EDFA, False, True),
    PathMetrics(100.0, 20.0, 1, 2, 0),
    BandConfig(),
    Thresholds(),
    _q,
    CalibrationPoint(345.0, Modulation.QPSK, NeighborConfig(), 13.77),
    QModel(345.0, {Modulation.BPSK: 17.0, Modulation.QPSK: 13.8}, _per_mod, _per_mod, _per_mod, 0.1),
    Demand(("RM", "MI2"), 400.0),
    _option,
    PlanReport(Demand(("RM", "MI2"), 400.0), _option, (), (), "r", 0.0),
    PowerReading("c1", -3.0),
    VoaSetting("c1", 1.5),
    EqualizationResult((VoaSetting("c1", 1.5),), 0.0, ()),
    _summary,
    EqualizationReport(1.0, (_summary,)),
]


def _reals(cls: type) -> list[tuple[str, Modulation | None]]:
    """(field, None) for each real field of *cls*, and (field, member) for
    each value of each map of reals, in field order."""
    hints, places = typing.get_type_hints(cls), []
    for name in cls.__match_args__:
        if hints[name] is float:
            places.append((name, None))
        elif typing.get_origin(hints[name]) is dict and typing.get_args(hints[name])[1] is float:
            places += [(name, member) for member in typing.get_args(hints[name])[0]]
    return places


def test_every_document_holding_a_real_has_an_example():
    documents = {
        value
        for module in (topology, spectrum, perfmodel, planner, adaptation, iofmt)
        for value in vars(module).values()
        if isinstance(value, type) and "_codec" in vars(value) and value.__module__ == module.__name__
    }
    assert {cls for cls in documents if _reals(cls)} == {type(example) for example in EXAMPLES}


def _where(name: str, member: Modulation | None) -> str:
    """How a message names the field, or the member of a map."""
    return name if member is None else f"{name}[{member.value}]"


CASES = [(example, name, member) for example in EXAMPLES for name, member in _reals(type(example))]
CASE_IDS = [f"{type(example).__name__}.{_where(name, member)}" for example, name, member in CASES]
_BAD = [math.inf, -math.inf, math.nan]


def _with(example, name: str, member: Modulation | None, value) -> dict:
    """The fields of *example*, with *value* in field *name* (at *member* of a map)."""
    fields = {field: getattr(example, field) for field in type(example).__match_args__}
    fields[name] = value if member is None else {**fields[name], member: value}
    return fields


@pytest.mark.parametrize("bad", _BAD, ids=str)
@pytest.mark.parametrize(("example", "name", "member"), CASES, ids=CASE_IDS)
def test_a_non_finite_real_is_refused_when_built(example, name, member, bad):
    with pytest.raises(ValueError) as raised:
        type(example)(**_with(example, name, member, bad))
    assert str(raised.value) == f"{_where(name, member)} must be finite, got {bad}"


def _document(example, name: str, member: Modulation | None, value) -> dict:
    """The plain data of *example*, with *value* at field *name* (and *member*)."""
    data = example.to_dict()
    key = type(example)._codec.keys.get(name, name)
    if member is None:
        data[key] = value
    else:
        data[key][member.value] = value
    return data


@pytest.mark.parametrize("bad", _BAD, ids=str)
@pytest.mark.parametrize(("example", "name", "member"), CASES, ids=CASE_IDS)
def test_a_non_finite_real_is_refused_when_read(example, name, member, bad):
    with pytest.raises(SchemaError) as raised:
        type(example).from_dict(_document(example, name, member, bad), "doc.items[3]")
    assert str(raised.value) == f"doc.items[3]: {_where(name, member)} must be finite, got {bad}"


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize(("example", "name", "member"), CASES, ids=CASE_IDS)
def test_an_integer_no_float_holds_is_refused_when_read(example, name, member, sign):
    data = _document(example, name, member, sign * 10**400)
    with pytest.raises(SchemaError) as raised:
        type(example).from_dict(data, "doc.items[3]")
    key = type(example)._codec.keys.get(name, name)
    where = key if member is None else f"{key}.{member.value}"
    assert str(raised.value) == f"doc.items[3].{where}: number too large for a float (401 digits)"


def test_the_largest_integer_a_float_holds_is_read():
    largest = 2**1024 - 2**971  # the largest double, as an integer
    demand = Demand.from_dict({"path": ["A"], "required_capacity_gbps": largest})
    assert demand.required_capacity_gbps == 1.7976931348623157e308
    with pytest.raises(SchemaError) as raised:
        Demand.from_dict({"path": ["A"], "required_capacity_gbps": largest + 2**970})  # rounds to 2**1024
    assert str(raised.value) == "demand.required_capacity_gbps: number too large for a float (309 digits)"
