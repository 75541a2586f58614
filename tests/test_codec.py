"""The compiled codec against its naive oracle, and its lazy build.

Readers: every document type's compiled ``from_dict`` must give the object
the generic field loop of ``codec_oracle`` gives, or raise its message, on
valid documents and on documents with one or several faults. Writers:
``serialize``, through the writers compiled per dict shape, must give what
the generic emitter ``_write`` gives for ``obj.to_dict()``, or raise its
message, for every object, including values whose runtime type is not the
declared one.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
import types
import typing
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import awplan
from awplan import (
    BandConfig,
    Demand,
    NativeChannel,
    PlanOption,
    PlotSeries,
    SuperChannel,
    _schema,
    _writer,
    round_trip,
    serialize,
)
from awplan.planner import ModelProvenance

import codec_oracle

DOCUMENT_TYPES = codec_oracle.document_types()
TYPE_IDS = [cls.__name__ for cls in DOCUMENT_TYPES]
ANY_TYPE = st.sampled_from(DOCUMENT_TYPES)


class Label(str):
    """A str subclass: written like a str, but not of exactly that type."""


def _outcome(fn, *args):
    """The repr of the result (so 400 and 400.0 differ), or the error."""
    try:
        return "ok", repr(fn(*args))
    except Exception as err:  # the exception type and message are the outcome
        return type(err).__name__, str(err)


def _args(annotation) -> tuple:
    return typing.get_origin(annotation), typing.get_args(annotation)


# -- documents ------------------------------------------------------------------

# copied on each draw: a fault may later be mutated in place
_JUNK = st.sampled_from(
    [None, True, False, 0, 1, -1, 7, 1.5, float("nan"), "", "x", "BPSK", "Ok", [], [1], ["x"], {}, {"id": "x"}]
).map(copy.deepcopy)


def raw_value(annotation) -> st.SearchStrategy:
    """Well-typed JSON for one field, in ranges where many documents are valid."""
    origin, args = _args(annotation)
    if annotation is str:
        return st.sampled_from(["A", "B", "MI2", "n1", "sc1", ""]) | st.text(max_size=3)
    if annotation is bool:
        return st.booleans()
    if annotation is int:
        return st.integers(0, 12) | st.sampled_from([10, 40, 160])
    if annotation is float:
        return st.floats(0, 1000, allow_nan=False) | st.integers(0, 1000)
    if origin is tuple and args[-1] is not Ellipsis:
        return st.tuples(*map(raw_value, args)).map(list)
    if origin is tuple:
        return st.lists(raw_value(args[0]), max_size=5)
    if origin in (typing.Union, types.UnionType):
        return st.none() | raw_value(next(arg for arg in args if arg is not type(None)))
    if origin is dict:
        return st.fixed_dictionaries({member.value: raw_value(args[1]) for member in args[0]})
    if origin is typing.Literal:
        return st.sampled_from(args)
    if issubclass(annotation, Enum):
        return st.sampled_from([member.value for member in annotation])
    return raw_document(annotation)


_MODULATIONS = st.sampled_from(["BPSK", "QPSK"])
_IDS = st.text("abcdefgh", min_size=4, max_size=6)


def _pair(index: int) -> st.SearchStrategy:
    return st.fixed_dictionaries({"index": st.just(index), "modulation": _MODULATIONS}, optional={"enabled": st.just(True)})


# fields whose invariants random values would almost never meet, so that
# bands, super-channels, grids and options are often valid too
FIELD_VALUES = {
    (BandConfig, "slot_width_ghz"): st.just(25.0),
    (BandConfig, "native_channel_width_slots"): st.just(2),
    (BandConfig, "slot_count"): st.sampled_from([160, 40]),
    (BandConfig, "superchannel_width_slots"): st.sampled_from([8, 4]),
    (NativeChannel, "id"): _IDS,
    (NativeChannel, "start_slot"): st.integers(0, 79).map(lambda i: 2 * i),
    (SuperChannel, "id"): _IDS,
    (SuperChannel, "start_slot"): st.integers(0, 152),
    (SuperChannel, "pairs"): st.permutations(range(5)).flatmap(lambda order: st.tuples(*map(_pair, order)).map(list)),
    (SuperChannel, "active_carriers"): st.sampled_from([10, 9]),
    (PlanOption, "pair_modulations"): st.lists(_MODULATIONS, min_size=5, max_size=5),
    (ModelProvenance, "calibration_sha256"): st.text("0123456789abcdef", min_size=64, max_size=64),
    (PlotSeries, "points"): st.lists(st.integers(-50, 50), unique=True, max_size=4).map(
        lambda xs: [[x, x / 2] for x in sorted(xs)]
    ),
}


def raw_document(cls: type) -> st.SearchStrategy:
    hints = typing.get_type_hints(cls)
    codec = cls._codec
    required, optional = {}, {}
    for name in cls.__match_args__:
        key = codec.keys.get(name, name)
        fixed = (cls, name)
        value = FIELD_VALUES[fixed] if fixed in FIELD_VALUES else raw_value(hints[name])
        (optional if name in codec.optional else required)[key] = value
    return st.fixed_dictionaries(required, optional=optional)


def _positions(value, found: list) -> list:
    """Every (container, key or index) inside a JSON value."""
    if isinstance(value, dict):
        for key in list(value):
            found.append((value, key))
            _positions(value[key], found)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            found.append((value, i))
            _positions(item, found)
    return found


@st.composite
def faulty_document(draw, cls: type):
    """A document with one to three faults: a dropped key or item, or a value
    of the wrong type or out of range; sometimes not an object at all."""
    document = draw(raw_document(cls))
    for _ in range(draw(st.integers(1, 3))):
        positions = _positions(document, [])
        if not positions or draw(st.integers(0, 19)) == 0:
            return draw(_JUNK)
        container, key = draw(st.sampled_from(positions))
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(_JUNK)
    return document


@settings(max_examples=300, deadline=None)
@given(cls=ANY_TYPE, data=st.data())
def test_reader_matches_oracle_on_valid_documents(cls, data):
    document = data.draw(raw_document(cls))
    assert _outcome(cls.from_dict, document, "doc") == _outcome(codec_oracle.read, cls, document, "doc")


@settings(max_examples=600, deadline=None)
@given(cls=ANY_TYPE, data=st.data())
def test_reader_matches_oracle_on_faulty_documents(cls, data):
    document = data.draw(faulty_document(cls))
    assert _outcome(cls.from_dict, document, "doc") == _outcome(codec_oracle.read, cls, document, "doc")


def test_every_document_type_is_covered():
    assert len(DOCUMENT_TYPES) == 30


# -- objects --------------------------------------------------------------------


def loose_value(annotation) -> st.SearchStrategy:
    """A field value of the declared type, or of a near one the writer must
    still render as the generic emitter does: an int or a bool in a real
    field, a bool in an int field, a str subclass, a list for a tuple."""
    origin, args = _args(annotation)
    if annotation is str:
        return st.text(max_size=4) | st.text(max_size=4).map(Label)
    if annotation is bool:
        return st.booleans() | st.integers(0, 1)
    if annotation is int:
        return st.integers(-5, 200) | st.booleans()
    if annotation is float:
        return (
            st.floats(-1e6, 1e6, allow_nan=False)
            | st.integers(-1000, 1000)
            | st.booleans()
            | st.sampled_from([-0.0, float("nan"), float("inf")])
        )
    if origin is tuple and args[-1] is not Ellipsis:
        fixed = st.tuples(*map(loose_value, args))
        return fixed | fixed.map(list)
    if origin is tuple:
        items = st.lists(loose_value(args[0]), max_size=4)
        return items.map(tuple) | items
    if origin in (typing.Union, types.UnionType):
        return st.none() | loose_value(next(arg for arg in args if arg is not type(None)))
    if origin is dict:
        return st.fixed_dictionaries({member: loose_value(args[1]) for member in args[0]})
    if origin is typing.Literal:
        return st.sampled_from(args) | st.sampled_from(args).map(Label)
    if issubclass(annotation, Enum):
        return st.sampled_from(list(annotation)) | st.sampled_from([member.value for member in annotation])
    return loose_object(annotation)


@st.composite
def loose_object(draw, cls: type):
    """An instance built past its constructor, so any field value goes."""
    hints = typing.get_type_hints(cls)
    obj = object.__new__(cls)
    for name in cls.__match_args__:
        object.__setattr__(obj, name, draw(loose_value(hints[name])))
    return obj


def _generic_text(obj) -> str:
    return _writer._written(obj.to_dict(), "\n") + "\n"


@settings(max_examples=300, deadline=None)
@given(cls=ANY_TYPE, data=st.data())
def test_writer_matches_generic_emitter(cls, data):
    obj = data.draw(loose_object(cls))
    assert _outcome(serialize, obj) == _outcome(_generic_text, obj)


def test_round_trip_still_rejects_an_int_in_a_real_field():
    # the int is written as "400", read back as 400.0 and then written as
    # "400.0000": the bytes differ, so the object is not stable
    with pytest.raises(AssertionError, match="canonical serialization of Demand is not stable"):
        round_trip(Demand(path=("A",), required_capacity_gbps=400))


# -- lazy build -----------------------------------------------------------------


@pytest.mark.parametrize("cls", DOCUMENT_TYPES, ids=TYPE_IDS)
def test_codec_builds(cls):
    # forces the build, so a bad annotation fails here
    for name in _schema._BUILDERS:
        assert callable(getattr(cls, name))
        assert not isinstance(vars(cls)[name], _schema._Unbuilt)


def test_import_builds_no_codec_function():
    src = str(Path(awplan.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        "import sys, awplan, awplan.cli, awplan.adaptation, awplan._schema as s\n"
        "classes = {c for m in list(sys.modules.values()) if m.__name__.startswith('awplan')\n"
        "           for c in vars(m).values() if isinstance(c, type) and '_codec' in vars(c)}\n"
        "built = [c.__name__ for c in classes if 'fields' in vars(c._codec)\n"
        "         or any(not isinstance(vars(c)[n], s._Unbuilt) for n in s._BUILDERS if n not in c._codec.own)]\n"
        "print(len(classes), sorted(built))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout == "30 []\n"
