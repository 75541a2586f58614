"""The compiled records against plain ``@dataclass(frozen=True)`` twins.

Every record gets a twin built by ``dataclasses`` from its field table
``_record_fields`` and its ``__post_init__``, before which the twin of a
document restates the rule that a document holds only finite reals. On
Hypothesis values the two must build or refuse alike, and then agree on
``==``, ``hash``, ``repr``, a copy with one field changed and frozen
assignment and deletion; the record must also survive ``copy.deepcopy``
and ``pickle``. Values hold no NaN there: records compare the tuples of
their fields on every Python version, which
``test_a_record_holding_a_nan_equals_itself`` pins down on a record that is
no document.
Records are not dataclasses, and the ``dataclasses`` functions refuse them.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import os
import pickle
import subprocess
import sys
import types
import typing
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from record_tools import replace

import awplan
from awplan import _schema, adaptation, iofmt, perfmodel, planner, spectrum, topology
from awplan._schema import _REQUIRED
from awplan.spectrum import DEFAULT_PAIRS, CarrierPair, Modulation, OccupantKind

MODULES = (topology, spectrum, perfmodel, planner, adaptation, iofmt)
RECORDS = [
    value
    for module in MODULES
    for value in vars(module).values()
    if isinstance(value, type) and "_record_fields" in vars(value) and value.__module__ == module.__name__
]
RECORD_IDS = [cls.__name__ for cls in RECORDS]
WITH_DICT = {"SpectrumGrid", "NetworkTopology"}  # their cached_property needs an instance dict


def twin_of(cls: type) -> type:
    """A plain frozen dataclass with the fields and ``__post_init__`` of *cls*;
    the twin of a document refuses a non-finite real first, as a document does."""
    specs = [
        (name, annotation) if default is _REQUIRED else (name, annotation, dataclasses.field(default=default))
        for name, annotation, default in cls._record_fields
    ]
    namespace = {"__module__": cls.__module__}
    post_init = vars(cls).get("__post_init__")
    if "_codec" in vars(cls):
        post_init = _finite_first(cls, post_init)
    if post_init is not None:
        namespace["__post_init__"] = post_init
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, namespace=namespace)


def _finite_first(cls: type, post_init):
    """A ``__post_init__`` that checks each real field, and each value of a map
    of reals, in field order, and then runs *post_init*, if any."""
    hints = typing.get_type_hints(cls)

    def checked(self) -> None:
        for name in cls.__match_args__:
            hint, value = hints[name], getattr(self, name)
            if hint is float and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if typing.get_origin(hint) is dict and typing.get_args(hint)[1] is float:
                for member, item in value.items():
                    if not math.isfinite(item):
                        raise ValueError(f"{name}[{member.value}] must be finite, got {item}")
        if post_init is not None:
            post_init(self)

    return checked


TWINS = {cls: twin_of(cls) for cls in RECORDS}


# -- values -----------------------------------------------------------------------

_IDS = st.sampled_from(["a", "n1", "sc1", "MI2"]) | st.text("abcxyz", min_size=1, max_size=3)
_MODULATIONS = st.sampled_from(list(Modulation))


@st.composite
def _pairs(draw) -> tuple:
    """Five pairs with indices 0..4 in any order, or the shared default tuple."""
    if draw(st.booleans()):
        return DEFAULT_PAIRS
    order = draw(st.permutations(range(5)))
    return tuple(CarrierPair(index=i, modulation=draw(_MODULATIONS)) for i in order)


def _ascending_points() -> st.SearchStrategy:
    xs = st.lists(st.floats(-100, 100), unique=True, max_size=4).map(sorted)
    return xs.map(lambda values: tuple((x, x / 2) for x in values))


# values of the fields whose invariants random values would seldom meet, so
# that most records nested in others can be built
VALID = {
    ("BandConfig", "slot_width_ghz"): st.just(25.0),
    ("BandConfig", "native_channel_width_slots"): st.just(2),
    ("BandConfig", "slot_count"): st.sampled_from([160, 40]),
    ("BandConfig", "superchannel_width_slots"): st.sampled_from([8, 4]),
    ("NativeChannel", "bitrate_gbps"): st.sampled_from([10, 40]),
    ("CarrierPair", "index"): st.integers(0, 4),
    ("SuperChannel", "pairs"): _pairs(),
    ("SuperChannel", "active_carriers"): st.sampled_from([10, 9]),
    ("DedicatedPartition", "start_slot"): st.integers(0, 40).map(lambda i: 2 * i),
    ("DedicatedPartition", "width_slots"): st.integers(1, 6).map(lambda i: 2 * i),
    ("PlacementRequest", "bitrate_gbps"): st.sampled_from([10, 40]),
    ("Thresholds", "hard_min_db"): st.floats(0, 6),
    ("Thresholds", "design_min_db"): st.floats(7, 12),
    ("QModel", "q_ref_db"): st.fixed_dictionaries({Modulation.BPSK: st.floats(15, 20), Modulation.QPSK: st.floats(5, 14)}),
    ("PlanOption", "pair_modulations"): st.tuples(*[_MODULATIONS] * 5),
    ("PlannerPolicy", "dedicated_edge_carrier_sacrifice"): st.integers(0, 1),
    ("PlotSeries", "points"): _ascending_points(),
    ("ModelProvenance", "calibration_sha256"): st.text("0123456789abcdef", min_size=64, max_size=64),
}


def value_of(annotation) -> st.SearchStrategy:
    """A value of the declared type, valid or not for its record; no NaN."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if annotation is str:
        return _IDS | st.just("")
    if annotation is bool:
        return st.booleans()
    if annotation is int:
        return st.integers(-1, 12) | st.sampled_from([10, 40, 160])
    if annotation is float:
        return st.floats(0, 1000) | st.sampled_from([-1.0, -0.0, math.inf])
    if origin is tuple and args[-1] is Ellipsis:
        return st.lists(value_of(args[0]), max_size=3).map(tuple)
    if origin is tuple:
        return st.tuples(*map(value_of, args))
    if origin in (typing.Union, types.UnionType):
        return st.none() | value_of(next(arg for arg in args if arg is not type(None)))
    if origin is dict:
        return st.fixed_dictionaries({member: value_of(args[1]) for member in args[0]})
    if origin is typing.Literal:
        return st.sampled_from(args)
    if issubclass(annotation, Enum):
        return st.sampled_from(list(annotation))
    return instance(annotation)


def kwargs_of(cls: type, valid: bool) -> st.SearchStrategy:
    hints = typing.get_type_hints(cls)
    values = {}
    for name in cls.__match_args__:
        fixed = (cls.__name__, name)
        values[name] = VALID[fixed] if valid and fixed in VALID else value_of(hints[name])
    return st.fixed_dictionaries(values)


def _built(cls: type, kwargs: dict):
    try:
        return cls(**kwargs)
    except ValueError:
        return None


def instance(cls: type) -> st.SearchStrategy:
    """A record of *cls* that its constructor accepts."""
    return kwargs_of(cls, valid=True).map(lambda kwargs: _built(cls, kwargs)).filter(lambda obj: obj is not None)


def _outcome(fn, *args, **kwargs):
    """The repr of the result, or the error's type and message."""
    try:
        return "ok", repr(fn(*args, **kwargs))
    except Exception as err:  # the exception type and message are the outcome
        return type(err).__name__, str(err)


# -- behaviour --------------------------------------------------------------------


def test_every_record_is_covered():
    assert len(RECORDS) == 32


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
def test_slots(cls):
    if cls.__name__ in WITH_DICT:
        assert "__slots__" not in vars(cls) and cls.__dictoffset__ != 0
    else:  # instances have no __dict__
        assert "__slots__" in vars(cls) and cls.__dictoffset__ == 0


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
def test_signature_fields_and_defaults_match_the_twin(cls):
    twin = TWINS[cls]
    ours, theirs = inspect.signature(cls), inspect.signature(twin)
    assert str(ours) == str(theirs)
    assert str(inspect.signature(cls.__init__)) == str(inspect.signature(twin.__init__))
    for mine, other in zip(ours.parameters.values(), theirs.parameters.values()):
        assert (mine.name, mine.kind, mine.annotation) == (other.name, other.kind, other.annotation)
        assert mine.default is other.default


@settings(max_examples=400, deadline=None)
@given(cls=st.sampled_from(RECORDS), data=st.data())
def test_record_behaves_as_its_dataclass_twin(cls, data):
    twin = TWINS[cls]
    kwargs = data.draw(kwargs_of(cls, valid=data.draw(st.booleans())))
    # every __post_init__ message, or a record of the same repr
    assert _outcome(cls, **kwargs) == _outcome(twin, **kwargs)
    try:
        ours, theirs = cls(**kwargs), twin(**kwargs)
    except Exception:
        return
    assert repr(ours) == repr(theirs)
    assert _outcome(hash, ours) == _outcome(hash, theirs)
    assert ours == cls(**kwargs) and theirs == twin(**kwargs)
    assert not ours != cls(**kwargs)
    assert ours != theirs  # another class
    other = data.draw(kwargs_of(cls, valid=True))
    assert _outcome(lambda: ours == cls(**other)) == _outcome(lambda: theirs == twin(**other))

    name = data.draw(st.sampled_from(cls.__match_args__))
    new = data.draw(value_of(typing.get_type_hints(cls)[name]))
    changes = {name: new}
    assert _outcome(replace, ours, **changes) == _outcome(dataclasses.replace, theirs, **changes)
    for target in (ours, theirs):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(target, name, new)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(target, name)

    for copied in (copy.deepcopy(ours), pickle.loads(pickle.dumps(ours))):
        assert type(copied) is cls and copied == ours and repr(copied) == repr(ours)


@_schema.record
class _Reading:
    """A record that is no document, and so may hold a NaN."""

    value: float
    label: str


def test_a_record_holding_a_nan_equals_itself():
    # fields compare as tuples, as on Python 3.10-3.12: the same NaN object
    # on both sides is equal, two NaN objects are not
    nan = float("nan")
    reading = _Reading(nan, "a")
    assert reading == reading
    assert reading == _Reading(nan, "a")
    assert reading != _Reading(float("nan"), "a")


def test_a_record_default_is_one_shared_frozen_record():
    for make, field, fresh in [
        (spectrum.SpectrumGrid, "band", spectrum.BandConfig),
        (planner.PlannerPolicy, "thresholds", perfmodel.Thresholds),
    ]:
        default = getattr(make(), field)
        assert default == fresh()
        assert getattr(make(), field) is default is {n: d for n, _, d in make._record_fields}[field]
        name = default.__match_args__[0]
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(default, name, getattr(default, name))


def test_vars_fails_on_a_slotted_record():
    request = spectrum.PlacementRequest(OccupantKind.NATIVE, "n")
    with pytest.raises(TypeError):
        vars(request)
    with pytest.raises(AttributeError):
        request.__dict__


@settings(max_examples=3, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
def test_a_record_is_no_dataclass(cls, data):
    record = data.draw(instance(cls))
    assert not dataclasses.is_dataclass(cls) and not dataclasses.is_dataclass(record)
    for function in (dataclasses.fields, dataclasses.asdict, dataclasses.replace):
        with pytest.raises(TypeError):
            function(record)


# -- lazy build -------------------------------------------------------------------


def test_import_compiles_only_the_records_it_builds():
    src = str(Path(awplan.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        "import sys, awplan.cli, awplan.adaptation, awplan._schema as s\n"
        "records = {c for n, m in list(sys.modules.items()) if n.startswith('awplan.') and n != 'awplan._schema'\n"
        "           for c in vars(m).values() if isinstance(c, type) and '_record_fields' in vars(c)}\n"
        "built = sorted(c.__name__ for c in records if not isinstance(vars(c)['__init__'], s._Unbuilt))\n"
        "shared = all(vars(c)[n] is getattr(s, '_record_' + n.strip('_')) for c in records for n in ('__eq__', '__hash__', '__repr__'))\n"
        "print(len(records), built, shared)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout == "32 ['BandConfig', 'CarrierPair', 'PlannerPolicy', 'Thresholds'] True\n"
