"""The document codec: JSON text to domain objects and back, and the records
the domain objects are.

Every reader reports the full dotted path of the offending field so that
parse failures on hand-edited files point at the exact location.

A record is a class decorated with :func:`record`: a frozen class with
slots (an instance dict only where a ``cached_property`` needs one), built
from its class body, whose annotations give its field table (name,
annotation, default). It is no dataclass; ``dataclasses`` is imported only
when a record refuses a write. Only the code that runs hot is compiled with
``exec``, each function on its first use: a record's ``__init__``, and per
document type ``to_dict()`` and the straight-line reader ``from_dict(data,
path)``. Every record shares one ``__eq__``, ``__hash__``, ``__repr__``,
``__setattr__`` and ``__delattr__``. A document type is a record decorated
with :func:`document`; its field annotations are the schema, each one
mapping to a :class:`Kind`. It holds only finite reals, and its reader
refuses an integer that no float holds. Importing the package compiles
only the constructors of the records it builds. Keys follow the field
order. A codec method the class defines itself is kept; a class that
writes its own ``from_dict`` gets the compiled reader as ``_read_fields``.

The compiled reader inlines only the common case, a value of exactly the
declared type. Any other value goes to its kind's generic ``decode``, so
every message and the order of messages are those of the generic code. A
nested document, alone or in a list, is read by its class's ``from_dict``,
looked up at each call. The items of a list of nested documents are read
without their paths; on a fault the list is read again by its kind's
``decode``, which words it.

A document is written as its ``to_dict()``, plain data whose canonical
text ``awplan._writer`` writes; reading a document loads no writer.
"""

from __future__ import annotations

import json
import math
import types
import typing
from enum import Enum
from functools import cached_property
from typing import Any, Callable, NamedTuple

from .errors import SchemaError

_REQUIRED = object()


# -- reading ------------------------------------------------------------------


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")  # RFC 8259 section 6


# one decoder for every document: json.loads builds a new one per call when
# given a parse_constant
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def parse_json(text: str, label: str = "document"):
    """The plain data of the JSON *text*. Bad JSON, including the ``NaN``,
    ``Infinity`` and ``-Infinity`` tokens that ``json.loads`` takes, raises
    ``SchemaError`` naming *label*."""
    try:
        if text.startswith("\ufeff"):  # refused as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as err:
        raise SchemaError(
            f"{label}: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from None
    except RecursionError:
        raise SchemaError(f"{label}: invalid JSON: nested too deeply") from None
    except ValueError as err:  # a refused constant, or an integer past the interpreter's digit limit
        raise SchemaError(f"{label}: invalid JSON: {err}") from None


def _type_name(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "number"
    return type(value).__name__


def get_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected object, got {_type_name(value)}")
    return value


def get_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected array, got {_type_name(value)}")
    return value


def _missing(path: str, key: str) -> SchemaError:
    return SchemaError(f"{path}.{key}: missing required field")


# -- kinds --------------------------------------------------------------------


class Kind(NamedTuple):
    """How one field value is read from a document and written back.

    ``decode(value, path, key)`` reports errors at ``<path>.<key>``; the
    path string is built only on failure or for a nested document.
    ``encode`` writes a value the compiled ``to_dict`` does not inline (an
    enum-keyed map); it is None for every other kind. Scalar kinds also
    keep their type test, so a nullable variant can be derived. ``form``
    and ``arg`` tell the compilers what to inline: ``"scalar"`` (the exact
    type), ``"member"`` and ``"enum"`` (the value -> member map), ``"nested"``
    (the class), ``"tuple"`` (the item kind) and ``"fixed"`` (the item kinds,
    which only the writer inlines); ``""`` inlines nothing."""

    decode: Callable[[Any, str, str], Any]
    encode: Callable[[Any], Any] | None = None
    name: str = ""
    accepts: Callable[[Any], bool] | None = None
    form: str = ""
    arg: Any = None


def _expected(name: str, value: Any, path: str, key: str) -> SchemaError:
    return SchemaError(f"{path}.{key}: expected {name}, got {_type_name(value)}")


def _scalar(name: str, exact: type, accepts: Callable[[Any], bool], convert: Callable | None = None) -> Kind:
    def decode(value: Any, path: str, key: str) -> Any:
        if accepts(value):
            return value if convert is None else convert(value, path, key)
        raise _expected(name, value, path, key)

    return Kind(decode, name=name, accepts=accepts, form="scalar", arg=exact)


def _float(value: int | float, path: str, key: str) -> float:
    try:
        return float(value)
    except OverflowError:  # RFC 7493 section 2.2: no number beyond a double
        raise SchemaError(f"{path}.{key}: number too large for a float ({len(str(abs(value)))} digits)") from None


STR = _scalar("string", str, lambda v: isinstance(v, str))
BOOL = _scalar("boolean", bool, lambda v: isinstance(v, bool))
INT = _scalar("integer", int, lambda v: isinstance(v, int) and not isinstance(v, bool))
# an integer is a valid real; reals are read as float
REAL = _scalar("number", float, lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), _float)
_SCALARS = {str: STR, bool: BOOL, int: INT, float: REAL}


def _nullable(kind: Kind) -> Kind:
    if kind.accepts is None:
        raise TypeError("only a scalar field can be nullable")
    name, accepts, inner = f"{kind.name} or null", kind.accepts, kind.decode

    def decode(value: Any, path: str, key: str) -> Any:
        if value is None:
            return None
        if accepts(value):
            return inner(value, path, key)
        raise _expected(name, value, path, key)

    return Kind(decode, name=name)


def _one_of(members: dict[str, Any], form: str = "member") -> Kind:
    """A string that must be one of the keys of *members*; reads its value."""
    allowed = ", ".join(repr(value) for value in members)

    def decode(value: Any, path: str, key: str) -> Any:
        member = members.get(STR.decode(value, path, key))
        if member is None:
            raise SchemaError(f"{path}.{key}: expected one of {allowed}, got {value!r}")
        return member

    return Kind(decode, form=form, arg=members)


def _enum(enum_cls: type[Enum]) -> Kind:
    """A member read from its value; written as its value."""
    return _one_of({member.value: member for member in enum_cls}, "enum")


def _nested(doc_cls: type) -> Kind:
    def decode(value: Any, path: str, key: str) -> Any:
        return doc_cls.from_dict(value, f"{path}.{key}")

    return Kind(decode, form="nested", arg=doc_cls)


def _tuple_of(item: Kind) -> Kind:
    """A JSON array read as a tuple of one kind; items report ``<key>[i]``."""
    item_decode = item.decode

    def decode(value: Any, path: str, key: str) -> tuple:
        if not isinstance(value, list):
            raise _expected("array", value, path, key)
        return tuple([item_decode(v, path, f"{key}[{i}]") for i, v in enumerate(value)])

    return Kind(decode, form="tuple", arg=item)


def _fixed(items: tuple[Kind, ...]) -> Kind:
    """A JSON array of one value per item kind, read as a tuple; items report ``<key>[j]``."""

    def decode(value: Any, path: str, key: str) -> tuple:
        if not isinstance(value, list):
            raise _expected("array", value, path, key)
        if len(value) != len(items):
            raise SchemaError(f"{path}.{key}: expected {len(items)} items, got {len(value)}")
        return tuple([item.decode(v, path, f"{key}[{j}]") for j, (item, v) in enumerate(zip(items, value))])

    return Kind(decode, form="fixed", arg=items)


def _enum_map(enum_cls: type[Enum], value: Kind) -> Kind:
    """An object keyed by every member value of an enum; written in key order."""
    members = tuple(enum_cls)
    ordered = sorted(members, key=lambda m: m.value)
    value_decode = value.decode

    def decode(raw: Any, path: str, key: str) -> dict:
        where = f"{path}.{key}"
        mapping = get_object(raw, where)
        result = {}
        for member in members:
            if member.value not in mapping:
                raise _missing(where, member.value)
            result[member] = value_decode(mapping[member.value], where, member.value)
        return result

    return Kind(decode, lambda mapping: {m.value: mapping[m] for m in ordered})


def _kind_of(annotation: Any) -> Kind:
    """The kind a field annotation declares."""
    if annotation in _SCALARS:
        return _SCALARS[annotation]
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _tuple_of(_kind_of(args[0]))
    if origin is tuple:
        return _fixed(tuple([_kind_of(arg) for arg in args]))
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        return _nullable(_kind_of(next(arg for arg in args if arg is not type(None))))
    if origin is dict and isinstance(args[0], type) and issubclass(args[0], Enum):
        return _enum_map(args[0], _kind_of(args[1]))
    if origin is typing.Literal and all(isinstance(arg, str) for arg in args):
        return _one_of({arg: arg for arg in args})
    if isinstance(annotation, type) and issubclass(annotation, Enum):
        return _enum(annotation)
    if hasattr(annotation, "_codec"):
        return _nested(annotation)
    raise TypeError(f"no document kind for {annotation!r}")


# -- records ------------------------------------------------------------------


class _Unbuilt:
    """A class attribute standing in for one compiled method until its
    first use, which builds it and puts it in the stand-in's place."""

    def __init__(self, cls: type, name: str, build: Callable[[type], Any]) -> None:
        self.cls, self.name, self.build = cls, name, build

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        setattr(self.cls, self.name, self.build(self.cls))
        return getattr(owner if obj is None else obj, self.name)


def _values(obj: Any) -> tuple:
    """The field values of a record, in field order."""
    return tuple([getattr(obj, name) for name in obj.__match_args__])


def _record_eq(self, other):
    if self is other:
        return True
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _record_hash(self):
    return hash(_values(self))


def _record_repr(self):
    shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
    return f"{self.__class__.__qualname__}({shown})"


def _frozen(message: str) -> Exception:
    from dataclasses import FrozenInstanceError  # only a refused write pays the import

    return FrozenInstanceError(message)


def _record_setattr(self, name, value):
    raise _frozen(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    raise _frozen(f"cannot delete field {name!r}")


def _record_setstate(self, state):
    for name, value in zip(self.__match_args__, state):
        object.__setattr__(self, name, value)


def record(cls: type) -> type:
    """Class decorator making *cls* a frozen record. Each annotation of the
    class body is a field, in order, and a value assigned to it is its
    default; ``_record_fields`` keeps (name, annotation, default) of each,
    ``_REQUIRED`` standing for no default. A class without a
    ``cached_property`` is rebuilt with ``__slots__`` and its original
    ``__qualname__``. ``__init__`` is compiled on first use. Every record
    shares one ``__eq__``, ``__hash__``, ``__repr__``, ``__setattr__`` and
    ``__delattr__``, and every slotted one ``__getstate__`` and
    ``__setstate__``; they read the field names from ``__match_args__``.

    They behave as those of ``@dataclass(frozen=True)``, with one choice
    where Python versions differ: ``__eq__`` compares the tuples of the
    fields, as 3.10-3.12 do, so a field that holds the same NaN object on
    both sides compares equal (3.13 compares field by field, and it does not).
    A record is no dataclass: ``dataclasses.fields``, ``replace``, ``asdict``
    and ``is_dataclass`` refuse it.
    """
    body = vars(cls)
    fields = tuple((name, annotation, body.get(name, _REQUIRED)) for name, annotation in cls.__annotations__.items())
    names = tuple(name for name, _, _ in fields)
    if not any(isinstance(value, cached_property) for value in body.values()):
        # the defaults leave the body, as do the instance dict and weakref of the class without slots
        namespace = {key: value for key, value in body.items() if key not in (*names, "__dict__", "__weakref__")}
        namespace.update(__slots__=names, __qualname__=cls.__qualname__)
        cls = type(cls)(cls.__name__, cls.__bases__, namespace)
        cls.__getstate__, cls.__setstate__ = _values, _record_setstate  # the state is the field values
    cls._record_fields, cls.__match_args__ = fields, names
    cls.__init__ = _Unbuilt(cls, "__init__", _init)
    cls.__eq__, cls.__hash__, cls.__repr__ = _record_eq, _record_hash, _record_repr
    cls.__setattr__, cls.__delattr__ = _record_setattr, _record_delattr
    return cls


def _compile(cls: type, name: str, lines: list[str], namespace: dict[str, Any]) -> Callable:
    qualname = f"{cls.__qualname__}.{name}"
    exec(compile("\n".join(lines) + "\n", f"<codec {qualname}>", "exec"), namespace)
    function = namespace[name]
    function.__qualname__ = qualname
    return function


def _init(cls: type) -> Callable:
    """``__init__`` compiled from the record's fields: each argument is
    stored through its slot's member descriptor (or by
    ``object.__setattr__``, into an instance dict), then a document refuses
    a non-finite real, and ``__post_init__`` runs last."""
    fields, slotted = cls._record_fields, "__slots__" in vars(cls)
    namespace: dict[str, Any] = {"_setattr": object.__setattr__, "_isfinite": math.isfinite}
    params, body = ["self"], []
    # found from the annotations, so that no codec function is built
    hints = cls._codec.hints if "_codec" in vars(cls) else {}
    for i, (name, _, default) in enumerate(fields):
        if default is not _REQUIRED:
            namespace[f"_default{i}"] = default
            params.append(f"{name}=_default{i}")
        else:
            params.append(name)
        if slotted:
            namespace[f"_set{i}"] = vars(cls)[name].__set__
            body.append(f"    _set{i}(self, {name})")
        else:
            body.append(f"    _setattr(self, {name!r}, {name})")
        hint = hints.get(name)
        if hint is float:
            body.append(f"    if not _isfinite({name}): raise ValueError(f'{name} must be finite, got {{{name}}}')")
        elif typing.get_origin(hint) is dict and typing.get_args(hint)[1] is float:  # keyed by an enum
            body.append(f"    for _k, _v in {name}.items():")
            body.append(f"        if not _isfinite(_v): raise ValueError(f'{name}[{{_k.value}}] must be finite, got {{_v}}')")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    function = _compile(cls, "__init__", [f"def __init__({', '.join(params)}):", *body], namespace)
    # the annotations of the __init__ of a dataclass, for inspect.signature
    function.__annotations__ = {**{name: annotation for name, annotation, _ in fields}, "return": None}
    return function


# -- document types -----------------------------------------------------------


class _Codec:
    """What :func:`document` records of a class. Its annotations are
    resolved once, when the constructor or the first codec function is
    built, and its fields and their kinds when the first codec function is."""

    def __init__(self, cls: type, path: str, keys: dict[str, str], optional: tuple[str, ...]) -> None:
        self.cls, self.path, self.keys, self.optional = cls, path, keys, optional
        # codec methods the class writes itself
        self.own = frozenset(name for name in ("to_dict", "from_dict") if name in cls.__dict__)

    @cached_property
    def hints(self) -> dict[str, Any]:
        """The resolved annotation of each field."""
        return typing.get_type_hints(self.cls)

    @cached_property
    def fields(self) -> list[tuple[str, str, Kind, Any]]:
        """(name, key, kind, default) of each field, in order."""
        cls, hints = self.cls, self.hints
        fields = []
        for name, _, default in cls._record_fields:
            if name not in self.optional:
                default = _REQUIRED
            elif default is _REQUIRED:
                raise TypeError(f"optional field {cls.__name__}.{name} has no default")
            fields.append((name, self.keys.get(name, name), _kind_of(hints[name]), default))
        return fields


def document(
    path: str,
    *,
    keys: dict[str, str] | None = None,
    optional: tuple[str, ...] = (),
):
    """Class decorator making *cls* a :func:`record` with ``to_dict()`` and
    ``from_dict(data, path=<path>)`` from its field annotations.

    ``keys`` renames fields in the document. A field in ``optional`` may be
    absent and then takes its default. The constructor refuses a
    non-finite ``float`` field or ``dict[<enum>, float]`` value, and a
    ``ValueError`` from it becomes ``SchemaError("<path>: ...")``.
    The field-by-field reader stays available as ``_read_fields`` to a class
    that writes its own ``from_dict``. Nothing is compiled until first use.
    """

    def wrap(cls: type) -> type:
        cls = record(cls)
        cls._codec = codec = _Codec(cls, path, keys or {}, optional)
        for name, build in _BUILDERS.items():
            if name not in codec.own:
                setattr(cls, name, _Unbuilt(cls, name, build))
        if "from_dict" in codec.own:
            cls._read_fields = _Unbuilt(cls, "_read_fields", _reader)
        return cls

    return wrap


def _dict_writer(cls: type) -> Callable[[Any], dict]:
    """``to_dict`` compiled to one dict display, as fast as a hand-written one."""
    namespace: dict[str, Any] = {}
    items = [
        f"{key!r}: {_write_expr(kind, f'self.{name}', f'_encode{i}', namespace)}"
        for i, (name, key, kind, _) in enumerate(cls._codec.fields)
    ]
    return _compile(cls, "to_dict", ["def to_dict(self):", f"    return {{{', '.join(items)}}}"], namespace)


def _write_expr(kind: Kind, value: str, tag: str, namespace: dict[str, Any]) -> str:
    """An expression of the plain data that the field value *value* is written as."""
    if kind.form == "nested":
        return f"{value}.to_dict()"
    if kind.form == "enum":
        # _value_ is the attribute itself; .value is a property, several times slower
        return f"{value}._value_"
    if kind.form == "tuple":
        item = _write_expr(kind.arg, "x", tag, namespace)
        return f"list({value})" if item == "x" else f"[{item} for x in {value}]"
    if kind.form == "fixed":
        items = [_write_expr(item, f"{value}[{j}]", f"{tag}_{j}", namespace) for j, item in enumerate(kind.arg)]
        return f"[{', '.join(items)}]"
    if kind.encode is not None:
        namespace[tag] = kind.encode
        return f"{tag}({value})"
    return value


def _reader(cls: type) -> staticmethod:
    """``from_dict(data, path=<codec path>)`` compiled to straight-line code:
    one block per field, in key order, so the first fault in key order is
    reported. A class that writes its own ``from_dict`` gets it as
    ``_read_fields``."""
    name = "_read_fields" if "from_dict" in cls._codec.own else "from_dict"
    namespace: dict[str, Any] = {
        "_cls": cls, "_get_object": get_object, "_missing": _missing, "SchemaError": SchemaError,
        "_path": cls._codec.path,
    }
    lines = [
        f"def {name}(data, path=_path):",
        "    if type(data) is not dict:",
        "        data = _get_object(data, path)",
    ]
    fields = cls._codec.fields
    for i, (_, key, kind, default) in enumerate(fields):
        lines += [
            f"    if {key!r} in data:",
            f"        v = data[{key!r}]",
            f"        f{i} = {_read_expr(kind, f'_r{i}', key, namespace)}",
            "    else:",
        ]
        if default is _REQUIRED:
            lines.append(f"        raise _missing(path, {key!r})")
        else:
            namespace[f"_default{i}"] = default
            lines.append(f"        f{i} = _default{i}")
    lines += [
        "    try:",
        f"        return _cls({', '.join(f'f{i}' for i in range(len(fields)))})",  # positional: fields in order
        "    except ValueError as err:",
        "        raise SchemaError(f'{path}: {err}') from None",
    ]
    return staticmethod(_compile(cls, name, lines, namespace))


def _read_expr(kind: Kind, tag: str, key: str, namespace: dict[str, Any]) -> str:
    """An expression of the decoded field value from its raw value ``v``: the
    inlined read where ``v`` has exactly the declared type, else the kind's
    decode, which words the error. A nested document is read by its class's
    ``from_dict``, looked up at each call."""
    namespace[tag] = kind.decode
    slow = f"{tag}(v, path, {key!r})"
    form, arg = kind.form, kind.arg
    if form == "scalar":
        return f"v if type(v) is {arg.__name__} else {slow}"
    if form in ("member", "enum"):
        namespace[tag + "m"] = arg
        return f"{tag}m[v] if type(v) is str and v in {tag}m else {slow}"
    if form == "nested":
        namespace[tag + "c"] = arg
        return f"{tag}c.from_dict(v, path + {'.' + key!r})"
    if form != "tuple":
        return slow
    item = arg
    if item.form == "scalar":
        return f"tuple(v) if type(v) is list and all([type(x) is {item.arg.__name__} for x in v]) else {slow}"
    if item.form in ("member", "enum"):
        namespace[tag + "m"] = item.arg
        return (
            f"tuple([{tag}m[x] for x in v]) "
            f"if type(v) is list and all([type(x) is str and x in {tag}m for x in v]) else {slow}"
        )
    if item.form == "nested":
        namespace["_read_items"], namespace[tag + "c"] = _read_items, item.arg
        return f"_read_items({tag}c.from_dict, v, path, {tag}, {key!r}) if type(v) is list else {slow}"
    return slow


def _read_items(read: Callable, items: list, where: str, decode: Callable, key: str) -> tuple:
    """The nested documents of the list *items*, each read without its own
    path, which only an error would use. On a fault *decode* reads the list
    again and, since readers are pure, raises the same first fault, with
    its path."""
    try:
        return tuple([read(item, where) for item in items])
    except SchemaError:
        pass
    return decode(items, where, key)


_BUILDERS = {"to_dict": _dict_writer, "from_dict": _reader}
