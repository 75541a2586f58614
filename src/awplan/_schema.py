"""Path-aware decoding of JSON-shaped documents, and the codec every
document type shares.

Every reader reports the full dotted path of the offending field so that
parse failures on hand-edited files point at the exact location.

A document type is a frozen dataclass decorated with :func:`document`. Its
field annotations are the schema: each one maps to a :class:`Kind` once,
when the class is defined, and the decorator adds ``to_dict()`` and
``from_dict(data, path)``. Keys follow the field order. A method the class
defines itself is kept.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from enum import Enum
from operator import attrgetter, methodcaller
from typing import Any, Callable

from .errors import SchemaError

_REQUIRED = object()


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


def require(mapping: Any, key: str, path: str) -> Any:
    obj = get_object(mapping, path)
    if key not in obj:
        raise _missing(path, key)
    return obj[key]


@dataclasses.dataclass(frozen=True)
class Kind:
    """How one field value is read from a document and written back.

    ``decode(value, path, key)`` reports errors at ``<path>.<key>``; the
    path string is built only on failure or for a nested document.
    ``encode`` is None for values written as they are. Scalar kinds also
    keep their type test, so a nullable variant can be derived."""

    decode: Callable[[Any, str, str], Any]
    encode: Callable[[Any], Any] | None = None
    name: str = ""
    accepts: Callable[[Any], bool] | None = None


def _expected(name: str, value: Any, path: str, key: str) -> SchemaError:
    return SchemaError(f"{path}.{key}: expected {name}, got {_type_name(value)}")


def _scalar(name: str, accepts: Callable[[Any], bool], convert: Callable | None = None) -> Kind:
    def decode(value: Any, path: str, key: str) -> Any:
        if accepts(value):
            return value if convert is None else convert(value)
        raise _expected(name, value, path, key)

    return Kind(decode, name=name, accepts=accepts)


STR = _scalar("string", lambda v: isinstance(v, str))
BOOL = _scalar("boolean", lambda v: isinstance(v, bool))
INT = _scalar("integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
# an integer is a valid real; reals are read as float
REAL = _scalar("number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), float)
_SCALARS = {str: STR, bool: BOOL, int: INT, float: REAL}


def require_str(mapping: Any, key: str, path: str) -> str:
    return STR.decode(require(mapping, key, path), path, key)


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


def _one_of(members: dict[str, Any], encode: Callable[[Any], Any] | None = None) -> Kind:
    """A string that must be one of the keys of *members*; reads its value."""
    allowed = ", ".join(repr(value) for value in members)

    def decode(value: Any, path: str, key: str) -> Any:
        member = members.get(STR.decode(value, path, key))
        if member is None:
            raise SchemaError(f"{path}.{key}: expected one of {allowed}, got {value!r}")
        return member

    return Kind(decode, encode)


def _enum(enum_cls: type[Enum]) -> Kind:
    return _one_of({member.value: member for member in enum_cls}, attrgetter("value"))


def _nested(doc_cls: type) -> Kind:
    def decode(value: Any, path: str, key: str) -> Any:
        return doc_cls.from_dict(value, f"{path}.{key}")

    return Kind(decode, methodcaller("to_dict"))


def _tuple_of(item: Kind) -> Kind:
    """A JSON array read as a tuple of one kind; items report ``<key>[i]``."""
    item_decode, item_encode = item.decode, item.encode

    def decode(value: Any, path: str, key: str) -> tuple:
        if not isinstance(value, list):
            raise _expected("array", value, path, key)
        return tuple([item_decode(v, path, f"{key}[{i}]") for i, v in enumerate(value)])

    if item_encode is None:
        return Kind(decode, list)
    return Kind(decode, lambda items: list(map(item_encode, items)))


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
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        return _nullable(_kind_of(next(arg for arg in args if arg is not type(None))))
    if origin is dict and isinstance(args[0], type) and issubclass(args[0], Enum):
        return _enum_map(args[0], _kind_of(args[1]))
    if origin is typing.Literal and all(isinstance(arg, str) for arg in args):
        return _one_of({arg: arg for arg in args})
    if isinstance(annotation, type) and issubclass(annotation, Enum):
        return _enum(annotation)
    if hasattr(annotation, "from_dict"):
        return _nested(annotation)
    raise TypeError(f"no document kind for {annotation!r}")


def document(
    path: str,
    *,
    keys: dict[str, str] | None = None,
    optional: tuple[str, ...] = (),
):
    """Class decorator giving a frozen dataclass ``to_dict()`` and
    ``from_dict(data, path=<path>)`` from its field annotations.

    ``keys`` renames fields in the document. A field in ``optional`` may be
    absent and then takes its dataclass default. A ``ValueError`` from the
    constructor becomes ``SchemaError("<path>: ...")``.
    The field-by-field reader stays available as ``_read_fields`` to a class
    that writes its own ``from_dict``.
    """
    keys = keys or {}

    def wrap(cls: type) -> type:
        hints = typing.get_type_hints(cls)
        writes: list[tuple[str, str, Kind]] = []
        reads: list[tuple[str, str, Callable, Any]] = []
        for field in dataclasses.fields(cls):
            key = keys.get(field.name, field.name)
            kind = _kind_of(hints[field.name])
            writes.append((field.name, key, kind))
            default = _REQUIRED
            if field.name in optional:
                if field.default is dataclasses.MISSING:
                    raise TypeError(f"optional field {cls.__name__}.{field.name} has no default")
                default = field.default
            reads.append((field.name, key, kind.decode, default))

        def read_fields(data: Any, where: str) -> Any:
            obj = get_object(data, where)
            values = {}
            for name, key, decode, default in reads:
                if key in obj:
                    values[name] = decode(obj[key], where, key)
                elif default is _REQUIRED:
                    raise _missing(where, key)
                else:
                    values[name] = default
            try:
                return cls(**values)
            except ValueError as err:
                raise SchemaError(f"{where}: {err}") from None

        def from_dict(cls_: type, data: dict, path: str = path) -> Any:
            return read_fields(data, path)

        cls._read_fields = staticmethod(read_fields)
        if "to_dict" not in cls.__dict__:
            cls.to_dict = _writer(cls, writes)
        if "from_dict" not in cls.__dict__:
            cls.from_dict = classmethod(from_dict)
        return cls

    return wrap


def _writer(cls: type, writes: list[tuple[str, str, Kind]]) -> Callable[[Any], dict]:
    """``to_dict`` compiled to one dict display, as fast as a hand-written one."""
    namespace: dict[str, Any] = {}
    items = []
    for i, (name, key, kind) in enumerate(writes):
        if kind.encode is None:
            items.append(f"{key!r}: self.{name}")
        else:
            namespace[f"_encode{i}"] = kind.encode
            items.append(f"{key!r}: _encode{i}(self.{name})")
    exec(f"def to_dict(self):\n    return {{{', '.join(items)}}}\n", namespace)
    to_dict = namespace["to_dict"]
    to_dict.__qualname__ = f"{cls.__qualname__}.to_dict"
    return to_dict
