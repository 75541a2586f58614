"""The document codec: JSON text to domain objects and back, and the records
the domain objects are.

Every reader reports the full dotted path of the offending field so that
parse failures on hand-edited files point at the exact location. Every
writer emits canonical text: stable key order, two-space indentation, and
reals fixed at four decimal places.

A record is a class decorated with :func:`record`: a frozen dataclass with
slots (an instance dict only where a ``cached_property`` needs one). Only
the code that runs hot is compiled with ``exec``, each function on its first
use: a record's ``__init__``, and per document type ``to_dict()`` and the
straight-line reader ``from_dict(data, path)``. Every record shares one
``__eq__``, ``__hash__`` and ``__repr__``. A document type is a record
decorated with :func:`document`; its field annotations are the schema, each
one mapping to a :class:`Kind`. Importing the package compiles only the
constructors of the records it builds. Keys follow the field order. A codec
method the class defines itself is kept; a class that writes its own
``from_dict`` gets the compiled reader as ``_read_fields``.

The compiled reader inlines only the common case, a value of exactly the
declared type. Any other value goes to its kind's generic ``decode``, so
every message and the order of messages are those of the generic code. A
nested document, alone or in a list, is read by its class's ``from_dict``,
looked up at each call. The items of a list of nested documents are read
without their paths; on a fault the list is read again by its kind's
``decode``, which words it.

Only plain data (dicts, lists, scalars) is written; a document is written
as its ``to_dict()``. The writers are compiled per dict shape, the tuple of
a dict's keys, on the shape's first use: one f-string that inlines each
value of exactly the type it had in that first dict. On any error
``_write``, the only generic emitter, writes the whole value instead, so
its messages, the canonical bytes and the deepest value it can write stay
the same.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from enum import Enum
from functools import cached_property
from typing import Any, Callable, NamedTuple

from .errors import SchemaError

_REQUIRED = object()
REAL_DECIMALS = 4


# -- reading ------------------------------------------------------------------


def parse_json(text: str, label: str = "document"):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(
            f"{label}: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from None
    except RecursionError:
        raise SchemaError(f"{label}: invalid JSON: nested too deeply") from None
    except ValueError as err:  # such as an integer past the interpreter's digit limit
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


# -- writing ------------------------------------------------------------------


def format_real(value: float) -> str:
    """Fixed 4-decimal rendering; negative zero normalizes to zero."""
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite real {value!r}")
    text = f"{value:.{REAL_DECIMALS}f}"
    return "0.0000" if text == "-0.0000" else text


_quote = json.encoder.encode_basestring_ascii  # what json.dumps applies to a str


def _array(texts: list[str], pad: str) -> str:
    """An array from the texts of its items (at least one), each written at
    ``pad + "  "``."""
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(texts) + pad + "]"


def _write(value, pad: str, out: list[str]) -> None:
    """Append the canonical text of plain data *value* to *out*. *pad* is a
    newline and the indentation of the line the value ends on."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        lead = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"document keys must be strings, got {type(key).__name__}")
            out.append(lead + _quote(key) + ": ")
            _write(item, inner, out)
            lead = "," + inner
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        lead = "[" + inner
        for item in value:
            out.append(lead)
            _write(item, inner, out)
            lead = "," + inner
        out.append(pad + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(format_real(value))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} into a document")


def _written(value, pad: str) -> str:
    out: list[str] = []
    _write(value, pad, out)
    return "".join(out)


def _text(value, pad: str) -> str:
    """The canonical text of plain data *value*, from the writers compiled
    per dict shape. On any error the generic emitter runs over the whole
    value instead, so that it raises, in its own order, and so that a value
    nested as deeply as the generic emitter can write is still written."""
    try:
        return _plain(value, pad)
    except (TypeError, ValueError, RecursionError):
        out: list[str] = []
        _write(value, pad, out)  # called from here, so it gets as deep a stack as ever
        return "".join(out)


# A dict's shape is the tuple of its keys, in order. Past the cap, dicts of
# a new shape take the generic emitter, and so does a dict of more keys than
# a record has: a map keyed by data, whose writer would take far longer to
# compile (tens of µs a key) than to use once. Two threads may both compile
# a shape; either writer is right.
SHAPE_CAP = 256
SHAPE_MAX_KEYS = 32
_shape_writers: dict[tuple, Callable[[dict, str], str]] = {}


def _plain(value, pad: str) -> str:
    """The compiled path of :func:`_text`: a value not of exactly a JSON
    type goes to the generic emitter, alone."""
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        return (_shape_writers.get(tuple(value)) or _shape_writer(value))(value, pad)
    if kind is list or kind is tuple:
        return _items(value, pad)
    if kind is str:
        return _quote(value)
    if kind is int:
        return str(value)
    if kind is float:
        return format_real(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    return _written(value, pad)


def _items(value: list | tuple, pad: str) -> str:
    if not value:
        return "[]"
    inner = pad + "  "
    first = value[0]
    if type(first) is dict and first:
        # a list of records: every item of the first one's shape is written
        # by that shape's writer
        keys = tuple(first)
        writer = _shape_writers.get(keys) or _shape_writer(first)
        texts = [writer(x, inner) if type(x) is dict and tuple(x) == keys else _plain(x, inner) for x in value]
        return _array(texts, pad)
    return _array([_plain(x, inner) for x in value], pad)


_SCALAR_TEXT = {str: "_quote({})", int: "str({})", float: "format_real({})", bool: "('true' if {} else 'false')"}


def _shape_writer(sample: dict) -> Callable[[dict, str], str]:
    """The writer of dicts of *sample*'s shape, compiled to one f-string
    that inlines each value of exactly the type it has in *sample*."""
    keys = tuple(sample)
    if len(_shape_writers) >= SHAPE_CAP or len(keys) > SHAPE_MAX_KEYS or any(type(key) is not str for key in keys):
        return _written
    names = [f"v{i}" for i in range(len(keys))]
    lines = ["def _shape(d, pad):", f"    {', '.join(names)}, = d.values()", "    inner = pad + '  '"]
    for i, (v, item) in enumerate(zip(names, sample.values())):
        kind = type(item)
        if kind in _SCALAR_TEXT:
            text = f"{_SCALAR_TEXT[kind].format(v)} if type({v}) is {kind.__name__} else _plain({v}, inner)"
        elif item is None:
            text = f"'null' if {v} is None else _plain({v}, inner)"
        elif kind is list:
            text = f"_items({v}, inner) if type({v}) is list else _plain({v}, inner)"
        else:
            text = f"_plain({v}, inner)"
        lines.append(f"    t{i} = {text}")
    lines.append(f"    return f{_template(keys)!r}")
    namespace = {"_quote": _quote, "format_real": format_real, "_plain": _plain, "_items": _items}
    exec(compile("\n".join(lines) + "\n", "<codec dict shape>", "exec"), namespace)
    _shape_writers[keys] = writer = namespace["_shape"]
    return writer


def _template(keys) -> str:
    """An f-string body of a dict of at least one key whose value texts are
    ``t0``, ``t1``, …, written at ``pad`` with its keys at ``inner``."""
    rows = [f"{{inner}}{_quote(key).replace('{', '{{').replace('}', '}}')}: {{t{i}}}" for i, key in enumerate(keys)]
    return "{{" + ",".join(rows) + "{pad}}}"


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
            return value if convert is None else convert(value)
        raise _expected(name, value, path, key)

    return Kind(decode, name=name, accepts=accepts, form="scalar", arg=exact)


STR = _scalar("string", str, lambda v: isinstance(v, str))
BOOL = _scalar("boolean", bool, lambda v: isinstance(v, bool))
INT = _scalar("integer", int, lambda v: isinstance(v, int) and not isinstance(v, bool))
# an integer is a valid real; reals are read as float
REAL = _scalar("number", float, lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), float)
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
    """A class attribute standing in for one compiled method until its first
    use, which compiles the method and puts it in the stand-in's place."""

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


def record(cls: type) -> type:
    """Class decorator making *cls* a frozen record: a dataclass with
    ``__slots__`` (with an instance dict instead where a ``cached_property``
    needs one) and an ``__init__`` compiled on first use from its fields.
    Every record shares one ``__eq__``, ``__hash__`` and ``__repr__``, which
    read the field names from ``__match_args__``.

    They behave as those of ``@dataclass(frozen=True)``, with one choice
    where Python versions differ: ``__eq__`` compares the tuples of the
    fields, as 3.10-3.12 do, so a field that holds the same NaN object on
    both sides compares equal (3.13 compares field by field, and it does not).
    """
    slots = not any(isinstance(value, cached_property) for value in vars(cls).values())
    cls = dataclasses.dataclass(frozen=True, slots=slots, init=False, repr=False, eq=False)(cls)
    cls.__init__ = _Unbuilt(cls, "__init__", _init)
    cls.__eq__, cls.__hash__, cls.__repr__ = _record_eq, _record_hash, _record_repr
    return cls


def _compile(cls: type, name: str, lines: list[str], namespace: dict[str, Any]) -> Callable:
    qualname = f"{cls.__qualname__}.{name}"
    exec(compile("\n".join(lines) + "\n", f"<codec {qualname}>", "exec"), namespace)
    function = namespace[name]
    function.__qualname__ = qualname
    return function


def _init(cls: type) -> Callable:
    """``__init__`` compiled from the dataclass fields: each argument is
    stored through its slot's member descriptor (or by
    ``object.__setattr__``, into an instance dict), and ``__post_init__``
    runs last."""
    fields, slotted = dataclasses.fields(cls), "__slots__" in vars(cls)
    namespace: dict[str, Any] = {"_setattr": object.__setattr__}
    params, body = ["self"], []
    for i, field in enumerate(fields):
        name = field.name
        if field.default is not dataclasses.MISSING:
            namespace[f"_default{i}"] = field.default
            params.append(f"{name}=_default{i}")
        else:
            params.append(name)
        if slotted:
            namespace[f"_set{i}"] = vars(cls)[name].__set__
            body.append(f"    _set{i}(self, {name})")
        else:
            body.append(f"    _setattr(self, {name!r}, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    function = _compile(cls, "__init__", [f"def __init__({', '.join(params)}):", *body], namespace)
    # the annotations of the __init__ dataclasses writes, for inspect.signature
    function.__annotations__ = {**{field.name: field.type for field in fields}, "return": None}
    return function


# -- document types -----------------------------------------------------------


class _Codec:
    """What :func:`document` records of a class. Its fields and their kinds
    are resolved when the first codec function is built."""

    def __init__(self, cls: type, path: str, keys: dict[str, str], optional: tuple[str, ...]) -> None:
        self.cls, self.path, self.keys, self.optional = cls, path, keys, optional
        # codec methods the class writes itself
        self.own = frozenset(name for name in ("to_dict", "from_dict") if name in cls.__dict__)

    @cached_property
    def fields(self) -> list[tuple[str, str, Kind, Any]]:
        """(name, key, kind, default) of each field, in order."""
        cls = self.cls
        hints = typing.get_type_hints(cls)
        fields = []
        for field in dataclasses.fields(cls):
            default = _REQUIRED
            if field.name in self.optional:
                if field.default is dataclasses.MISSING:
                    raise TypeError(f"optional field {cls.__name__}.{field.name} has no default")
                default = field.default
            fields.append((field.name, self.keys.get(field.name, field.name), _kind_of(hints[field.name]), default))
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
    absent and then takes its dataclass default. A ``ValueError`` from the
    constructor becomes ``SchemaError("<path>: ...")``.
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
