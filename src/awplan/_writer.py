"""The canonical writer: plain data (dicts, lists, scalars) to JSON text,
with stable key order, two-space indentation, and reals fixed at four
decimal places.

The writers are compiled per dict shape, the tuple of a dict's keys, on the
shape's first use: one f-string that inlines each value of exactly the type
it had in that first dict. On any error ``_write``, the only generic
emitter, writes the whole value instead, so its messages, the canonical
bytes and the deepest value it can write stay the same. The document codec
(``awplan._schema``) reads documents without loading this module.
"""

from __future__ import annotations

import json
import math
from typing import Callable

REAL_DECIMALS = 4


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
