"""The naive codec the compiled one is checked against.

``read(cls, data, where)`` is the generic field loop the codec ran for every
document before its readers were compiled: it walks the fields in order and
sends every value through its kind's ``decode``. A nested document is read
by this loop again, never by compiled code, and a grid is rebuilt by
replaying its placements one by one. ``SpectrumGrid.from_dict`` loads a grid
in one mask pass instead and replays only to word an error, so this replay is
the oracle for both the grid it loads and the error it raises.
"""

from __future__ import annotations

import dataclasses
import types
import typing

from awplan import (
    SpectrumGrid,
    _schema,
    adaptation,
    carve_dedicated_partition,
    iofmt,
    perfmodel,
    place_native,
    place_superchannel,
    planner,
    spectrum,
    topology,
)
from awplan.errors import SchemaError, SpectrumError


def document_types() -> list[type]:
    """Every class the codec serves, in module and definition order."""
    found: dict[type, None] = {}
    for module in (topology, spectrum, perfmodel, planner, adaptation, iofmt):
        for value in vars(module).values():
            if isinstance(value, type) and "_codec" in vars(value):
                found[value] = None
    return list(found)


def kind_of(annotation: typing.Any) -> _schema.Kind:
    """The codec's kind of a field annotation, except that a nested document
    is read by :func:`read`."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is tuple:
        return _schema._tuple_of(kind_of(args[0]))
    if origin in (typing.Union, types.UnionType):
        return _schema._nullable(kind_of(next(arg for arg in args if arg is not type(None))))
    if origin is dict:
        return _schema._enum_map(args[0], kind_of(args[1]))
    if isinstance(annotation, type) and "_codec" in vars(annotation):
        def decode(value, path, key):
            return read(annotation, value, f"{path}.{key}")

        return _schema.Kind(decode)
    return _schema._kind_of(annotation)  # a scalar, an enum or a literal


def read(cls: type, data, where: str):
    if cls is SpectrumGrid:
        return _replay(read_fields(cls, data, where), where)
    return read_fields(cls, data, where)


def read_fields(cls: type, data, where: str):
    """Every field in declaration order; the first fault raises."""
    codec = cls._codec
    hints = typing.get_type_hints(cls)
    obj = _schema.get_object(data, where)
    values = {}
    for field in dataclasses.fields(cls):
        key = codec.keys.get(field.name, field.name)
        if key in obj:
            values[field.name] = kind_of(hints[field.name]).decode(obj[key], where, key)
        elif field.name in codec.optional:
            values[field.name] = field.default
        else:
            raise _schema._missing(where, key)
    try:
        return cls(**values)
    except ValueError as err:
        raise SchemaError(f"{where}: {err}") from None


def _replay(parsed: SpectrumGrid, where: str) -> SpectrumGrid:
    grid = SpectrumGrid(band=parsed.band)
    try:
        for part in parsed.partitions:
            grid = carve_dedicated_partition(grid, part.start_slot, part.width_slots)
        for native in parsed.natives:
            grid = place_native(grid, native)
        for sc in parsed.superchannels:
            grid = place_superchannel(grid, sc)
    except SpectrumError as err:
        raise SchemaError(f"{where}: {err}") from None
    return grid
