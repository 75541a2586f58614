"""Test-side helpers for records, which are not dataclasses."""

from __future__ import annotations


def replace(obj, **changes):
    """A record of *obj*'s class with its fields, except *changes*; built by
    the constructor, so ``__post_init__`` checks the result."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj.__match_args__}, **changes})
