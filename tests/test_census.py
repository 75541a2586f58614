"""The verdict of ``tools/census.py``, on made-up names (no census runs)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "census.py"
_SPEC = importlib.util.spec_from_file_location("census", _PATH)
census = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(census)

DEFINED = {"a.py:f", "a.py:g", "b.py:C.h"}


def test_an_honest_census_has_no_complaint():
    assert census.complaints(DEFINED, ["a.py:g"], {"a.py:g": "a reason"}) == []


def test_a_function_that_never_ran_unkept_is_named_in_file_order():
    assert census.complaints(DEFINED, ["a.py:g", "b.py:C.h"], {}) == [
        "never ran and not in KEPT: a.py:g",
        "never ran and not in KEPT: b.py:C.h",
    ]


def test_a_kept_entry_that_names_no_function_is_named():
    assert census.complaints(DEFINED, [], {"a.py:gone": "a reason"}) == [
        "in KEPT but no function in src/awplan: a.py:gone",
    ]


def test_a_kept_entry_whose_function_ran_is_named():
    assert census.complaints(DEFINED, ["a.py:g"], {"a.py:g": "a reason", "a.py:f": "a reason"}) == [
        "in KEPT but ran: a.py:f",
    ]


def test_every_complaint_is_listed():
    kept = {"a.py:f": "ran", "c.py:gone": "renamed"}
    assert census.complaints(DEFINED, ["b.py:C.h"], kept) == [
        "never ran and not in KEPT: b.py:C.h",
        "in KEPT but ran: a.py:f",
        "in KEPT but no function in src/awplan: c.py:gone",
    ]
