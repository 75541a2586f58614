"""A fuzzer of the command line: bad input exits 2 and names its file.

Hypothesis mutates each bundled fixture and the JSON output of each
command, and ``cli.main`` reads the result in-process, in every subcommand
that reads that kind of file. Whatever the input, ``main`` must return 0, 1
or 2 with no exception escaping, and on 2 its error must start by naming
the mutated file.

A mutation drops a key, swaps a value for one of another type, or puts in
NaN, an infinity, a huge or negative number (in one field, or in the same
field of every record of a list), a copy of a list item (and so a duplicate
id), deep nesting, or bytes that are not UTF-8; or it breaks a real: a
field the source writes as a real gets ``1e999`` or a 400-digit integer.
A document whose real holds a non-finite number, or one no float holds,
must be refused: exit 2. Every number fed is either in bound or refused
before any slot mask is built: a start, width or band size past the band,
and a guard band past 1024 slots, are refused as they are read, so no
mutation can make a mask of 2**62 bits.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from awplan.cli import main
from conftest import FIXTURE_DIR

FILE = "<file>"  # in a command, the mutated file


def fx(name: str) -> str:
    return str(FIXTURE_DIR / name)


CALIB, GRID = fx("reference.calib.json"), fx("busy.grid.json")
PLAN_ARGS = (
    "plan", "--calib", CALIB, "--topology", fx("garr.topo.json"),
    "--demands", fx("rm-mi2.demands.json"), "--grid", GRID,
)
ALLOCATE_ARGS = ("allocate", "--grid", GRID, "--requests", fx("trial.requests.json"))


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@cache
def _output(argv: tuple[str, ...]) -> str:
    code, out, _ = _run(argv)
    assert code in (0, 1), argv
    return out


def _with(args: tuple[str, ...], flag: str) -> tuple[str, ...]:
    """*args* with the value of *flag* replaced by the mutated file."""
    i = args.index(flag)
    return args[: i + 1] + (FILE,) + args[i + 2 :]


# each source document, a fixture or a command's output (OUTPUTS), and the
# commands besides a plain validate that read its kind of file
SOURCES = {
    "reference.calib.json": [
        ("calibrate", "--points", FILE),
        ("estimate", "--calib", FILE, "--distance", "1131", "--modulation", "qpsk"),
        ("export-plot", "--calib", FILE, "--modulation", "qpsk", "--distances", "345,1131"),
        _with(PLAN_ARGS, "--calib"),
    ],
    "garr.topo.json": [_with(PLAN_ARGS, "--topology")],
    "busy.grid.json": [
        _with(ALLOCATE_ARGS, "--grid"),
        _with(PLAN_ARGS, "--grid"),
        ("validate", "<plan>", "--grid", FILE),
        ("validate", "<allocation>", "--grid", FILE),
    ],
    "trial.requests.json": [_with(ALLOCATE_ARGS, "--requests")],
    **{
        f"{name}.demands.json": [_with(PLAN_ARGS, "--demands")]
        for name in ("ba1-bo1", "bo1-mi1", "rm-mi2", "rm2-bo1")
    },
    "<plan>": [("validate", FILE, "--grid", GRID)],
    "<allocation>": [("validate", FILE, "--grid", GRID)],
    **{name: [] for name in ("<model>", "<estimate>", "<series>")},  # only validate reads them
}
OUTPUTS = {
    "<plan>": PLAN_ARGS,
    "<allocation>": ALLOCATE_ARGS,
    "<model>": ("calibrate", "--points", CALIB),
    "<estimate>": ("estimate", "--calib", CALIB, "--distance", "1131", "--modulation", "qpsk", "--json"),
    "<series>": (
        "export-plot", "--calib", CALIB, "--modulation", "qpsk", "--distances", "345,1131", "--format", "json",
    ),
}


def _source_text(name: str) -> str:
    return _output(OUTPUTS[name]) if name in OUTPUTS else (FIXTURE_DIR / name).read_text(encoding="utf-8")


# JSON text put in where a mutation leaves its marker string
_TOKENS = {
    "<nan>": "NaN",
    "<inf>": "Infinity",
    "<-inf>": "-Infinity",
    "<overflow>": "1e999",  # read as an infinity
    "<-overflow>": "-1e999",
    "<huge>": "9" * 400,  # an integer no float holds
    "<-huge>": "-" + "9" * 400,
    "<digits>": "9" * 5000,  # past the interpreter's digit limit
    "<deep>": "[" * 100_000 + "]" * 100_000,
}
_NUMBERS = [0, -1, -2, 1, 2**62, -(2**62), 10**30, 1e308, -1e308, 0.5, -0.0, 1024, 1025]
_SWAPS = [None, True, False, "", "x", [], {}, [1], {"id": "x"}]
_VALUES = st.sampled_from(_NUMBERS + _SWAPS + list(_TOKENS)).map(copy.deepcopy)
_BREAKS = ["<overflow>", "<-overflow>", "<huge>", "<-huge>"]  # what the parser takes
_NOT_REAL = ("<nan>", "<inf>", "<-inf>", *_BREAKS)  # what no real may hold


def _places(value, path=()):
    """The path of every value in the tree, the root first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _places(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _places(item, path + (i,))


def _at(root, path):
    for step in path:
        root = root[step]
    return root


def _get(root, path):
    """The value at *path*, or None where the mutations left no value there."""
    try:
        return _at(root, path)
    except (KeyError, IndexError, TypeError):
        return None


@st.composite
def mutated(draw, text: str) -> tuple[bytes, bool]:
    """The bytes of the document *text* after one to three mutations, and
    whether a real of it then holds a value no real may hold. The reals are
    the fields the source writes as reals, wherever they still are."""
    root = json.loads(text)
    reals = [path for path in _places(root) if type(_at(root, path)) is float]
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["drop", "set", "set all", "copy", "wrap", "break a real"]))
        if action == "break a real":
            path = draw(st.sampled_from(reals)) if reals else None
            parent = path and _get(root, path[:-1])
            if isinstance(parent, dict) and path[-1] in parent:
                parent[path[-1]] = draw(st.sampled_from(_BREAKS))
            continue
        path = draw(st.sampled_from(list(_places(root))))
        if not path:  # the whole document
            root = draw(_VALUES) if action.startswith("set") else [root] if action == "wrap" else root
            continue
        parent, step = _at(root, path[:-1]), path[-1]
        if action == "drop":
            del parent[step]
        elif action == "set":
            parent[step] = draw(_VALUES)
        elif action == "set all":  # the same field of every record in the list, such as each span's length
            value, records = draw(st.sampled_from(_NUMBERS)), _at(root, path[:-2]) if len(path) > 1 else [parent]
            for record in records if isinstance(records, list) else [parent]:
                if isinstance(record, dict) and step in record:
                    record[step] = copy.deepcopy(value)
        elif action == "wrap":
            parent[step] = [parent[step]] if draw(st.booleans()) else {"x": parent[step]}
        elif isinstance(parent, list):  # a copy of the item: its id, if any, repeats
            parent.insert(draw(st.integers(0, len(parent))), copy.deepcopy(parent[step]))
        else:  # a copy of the value under a second key
            parent[f"{step}2"] = copy.deepcopy(parent[step])
    refused = any(_get(root, path) in _NOT_REAL for path in reals)
    text = json.dumps(root, indent=1)
    for marker, token in _TOKENS.items():
        text = text.replace(json.dumps(marker), token)
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:  # bytes that are not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\x80"])) + data[at:]
    return data, refused


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the unmutated plan and allocation outputs."""
    path = tmp_path_factory.mktemp("fuzz")
    for name in OUTPUTS:
        (path / f"{name.strip('<>')}.json").write_text(_source_text(name), encoding="utf-8")
    return path


def _assert_handled(argv, path: str, refused: bool) -> None:
    code, _, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert code == 2 or not refused, (argv, code, err)
    if code == 2:
        assert err.startswith(f"error: {path}"), (argv, err)


def _check(workdir, source: str, data: bytes, refused: bool) -> None:
    path = workdir / "mutated.json"
    path.write_bytes(data)
    files = {FILE: str(path), **{name: str(workdir / f"{name.strip('<>')}.json") for name in OUTPUTS}}
    for command in [("validate", FILE)] + SOURCES[source]:
        _assert_handled([files.get(arg, arg) for arg in command], str(path), refused)


@pytest.mark.parametrize("source", sorted(SOURCES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_documents_exit_cleanly(workdir, source, data):
    _check(workdir, source, *data.draw(mutated(_source_text(source)), label="document"))


# the fuzzer's shrunk finds, kept as tests


def test_spans_whose_lengths_sum_past_the_largest_float_blame_the_topology(workdir):
    # each length is finite, so the topology reads; their sum along the path is not
    topology = json.loads((FIXTURE_DIR / "garr.topo.json").read_text(encoding="utf-8"))
    for span in topology["spans"]:
        span["length_km"] = 1e308
    path = workdir / "long.topo.json"
    path.write_text(json.dumps(topology), encoding="utf-8")
    demands = fx("rm-mi2.demands.json")
    argv = [str(path) if arg == FILE else arg for arg in _with(PLAN_ARGS, "--topology")]
    assert _run(argv) == (
        2, "", f"error: {path}: {demands}[0] runs along spans too long to plan: distance_km must be finite, got inf\n",
    )


@pytest.mark.parametrize("command", ["plan", "validate"])
def test_an_infinite_demand_is_refused_as_it_is_read(workdir, command):
    # 1e999 reads as an infinity, which plan used to meet only when writing its report
    path = workdir / "infinite.demands.json"
    path.write_text('[{"path": ["BO1", "MI1"], "required_capacity_gbps": 1e999}]', encoding="utf-8")
    argv = ("validate", str(path)) if command == "validate" else _with(PLAN_ARGS, "--demands")
    argv = [str(path) if arg == FILE else arg for arg in argv]
    assert _run(argv) == (2, "", f"error: {path}[0]: required_capacity_gbps must be finite, got inf\n")


def test_a_plan_emptied_to_a_list_is_refused_under_grid_naming_it(workdir):
    # [] reads as an empty list of calibration points, which --grid does not apply to
    path = workdir / "emptied.json"
    path.write_text("[]", encoding="utf-8")
    assert _run(["validate", str(path), "--grid", GRID]) == (
        2, "", f"error: {path}: --grid applies only to a plan or an allocation document\n",
    )


# a real that each reader once let through: 1e999 read as an infinity, and an
# integer no float holds, which raised OverflowError; the message follows the file name
_BROKEN_REALS = [
    ("<estimate>", ("value_db",), "1e999", ": value_db must be finite, got inf"),
    ("<model>", ("q_ref_db", "BPSK"), "1e999", ": q_ref_db[BPSK] must be finite, got inf"),
    ("<plan>", ("reports", 0, "chosen", "q", "value_db"), "1e999",
     ".reports[0].chosen.q: value_db must be finite, got inf"),
    ("<plan>", ("reports", 0, "native_impact_db"), "-1e999", ".reports[0]: native_impact_db must be finite, got -inf"),
    ("<plan>", ("reports", 0, "alternatives", 1, "capacity_gbps"), "1e999",
     ".reports[0].alternatives[1]: capacity_gbps must be finite, got inf"),
    ("reference.calib.json", (0, "distance_km"), "9" * 400,
     "[0].distance_km: number too large for a float (400 digits)"),
    ("rm-mi2.demands.json", (0, "required_capacity_gbps"), "1" + "0" * 400,
     "[0].required_capacity_gbps: number too large for a float (401 digits)"),
]


@pytest.mark.parametrize(
    ("source", "where", "token", "message"), _BROKEN_REALS,
    ids=[f"{source.strip('<>')}:{where[-1]}" for source, where, _, _ in _BROKEN_REALS],
)
def test_a_broken_real_is_refused_as_it_is_read(workdir, source, where, token, message):
    document = json.loads(_source_text(source))
    _at(document, where[:-1])[where[-1]] = "<token>"
    path = workdir / "broken.json"
    path.write_text(json.dumps(document).replace('"<token>"', token), encoding="utf-8")
    for command in [("validate", FILE)] + SOURCES[source]:
        argv = [str(path) if arg == FILE else arg for arg in command]
        assert _run(argv) == (2, "", f"error: {path}{message}\n"), command
