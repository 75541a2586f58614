"""Census of the ``src/`` functions that no caller reaches.

Usage, from the root of a checkout:

    python3 tools/census.py

In one process, with ``sys.setprofile`` recording every Python function
that runs, it runs the CLI tests (``tests/test_cli.py`` and
``tests/test_golden_cli.py``, through pytest) and then the first
two cycles of each benchmark workload, built by ``bench/run.py`` with seed
1 and run by its ``run_cycle``; ``bench/`` is imported, never written. It
prints every function and method defined in ``src/awplan`` that never ran,
one a line as ``file:line qualname``, in file order, after a count.
Code compiled at run time (the codec's functions) is not in the source and
is not listed. Standard library only, apart from pytest for the tests.

It exits 1 when a function that is not in ``KEPT`` never ran, and when a
``KEPT`` entry names no function in ``src/awplan`` or names one that ran,
and names each after the list: code that no caller reaches goes, or joins
``KEPT`` with its reason, and an entry that no longer holds goes.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "awplan"
TESTS = ("tests/test_cli.py", "tests/test_golden_cli.py")
SEED = 1  # the workloads' seed
CYCLES = 2  # cycles run per workload

# the functions that may never run here, as file:qualname, each with its reason
KEPT = {
    "__init__.py:__dir__": "dir(awplan) lists the lazy exports; no command asks",
    "__init__.py:fixture_path": "called by CI and the bench's set-up children, in other processes",
    "_schema.py:_record_hash": "records are hashable; no command hashes one",
    "_schema.py:_record_repr": "a record's repr, for debugging and test failures",
    "_schema.py:_frozen": "builds the error of a write to a frozen record",
    "_schema.py:_record_setattr": "refuses a write to a frozen record",
    "_schema.py:_record_delattr": "refuses a delete from a frozen record",
    "_schema.py:_record_setstate": "copy, deepcopy and pickle of a record",
    "_writer.py:_write": "the writer's fallback for data no compiled shape covers, and its error",
    "_writer.py:_written": "the text of _write's fallback",
    "adaptation.py:EqualizationReport.all_passed": "waits for the attenuation layer's equalize (ROADMAP item 8)",
    "spectrum.py:neighbor_context": "bench/tracer.py wraps it; it goes with the next benchmark change (ROADMAP item 9)",
}


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) of every function in ``src/awplan``, to its
    qualname. The first line is that of the code object: a decorated
    function starts at its first decorator."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = prefix + child.name
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def run_everything() -> set:
    """The code objects of every Python function called while the CLI tests
    and the workload cycles run."""
    import pytest

    seen: set = set()

    def profile(frame, event, arg) -> None:
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sys.stderr):  # stdout carries only the census
            code = pytest.main(["-q", "-p", "no:cacheprovider", *(str(ROOT / test) for test in TESTS)])
        if code != 0:
            raise SystemExit(f"the CLI tests failed (pytest exit {code}); the census would be short")
        import run as bench  # bench/run.py

        for name in bench.WORKLOADS:
            workload, _ = bench.build(name, SEED)
            book = bench.Book()
            for cycle in workload.cycles[:CYCLES]:
                bench.run_cycle(workload, cycle, book, [])
            if book.failed:
                raise SystemExit(f"{name}: {book.failed} ops failed: {book.errors[:3]}")
    finally:
        sys.setprofile(None)
    return seen


def complaints(defined: set[str], unreached: list[str], kept: dict[str, str]) -> list[str]:
    """Why the census fails, one line each, from the names (``file:qualname``)
    of the functions defined and of those that never ran, in file order, and
    the ``KEPT`` entries: a function that never ran and is not kept, then a
    kept entry that names no defined function or names one that ran."""
    lines = [f"never ran and not in KEPT: {name}" for name in unreached if name not in kept]
    for name in kept:
        if name not in defined:
            lines.append(f"in KEPT but no function in src/awplan: {name}")
        elif name not in unreached:
            lines.append(f"in KEPT but ran: {name}")
    return lines


def main() -> int:
    sys.dont_write_bytecode = True  # nothing is written next to the sources or the bench
    for path in (ROOT / "bench", ROOT / "tests", ROOT / "src"):
        sys.path.insert(0, str(path))
    os.chdir(ROOT)
    ran = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in run_everything()}

    functions = defined_functions()
    unreached = sorted(key for key in functions if (os.path.realpath(key[0]), key[1]) not in ran)
    print(f"# {len(unreached)} of {len(functions)} src functions never ran")
    for path, line in unreached:
        print(f"{Path(path).relative_to(ROOT)}:{line} {functions[(path, line)]}")
    defined = {f"{Path(path).name}:{qualname}" for (path, _), qualname in functions.items()}
    lines = complaints(defined, [f"{Path(path).name}:{functions[(path, line)]}" for path, line in unreached], KEPT)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
