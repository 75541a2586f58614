"""The package's export table: each public name loads the module that
defines it on first use, and the set of names is the one the package has
always exported."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import awplan

EXPORTED = {
    "AdaptationError", "AllocationResult", "AmplifierType", "Assignment", "AwplanError",
    "BandConfig", "CalibrationError", "CalibrationPoint", "CarrierPair",
    "DEFAULT_FLATNESS_TOLERANCE_DB", "DedicatedPartition", "Demand", "EqualizationReport",
    "EqualizationResult", "Feasibility", "GridContext", "Modulation", "NATIVE_IMPACT_DB",
    "NativeChannel", "NeighborConfig", "NetworkTopology", "Node", "NodeEqualizationSummary",
    "OccupantKind", "PathMetrics", "PlacementRequest", "PlanOption", "PlanReport",
    "PlannerPolicy", "PlanningError", "PlotSeries", "PowerReading", "QEstimate", "QModel",
    "SchemaError", "Span", "SpectrumError", "SpectrumGrid", "Strategy", "SuperChannel",
    "Thresholds", "TopologyError", "Violation", "VoaSetting", "__version__",
    "aggregate_path", "apply_plan", "calibrate", "canonical_json",
    "carve_dedicated_partition", "classify_q", "compute_voa_settings", "default_pairs",
    "empty_grid", "enumerate_options", "equalization_report", "estimate_q",
    "export_q_vs_distance", "first_fit_allocate", "fixture_path", "format_real",
    "grid_context_for", "neighbor_context", "neighbor_penalty", "parse_json",
    "parse_topology", "place_native", "place_superchannel", "plan_link",
    "plot_series_to_csv", "round_trip", "serialize",
    "superchannel_capacity", "unique_occupant_id", "validate_plan", "validate_topology",
}


def test_exports_are_unchanged():
    assert len(awplan.__all__) == len(EXPORTED)
    assert set(awplan.__all__) == EXPORTED


@pytest.mark.parametrize("name", sorted(awplan._MODULE_OF))
def test_each_name_is_its_modules_object(name):
    module = importlib.import_module(f"awplan.{awplan._MODULE_OF[name]}")
    assert getattr(awplan, name) is getattr(module, name)


def test_dir_lists_every_export():
    assert set(awplan.__all__) <= set(dir(awplan))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from awplan import *", namespace)
    assert set(awplan.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'awplan' has no attribute 'no_such_name'"):
        awplan.no_such_name  # noqa: B018


# what a fresh interpreter does before its first plan: calibrate the reference
# points and parse a topology. The probe counts only the modules loaded after
# importlib.resources, which fixture_path uses and whose imports vary with
# the Python version.
SETUP_PROBE = """\
import json, sys, importlib.resources
before = set(sys.modules)
from awplan import CalibrationPoint, calibrate, fixture_path, parse_topology
points = json.loads(fixture_path("reference.calib.json").read_text(encoding="utf-8"))
calibrate([CalibrationPoint.from_dict(p) for p in points])
parse_topology(fixture_path("garr.topo.json").read_text(encoding="utf-8"))
print(sorted({"awplan._writer", "awplan.spectrum", "dataclasses", "inspect"} & (set(sys.modules) - before)))
"""


@pytest.mark.parametrize(
    ("probe", "expected"),
    [
        ("import sys, awplan; print(sorted(m for m in sys.modules if m.startswith('awplan.')))", "[]\n"),
        ("import sys, awplan.cli; print('awplan.adaptation' in sys.modules)", "False\n"),
        (
            "import sys, awplan.cli; print(sorted({'dataclasses', 'inspect', 'hashlib', 'datetime'} & set(sys.modules)))",
            "[]\n",
        ),
        (SETUP_PROBE, "[]\n"),
    ],
    ids=["package", "cli", "cli-stdlib", "calibrate-and-parse"],
)
def test_import_loads_only_what_is_used(probe, expected):
    assert _output(probe) == expected


# each subcommand on the bundled fixtures; validate reads every fixture
FX = Path(awplan.__file__).resolve().parent / "fixtures"
COMMANDS = {
    "calibrate": [["calibrate", "--points", f"{FX}/reference.calib.json"]],
    "estimate": [["estimate", "--calib", f"{FX}/reference.calib.json", "--distance", "1131", "--modulation", "qpsk", "--json"]],
    "plan": [[
        "plan", "--calib", f"{FX}/reference.calib.json", "--topology", f"{FX}/garr.topo.json",
        "--demands", f"{FX}/rm-mi2.demands.json",
    ]],
    "allocate": [["allocate", "--grid", f"{FX}/busy.grid.json", "--requests", f"{FX}/trial.requests.json"]],
    "export-plot": [
        ["export-plot", "--calib", f"{FX}/reference.calib.json", "--modulation", "qpsk", "--distances", "345,1131", "--format", form]
        for form in ("json", "csv")
    ],
    "validate": [["validate", str(path)] for path in sorted(FX.glob("*.json"))],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_subcommand_loads_neither_dataclasses_nor_inspect(command):
    probe = (
        "import contextlib, io, sys\n"
        "from awplan import cli\n"
        f"for argv in {COMMANDS[command]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    assert _output(probe) == "[]\n"


def test_a_record_refuses_a_write_before_dataclasses_is_loaded():
    probe = (
        "import sys, awplan.perfmodel as p\n"
        "record = p.Thresholds()\n"
        "assert 'dataclasses' not in sys.modules\n"
        "for write in (lambda: setattr(record, 'hard_min_db', 1.0), lambda: delattr(record, 'hard_min_db')):\n"
        "    try:\n"
        "        write()\n"
        "    except Exception as err:\n"
        "        print(type(err).__module__, type(err).__name__, err)\n"
        "print(record)"
    )
    assert _output(probe) == (
        "dataclasses FrozenInstanceError cannot assign to field 'hard_min_db'\n"
        "dataclasses FrozenInstanceError cannot delete field 'hard_min_db'\n"
        "Thresholds(hard_min_db=6.5, design_min_db=8.5)\n"
    )


def _output(probe: str) -> str:
    """The standard output of *probe* run by a fresh interpreter on this source tree."""
    src = str(Path(awplan.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return result.stdout


def test_spectrum_takes_the_model_inputs_from_perfmodel():
    from awplan import perfmodel, spectrum

    for name in ("Modulation", "NeighborConfig", "NATIVE_WIDTH_SLOTS", "MAX_SLOT_COUNT"):
        assert getattr(spectrum, name) is getattr(perfmodel, name)
