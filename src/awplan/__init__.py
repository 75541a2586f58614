"""Planning and feasibility engine for coherent super-channels carried as
alien wavelengths over a legacy fixed-grid DWDM network.

The package models the host topology at ROADM granularity, the 25 GHz-slot
C-band spectrum shared between native IM-DD channels and 200 GHz coherent
blocks, a calibrated empirical Q model, and a planner that trades capacity
against feasibility between mixed-spectrum and dedicated-partition
deployments. All domain objects are immutable and serialize canonically.

Importing the package loads none of its modules: each exported name loads
the module that defines it on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# each public name, under the submodule that defines it
_EXPORTS = {
    "errors": (
        "AdaptationError", "AwplanError", "CalibrationError", "PlanningError",
        "SchemaError", "SpectrumError", "TopologyError",
    ),
    "topology": (
        "AmplifierType", "NetworkTopology", "Node", "PathMetrics", "Span", "Violation",
        "aggregate_path", "parse_topology", "validate_topology",
    ),
    "spectrum": (
        "AllocationResult", "Assignment", "BandConfig", "CarrierPair", "DedicatedPartition",
        "NativeChannel", "OccupantKind", "PlacementRequest", "SpectrumGrid", "SuperChannel",
        "carve_dedicated_partition", "default_pairs", "empty_grid", "first_fit_allocate",
        "neighbor_context", "place_native", "place_superchannel", "unique_occupant_id",
    ),
    "perfmodel": (
        "NATIVE_IMPACT_DB", "CalibrationPoint", "Feasibility", "Modulation", "NeighborConfig",
        "QEstimate", "QModel", "Thresholds", "calibrate", "classify_q", "estimate_q",
        "neighbor_penalty",
    ),
    "planner": (
        "Demand", "GridContext", "PlannerPolicy", "PlanOption", "PlanReport", "Strategy",
        "apply_plan", "enumerate_options", "grid_context_for", "plan_link",
        "superchannel_capacity", "validate_plan",
    ),
    "adaptation": (
        "DEFAULT_FLATNESS_TOLERANCE_DB", "EqualizationReport", "EqualizationResult",
        "NodeEqualizationSummary", "PowerReading", "VoaSetting", "compute_voa_settings",
        "equalization_report",
    ),
    "iofmt": (
        "PlotSeries", "canonical_json", "export_q_vs_distance", "plot_series_to_csv",
        "round_trip", "serialize",
    ),
    "_schema": ("parse_json",),
    "_writer": ("format_real",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "fixture_path", "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})


def fixture_path(name: str):
    """Path-like handle to a data file shipped with the package."""
    from importlib import resources

    return resources.files(__name__).joinpath("fixtures", name)
