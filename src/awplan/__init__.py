"""Planning and feasibility engine for coherent super-channels carried as
alien wavelengths over a legacy fixed-grid DWDM network.

The package models the host topology at ROADM granularity, the 25 GHz-slot
C-band spectrum shared between native IM-DD channels and 200 GHz coherent
blocks, a calibrated empirical Q model, and a planner that trades capacity
against feasibility between mixed-spectrum and dedicated-partition
deployments. All domain objects are immutable and serialize canonically.
"""

from importlib import resources

from .errors import (
    AdaptationError,
    AwplanError,
    CalibrationError,
    PlanningError,
    SchemaError,
    SpectrumError,
    TopologyError,
)
from .topology import (
    AmplifierType,
    NetworkTopology,
    Node,
    PathMetrics,
    Span,
    Violation,
    aggregate_path,
    parse_topology,
    validate_topology,
)
from .spectrum import (
    AllocationResult,
    Assignment,
    BandConfig,
    CarrierPair,
    DedicatedPartition,
    Modulation,
    NativeChannel,
    NeighborConfig,
    OccupantKind,
    PlacementRequest,
    SpectrumGrid,
    SuperChannel,
    carve_dedicated_partition,
    default_pairs,
    empty_grid,
    first_fit_allocate,
    neighbor_context,
    place_native,
    place_superchannel,
    unique_occupant_id,
)
from .perfmodel import (
    NATIVE_IMPACT_DB,
    CalibrationPoint,
    Feasibility,
    QEstimate,
    QModel,
    Thresholds,
    calibrate,
    classify_q,
    estimate_q,
    neighbor_penalty,
)
from .planner import (
    Demand,
    GridContext,
    PlannerPolicy,
    PlanOption,
    PlanReport,
    Strategy,
    apply_plan,
    enumerate_options,
    grid_context_for,
    plan_link,
    superchannel_capacity,
    validate_plan,
)
from .adaptation import (
    DEFAULT_FLATNESS_TOLERANCE_DB,
    EqualizationReport,
    EqualizationResult,
    NodeEqualizationSummary,
    PowerReading,
    VoaSetting,
    compute_voa_settings,
    equalization_report,
)
from .iofmt import (
    PlotSeries,
    canonical_json,
    export_q_vs_distance,
    format_real,
    parse_json,
    plot_series_from_csv,
    plot_series_to_csv,
    round_trip,
    serialize,
)

__version__ = "0.1.0"


def fixture_path(name: str):
    """Path-like handle to a data file shipped with the package."""
    return resources.files(__name__).joinpath("fixtures", name)


__all__ = [
    "AdaptationError",
    "AwplanError",
    "CalibrationError",
    "PlanningError",
    "SchemaError",
    "SpectrumError",
    "TopologyError",
    "AmplifierType",
    "NetworkTopology",
    "Node",
    "PathMetrics",
    "Span",
    "Violation",
    "aggregate_path",
    "parse_topology",
    "validate_topology",
    "AllocationResult",
    "Assignment",
    "BandConfig",
    "CarrierPair",
    "DedicatedPartition",
    "Modulation",
    "NativeChannel",
    "NeighborConfig",
    "OccupantKind",
    "PlacementRequest",
    "SpectrumGrid",
    "SuperChannel",
    "carve_dedicated_partition",
    "empty_grid",
    "default_pairs",
    "first_fit_allocate",
    "unique_occupant_id",
    "neighbor_context",
    "place_native",
    "place_superchannel",
    "CalibrationPoint",
    "Feasibility",
    "QEstimate",
    "QModel",
    "Thresholds",
    "NATIVE_IMPACT_DB",
    "calibrate",
    "classify_q",
    "estimate_q",
    "neighbor_penalty",
    "Demand",
    "GridContext",
    "PlannerPolicy",
    "PlanOption",
    "PlanReport",
    "Strategy",
    "apply_plan",
    "enumerate_options",
    "grid_context_for",
    "plan_link",
    "superchannel_capacity",
    "validate_plan",
    "EqualizationReport",
    "EqualizationResult",
    "PowerReading",
    "VoaSetting",
    "compute_voa_settings",
    "DEFAULT_FLATNESS_TOLERANCE_DB",
    "NodeEqualizationSummary",
    "equalization_report",
    "PlotSeries",
    "canonical_json",
    "export_q_vs_distance",
    "format_real",
    "parse_json",
    "plot_series_from_csv",
    "plot_series_to_csv",
    "round_trip",
    "serialize",
    "fixture_path",
    "__version__",
]
