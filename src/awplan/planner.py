"""Capacity planning for coherent super-channels over the host spectrum.

For a demand between two ROADM nodes the planner weighs three deployment
options: a mixed-spectrum block among the native channels running all-BPSK,
the same block running all-QPSK (subject to a reach limit next to IM-DD
neighbors), and an all-QPSK block inside a dedicated partition, which costs
one edge carrier to boundary alignment but removes neighbor penalties. The
feasible option with the highest delivered capacity wins; ties fall to the
higher Q margin, then to mixed spectrum to avoid carving.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import attrgetter

from . import _schema
from .errors import PlanningError
from .perfmodel import (
    DEFAULT_THRESHOLDS,
    NATIVE_IMPACT_DB,
    Feasibility,
    Modulation,
    NeighborConfig,
    QEstimate,
    QModel,
    Thresholds,
    classify_q,
    estimate_q,
)
from .spectrum import (
    CARRIERS_PER_PAIR,
    MAX_CARRIERS,
    PAIR_COUNT,
    CarrierPair,
    DedicatedPartition,
    SpectrumGrid,
    SuperChannel,
    WorkingGrid,
    carve_width,
    check_guard_band,
    fitting_starts,
    unique_occupant_id,
    window_neighbors,
)
from .topology import NetworkTopology, PathMetrics, Violation, aggregate_path

CARRIER_RATE_GBPS = {Modulation.QPSK: 50.0, Modulation.BPSK: 25.0}
DEFAULT_GUARD_BAND_SLOTS = 2
DEFAULT_QPSK_MIXED_REACH_LIMIT_KM = 1000.0


class Strategy(Enum):
    MIXED_SPECTRUM = "MixedSpectrum"
    DEDICATED_PARTITION = "DedicatedPartition"


@_schema.document("demand")
class Demand:
    """A capacity request along a path of node ids."""

    path: tuple[str, ...]
    required_capacity_gbps: float

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("demand path must be non-empty")
        if not math.isfinite(self.required_capacity_gbps):
            raise ValueError(f"required_capacity_gbps must be finite, got {self.required_capacity_gbps}")
        if self.required_capacity_gbps <= 0:
            raise ValueError(
                f"required_capacity_gbps must be > 0, got {self.required_capacity_gbps}"
            )


@_schema.record
class PlannerPolicy:
    """Planning knobs; defaults reproduce the production deployment choices."""

    guard_band_slots: int = DEFAULT_GUARD_BAND_SLOTS
    qpsk_mixed_reach_limit_km: float = DEFAULT_QPSK_MIXED_REACH_LIMIT_KM
    dedicated_edge_carrier_sacrifice: int = 1
    thresholds: Thresholds = DEFAULT_THRESHOLDS

    def __post_init__(self) -> None:
        check_guard_band(self.guard_band_slots, ValueError)
        limit = self.qpsk_mixed_reach_limit_km
        if math.isnan(limit):
            raise ValueError(f"qpsk_mixed_reach_limit_km must be a number, got {limit}")
        if limit < 0:  # +inf is no limit
            raise ValueError(f"qpsk_mixed_reach_limit_km must be >= 0, got {limit}")
        if not 0 <= self.dedicated_edge_carrier_sacrifice <= 1:
            raise ValueError(
                f"dedicated_edge_carrier_sacrifice must be 0 or 1, "
                f"got {self.dedicated_edge_carrier_sacrifice}"
            )


DEFAULT_POLICY = PlannerPolicy()


def superchannel_capacity(
    pair_modulations: tuple[Modulation, ...], active_carriers: int
) -> float:
    """Delivered capacity in Gbps. Carriers fill pairs left to right, so a
    sacrificed edge carrier always comes off the last pair."""
    if len(pair_modulations) != PAIR_COUNT:
        raise PlanningError(
            f"expected {PAIR_COUNT} pair modulations, got {len(pair_modulations)}"
        )
    if not 0 <= active_carriers <= MAX_CARRIERS:
        raise PlanningError(
            f"active_carriers must be in 0..{MAX_CARRIERS}, got {active_carriers}"
        )
    total = 0.0
    for carrier in range(active_carriers):
        total += CARRIER_RATE_GBPS[pair_modulations[carrier // CARRIERS_PER_PAIR]]
    return total


@_schema.document("option")
class PlanOption:
    """One candidate deployment. Construction is permissive so reports can be
    loaded and validated; consistency checks live in validate_plan."""

    strategy: Strategy
    pair_modulations: tuple[Modulation, ...]
    active_carriers: int
    capacity_gbps: float
    q: QEstimate
    feasible: bool

    def __post_init__(self) -> None:
        if len(self.pair_modulations) != PAIR_COUNT:
            raise ValueError(
                f"expected {PAIR_COUNT} pair modulations, got {len(self.pair_modulations)}"
            )
        if not 0 <= self.active_carriers <= MAX_CARRIERS:
            raise ValueError(
                f"active_carriers must be in 0..{MAX_CARRIERS}, got {self.active_carriers}"
            )


@_schema.document("report")
class PlanReport:
    """The chosen option for a demand, the rejected ones and why."""

    demand: Demand
    chosen: PlanOption
    alternatives: tuple[PlanOption, ...]
    warnings: tuple[str, ...]
    rationale: str
    native_impact_db: float


@_schema.document("model_provenance")
class ModelProvenance:
    """The calibration a plan used: the SHA-256 of its points file's text."""

    calibration_sha256: str

    def __post_init__(self) -> None:
        if len(self.calibration_sha256) != 64 or self.calibration_sha256.strip("0123456789abcdef"):
            raise ValueError(f"calibration_sha256 must be 64 lowercase hex digits, got {self.calibration_sha256!r}")


@_schema.document("plan")
class PlanDocument:
    """What ``awplan plan`` writes: one report per demand and their calibration."""

    model_provenance: ModelProvenance
    reports: tuple[PlanReport, ...]


@_schema.record
class GridContext:
    """What the current spectrum offers a new block: the lowest mixed window
    and its neighbor profile, and the lowest dedicated window (existing or
    carvable)."""

    mixed_start_slot: int | None
    mixed_neighbors: NeighborConfig | None
    dedicated_start_slot: int | None
    dedicated_needs_carve: bool


# each strategy's window start on a probed grid, None when it has none, and the
# phrase for its absence, which _unfit quotes and validate_plan and apply_plan report
_WINDOWS = {
    Strategy.MIXED_SPECTRUM: (attrgetter("mixed_start_slot"), "no mixed-spectrum window available"),
    Strategy.DEDICATED_PARTITION: (attrgetter("dedicated_start_slot"), "no dedicated partition available or carvable"),
}


def grid_context_for(grid: SpectrumGrid, guard_band_slots: int) -> GridContext:
    """Probe the grid for the lowest feasible mixed placement and the lowest
    dedicated placement a new super-channel could use. The guard is checked
    first, so only a valid one is kept; the context is kept on the grid, so
    each guard band probes a grid once."""
    check_guard_band(guard_band_slots)
    context = grid._contexts.get(guard_band_slots)
    if context is None:
        context = grid._contexts[guard_band_slots] = _probe(grid, guard_band_slots)
    return context


def _probe(grid: SpectrumGrid, guard_band_slots: int) -> GridContext:
    # WorkingGrid.of raises on a double-booked grid, naming both owners
    working = WorkingGrid.of(grid)
    # a mixed block lies outside every partition, a dedicated one inside one
    _, inside, outside = working.search_starts()

    mixed_start = working.free_start(outside, working.width, guard_band_slots, working.native_mask)
    mixed_neighbors: NeighborConfig | None = None
    if mixed_start is not None:
        mixed_neighbors = window_neighbors(
            grid, mixed_start, mixed_start + working.width, guard_band_slots,
            working.occupied_mask & ~working.native_mask,
        )

    # occupancy covers the natives, and none lies inside a partition
    dedicated_start = working.free_start(inside, working.width)
    needs_carve = False
    if dedicated_start is None:
        # a partition is carved at an even start, on free slots outside every partition
        carve = carve_width(working.width)
        carves = fitting_starts(working.band.slot_count, carve, even=True)
        dedicated_start = working.free_start(carves, carve, kept_from=working.partition_mask)
        needs_carve = dedicated_start is not None

    return GridContext(
        mixed_start_slot=mixed_start,
        mixed_neighbors=mixed_neighbors,
        dedicated_start_slot=dedicated_start,
        dedicated_needs_carve=needs_carve,
    )


def _uniform(modulation: Modulation) -> tuple[Modulation, ...]:
    return (modulation,) * PAIR_COUNT


def enumerate_options(
    demand: Demand,
    metrics: PathMetrics,
    context: GridContext,
    model: QModel,
    policy: PlannerPolicy = DEFAULT_POLICY,
) -> list[PlanOption]:
    """Candidate deployments for one demand; infeasible ones are kept and
    flagged rather than dropped."""
    mixed_neighbors = context.mixed_neighbors if context.mixed_neighbors is not None else NeighborConfig()
    dedicated_neighbors = NeighborConfig(in_dedicated_partition=True)
    dedicated_active = MAX_CARRIERS - policy.dedicated_edge_carrier_sacrifice

    def option(strategy: Strategy, modulation: Modulation, neighbors: NeighborConfig, active: int) -> PlanOption:
        pairs = _uniform(modulation)
        q = estimate_q(model, metrics, modulation, neighbors, policy.thresholds)
        return PlanOption(
            strategy=strategy,
            pair_modulations=pairs,
            active_carriers=active,
            capacity_gbps=superchannel_capacity(pairs, active),
            q=q,
            feasible=_unfit(strategy, modulation, q, metrics, context, policy) is None,
        )

    return [
        option(Strategy.MIXED_SPECTRUM, Modulation.BPSK, mixed_neighbors, MAX_CARRIERS),
        option(Strategy.MIXED_SPECTRUM, Modulation.QPSK, mixed_neighbors, MAX_CARRIERS),
        option(Strategy.DEDICATED_PARTITION, Modulation.QPSK, dedicated_neighbors, dedicated_active),
    ]


def _unfit(
    strategy: Strategy, modulation: Modulation, q: QEstimate,
    metrics: PathMetrics, context: GridContext, policy: PlannerPolicy,
) -> str | None:
    """Why an option cannot be deployed, or None when it can: the one
    feasibility test, whose text the rationale quotes."""
    if q.feasibility is Feasibility.INFEASIBLE:
        return f"Q {q.value_db:.2f} dB is at or below the {policy.thresholds.hard_min_db:g} dB floor"
    window, missing = _WINDOWS[strategy]
    if window(context) is None:
        return missing
    mixed_qpsk = strategy is Strategy.MIXED_SPECTRUM and modulation is Modulation.QPSK
    if mixed_qpsk and metrics.distance_km > policy.qpsk_mixed_reach_limit_km:
        return (
            f"distance {metrics.distance_km:.0f} km exceeds the "
            f"{policy.qpsk_mixed_reach_limit_km:g} km reach limit for QPSK "
            f"beside IM-DD neighbors"
        )
    return None


def _option_key(option: PlanOption) -> tuple:
    mixed_preference = 1 if option.strategy is Strategy.MIXED_SPECTRUM else 0
    return (option.capacity_gbps, option.q.value_db, mixed_preference)


def _describe(option: PlanOption) -> str:
    # every enumerated option has one modulation on all its pairs
    return (
        f"{option.strategy.value} all-{option.pair_modulations[0].value} with "
        f"{option.active_carriers} carriers at {option.capacity_gbps:.0f} Gbps "
        f"(Q {option.q.value_db:.2f} dB, {option.q.feasibility.value})"
    )


def _rejection_reason(
    option: PlanOption,
    chosen: PlanOption,
    metrics: PathMetrics,
    context: GridContext,
    policy: PlannerPolicy,
) -> str:
    if not option.feasible:
        return _unfit(option.strategy, option.pair_modulations[0], option.q, metrics, context, policy)
    # a feasible option lost on _option_key: a mixed option that tied the
    # chosen one on capacity and Q would have outranked it
    if option.capacity_gbps < chosen.capacity_gbps:
        return f"lower capacity ({option.capacity_gbps:.0f} vs {chosen.capacity_gbps:.0f} Gbps)"
    if option.q.value_db < chosen.q.value_db:
        return f"lower Q margin ({option.q.value_db:.2f} vs {chosen.q.value_db:.2f} dB)"
    return "would carve a dedicated partition for no capacity or margin gain"


def plan_link(
    demand: Demand,
    topology: NetworkTopology,
    grid: SpectrumGrid,
    model: QModel,
    policy: PlannerPolicy = DEFAULT_POLICY,
) -> PlanReport:
    """Plan one demand end to end: aggregate the path, probe the grid,
    enumerate options, and pick the feasible option with maximum capacity."""
    metrics = aggregate_path(topology, demand.path)
    context = grid_context_for(grid, policy.guard_band_slots)
    options = enumerate_options(demand, metrics, context, model, policy)

    feasible = [option for option in options if option.feasible]
    pool = feasible if feasible else options
    chosen = max(pool, key=_option_key)
    alternatives = tuple(option for option in options if option is not chosen)

    warnings: list[str] = []
    if not feasible:
        shortfall = max(0.0, policy.thresholds.hard_min_db - chosen.q.value_db)
        warnings.append(
            f"no feasible option for this demand; best candidate is "
            f"{_describe(chosen)}, {shortfall:.2f} dB short of the "
            f"{policy.thresholds.hard_min_db:g} dB floor"
        )
    else:
        if chosen.q.feasibility is Feasibility.MARGINAL:
            warnings.append(
                f"chosen option Q {chosen.q.value_db:.2f} dB does not clear the "
                f"design threshold {policy.thresholds.design_min_db:g} dB"
            )
        if demand.required_capacity_gbps > chosen.capacity_gbps:
            warnings.append(
                f"demand {demand.required_capacity_gbps:.0f} Gbps exceeds the "
                f"delivered capacity {chosen.capacity_gbps:.0f} Gbps"
            )

    parts = [f"chose {_describe(chosen)}"]
    for option in alternatives:
        parts.append(
            f"rejected {_describe(option)}: "
            f"{_rejection_reason(option, chosen, metrics, context, policy)}"
        )
    rationale = "; ".join(parts)

    return PlanReport(
        demand=demand,
        chosen=chosen,
        alternatives=alternatives,
        warnings=tuple(warnings),
        rationale=rationale,
        native_impact_db=NATIVE_IMPACT_DB,
    )


def validate_plan(
    report: PlanReport,
    grid: SpectrumGrid,
    policy: PlannerPolicy = DEFAULT_POLICY,
) -> list[Violation]:
    """Integrity checks on a plan against a grid. Violations are data, not
    exceptions; an empty list means the plan is deployable as claimed."""
    violations: list[Violation] = []
    chosen = report.chosen
    thresholds = policy.thresholds

    expected_class = classify_q(chosen.q.value_db, thresholds)
    if expected_class is Feasibility.INFEASIBLE:
        violations.append(
            Violation(
                "Q_BELOW_HARD_MIN",
                f"chosen Q {chosen.q.value_db:.2f} dB is at or below the "
                f"{thresholds.hard_min_db:g} dB floor",
            )
        )
    if expected_class is not chosen.q.feasibility:
        violations.append(
            Violation(
                "CLASS_MISMATCH",
                f"chosen Q {chosen.q.value_db:.2f} dB classifies as "
                f"{expected_class.value}, report says {chosen.q.feasibility.value}",
            )
        )
    # PlanOption refuses the inputs that make superchannel_capacity raise
    expected_capacity = superchannel_capacity(chosen.pair_modulations, chosen.active_carriers)
    if abs(expected_capacity - chosen.capacity_gbps) > 1e-9:
        violations.append(
            Violation(
                "CAPACITY_MISMATCH",
                f"capacity {chosen.capacity_gbps:.0f} Gbps does not match "
                f"{expected_capacity:.0f} Gbps implied by the pair modulations",
            )
        )

    window, missing = _WINDOWS[chosen.strategy]
    if window(grid_context_for(grid, policy.guard_band_slots)) is None:
        violations.append(Violation("PLACEMENT_INFEASIBLE", f"{missing} on this grid"))
    return violations


def apply_plan(
    grid: SpectrumGrid,
    report: PlanReport,
    policy: PlannerPolicy = DEFAULT_POLICY,
) -> tuple[SpectrumGrid, str]:
    """Commit a plan's chosen option to the grid: carve if needed, place the
    block, and return the updated grid with the new occupant id. The carve
    and the placement go on one working state, which builds the grid once."""
    chosen = report.chosen
    context = grid_context_for(grid, policy.guard_band_slots)
    pairs = tuple(
        CarrierPair(index=i, modulation=chosen.pair_modulations[i]) for i in range(PAIR_COUNT)
    )
    sc_id = unique_occupant_id(grid, "aw-block")

    window, missing = _WINDOWS[chosen.strategy]
    start = window(context)
    if start is None:
        raise PlanningError(missing)
    working = WorkingGrid.of(grid)
    width = working.width
    if chosen.strategy is Strategy.DEDICATED_PARTITION and context.dedicated_needs_carve:
        working.carve((DedicatedPartition(start, carve_width(width)),))

    block = SuperChannel(
        id=sc_id,
        start_slot=start,
        width_slots=width,
        pairs=pairs,
        active_carriers=chosen.active_carriers,
    )
    return working.place((), (block,)).result(), sc_id
