"""Calibrated empirical Q-value model for coherent carriers over the host line.

The model is deliberately simple: a per-modulation baseline Q at a reference
distance, a linear dB decline with distance, and additive penalties per
adjacent native channel (guarded vs unguarded) plus an optional per-ROADM
term. It is exactly determined by a small set of measured calibration points
and makes no physics claims beyond them; reports label it empirical.

Feasibility classification uses two floors: a hard minimum below which a
signal is unworkable, and a design minimum that good practice stays above.

The model's inputs, a block's modulation and its native neighbors
(``Modulation``, ``NeighborConfig``), are defined here; ``spectrum`` takes
them from this module.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

from . import _schema
from .errors import CalibrationError
from .topology import PathMetrics

DEFAULT_L_REF_KM = 345.0
HARD_MIN_DB = 6.5
DESIGN_MIN_DB = 8.5
# Modeled penalty a coherent block imposes on adjacent native IM-DD channels:
# none, in any configuration. Field observations back this; reports carry it
# so the claim is stated rather than natives omitted.
NATIVE_IMPACT_DB = 0.0

# A fit squares the numbers of its points, so each is bounded to keep the
# solve finite: no terrestrial path is longer than the Earth's circumference,
# and no measured Q comes near 100 dB.
MAX_POINT_DISTANCE_KM = 40_000.0
MAX_MEASURED_Q_DB = 100.0

# residual ceiling for an exactly-determined calibration solve
_SOLVE_TOLERANCE = 1e-9

NATIVE_WIDTH_SLOTS = 2
# Every slot mask is an int of up to slot_count bits, and a guard band adds
# its width to a shifted mask, so both are bounded to keep each mask small
# whatever a file says. The paper's band has 160 slots; C+L at 25 GHz is
# about 480.
MAX_SLOT_COUNT = 1024
# no band holds more natives than this, so no neighbor count exceeds it
MAX_NEIGHBOR_COUNT = MAX_SLOT_COUNT // NATIVE_WIDTH_SLOTS


class Modulation(Enum):
    BPSK = "BPSK"
    QPSK = "QPSK"


class Feasibility(Enum):
    INFEASIBLE = "Infeasible"
    MARGINAL = "Marginal"
    OK = "Ok"


@_schema.document("thresholds")
class Thresholds:
    """Q floors in dB: hard working minimum and design-practice minimum."""

    hard_min_db: float = HARD_MIN_DB
    design_min_db: float = DESIGN_MIN_DB

    def __post_init__(self) -> None:
        for name in ("hard_min_db", "design_min_db"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.hard_min_db < self.design_min_db:
            raise ValueError(
                f"hard_min_db must be below design_min_db, "
                f"got {self.hard_min_db} >= {self.design_min_db}"
            )


DEFAULT_THRESHOLDS = Thresholds()


@_schema.document("neighbors")
class NeighborConfig:
    """Native channels adjacent to a super-channel, split by guard-band status."""

    guarded_native_count: int = 0
    unguarded_native_count: int = 0
    in_dedicated_partition: bool = False

    def __post_init__(self) -> None:
        if self.guarded_native_count < 0 or self.unguarded_native_count < 0:
            raise ValueError("neighbor counts must be >= 0")
        if self.guarded_native_count > MAX_NEIGHBOR_COUNT or self.unguarded_native_count > MAX_NEIGHBOR_COUNT:
            raise ValueError(f"neighbor counts must be at most {MAX_NEIGHBOR_COUNT}")
        if self.in_dedicated_partition and (
            self.guarded_native_count or self.unguarded_native_count
        ):
            raise ValueError("a super-channel in a dedicated partition has no native neighbors")


def classify_q(value_db: float, thresholds: Thresholds = DEFAULT_THRESHOLDS) -> Feasibility:
    """Classify a Q value against the floors. The hard floor itself fails:
    a signal must be strictly above it to be workable."""
    if value_db <= thresholds.hard_min_db:
        return Feasibility.INFEASIBLE
    if value_db <= thresholds.design_min_db:
        return Feasibility.MARGINAL
    return Feasibility.OK


@_schema.document("q", keys={"feasibility": "class"})
class QEstimate:
    """A predicted Q value and its class against the floors."""

    value_db: float
    feasibility: Feasibility


@_schema.document("point")
class CalibrationPoint:
    """One measured Q value at a known distance and neighbor configuration."""

    distance_km: float
    modulation: Modulation
    neighbor_config: NeighborConfig
    measured_q_db: float

    def __post_init__(self) -> None:
        for name, bound in (("distance_km", MAX_POINT_DISTANCE_KM), ("measured_q_db", MAX_MEASURED_Q_DB)):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value > bound:
                raise ValueError(f"{name} must be at most {bound:g}, got {value}")
        if self.distance_km < 0:
            raise ValueError(f"distance_km must be >= 0, got {self.distance_km}")
        if self.measured_q_db <= 0:
            raise ValueError(f"measured_q_db must be > 0, got {self.measured_q_db}")


@_schema.document("model")
class QModel:
    """Empirical Q model: per-modulation baseline, distance slope, and
    additive neighbor penalties. Immutable once calibrated."""

    l_ref_km: float
    q_ref_db: dict[Modulation, float]
    slope_db_per_km: dict[Modulation, float]
    p_guard_db: dict[Modulation, float]
    p_unguard_db: dict[Modulation, float]
    roadm_penalty_db: float = 0.0

    def __post_init__(self) -> None:
        for name in ("q_ref_db", "slope_db_per_km", "p_guard_db", "p_unguard_db"):
            mapping = getattr(self, name)
            missing = [m.value for m in Modulation if m not in mapping]
            if missing:
                raise ValueError(f"{name} is missing modulations: {', '.join(missing)}")
        for name in ("slope_db_per_km", "p_guard_db", "p_unguard_db"):
            for modulation, value in getattr(self, name).items():
                if value < 0:
                    raise ValueError(f"{name}[{modulation.value}] must be >= 0, got {value}")
        if self.roadm_penalty_db < 0:
            raise ValueError(f"roadm_penalty_db must be >= 0, got {self.roadm_penalty_db}")
        if not self.q_ref_db[Modulation.BPSK] > self.q_ref_db[Modulation.QPSK]:
            raise ValueError(
                "q_ref_db[BPSK] must exceed q_ref_db[QPSK]; "
                f"got {self.q_ref_db[Modulation.BPSK]} <= {self.q_ref_db[Modulation.QPSK]}"
            )


def _at_reference(point: CalibrationPoint, l_ref_km: float) -> bool:
    return math.isclose(point.distance_km, l_ref_km, rel_tol=0.0, abs_tol=1e-6)


def _zero_neighbors(point: CalibrationPoint) -> bool:
    cfg = point.neighbor_config
    return cfg.guarded_native_count == 0 and cfg.unguarded_native_count == 0


# the roles that each modulation's points at the reference distance must cover
_REFERENCE_ROLES = (
    ("zero-neighbor baseline", _zero_neighbors),
    ("guarded-neighbor", lambda p: p.neighbor_config.guarded_native_count > 0),
    ("unguarded-neighbor", lambda p: p.neighbor_config.unguarded_native_count > 0),
)


def _least_squares(rows: list[list[float]], rhs: list[float]) -> tuple[list[float], int]:
    """Least-squares solution of ``rows · x = rhs`` and the numerical rank of
    ``rows``, by Householder QR with column pivoting. The solution is only
    meaningful when the rank equals the column count."""
    m, n = len(rows), len(rows[0])
    a = [list(row) + [value] for row, value in zip(rows, rhs)]  # rhs rides as column n
    order = list(range(n))
    rank = 0
    tolerance = 0.0
    for k in range(min(m, n)):
        # pivot on the remaining column with the largest norm below row k
        norms = [math.fsum(a[i][j] ** 2 for i in range(k, m)) for j in range(k, n)]
        p = k + max(range(n - k), key=norms.__getitem__)
        for row in a:
            row[k], row[p] = row[p], row[k]
        order[k], order[p] = order[p], order[k]
        norm = math.sqrt(norms[p - k])
        if k == 0:
            tolerance = max(m, n) * sys.float_info.epsilon * norm
        if norm <= tolerance:
            break
        rank += 1
        # the reflection that maps column k below row k onto a multiple of e_k
        v = [a[i][k] for i in range(k, m)]
        v[0] += norm if v[0] > 0 else -norm
        scale = 2.0 / math.fsum(x * x for x in v)
        for j in range(k, n + 1):
            factor = scale * math.fsum(v[i - k] * a[i][j] for i in range(k, m))
            for i in range(k, m):
                a[i][j] -= factor * v[i - k]
    solution = [0.0] * n
    for k in reversed(range(rank)):
        tail = math.fsum(a[k][j] * solution[order[j]] for j in range(k + 1, rank))
        solution[order[k]] = (a[k][n] - tail) / a[k][k]
    return solution, rank


def check_l_ref(l_ref_km: float) -> None:
    """Raise CalibrationError unless *l_ref_km* is a finite reference
    distance that a calibration point can lie at."""
    if not math.isfinite(l_ref_km):
        raise CalibrationError(f"l_ref_km must be finite, got {l_ref_km}")
    if l_ref_km < 0:
        raise CalibrationError(f"l_ref_km must be >= 0, got {l_ref_km}")


def calibrate(points: list[CalibrationPoint], l_ref_km: float = DEFAULT_L_REF_KM) -> QModel:
    """Solve the model exactly from measured points.

    Per modulation the points must cover three roles at the reference
    distance: a clean (zero-neighbor) baseline, a guarded-neighbor
    configuration, and one that includes unguarded neighbors. At least one
    modulation additionally needs a clean point away from the reference
    distance to pin the slope; a modulation without one inherits the other's
    slope. Redundant points are tolerated only when consistent: the solve is
    checked to a 1e-9 residual.
    """
    check_l_ref(l_ref_km)
    by_modulation: dict[Modulation, list[CalibrationPoint]] = {m: [] for m in Modulation}
    for point in points:
        by_modulation[point.modulation].append(point)

    for modulation, group in by_modulation.items():
        at_reference = [p for p in group if _at_reference(p, l_ref_km)]
        for role, test in _REFERENCE_ROLES:
            if not any(test(p) for p in at_reference):
                raise CalibrationError(f"{modulation.value}: missing {role} point at {l_ref_km} km")

    has_long = {
        m: any(not _at_reference(p, l_ref_km) and _zero_neighbors(p) for p in group)
        for m, group in by_modulation.items()
    }
    if not any(has_long.values()):
        raise CalibrationError(
            "missing long-distance zero-neighbor point: no modulation has a clean "
            f"measurement away from {l_ref_km} km, so no slope can be solved"
        )

    q_ref: dict[Modulation, float] = {}
    p_guard: dict[Modulation, float] = {}
    p_unguard: dict[Modulation, float] = {}
    slope: dict[Modulation, float] = {}

    for modulation, group in by_modulation.items():
        # Columns: q_ref, p_guard, p_unguard, and slope when this modulation
        # has distance diversity. Every point of the modulation participates
        # so inconsistent duplicates surface as residual.
        with_slope = has_long[modulation]
        rows = []
        rhs = []
        for point in group:
            cfg = point.neighbor_config
            row = [1.0, -float(cfg.guarded_native_count), -float(cfg.unguarded_native_count)]
            if with_slope:
                row.append(-(point.distance_km - l_ref_km))
            rows.append(row)
            rhs.append(point.measured_q_db)
        solution, rank = _least_squares(rows, rhs)
        if rank < len(rows[0]):
            raise CalibrationError(
                f"{modulation.value}: calibration points do not separate all model "
                f"terms (rank {rank} of {len(rows[0])})"
            )
        residual = max(
            abs(math.fsum(a * x for a, x in zip(row, solution)) - b) for row, b in zip(rows, rhs)
        )
        if residual > _SOLVE_TOLERANCE:
            raise CalibrationError(
                f"{modulation.value}: inconsistent duplicate points, "
                f"residual {residual:.3e} exceeds {_SOLVE_TOLERANCE:.0e}"
            )
        q_ref[modulation] = solution[0]
        p_guard[modulation] = solution[1]
        p_unguard[modulation] = solution[2]
        if with_slope:
            slope[modulation] = solution[3]

    for modulation in Modulation:
        if modulation not in slope:
            other = next(m for m in slope)
            slope[modulation] = slope[other]

    try:
        return QModel(
            l_ref_km=l_ref_km,
            q_ref_db=q_ref,
            slope_db_per_km=slope,
            p_guard_db=p_guard,
            p_unguard_db=p_unguard,
        )
    except ValueError as err:
        raise CalibrationError(str(err)) from None


def neighbor_penalty(model: QModel, neighbors: NeighborConfig, modulation: Modulation) -> float:
    """Total additive dB penalty from adjacent natives; zero inside a
    dedicated partition."""
    if neighbors.in_dedicated_partition:
        return 0.0
    return (
        model.p_guard_db[modulation] * neighbors.guarded_native_count
        + model.p_unguard_db[modulation] * neighbors.unguarded_native_count
    )


def estimate_q(
    model: QModel,
    metrics: PathMetrics,
    modulation: Modulation,
    neighbors: NeighborConfig,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> QEstimate:
    """Predict Q for a modulation over a path in a given neighbor context."""
    value = (
        model.q_ref_db[modulation]
        - model.slope_db_per_km[modulation] * (metrics.distance_km - model.l_ref_km)
        - neighbor_penalty(model, neighbors, modulation)
        - model.roadm_penalty_db * metrics.roadm_count
    )
    return QEstimate(value_db=value, feasibility=classify_q(value, thresholds))
