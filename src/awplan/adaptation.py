"""Adaptation-layer power leveling: attenuator settings toward a flat profile.

Alien carriers enter the host line through attenuators, so leveling can only
remove power. Channels measured below the target cannot be raised; they are
reported as clipped instead of silently adjusted, and any clipped channel
fails its node in the equalization summary.
"""

from __future__ import annotations

import math

from . import _schema
from .errors import AdaptationError
from .spectrum import SpectrumGrid


@_schema.document("reading")
class PowerReading:
    """Measured per-channel power at one tap point."""

    channel_ref: str
    power_dbm: float

    def __post_init__(self) -> None:
        if not self.channel_ref:
            raise ValueError("channel_ref must be non-empty")
        if not math.isfinite(self.power_dbm):
            raise ValueError(f"power_dbm must be finite, got {self.power_dbm}")


@_schema.document("setting")
class VoaSetting:
    """Per-channel attenuation; an attenuator cannot amplify."""

    channel_ref: str
    attenuation_db: float

    def __post_init__(self) -> None:
        if not self.channel_ref:
            raise ValueError("channel_ref must be non-empty")
        if self.attenuation_db < 0:
            raise ValueError(f"attenuation_db must be >= 0, got {self.attenuation_db}")


@_schema.document("equalization")
class EqualizationResult:
    """The attenuator settings that level a node's channels, with the worst
    shortfall left and the channels clipped at zero attenuation."""

    settings: tuple[VoaSetting, ...]
    max_residual_db: float
    clipped_channels: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.max_residual_db < 0:
            raise ValueError(f"max_residual_db must be >= 0, got {self.max_residual_db}")


def compute_voa_settings(
    readings: list[PowerReading] | tuple[PowerReading, ...], target_dbm: float
) -> EqualizationResult:
    """Level every channel to *target_dbm* by attenuation alone.

    Channels above target get the exact attenuation to reach it; channels
    below target are clipped at zero attenuation and reported, leaving their
    shortfall in the residual.
    """
    if not readings:
        raise AdaptationError("cannot equalize an empty set of readings")
    if not math.isfinite(target_dbm):
        raise AdaptationError(f"target_dbm must be finite, got {target_dbm}")

    settings = tuple(VoaSetting(r.channel_ref, max(0.0, r.power_dbm - target_dbm)) for r in readings)
    clipped = tuple(r.channel_ref for r in readings if r.power_dbm < target_dbm)
    # a residual is the clipped shortfall: a levelled channel meets the target,
    # and float subtraction is monotone, so the worst is the weakest channel's
    residual = max(0.0, target_dbm - min(r.power_dbm for r in readings))
    return EqualizationResult(settings, residual, clipped)


@_schema.document("node_summary")
class NodeEqualizationSummary:
    """One node's equalization outcome against the flatness tolerance."""

    node_id: str
    passed: bool
    max_residual_db: float
    clipped_channels: tuple[str, ...]
    unknown_channel_refs: tuple[str, ...]


@_schema.document("equalization_report")
class EqualizationReport:
    """The equalization outcome of every node of a grid."""

    flatness_tolerance_db: float
    nodes: tuple[NodeEqualizationSummary, ...]

    @property
    def all_passed(self) -> bool:
        return all(node.passed for node in self.nodes)


DEFAULT_FLATNESS_TOLERANCE_DB = 1.0


def equalization_report(
    grid: SpectrumGrid,
    results_by_node: dict[str, EqualizationResult],
    flatness_tolerance_db: float = DEFAULT_FLATNESS_TOLERANCE_DB,
) -> EqualizationReport:
    """Per-node pass/fail against a flatness tolerance.

    A node passes when its residual is within tolerance and nothing clipped.
    Settings naming channels absent from the grid are surfaced per node; they
    do not affect pass/fail, which is purely a power criterion.
    """
    if flatness_tolerance_db <= 0:
        raise AdaptationError(
            f"flatness_tolerance_db must be > 0, got {flatness_tolerance_db}"
        )
    known = grid.occupant_ids()
    summaries = []
    for node_id in sorted(results_by_node):
        result = results_by_node[node_id]
        unknown = tuple(sorted({setting.channel_ref for setting in result.settings} - known))
        passed = result.max_residual_db <= flatness_tolerance_db and not result.clipped_channels
        summaries.append(
            NodeEqualizationSummary(
                node_id=node_id,
                passed=passed,
                max_residual_db=result.max_residual_db,
                clipped_channels=result.clipped_channels,
                unknown_channel_refs=unknown,
            )
        )
    return EqualizationReport(
        flatness_tolerance_db=flatness_tolerance_db, nodes=tuple(summaries)
    )
