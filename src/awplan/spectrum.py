"""C-band spectrum model: native channels, super-channels, guard bands, partitions.

The atomic slot is 25 GHz, so the full C-band is 160 slots. Native channels
occupy 2 slots and start on even slots (the 50 GHz host grid); super-channel
blocks occupy 8 contiguous slots (200 GHz) at any offset. Dedicated
partitions reserve a region for coherent carriers and exclude natives.

Occupancy is held as ``int`` bitmasks on the grid (bit i is slot i) of
native, occupied and partition slots, and each occupancy question is an AND
of a slot window with them. ``place_native``, ``place_superchannel`` and
``carve_dedicated_partition`` are the single validators; the grid each
returns extends its parent's masks and id set by the one addition, so a
replay of n placements builds no mask from every occupant. A window search
(``blocked_starts``) tests every start of a block at once by ORing shifted
masks. First fit searches on working masks (``_WorkingGrid``): it reads the
grid's masks once, takes the lowest start each search leaves, adds the
placement to the working masks, and builds its result grid once per call.
The search is exact, so first fit does not call the validators.
A grid document is loaded in one pass over its occupants (``_seed_loaded``);
the placements are replayed only to word an error.

All operations are pure: they take a grid and return an updated copy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Literal

from . import _schema
from .errors import SchemaError, SpectrumError

SLOT_WIDTH_GHZ = 25.0
NATIVE_WIDTH_SLOTS = 2
NATIVE_FORMAT = "IM-DD"
NATIVE_BITRATES_GBPS = (10, 40)
PAIR_COUNT = 5
CARRIERS_PER_PAIR = 2
MAX_CARRIERS = PAIR_COUNT * CARRIERS_PER_PAIR
# Every slot mask is an int of up to slot_count bits, and a guard band adds
# its width to a shifted mask, so both are bounded to keep each mask small
# whatever a file says. The paper's band has 160 slots; C+L at 25 GHz is
# about 480.
MAX_SLOT_COUNT = 1024


class Modulation(Enum):
    BPSK = "BPSK"
    QPSK = "QPSK"


class OccupantKind(Enum):
    NATIVE = "native"
    SUPERCHANNEL = "superchannel"


@_schema.document("band")
@dataclass(frozen=True)
class BandConfig:
    """Fixed-grid C-band geometry. Slot width and native width are fixed by
    the host technology; only the band size and block width are tunable."""

    slot_width_ghz: float = SLOT_WIDTH_GHZ
    slot_count: int = 160
    native_channel_width_slots: int = NATIVE_WIDTH_SLOTS
    superchannel_width_slots: int = 8

    def __post_init__(self) -> None:
        if self.slot_width_ghz != SLOT_WIDTH_GHZ:
            raise ValueError(f"slot_width_ghz is fixed at {SLOT_WIDTH_GHZ}")
        if self.native_channel_width_slots != NATIVE_WIDTH_SLOTS:
            raise ValueError(f"native_channel_width_slots is fixed at {NATIVE_WIDTH_SLOTS}")
        if self.slot_count <= 0 or self.slot_count % 2 != 0:
            raise ValueError(f"slot_count must be a positive even integer, got {self.slot_count}")
        if self.slot_count > MAX_SLOT_COUNT:
            raise ValueError(f"slot_count must be at most {MAX_SLOT_COUNT}, got {self.slot_count}")
        if not 0 < self.superchannel_width_slots <= self.slot_count:
            raise ValueError(
                f"superchannel_width_slots must be in 1..{self.slot_count}, "
                f"got {self.superchannel_width_slots}"
            )


@_schema.document("native", optional=("bitrate_gbps", "format"))
@dataclass(frozen=True)
class NativeChannel:
    """A host-domain IM-DD channel on the 50 GHz grid."""

    id: str
    start_slot: int
    bitrate_gbps: int = 10
    format: Literal["IM-DD"] = NATIVE_FORMAT

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("native channel id must be non-empty")
        if self.bitrate_gbps not in NATIVE_BITRATES_GBPS:
            raise ValueError(
                f"native bitrate must be one of {NATIVE_BITRATES_GBPS}, got {self.bitrate_gbps}"
            )
        if self.format != NATIVE_FORMAT:
            raise ValueError(f"native format is fixed at {NATIVE_FORMAT!r}")

    @property
    def end_slot(self) -> int:
        """First slot after the channel."""
        return self.start_slot + NATIVE_WIDTH_SLOTS


@_schema.document("pair", optional=("enabled",))
@dataclass(frozen=True)
class CarrierPair:
    """Two carriers of a super-channel sharing one modulation setting."""

    index: int
    modulation: Modulation
    enabled: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.index < PAIR_COUNT:
            raise ValueError(f"pair index must be in 0..{PAIR_COUNT - 1}, got {self.index}")


def default_pairs(modulation: Modulation = Modulation.QPSK) -> tuple[CarrierPair, ...]:
    """Five enabled pairs with a uniform modulation."""
    return tuple(CarrierPair(index=i, modulation=modulation) for i in range(PAIR_COUNT))


# shared by every block built without pairs: pairs are frozen, so one tuple serves
DEFAULT_PAIRS = default_pairs()


@_schema.document("superchannel")
@dataclass(frozen=True)
class SuperChannel:
    """A coherent block of 10 carriers managed as one entity.

    ``active_carriers`` is normally twice the enabled pair count; placing the
    block in a dedicated partition may sacrifice one edge carrier, so one
    fewer is also legal.
    """

    id: str
    start_slot: int
    width_slots: int = 8
    pairs: tuple[CarrierPair, ...] = DEFAULT_PAIRS
    active_carriers: int = MAX_CARRIERS

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("super-channel id must be non-empty")
        if self.width_slots <= 0:
            raise ValueError(f"super-channel width must be > 0, got {self.width_slots}")
        if len(self.pairs) != PAIR_COUNT:
            raise ValueError(f"a super-channel has exactly {PAIR_COUNT} pairs, got {len(self.pairs)}")
        if tuple(sorted(p.index for p in self.pairs)) != tuple(range(PAIR_COUNT)):
            raise ValueError("pair indices must be 0..4 with no duplicates")
        if not 0 <= self.active_carriers <= MAX_CARRIERS:
            raise ValueError(f"active_carriers must be in 0..{MAX_CARRIERS}, got {self.active_carriers}")
        full = CARRIERS_PER_PAIR * sum(1 for p in self.pairs if p.enabled)
        if self.active_carriers not in (full, max(full - 1, 0)):
            raise ValueError(
                f"active_carriers must be {full} or {max(full - 1, 0)} "
                f"for {full // 2} enabled pairs, got {self.active_carriers}"
            )

    @property
    def end_slot(self) -> int:
        return self.start_slot + self.width_slots

    def pair_by_index(self, index: int) -> CarrierPair:
        for pair in self.pairs:
            if pair.index == index:
                return pair
        raise KeyError(index)

    # hand-written: pairs are written sorted by index, whatever their tuple order
    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "start_slot": self.start_slot,
            "width_slots": self.width_slots,
            "pairs": [pair.to_dict() for pair in sorted(self.pairs, key=lambda p: p.index)],
            "active_carriers": self.active_carriers,
        }


@_schema.document("partition")
@dataclass(frozen=True)
class DedicatedPartition:
    """A contiguous region reserved for coherent carriers; natives are kept out.
    Boundaries align to the 50 GHz native grid."""

    start_slot: int
    width_slots: int

    def __post_init__(self) -> None:
        if self.width_slots <= 0:
            raise ValueError(f"partition width must be > 0, got {self.width_slots}")
        if self.start_slot % 2 != 0 or (self.start_slot + self.width_slots) % 2 != 0:
            raise ValueError(
                f"partition boundaries must align to the 50GHz grid, "
                f"got [{self.start_slot}, {self.start_slot + self.width_slots})"
            )

    @property
    def end_slot(self) -> int:
        return self.start_slot + self.width_slots

    def contains(self, start: int, end: int) -> bool:
        return self.start_slot <= start and end <= self.end_slot

    def overlaps(self, start: int, end: int) -> bool:
        return start < self.end_slot and self.start_slot < end


@_schema.document("neighbors")
@dataclass(frozen=True)
class NeighborConfig:
    """Native channels adjacent to a super-channel, split by guard-band status."""

    guarded_native_count: int = 0
    unguarded_native_count: int = 0
    in_dedicated_partition: bool = False

    def __post_init__(self) -> None:
        if self.guarded_native_count < 0 or self.unguarded_native_count < 0:
            raise ValueError("neighbor counts must be >= 0")
        if self.in_dedicated_partition and (
            self.guarded_native_count or self.unguarded_native_count
        ):
            raise ValueError("a super-channel in a dedicated partition has no native neighbors")


def check_guard_band(guard: int, error: type[Exception] = SpectrumError) -> None:
    """Raise *error* unless *guard* is a guard band width of 0 to
    ``MAX_SLOT_COUNT`` slots."""
    if guard < 0:
        raise error(f"guard_band_slots must be >= 0, got {guard}")
    if guard > MAX_SLOT_COUNT:
        raise error(f"guard_band_slots must be at most {MAX_SLOT_COUNT}, got {guard}")


def slot_span(start: int, end: int) -> int:
    """Bitmask of the slots [start, end)."""
    return ((1 << (end - start)) - 1) << start


def _outside_band(block, slot_count: int) -> SpectrumError:
    name = "partition" if isinstance(block, DedicatedPartition) else f"occupant {block.id!r}"
    return SpectrumError(
        f"{name}: slots [{block.start_slot}, {block.end_slot}) fall outside the {slot_count}-slot band"
    )


def _spans(blocks, slot_count: int) -> int:
    """Bitmask of the slots the blocks cover; each must lie inside the band."""
    mask = 0
    for block in blocks:
        start, end = block.start_slot, block.end_slot
        if start < 0 or end > slot_count:
            raise _outside_band(block, slot_count)
        mask |= slot_span(start, end)
    return mask


@_schema.document("grid")
@dataclass(frozen=True)
class SpectrumGrid:
    """The band and its occupants. The slot masks and the id set are cached
    on first use, or seeded by the placement that made the grid; they are not
    fields, so equality, repr and serialization ignore them."""

    band: BandConfig = field(default_factory=BandConfig)
    natives: tuple[NativeChannel, ...] = ()
    superchannels: tuple[SuperChannel, ...] = ()
    partitions: tuple[DedicatedPartition, ...] = ()

    @cached_property
    def native_mask(self) -> int:
        return _spans(self.natives, self.band.slot_count)

    @cached_property
    def occupied_mask(self) -> int:
        """Slots held by any occupant; raises if two occupants share a slot."""
        blocks = self.natives + self.superchannels
        mask = _spans(blocks, self.band.slot_count)
        if mask.bit_count() < sum(block.end_slot - block.start_slot for block in blocks):
            self.occupant_map()  # raises, naming both owners
        return mask

    @cached_property
    def partition_mask(self) -> int:
        return _spans(self.partitions, self.band.slot_count)

    @cached_property
    def _occupant_ids(self) -> frozenset[str]:
        return frozenset(n.id for n in self.natives) | {sc.id for sc in self.superchannels}

    def occupant_map(self) -> dict[int, tuple[OccupantKind, str]]:
        """Slot -> owner map; raises if two occupants ever share a slot."""
        owners: dict[int, tuple[OccupantKind, str]] = {}
        for native in self.natives:
            for slot in range(native.start_slot, native.end_slot):
                if slot in owners:
                    raise SpectrumError(
                        f"slot {slot} owned by both {owners[slot][1]!r} and {native.id!r}"
                    )
                owners[slot] = (OccupantKind.NATIVE, native.id)
        for sc in self.superchannels:
            for slot in range(sc.start_slot, sc.end_slot):
                if slot in owners:
                    raise SpectrumError(
                        f"slot {slot} owned by both {owners[slot][1]!r} and {sc.id!r}"
                    )
                owners[slot] = (OccupantKind.SUPERCHANNEL, sc.id)
        return owners

    def occupant_ids(self) -> frozenset[str]:
        return self._occupant_ids

    def find_superchannel(self, sc_id: str) -> SuperChannel | None:
        for sc in self.superchannels:
            if sc.id == sc_id:
                return sc
        return None

    def partition_containing(self, start: int, end: int) -> DedicatedPartition | None:
        for partition in self.partitions:
            if partition.contains(start, end):
                return partition
        return None

    # hand-written: a grid's placement rules span its occupants, not one field
    @classmethod
    def from_dict(cls, data: dict, path: str = "grid") -> "SpectrumGrid":
        """Load a grid, checking every placement rule on load. All occupants
        are checked at once on slot masks, and the grid read from *data* is
        returned with its masks and id set seeded. Only when a rule fails are
        the placements replayed one by one, so that the error names the first
        placement that breaks a rule, worded as that placement words it."""
        parsed = cls._read_fields(data, path)
        if _seed_loaded(parsed):
            return parsed
        grid = cls(band=parsed.band)
        try:
            for part in parsed.partitions:
                grid = carve_dedicated_partition(grid, part.start_slot, part.width_slots)
            for native in parsed.natives:
                grid = place_native(grid, native)
            for sc in parsed.superchannels:
                grid = place_superchannel(grid, sc)
        except SpectrumError as err:
            raise SchemaError(f"{path}: {err}") from None
        return grid


def _seed_loaded(grid: SpectrumGrid) -> bool:
    """Check a grid's occupants against every rule that replaying their
    placements would check, all at once, and seed its masks and id set.
    False, with nothing seeded, when any rule fails."""
    count, width = grid.band.slot_count, grid.band.superchannel_width_slots
    natives, blocks, partitions = grid.natives, grid.superchannels, grid.partitions
    if any(native.start_slot % 2 for native in natives) or any(sc.width_slots != width for sc in blocks):
        return False
    try:  # each block is tested against the band before a mask is shifted to it
        partition_mask = _spans(partitions, count)
        native_mask = _spans(natives, count)
        block_mask = _spans(blocks, count)
    except SpectrumError:
        return False
    occupied_mask = native_mask | block_mask
    ids = frozenset([native.id for native in natives] + [sc.id for sc in blocks])
    if (
        partition_mask.bit_count() != sum(part.width_slots for part in partitions)
        or occupied_mask.bit_count() != NATIVE_WIDTH_SLOTS * len(natives) + width * len(blocks)
        or native_mask & partition_mask
        or len(ids) != len(natives) + len(blocks)
        # a block meets no partition, or lies wholly inside one
        or block_mask & partition_mask
        and any(
            slot_span(sc.start_slot, sc.end_slot) & partition_mask
            and grid.partition_containing(sc.start_slot, sc.end_slot) is None
            for sc in blocks
        )
    ):
        return False
    grid.__dict__.update(
        native_mask=native_mask,
        occupied_mask=occupied_mask,
        partition_mask=partition_mask,
        _occupant_ids=ids,
    )
    return True


def _seeded(
    child: SpectrumGrid, parent: SpectrumGrid, *, native: int = 0, occupied: int = 0,
    partition: int = 0, new_ids: set[str] | frozenset[str] = frozenset(),
) -> SpectrumGrid:
    """*child* is *parent* plus validated additions. Seed its masks and id
    set with *parent*'s plus the added slots and ids, instead of a rebuild
    from every occupant."""
    ids = parent.occupant_ids()
    child.__dict__.update(
        native_mask=parent.native_mask | native,
        occupied_mask=parent.occupied_mask | occupied,
        partition_mask=parent.partition_mask | partition,
        _occupant_ids=ids | new_ids if new_ids else ids,
    )
    return child


def empty_grid(band: BandConfig | None = None) -> SpectrumGrid:
    return SpectrumGrid(band=band or BandConfig())


def _check_occupancy(grid: SpectrumGrid, start: int, end: int, occupant_id: str) -> None:
    if occupant_id in grid.occupant_ids():
        raise SpectrumError(f"occupant id {occupant_id!r} already present in grid")
    clash = grid.occupied_mask & slot_span(start, end)
    if clash:
        slot = (clash & -clash).bit_length() - 1
        owner = grid.occupant_map()[slot][1]
        raise SpectrumError(f"{occupant_id!r} would overlap {owner!r} at slot {slot}")


def place_native(grid: SpectrumGrid, channel: NativeChannel) -> SpectrumGrid:
    """Place a native channel; rejects misalignment, overlap, partition
    intrusion, and out-of-band positions."""
    if channel.start_slot % 2 != 0:
        raise SpectrumError(
            f"native {channel.id!r}: start_slot {channel.start_slot} is not aligned "
            f"to the 50GHz native grid"
        )
    if channel.start_slot < 0 or channel.end_slot > grid.band.slot_count:
        raise SpectrumError(
            f"native {channel.id!r}: slots [{channel.start_slot}, {channel.end_slot}) "
            f"fall outside the {grid.band.slot_count}-slot band"
        )
    if grid.partition_mask & slot_span(channel.start_slot, channel.end_slot):
        partition = next(p for p in grid.partitions if p.overlaps(channel.start_slot, channel.end_slot))
        raise SpectrumError(
            f"native {channel.id!r}: placement inside dedicated partition "
            f"[{partition.start_slot}, {partition.end_slot})"
        )
    _check_occupancy(grid, channel.start_slot, channel.end_slot, channel.id)
    span = slot_span(channel.start_slot, channel.end_slot)
    child = SpectrumGrid(grid.band, grid.natives + (channel,), grid.superchannels, grid.partitions)
    return _seeded(child, grid, native=span, occupied=span, new_ids={channel.id})


def place_superchannel(grid: SpectrumGrid, sc: SuperChannel) -> SpectrumGrid:
    """Place a super-channel block; it must lie fully inside or fully outside
    every dedicated partition."""
    if sc.width_slots != grid.band.superchannel_width_slots:
        raise SpectrumError(
            f"super-channel {sc.id!r}: width {sc.width_slots} does not match the "
            f"configured block width {grid.band.superchannel_width_slots}"
        )
    if sc.start_slot < 0 or sc.end_slot > grid.band.slot_count:
        raise SpectrumError(
            f"super-channel {sc.id!r}: slots [{sc.start_slot}, {sc.end_slot}) "
            f"fall outside the {grid.band.slot_count}-slot band"
        )
    if grid.partition_mask & slot_span(sc.start_slot, sc.end_slot) and (
        grid.partition_containing(sc.start_slot, sc.end_slot) is None
    ):
        partition = next(p for p in grid.partitions if p.overlaps(sc.start_slot, sc.end_slot))
        raise SpectrumError(
            f"super-channel {sc.id!r}: straddles the partition boundary at "
            f"[{partition.start_slot}, {partition.end_slot})"
        )
    _check_occupancy(grid, sc.start_slot, sc.end_slot, sc.id)
    child = SpectrumGrid(grid.band, grid.natives, grid.superchannels + (sc,), grid.partitions)
    return _seeded(child, grid, occupied=slot_span(sc.start_slot, sc.end_slot), new_ids={sc.id})


def carve_dedicated_partition(grid: SpectrumGrid, start_slot: int, width_slots: int) -> SpectrumGrid:
    """Reserve [start_slot, start_slot + width_slots) for coherent carriers.

    The region must be free of native channels; existing super-channels
    wholly inside it are allowed and become in-partition occupants, but none
    may cross its boundary.
    """
    if width_slots <= 0:
        raise SpectrumError(f"partition width must be > 0, got {width_slots}")
    end_slot = start_slot + width_slots
    if start_slot % 2 != 0 or end_slot % 2 != 0:
        raise SpectrumError(
            f"partition [{start_slot}, {end_slot}) is not aligned to the 50GHz grid"
        )
    if start_slot < 0 or end_slot > grid.band.slot_count:
        raise SpectrumError(
            f"partition [{start_slot}, {end_slot}) falls outside the "
            f"{grid.band.slot_count}-slot band"
        )
    span = slot_span(start_slot, end_slot)
    if grid.partition_mask & span:
        existing = next(p for p in grid.partitions if p.overlaps(start_slot, end_slot))
        raise SpectrumError(
            f"partition [{start_slot}, {end_slot}) overlaps existing partition "
            f"[{existing.start_slot}, {existing.end_slot})"
        )
    if grid.native_mask & span:
        native = next(n for n in grid.natives if start_slot < n.end_slot and n.start_slot < end_slot)
        raise SpectrumError(
            f"partition [{start_slot}, {end_slot}) region contains native {native.id!r}"
        )
    for sc in grid.superchannels:
        if sc.start_slot < start_slot < sc.end_slot or sc.start_slot < end_slot < sc.end_slot:
            raise SpectrumError(
                f"partition [{start_slot}, {end_slot}) would cut super-channel {sc.id!r} "
                f"at [{sc.start_slot}, {sc.end_slot})"
            )
    partition = DedicatedPartition(start_slot=start_slot, width_slots=width_slots)
    child = SpectrumGrid(grid.band, grid.natives, grid.superchannels, grid.partitions + (partition,))
    return _seeded(child, grid, partition=span)


def _mirror(mask: int, width: int) -> int:
    """The low *width* bits of *mask* in reverse order."""
    return int(format(mask & ((1 << width) - 1), f"0{width}b")[::-1], 2)


def _scan_outward(natives: int, blockers: int, guard_band_slots: int) -> tuple[int, int]:
    """Count (guarded, unguarded) natives beyond one edge of a block.

    Bit i of both masks is the i-th slot out from the edge. The scan stops
    at the first blocker slot (another super-channel). The nearest native and
    every native directly abutting it form a chain classified by the chain
    head's gap to the block edge; any further native whose own gap is inside
    the guard window also counts as unguarded. Natives are two slots wide,
    so a run of set bits is a chain of half as many natives.
    """
    if blockers:
        natives &= (blockers & -blockers) - 1
    if not natives:
        return 0, 0
    head_gap = (natives & -natives).bit_length() - 1
    run = natives >> head_gap
    run_slots = (run ^ (run + 1)).bit_length() - 1
    chain_len = run_slots // NATIVE_WIDTH_SLOTS
    beyond = natives & ~slot_span(head_gap, head_gap + run_slots)
    # a native that starts inside the guard window has one or two slots in it
    beyond_unguarded = ((beyond & ((1 << guard_band_slots) - 1)).bit_count() + 1) // 2
    if head_gap < guard_band_slots:
        return 0, chain_len + beyond_unguarded
    return chain_len, beyond_unguarded


def window_neighbors(
    grid: SpectrumGrid, start: int, end: int, guard_band_slots: int, blockers: int
) -> NeighborConfig:
    """Classify the natives beside a block at [start, end) that lies outside
    every partition; the scan on each side stops at a slot set in *blockers*."""
    check_guard_band(guard_band_slots)
    natives = grid.native_mask
    left = _scan_outward(_mirror(natives, start), _mirror(blockers, start), guard_band_slots)
    right = _scan_outward(natives >> end, blockers >> end, guard_band_slots)
    return NeighborConfig(
        guarded_native_count=left[0] + right[0],
        unguarded_native_count=left[1] + right[1],
    )


def neighbor_context(grid: SpectrumGrid, sc_id: str, guard_band_slots: int) -> NeighborConfig:
    """Classify the native channels adjacent to a placed super-channel."""
    check_guard_band(guard_band_slots)
    sc = grid.find_superchannel(sc_id)
    if sc is None:
        raise SpectrumError(f"unknown super-channel id {sc_id!r}")
    if sc.start_slot < 0 or sc.end_slot > grid.band.slot_count:
        raise _outside_band(sc, grid.band.slot_count)
    if grid.partition_containing(sc.start_slot, sc.end_slot) is not None:
        return NeighborConfig(in_dedicated_partition=True)
    others = _spans(
        (other for other in grid.superchannels if other.id != sc_id), grid.band.slot_count
    )
    return window_neighbors(grid, sc.start_slot, sc.end_slot, guard_band_slots, others)


@_schema.document(
    "request", optional=("guard_band_slots", "partition_only", "bitrate_gbps")
)
@dataclass(frozen=True)
class PlacementRequest:
    kind: OccupantKind
    id: str
    guard_band_slots: int = 0
    partition_only: bool = False
    bitrate_gbps: int = 10

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("request id must be non-empty")
        check_guard_band(self.guard_band_slots, ValueError)
        if self.kind is OccupantKind.NATIVE and self.bitrate_gbps not in NATIVE_BITRATES_GBPS:
            raise ValueError(
                f"native bitrate must be one of {NATIVE_BITRATES_GBPS}, got {self.bitrate_gbps}"
            )


@_schema.document("assignment", optional=("reason",))
@dataclass(frozen=True)
class Assignment:
    request: PlacementRequest
    start_slot: int | None
    reason: str | None = None

    @property
    def placed(self) -> bool:
        return self.start_slot is not None


@_schema.document("allocation")
@dataclass(frozen=True)
class AllocationResult:
    assignments: tuple[Assignment, ...]
    grid: SpectrumGrid


def blocked_starts(mask: int, width: int, guard: int = 0) -> int:
    """Bitmask of the starts s whose window [s - guard, s + width + guard)
    meets *mask*. It ORs *mask* shifted by each offset of the window, so every
    start is tested at once; slots below 0 and past the band hold no bits."""
    check_guard_band(guard)
    # bit s of blocked covers mask bits [s - guard, s - guard + reach)
    blocked, reach, covered = mask << guard, width + 2 * guard, 1
    while covered < reach:
        step = min(covered, reach - covered)
        blocked |= blocked >> step
        covered += step
    return blocked


def fitting_starts(slot_count: int, width: int, even: bool = False) -> int:
    """Bitmask of the starts at which a *width*-slot block lies in the band;
    *even* keeps only the starts on the 50 GHz native grid."""
    starts = slot_span(0, slot_count - width + 1)
    # slot_count is even, so (2**slot_count - 1) // 3 is every even bit below it
    return starts & (((1 << slot_count) - 1) // 3) if even else starts


def partition_starts(grid: SpectrumGrid, width: int) -> int:
    """Bitmask of the starts at which a *width*-slot block lies wholly inside
    one partition."""
    starts = 0
    for partition in grid.partitions:
        if partition.width_slots >= width:
            starts |= slot_span(partition.start_slot, partition.end_slot - width + 1)
    return starts


def lowest_start(starts: int) -> int | None:
    """The lowest start set in *starts*, or None when it is empty."""
    return (starts & -starts).bit_length() - 1 if starts else None


class _WorkingGrid:
    """The occupancy of a grid during one first fit, as masks that take each
    placement in place, with the search constants of its band and partitions
    (partitions are fixed during a call)."""

    __slots__ = ("native_mask", "occupied_mask", "width", "native_starts", "block_starts", "inside_starts")

    def __init__(self, grid: SpectrumGrid) -> None:
        # occupied_mask first: it raises on a double-booked grid, naming both owners
        self.occupied_mask = grid.occupied_mask
        self.native_mask = grid.native_mask
        partitions = grid.partition_mask
        count = grid.band.slot_count
        self.width = width = grid.band.superchannel_width_slots
        # natives are kept out of partitions
        self.native_starts = fitting_starts(count, NATIVE_WIDTH_SLOTS, even=True)
        self.native_starts &= ~blocked_starts(partitions, NATIVE_WIDTH_SLOTS)
        # a block lies wholly inside one partition, or (unless it must sit in
        # one) wholly outside every partition
        fits = fitting_starts(count, width)
        inside = partition_starts(grid, width)
        self.inside_starts = fits & inside
        self.block_starts = fits & (inside | ~blocked_starts(partitions, width))


def _first_fit_start(grid: _WorkingGrid, request: PlacementRequest) -> int | None:
    """The lowest start the working masks allow for a request whose id is
    not yet placed. The test is exact, so placing the request there cannot
    fail."""
    native = request.kind is OccupantKind.NATIVE
    if native and request.partition_only:
        return None  # natives are kept out of partitions
    guard = request.guard_band_slots
    occupied = grid.occupied_mask
    # the guard band separates natives from super-channels
    if native:
        starts = grid.native_starts & ~blocked_starts(occupied, NATIVE_WIDTH_SLOTS)
        return lowest_start(starts & ~blocked_starts(occupied & ~grid.native_mask, NATIVE_WIDTH_SLOTS, guard))
    width = grid.width
    starts = grid.inside_starts if request.partition_only else grid.block_starts
    starts &= ~blocked_starts(occupied, width)
    return lowest_start(starts & ~blocked_starts(grid.native_mask, width, guard))


def first_fit_allocate(
    grid: SpectrumGrid, requests: list[PlacementRequest] | tuple[PlacementRequest, ...]
) -> AllocationResult:
    """Assign each request the lowest feasible start slot, in request order.

    Feasibility honors grid alignment, occupancy, partition rules, and the
    request's guard band. Requests that do not fit anywhere are reported as
    unplaced; they never fail the allocation. An id is placed once.

    Occupancy only grows during a call and partitions are fixed, so once a
    shape (kind, guard band, partition-only) finds no start, no later
    request of that shape is searched. The search is exact, so placements
    go straight onto working masks, and the result grid is built once, with
    its masks and id set seeded; with nothing placed it is *grid* itself.
    """
    assignments: list[Assignment] = []
    failed: set[tuple[bool, int, bool]] = set()
    ids = grid.occupant_ids()
    placed: set[str] = set()
    natives: list[NativeChannel] = []
    blocks: list[SuperChannel] = []
    working = None  # read from the grid at the first search
    # the kind as a bool: an Enum member is looked up and hashed in Python
    native_kind = OccupantKind.NATIVE
    for request in requests:
        native = request.kind is native_kind
        shape = (native, request.guard_band_slots, request.partition_only)
        if request.id in ids or request.id in placed or shape in failed:
            start = None
        else:
            if working is None:
                working = _WorkingGrid(grid)
            start = _first_fit_start(working, request)
            if start is None:
                failed.add(shape)
        if start is None:
            assignments.append(Assignment(request=request, start_slot=None, reason="no feasible window"))
            continue
        placed.add(request.id)
        if native:
            natives.append(NativeChannel(id=request.id, start_slot=start, bitrate_gbps=request.bitrate_gbps))
            span = slot_span(start, start + NATIVE_WIDTH_SLOTS)
            working.native_mask |= span
        else:
            blocks.append(SuperChannel(id=request.id, start_slot=start, width_slots=working.width))
            span = slot_span(start, start + working.width)
        working.occupied_mask |= span
        assignments.append(Assignment(request=request, start_slot=start))
    if placed:
        child = SpectrumGrid(
            grid.band, grid.natives + tuple(natives), grid.superchannels + tuple(blocks), grid.partitions
        )
        grid = _seeded(
            child, grid, native=working.native_mask, occupied=working.occupied_mask, new_ids=placed
        )
    return AllocationResult(assignments=tuple(assignments), grid=grid)


def unique_occupant_id(grid: SpectrumGrid, stem: str) -> str:
    """A fresh occupant id based on *stem* that does not collide with the grid."""
    existing = grid.occupant_ids()
    if stem not in existing:
        return stem
    for i in itertools.count(2):
        candidate = f"{stem}-{i}"
        if candidate not in existing:
            return candidate
    raise AssertionError("unreachable")
