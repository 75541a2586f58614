"""C-band spectrum model: native channels, super-channels, guard bands, partitions.

The atomic slot is 25 GHz, so the full C-band is 160 slots. Native channels
occupy 2 slots and start on even slots (the 50 GHz host grid); super-channel
blocks occupy 8 contiguous slots (200 GHz) at any offset. Dedicated
partitions reserve a region for coherent carriers and exclude natives.

Occupancy is held as ``int`` bitmasks on the grid (bit i is slot i) of
native, occupied and partition slots, and each occupancy question is an AND
of a slot window with them. One mutable state, ``WorkingGrid``, holds a
grid's masks and id set and the occupants added to it; its ``carve`` and
``place`` state each placement rule once. ``place_native``,
``place_superchannel``, ``carve_dedicated_partition`` and
``SpectrumGrid.from_dict`` all run through them: a grid document is loaded
by carving its partitions and placing its occupants, in order, on an empty
state, so an error names the first placement that breaks a rule. Every
grid, however built, gets its masks and id set from that replay, run at
the first read of any of them: once its occupancy is read, any grid holds
to the load's rules, and one that breaks a rule raises the load's error.
The working state also answers where an occupant can go. ``search_starts``
gives the starts of a native and of a block inside and outside partitions;
it is the one statement of which starts lie wholly inside a partition, so
``place`` refuses a block that meets a partition at any other start, and a
placed block that meets a partition lies inside one. ``free_start``, the
one window search, which first fit and the planner's probe ask, gives the
lowest start in a set of windows that meets no occupant and lies a guard
band clear of one mask, testing every start at once by ORing shifted masks
(``blocked_starts``). A guard band is an ``int``, checked where it enters.
First fit adds each placement unchecked, since the search is exact. A
result grid is built once, its masks and id set seeded from the working
state, so no mask is rebuilt from every occupant. A super-channel holds
its pairs in index order.

All operations are pure: they take a grid and return an updated copy.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Literal

from . import _schema
from .errors import SchemaError, SpectrumError
from .perfmodel import MAX_SLOT_COUNT, NATIVE_WIDTH_SLOTS, Modulation, NeighborConfig

SLOT_WIDTH_GHZ = 25.0
NATIVE_FORMAT = "IM-DD"
NATIVE_BITRATES_GBPS = (10, 40)
PAIR_COUNT = 5
CARRIERS_PER_PAIR = 2
MAX_CARRIERS = PAIR_COUNT * CARRIERS_PER_PAIR


class OccupantKind(Enum):
    NATIVE = "native"
    SUPERCHANNEL = "superchannel"


@_schema.document("band")
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
        # the shared default pairs are five enabled pairs, known good
        default = self.pairs is DEFAULT_PAIRS
        if not default and len(self.pairs) != PAIR_COUNT:
            raise ValueError(f"a super-channel has exactly {PAIR_COUNT} pairs, got {len(self.pairs)}")
        if not default:
            # held in index order, so equal blocks compare and write alike
            pairs = tuple(sorted(self.pairs, key=attrgetter("index")))
            if tuple(p.index for p in pairs) != tuple(range(PAIR_COUNT)):
                raise ValueError("pair indices must be 0..4 with no duplicates")
            object.__setattr__(self, "pairs", pairs)
        if not 0 <= self.active_carriers <= MAX_CARRIERS:
            raise ValueError(f"active_carriers must be in 0..{MAX_CARRIERS}, got {self.active_carriers}")
        full = MAX_CARRIERS if default else CARRIERS_PER_PAIR * sum(1 for p in self.pairs if p.enabled)
        if self.active_carriers not in (full, max(full - 1, 0)):
            raise ValueError(
                f"active_carriers must be {full} or {max(full - 1, 0)} "
                f"for {full // 2} enabled pairs, got {self.active_carriers}"
            )

    @property
    def end_slot(self) -> int:
        return self.start_slot + self.width_slots


@_schema.document("partition")
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

    def overlaps(self, start: int, end: int) -> bool:
        return start < self.end_slot and self.start_slot < end


def check_guard_band(guard: int, error: type[Exception] = SpectrumError) -> None:
    """Raise *error* unless *guard* is a guard band width of 0 to
    ``MAX_SLOT_COUNT`` slots, an ``int`` (not a float or a bool)."""
    if type(guard) is not int:
        raise error(f"guard_band_slots must be an integer, got {guard!r}")
    if guard < 0:
        raise error(f"guard_band_slots must be >= 0, got {guard}")
    if guard > MAX_SLOT_COUNT:
        raise error(f"guard_band_slots must be at most {MAX_SLOT_COUNT}, got {guard}")


def slot_span(start: int, end: int) -> int:
    """Bitmask of the slots [start, end)."""
    return ((1 << (end - start)) - 1) << start


def _outside_band(name: str, start: int, end: int, slot_count: int) -> SpectrumError:
    return SpectrumError(f"{name}: slots [{start}, {end}) fall outside the {slot_count}-slot band")


class _Replayed:
    """A grid's slot mask or id set, held in its instance dict. The first
    read of any of them replays the grid's placements on an empty working
    state, as a load does, and seeds all four; a grid that breaks a
    placement rule raises the load's error, and stays unseeded."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, grid: SpectrumGrid | None, owner: type | None = None):
        if grid is None:
            return self
        WorkingGrid.empty(grid.band).carve(grid.partitions).place(grid.natives, grid.superchannels).seed(grid)
        return grid.__dict__[self.name]


@_schema.document("grid")
class SpectrumGrid:
    """The band and its occupants. The slot masks and the id set come from
    the replay of its placements, or are seeded by the working state that
    built the grid, and the planner's probes are cached; they are not
    fields, so equality, repr and serialization ignore them."""

    band: BandConfig = BandConfig()
    natives: tuple[NativeChannel, ...] = ()
    superchannels: tuple[SuperChannel, ...] = ()
    partitions: tuple[DedicatedPartition, ...] = ()

    native_mask = _Replayed()
    occupied_mask = _Replayed()
    partition_mask = _Replayed()
    _occupant_ids = _Replayed()

    @cached_property
    def _contexts(self) -> dict:
        """The planner's probes of this grid (``grid_context_for``), by guard."""
        return {}

    def occupant_map(self) -> dict[int, tuple[OccupantKind, str]]:
        """Slot -> owner map; raises if two occupants ever share a slot."""
        owners: dict[int, tuple[OccupantKind, str]] = {}
        for kind, occupants in ((OccupantKind.NATIVE, self.natives), (OccupantKind.SUPERCHANNEL, self.superchannels)):
            for occupant in occupants:
                for slot in range(occupant.start_slot, occupant.end_slot):
                    if slot in owners:
                        raise SpectrumError(f"slot {slot} owned by both {owners[slot][1]!r} and {occupant.id!r}")
                    owners[slot] = (kind, occupant.id)
        return owners

    def occupant_ids(self) -> frozenset[str]:
        return self._occupant_ids

    # hand-written: a grid's placement rules span its occupants, not one field
    @classmethod
    def from_dict(cls, data: dict, path: str = "grid") -> "SpectrumGrid":
        """Load a grid: reading a mask replays its placements, so an error
        names the first placement that breaks a rule, worded as that
        placement words it. The grid read from *data* is returned with its
        state seeded."""
        grid = cls._read_fields(data, path)
        try:
            grid.occupied_mask
        except SpectrumError as err:
            raise SchemaError(f"{path}: {err}") from None
        return grid


def empty_grid(band: BandConfig | None = None) -> SpectrumGrid:
    return SpectrumGrid(band=band or BandConfig())


class WorkingGrid:
    """The one mutable occupancy state: a grid's masks and id set, and the
    occupants added to it (the grid's own are read, not copied). ``carve``
    and ``place`` check every placement rule, in order; a state that raised
    is discarded. First fit adds what its exact search finds unchecked."""

    __slots__ = (
        "base", "band", "width", "native_mask", "occupied_mask", "partition_mask", "ids", "new_ids",
        "natives", "blocks", "partitions", "starts",
    )

    def __init__(self, base: SpectrumGrid, native: int, occupied: int, partition: int, ids: frozenset[str]) -> None:
        self.base, self.band, self.width = base, base.band, base.band.superchannel_width_slots
        self.native_mask, self.occupied_mask, self.partition_mask, self.ids = native, occupied, partition, ids
        self.new_ids: set[str] = set()
        self.natives, self.blocks, self.partitions = [], [], []  # added, in order
        self.starts: tuple[int, int, int] | None = None  # read at the first search

    @classmethod
    def of(cls, grid: SpectrumGrid) -> WorkingGrid:
        return cls(grid, grid.native_mask, grid.occupied_mask, grid.partition_mask, grid.occupant_ids())

    @classmethod
    def empty(cls, band: BandConfig) -> WorkingGrid:
        """The state of an empty grid over *band*, which has no mask to build."""
        return cls(SpectrumGrid(band), 0, 0, 0, frozenset())

    def carve(self, partitions) -> WorkingGrid:
        """Reserve each partition, in order. The region must lie in the band,
        meet no other partition and hold no native; super-channels wholly
        inside it become in-partition occupants, but none may cross its
        boundary."""
        count, mask, natives = self.band.slot_count, self.partition_mask, self.native_mask
        for partition in partitions:
            start, end = partition.start_slot, partition.end_slot
            if start < 0 or end > count:
                raise SpectrumError(f"partition [{start}, {end}) falls outside the {count}-slot band")
            span = slot_span(start, end)
            if mask & span:
                existing = self._meeting(start, end)
                raise SpectrumError(
                    f"partition [{start}, {end}) overlaps existing partition "
                    f"[{existing.start_slot}, {existing.end_slot})"
                )
            if natives & span:
                native = next(n for n in self.result().natives if partition.overlaps(n.start_slot, n.end_slot))
                raise SpectrumError(f"partition [{start}, {end}) region contains native {native.id!r}")
            for sc in itertools.chain(self.base.superchannels, self.blocks):
                if sc.start_slot < start < sc.end_slot or sc.start_slot < end < sc.end_slot:
                    raise SpectrumError(
                        f"partition [{start}, {end}) would cut super-channel {sc.id!r} "
                        f"at [{sc.start_slot}, {sc.end_slot})"
                    )
            mask |= span
            self.partitions.append(partition)
        self.partition_mask = mask
        self.starts = None  # read from the partitions
        return self

    def place(self, natives, blocks) -> WorkingGrid:
        """Place each native, then each block, in order. A native lies on the
        50 GHz grid, in the band and outside every partition; a block has the
        band's width and lies in the band, wholly inside one partition or
        wholly outside every partition. Each takes a fresh id and free slots."""
        count, width, partitions = self.band.slot_count, self.width, self.partition_mask
        occupied, ids, new_ids, added = self.occupied_mask, self.ids, self.new_ids, self.natives
        native_width, native_fill, block_fill = NATIVE_WIDTH_SLOTS, (1 << NATIVE_WIDTH_SLOTS) - 1, (1 << width) - 1
        for channel in natives:
            name, start = channel.id, channel.start_slot
            if start % 2:
                raise SpectrumError(f"native {name!r}: start_slot {start} is not aligned to the 50GHz native grid")
            if not 0 <= start <= count - native_width:
                raise _outside_band(f"native {name!r}", start, start + native_width, count)
            span = native_fill << start
            if partitions & span:
                partition = self._meeting(start, start + native_width)
                raise SpectrumError(
                    f"native {name!r}: placement inside dedicated partition "
                    f"[{partition.start_slot}, {partition.end_slot})"
                )
            if occupied & span or name in new_ids or name in ids:
                raise self._collision(name, occupied & span)
            occupied |= span
            new_ids.add(name)
            added.append(channel)
        # the slots the natives took are the new ones
        self.native_mask |= occupied ^ self.occupied_mask
        added = self.blocks
        for sc in blocks:
            name, start = sc.id, sc.start_slot
            if sc.width_slots != width:
                raise SpectrumError(
                    f"super-channel {name!r}: width {sc.width_slots} does not match the "
                    f"configured block width {width}"
                )
            if not 0 <= start <= count - width:
                raise _outside_band(f"super-channel {name!r}", start, start + width, count)
            span = block_fill << start
            # a block that meets a partition must start where one holds it whole
            if partitions & span and not (self.starts or self.search_starts())[1] >> start & 1:
                partition = self._meeting(start, start + width)
                raise SpectrumError(
                    f"super-channel {name!r}: straddles the partition boundary at "
                    f"[{partition.start_slot}, {partition.end_slot})"
                )
            if occupied & span or name in new_ids or name in ids:
                raise self._collision(name, occupied & span)
            occupied |= span
            new_ids.add(name)
            added.append(sc)
        self.occupied_mask = occupied
        return self

    # errors are worded from the occupants so far, built as a grid whose masks go unread
    def _meeting(self, start: int, end: int) -> DedicatedPartition:
        """The first partition that meets the slots [start, end)."""
        return next(p for p in self.result().partitions if p.overlaps(start, end))

    def _collision(self, name: str, clash: int) -> SpectrumError:
        """The error of an occupant whose id is taken, or else whose slots
        *clash* with another occupant's."""
        if name in self.ids or name in self.new_ids:
            return SpectrumError(f"occupant id {name!r} already present in grid")
        slot = lowest_start(clash)
        return SpectrumError(f"{name!r} would overlap {self.result().occupant_map()[slot][1]!r} at slot {slot}")

    def search_starts(self) -> tuple[int, int, int]:
        """The starts the searches try before occupancy is applied, as three
        masks: those of a native, which lies outside every partition; of a
        block wholly inside one partition; and of a block wholly outside every
        partition. Each lies in the band. ``place`` reads the second of a block
        that meets a partition. They are kept in ``starts`` until a carve."""
        count, width, partitions = self.band.slot_count, self.width, self.partition_mask
        native = fitting_starts(count, NATIVE_WIDTH_SLOTS, even=True) & ~blocked_starts(partitions, NATIVE_WIDTH_SLOTS)
        fits, inside = fitting_starts(count, width), 0
        for partition in itertools.chain(self.base.partitions, self.partitions):
            if partition.width_slots >= width:
                inside |= slot_span(partition.start_slot, partition.end_slot - width + 1)
        self.starts = native, fits & inside, fits & ~blocked_starts(partitions, width)
        return self.starts

    def free_start(self, windows: int, width: int, guard: int = 0, kept_from: int = 0) -> int | None:
        """The lowest start in *windows* where a *width*-slot occupant meets no
        occupant and lies *guard* slots clear of each slot of *kept_from*."""
        windows &= ~blocked_starts(self.occupied_mask, width)
        if kept_from:
            windows &= ~blocked_starts(kept_from, width, guard)
        return lowest_start(windows)

    def seed(self, grid: SpectrumGrid) -> SpectrumGrid:
        """*grid*, whose occupants are this state's, with its masks and id set seeded."""
        ids = self.ids | self.new_ids if self.new_ids else self.ids
        native, occupied, partition = self.native_mask, self.occupied_mask, self.partition_mask
        grid.__dict__.update(native_mask=native, occupied_mask=occupied, partition_mask=partition, _occupant_ids=ids)
        return grid

    def result(self) -> SpectrumGrid:
        """The grid this state holds, built once and seeded; the grid it was
        read from when nothing was added."""
        base = self.base
        if not (self.natives or self.blocks or self.partitions):
            return base
        return self.seed(SpectrumGrid(
            base.band, base.natives + tuple(self.natives), base.superchannels + tuple(self.blocks),
            base.partitions + tuple(self.partitions),
        ))


def place_native(grid: SpectrumGrid, channel: NativeChannel) -> SpectrumGrid:
    """Place a native channel; rejects misalignment, overlap, partition
    intrusion, and out-of-band positions."""
    return WorkingGrid.of(grid).place((channel,), ()).result()


def place_superchannel(grid: SpectrumGrid, sc: SuperChannel) -> SpectrumGrid:
    """Place a super-channel block; it must lie fully inside or fully outside
    every dedicated partition."""
    return WorkingGrid.of(grid).place((), (sc,)).result()


def carve_dedicated_partition(grid: SpectrumGrid, start_slot: int, width_slots: int) -> SpectrumGrid:
    """Reserve [start_slot, start_slot + width_slots) for coherent carriers.

    The region must be free of native channels; existing super-channels
    wholly inside it are allowed and become in-partition occupants, but none
    may cross its boundary.
    """
    try:
        partition = DedicatedPartition(start_slot, width_slots)
    except ValueError as err:
        raise SpectrumError(str(err)) from None
    return WorkingGrid.of(grid).carve((partition,)).result()


def carve_width(width: int) -> int:
    """The width of the partition carved for a *width*-slot block: partition
    boundaries align to the 50 GHz native grid, so it rounds up to even."""
    return width + width % 2


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
    sc = next((sc for sc in grid.superchannels if sc.id == sc_id), None)
    if sc is None:
        raise SpectrumError(f"unknown super-channel id {sc_id!r}")
    partitions = grid.partition_mask  # read before the span: the replay refuses a block outside the band
    span = slot_span(sc.start_slot, sc.end_slot)
    # a placed block that meets a partition lies wholly inside one
    if partitions & span:
        return NeighborConfig(in_dedicated_partition=True)
    others = grid.occupied_mask & ~grid.native_mask & ~span
    return window_neighbors(grid, sc.start_slot, sc.end_slot, guard_band_slots, others)


@_schema.document(
    "request", optional=("guard_band_slots", "partition_only", "bitrate_gbps")
)
class PlacementRequest:
    """One occupant for first fit to place."""

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
class Assignment:
    """Where first fit put a request: a start slot, or None and the reason."""

    request: PlacementRequest
    start_slot: int | None
    reason: str | None = None

    @property
    def placed(self) -> bool:
        return self.start_slot is not None


@_schema.document("allocation")
class AllocationResult:
    """Every request's assignment, in request order, and the grid after them."""

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


def lowest_start(starts: int) -> int | None:
    """The lowest start set in *starts*, or None when it is empty."""
    return (starts & -starts).bit_length() - 1 if starts else None


def _first_fit_start(grid: WorkingGrid, request: PlacementRequest) -> int | None:
    """The lowest start the working masks allow for a request whose id is
    not yet placed. The test is exact, so placing the request there cannot
    fail."""
    native = request.kind is OccupantKind.NATIVE
    if native and request.partition_only:
        return None  # natives are kept out of partitions
    guard = request.guard_band_slots
    native_starts, inside, outside = grid.starts or grid.search_starts()
    # the guard band separates natives from super-channels
    if native:
        return grid.free_start(native_starts, NATIVE_WIDTH_SLOTS, guard, grid.occupied_mask & ~grid.native_mask)
    windows = inside if request.partition_only else inside | outside
    return grid.free_start(windows, grid.width, guard, grid.native_mask)


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
    go onto a working grid unchecked, and the result grid is built once,
    with its masks and id set seeded; with nothing placed it is *grid* itself.
    """
    assignments: list[Assignment] = []
    failed: set[tuple[bool, int, bool]] = set()
    working = WorkingGrid.of(grid)
    ids, placed = working.ids, working.new_ids
    # the kind as a bool: an Enum member is looked up and hashed in Python
    native_kind = OccupantKind.NATIVE
    for request in requests:
        native = request.kind is native_kind
        shape = (native, request.guard_band_slots, request.partition_only)
        if request.id in ids or request.id in placed or shape in failed:
            start = None
        else:
            start = _first_fit_start(working, request)
            if start is None:
                failed.add(shape)
        if start is None:
            assignments.append(Assignment(request=request, start_slot=None, reason="no feasible window"))
            continue
        placed.add(request.id)
        if native:
            working.natives.append(NativeChannel(id=request.id, start_slot=start, bitrate_gbps=request.bitrate_gbps))
            span = slot_span(start, start + NATIVE_WIDTH_SLOTS)
            working.native_mask |= span
        else:
            working.blocks.append(SuperChannel(id=request.id, start_slot=start, width_slots=working.width))
            span = slot_span(start, start + working.width)
        working.occupied_mask |= span
        assignments.append(Assignment(request=request, start_slot=start))
    return AllocationResult(assignments=tuple(assignments), grid=working.result())


def unique_occupant_id(grid: SpectrumGrid, stem: str) -> str:
    """A fresh occupant id based on *stem* that does not collide with the grid."""
    existing = grid.occupant_ids()
    if stem not in existing:
        return stem
    for i in itertools.count(2):
        candidate = f"{stem}-{i}"
        if candidate not in existing:
            return candidate
