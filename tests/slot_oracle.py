"""Naive slot-array references for the neighbor scan and the grid probe.

Every slot holds at most one owner and every question is answered by walking
slots one at a time, so these functions share no code or representation with
``awplan.spectrum``. ``first_fit`` is the slot-by-slot allocator that first
fit's mask search must match. ``place`` and ``carve`` state the placement
rules slot by slot: each returns the message of the first rule a placement
breaks, or the new slot owners and partition flags, and ``load`` folds them
over a grid's partitions, natives and blocks as a grid document is loaded.
``random_grids`` draws grids built through the public placement calls: odd
block widths, abutting partitions, and now and then a second block that
reuses an existing block id, placed before the natives.
"""

from __future__ import annotations

from hypothesis import strategies as st

from record_tools import replace

from awplan import (
    BandConfig,
    NativeChannel,
    NeighborConfig,
    SpectrumError,
    SpectrumGrid,
    SuperChannel,
    carve_dedicated_partition,
    place_native,
    place_superchannel,
)


def slot_owners(grid: SpectrumGrid) -> list[tuple[str, object] | None]:
    """One entry per slot: ("native", index), ("sc", id) or None."""
    owners: list[tuple[str, object] | None] = [None] * grid.band.slot_count
    for index, native in enumerate(grid.natives):
        for slot in range(native.start_slot, native.end_slot):
            owners[slot] = ("native", index)
    for sc in grid.superchannels:
        for slot in range(sc.start_slot, sc.end_slot):
            owners[slot] = ("sc", sc.id)
    return owners


def partition_slots(grid: SpectrumGrid) -> list[bool]:
    inside = [False] * grid.band.slot_count
    for partition in grid.partitions:
        for slot in range(partition.start_slot, partition.end_slot):
            inside[slot] = True
    return inside


def _side(owners, first: int, step: int, guard: int, own_id) -> tuple[int, int]:
    """Walk outward from *first* until the band edge or a slot of another
    block; return (guarded, unguarded) natives met on the way."""
    gaps: list[int] = []
    chain = 0
    in_chain = True
    last_native_distance = None
    seen = set()
    slot, distance = first, 0
    while 0 <= slot < len(owners):
        owner = owners[slot]
        if owner is not None and owner[0] == "sc" and owner[1] != own_id:
            break
        if owner is not None and owner[0] == "native":
            if owner[1] not in seen:
                seen.add(owner[1])
                if gaps and distance != last_native_distance + 1:
                    in_chain = False
                gaps.append(distance)
                chain += in_chain
            last_native_distance = distance
        slot += step
        distance += 1
    if not gaps:
        return 0, 0
    later_unguarded = sum(1 for gap in gaps[chain:] if gap < guard)
    if gaps[0] < guard:
        return 0, chain + later_unguarded
    return chain, later_unguarded


def window_neighbors(grid: SpectrumGrid, start: int, end: int, guard: int, own_id=None) -> NeighborConfig:
    owners = slot_owners(grid)
    if any(p.start_slot <= start and end <= p.end_slot for p in grid.partitions):
        return NeighborConfig(in_dedicated_partition=True)
    left = _side(owners, start - 1, -1, guard, own_id)
    right = _side(owners, end, 1, guard, own_id)
    return NeighborConfig(
        guarded_native_count=left[0] + right[0],
        unguarded_native_count=left[1] + right[1],
    )


def neighbor_context(grid: SpectrumGrid, sc_id: str, guard: int) -> NeighborConfig:
    sc = next(sc for sc in grid.superchannels if sc.id == sc_id)
    return window_neighbors(grid, sc.start_slot, sc.end_slot, guard, own_id=sc_id)


def grid_context(grid: SpectrumGrid, guard: int) -> tuple:
    """(mixed start, mixed neighbors, dedicated start, needs carve)."""
    owners = slot_owners(grid)
    reserved = partition_slots(grid)
    count = grid.band.slot_count
    width = grid.band.superchannel_width_slots

    def free(start: int, end: int) -> bool:
        return all(owners[slot] is None for slot in range(start, end))

    def outside_partitions(start: int, end: int) -> bool:
        return not any(reserved[slot] for slot in range(start, end))

    mixed_start = mixed_neighbors = None
    for start in range(0, count - width + 1):
        end = start + width
        guarded = range(max(start - guard, 0), min(end + guard, count))
        if (
            free(start, end)
            and outside_partitions(start, end)
            and not any(owners[slot] is not None and owners[slot][0] == "native" for slot in guarded)
        ):
            mixed_start = start
            mixed_neighbors = window_neighbors(grid, start, end, guard)
            break

    dedicated_start, needs_carve = None, False
    for partition in sorted(grid.partitions, key=lambda p: p.start_slot):
        for start in range(partition.start_slot, partition.end_slot - width + 1):
            if free(start, start + width):
                dedicated_start = start
                break
        if dedicated_start is not None:
            break
    if dedicated_start is None:
        carve = width + width % 2
        for start in range(0, count - carve + 1, 2):
            if free(start, start + carve) and outside_partitions(start, start + carve):
                dedicated_start, needs_carve = start, True
                break
    return mixed_start, mixed_neighbors, dedicated_start, needs_carve


def first_fit(grid: SpectrumGrid, requests) -> list[int | None]:
    """Start slot of each request, in order, trying every start slot by slot."""
    owners = slot_owners(grid)
    region: list[int | None] = [None] * grid.band.slot_count  # partition index per slot
    for index, partition in enumerate(grid.partitions):
        for slot in range(partition.start_slot, partition.end_slot):
            region[slot] = index
    ids = {n.id for n in grid.natives} | {sc.id for sc in grid.superchannels}
    count = grid.band.slot_count
    starts: list[int | None] = []
    for request in requests:
        native = request.kind.value == "native"
        width = 2 if native else grid.band.superchannel_width_slots
        guard = request.guard_band_slots
        found = None
        if request.id not in ids and not (native and request.partition_only):
            for start in range(0, count - width + 1, 2 if native else 1):
                slots = range(start, start + width)
                near = range(max(start - guard, 0), min(start + width + guard, count))
                if any(owners[slot] is not None for slot in slots):
                    continue
                # the guard band keeps natives and super-channels apart
                other = "sc" if native else "native"
                if any(owners[slot] is not None and owners[slot][0] == other for slot in near):
                    continue
                regions = {region[slot] for slot in slots}
                if native:
                    fits = regions == {None}
                elif request.partition_only:
                    fits = len(regions) == 1 and None not in regions
                else:
                    fits = len(regions) == 1
                if fits:
                    found = start
                    break
        if found is not None:
            ids.add(request.id)
            for slot in range(found, found + width):
                owners[slot] = ("native", request.id) if native else ("sc", request.id)
        starts.append(found)
    return starts


@st.composite
def random_grids(draw) -> SpectrumGrid:
    slot_count = draw(st.integers(4, 24)) * 2
    width = draw(st.integers(1, min(11, slot_count)))
    grid = SpectrumGrid(band=BandConfig(slot_count=slot_count, superchannel_width_slots=width))

    # cut points on the native grid; consecutive kept segments abut
    cuts = sorted(draw(st.sets(st.integers(0, slot_count // 2), max_size=6)))
    for lo, hi in zip(cuts, cuts[1:]):
        if draw(st.booleans()):
            grid = carve_dedicated_partition(grid, 2 * lo, 2 * (hi - lo))

    placements = draw(
        st.lists(st.tuples(st.booleans(), st.integers(0, slot_count - 1)), max_size=20)
    )
    for i, (is_native, start) in enumerate(placements):
        if not is_native:
            try:
                grid = place_superchannel(grid, SuperChannel(id=f"s{i}", start_slot=start, width_slots=width))
            except SpectrumError:
                pass

    # a second block under an existing id: the scan must not stop at it
    if grid.superchannels and draw(st.booleans()):
        owners = slot_owners(grid)
        reserved = partition_slots(grid)
        starts = [
            s
            for s in range(slot_count - width + 1)
            if all(owners[t] is None and not reserved[t] for t in range(s, s + width))
        ]
        if starts:
            twin = SuperChannel(
                id=draw(st.sampled_from([sc.id for sc in grid.superchannels])),
                start_slot=draw(st.sampled_from(starts)),
                width_slots=width,
            )
            grid = replace(grid, superchannels=grid.superchannels + (twin,))

    for i, (is_native, start) in enumerate(placements):
        if is_native:
            try:
                grid = place_native(grid, NativeChannel(id=f"n{i}", start_slot=start - start % 2))
            except SpectrumError:
                pass
    return grid


# The placement rules, slot by slot. A slot state is a pair of lists with
# one entry per slot: the owner as (kind, order, id, start, end), where
# order is the occupant's index among the grid's occupants of its kind, and
# the partition as (order, start, end); None where there is none.


def slot_state(grid: SpectrumGrid) -> tuple[list, list]:
    owners: list = [None] * grid.band.slot_count
    regions: list = [None] * grid.band.slot_count
    for order, partition in enumerate(grid.partitions):
        for slot in range(partition.start_slot, partition.end_slot):
            regions[slot] = (order, partition.start_slot, partition.end_slot)
    for kind, occupants in (("native", grid.natives), ("sc", grid.superchannels)):
        for order, occupant in enumerate(occupants):
            for slot in range(occupant.start_slot, occupant.end_slot):
                owners[slot] = (kind, order, occupant.id, occupant.start_slot, occupant.end_slot)
    return owners, regions


def state_masks(owners: list, regions: list) -> tuple:
    """(native, occupied, partition) slot masks and the id set of a slot state."""
    native = sum(1 << slot for slot, owner in enumerate(owners) if owner and owner[0] == "native")
    occupied = sum(1 << slot for slot, owner in enumerate(owners) if owner)
    partition = sum(1 << slot for slot, region in enumerate(regions) if region)
    return native, occupied, partition, frozenset(owner[2] for owner in owners if owner)


def place(band: BandConfig, owners: list, regions: list, occupant) -> str | tuple[list, list]:
    """Place a NativeChannel or a SuperChannel."""
    count, start, name = band.slot_count, occupant.start_slot, occupant.id
    native = isinstance(occupant, NativeChannel)
    label = f"native {name!r}" if native else f"super-channel {name!r}"
    width = 2 if native else occupant.width_slots
    if native and start % 2 == 1:
        return f"{label}: start_slot {start} is not aligned to the 50GHz native grid"
    if not native and width != band.superchannel_width_slots:
        return f"{label}: width {width} does not match the configured block width {band.superchannel_width_slots}"
    end = start + width
    if start < 0 or end > count:
        return f"{label}: slots [{start}, {end}) fall outside the {count}-slot band"
    window = range(start, end)
    met = sorted({regions[slot] for slot in window if regions[slot] is not None})
    if met:
        _, first, last = met[0]
        if native:
            return f"{label}: placement inside dedicated partition [{first}, {last})"
        if len(met) > 1 or any(regions[slot] is None for slot in window):
            return f"{label}: straddles the partition boundary at [{first}, {last})"
    if any(owner is not None and owner[2] == name for owner in owners):
        return f"occupant id {name!r} already present in grid"
    for slot in window:
        if owners[slot] is not None:
            return f"{name!r} would overlap {owners[slot][2]!r} at slot {slot}"
    kind = "native" if native else "sc"
    order = 1 + max((owner[1] for owner in owners if owner and owner[0] == kind), default=-1)
    owners = list(owners)
    for slot in window:
        owners[slot] = (kind, order, name, start, end)
    return owners, regions


def carve(band: BandConfig, owners: list, regions: list, start: int, width: int) -> str | tuple[list, list]:
    count, end = band.slot_count, start + width
    if width <= 0:
        return f"partition width must be > 0, got {width}"
    if start % 2 == 1 or end % 2 == 1:
        return f"partition [{start}, {end}) is not aligned to the 50GHz grid"
    if start < 0 or end > count:
        return f"partition [{start}, {end}) falls outside the {count}-slot band"
    window = range(start, end)
    met = sorted({regions[slot] for slot in window if regions[slot] is not None})
    if met:
        return f"partition [{start}, {end}) overlaps existing partition [{met[0][1]}, {met[0][2]})"
    natives = sorted({owners[slot] for slot in window if owners[slot] and owners[slot][0] == "native"})
    if natives:
        return f"partition [{start}, {end}) region contains native {natives[0][2]!r}"
    # a block is cut at a boundary when it owns the slots on both sides of it
    cut = sorted(
        {
            owners[edge]
            for edge in (start, end)
            if 0 < edge < count and owners[edge] and owners[edge][0] == "sc" and owners[edge] == owners[edge - 1]
        }
    )
    if cut:
        _, _, name, first, last = cut[0]
        return f"partition [{start}, {end}) would cut super-channel {name!r} at [{first}, {last})"
    order = 1 + max((region[0] for region in regions if region), default=-1)
    regions = list(regions)
    for slot in window:
        regions[slot] = (order, start, end)
    return owners, regions


def load(grid: SpectrumGrid) -> str | tuple[list, list]:
    """Carve *grid*'s partitions, then place its natives and blocks, in
    order, from an empty band."""
    state: str | tuple[list, list] = ([None] * grid.band.slot_count, [None] * grid.band.slot_count)
    for partition in grid.partitions:
        state = carve(grid.band, *state, partition.start_slot, partition.width_slots)
        if isinstance(state, str):
            return state
    for occupant in grid.natives + grid.superchannels:
        state = place(grid.band, *state, occupant)
        if isinstance(state, str):
            return state
    return state
