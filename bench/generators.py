"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` (or a seed) and returns plain JSON
data in the shapes the awplan parsers read. Nothing here imports awplan, so
the inputs do not depend on the code under test, and the same seed always
gives byte-identical documents.
"""

from __future__ import annotations

import random

SLOT_COUNT = 160
SC_WIDTH = 8
PARTITION_WIDTH = 32
NATIVE_DENSITIES = (0, 40, 80)
PARTITION_LAYOUTS = ("none", "dedicated")

BAND = {
    "slot_width_ghz": 25.0,
    "slot_count": SLOT_COUNT,
    "native_channel_width_slots": 2,
    "superchannel_width_slots": SC_WIDTH,
}


def rng_for(seed: int, *labels) -> random.Random:
    """An independent stream per (seed, labels), stable across Python runs."""
    return random.Random("/".join(str(part) for part in (seed, *labels)))


def make_grid(rng: random.Random, natives: int, layout: str) -> dict:
    """A start grid with up to *natives* 2-slot natives placed in runs.

    ``layout`` is ``"none"`` or ``"dedicated"`` (one 32-slot partition at a
    seeded aligned offset). Natives never enter the partition, so a grid
    asked for more natives than the free even positions outside it holds
    exactly as many as fit: 80 fill the band without a partition, 64 fill it
    beside one.
    """
    partitions = []
    blocked: set[int] = set()
    if layout == "dedicated":
        start = rng.randrange(0, SLOT_COUNT - PARTITION_WIDTH + 1, 2)
        partitions.append({"start_slot": start, "width_slots": PARTITION_WIDTH})
        blocked.update(range(start, start + PARTITION_WIDTH))
    elif layout != "none":
        raise ValueError(f"unknown partition layout {layout!r}")
    free = [s for s in range(0, SLOT_COUNT, 2) if s not in blocked]
    target = min(natives, len(free))
    taken: set[int] = set()
    # Operators light natives in contiguous runs, which leaves some free
    # windows wide enough for a block between the runs.
    while len(taken) < target:
        start = rng.choice(free)
        for position in range(start, start + 2 * rng.randint(1, 8), 2):
            if len(taken) == target or position in blocked or position >= SLOT_COUNT:
                break
            taken.add(position)
    native_docs = [
        {
            "id": f"N{position // 2:02d}",
            "start_slot": position,
            "bitrate_gbps": rng.choice((10, 10, 40)),
            "format": "IM-DD",
        }
        for position in sorted(taken)
    ]
    return {
        "band": dict(BAND),
        "natives": native_docs,
        "superchannels": [],
        "partitions": partitions,
    }


def balanced(rng: random.Random, values, count: int) -> list:
    """*count* draws from *values* in shuffled blocks: each run of
    ``len(values)`` draws holds every value once. Drawing the mix this way,
    rather than one independent choice per item, keeps the work in a batch,
    and in every stretch of a session, from swinging with the seed."""
    picks: list = []
    while len(picks) < count:
        block = list(values)
        rng.shuffle(block)
        picks += block
    return picks[:count]


# 40% natives, 40% guarded super-channels, 20% partition-only super-channels
REQUEST_KINDS = ("native", "native", "guarded", "guarded", "partition")


def make_requests(rng: random.Random, count: int, stem: str) -> list[dict]:
    """A request batch: natives, guarded super-channels and partition-only
    super-channels, with ids unique within the batch and unlike grid ids."""
    requests = []
    for i, kind in enumerate(balanced(rng, REQUEST_KINDS, count)):
        if kind == "native":
            request = {
                "kind": "native",
                "id": f"{stem}-n{i}",
                "guard_band_slots": rng.choice((0, 0, 2)),
                "partition_only": False,
                "bitrate_gbps": rng.choice((10, 40)),
            }
        elif kind == "guarded":
            request = {
                "kind": "superchannel",
                "id": f"{stem}-s{i}",
                "guard_band_slots": rng.choice((1, 2, 2)),
                "partition_only": False,
                "bitrate_gbps": 10,
            }
        else:
            request = {
                "kind": "superchannel",
                "id": f"{stem}-p{i}",
                "guard_band_slots": 0,
                "partition_only": True,
                "bitrate_gbps": 10,
            }
        requests.append(request)
    return requests


MESH_SIDE = 10


def make_mesh(rng: random.Random) -> dict:
    """A national-scale mesh: a 10 x 10 lattice of sites,
    some lattice links dropped and some diagonals added, each link made of
    one to three spans. A few sites are amplifier-only (no ROADM). The
    lattice keeps every site reachable and passes validate_topology."""
    side = MESH_SIDE
    nodes = []
    for r in range(side):
        for c in range(side):
            nodes.append({"id": f"X{r}{c}", "name": f"site-{r}-{c}", "has_roadm": rng.random() > 0.08})
    ids = [n["id"] for n in nodes]

    def at(r: int, c: int) -> str:
        return ids[r * side + c]

    links = []
    for r in range(side):
        for c in range(side):
            # the first row and column are never dropped, so the lattice stays connected
            if c + 1 < side and (r == 0 or rng.random() > 0.15):
                links.append((at(r, c), at(r, c + 1)))
            if r + 1 < side and (c == 0 or rng.random() > 0.15):
                links.append((at(r, c), at(r + 1, c)))
            if r + 1 < side and c + 1 < side and rng.random() < 0.2:
                links.append((at(r, c), at(r + 1, c + 1)))
    spans = []
    for a, b in links:
        hops = rng.choice((1, 1, 2, 3))
        for k in range(hops):
            length = round(rng.uniform(40.0, 95.0), 1)
            spans.append(
                {
                    "from": a,
                    "to": b,
                    "length_km": length,
                    "attenuation_db": round(length * 0.22 + rng.uniform(0.5, 2.0), 1),
                    "amplifier": rng.choice(("EDFA", "EDFA", "Raman")),
                    "dcm_present": rng.random() < 0.7,
                    "has_inline_ola": k < hops - 1,
                }
            )
    return {"nodes": nodes, "spans": spans}


def adjacency(topology: dict) -> dict[str, list[str]]:
    """Neighbor lists from a raw topology document, in first-seen order."""
    adj: dict[str, list[str]] = {n["id"]: [] for n in topology["nodes"]}
    for span in topology["spans"]:
        a, b = span["from"], span["to"]
        if b not in adj[a]:
            adj[a].append(b)
            adj[b].append(a)
    return adj


def random_path(rng: random.Random, adj: dict[str, list[str]], want: int) -> list[str]:
    """A self-avoiding walk of *want* hops; shorter when it gets stuck."""
    starts = [node for node, nbrs in adj.items() if nbrs]
    path = [rng.choice(starts)]
    while len(path) - 1 < want:
        options = [n for n in adj[path[-1]] if n not in path]
        if not options:
            break
        path.append(rng.choice(options))
    return path


def make_demands(rng: random.Random, count: int, topologies: dict[str, dict], max_hops: dict[str, int]) -> list[tuple[str, dict]]:
    """(topology name, demand document) pairs. Topologies, capacities and
    path lengths (1..max_hops of the topology) are each drawn balanced."""
    adjs = {name: adjacency(doc) for name, doc in topologies.items()}
    names = balanced(rng, sorted(topologies), count)
    capacities = balanced(rng, (100, 200, 250, 400, 450), count)
    hops = {name: iter(balanced(rng, range(1, max_hops[name] + 1), names.count(name))) for name in adjs}
    return [
        (name, {"path": random_path(rng, adjs[name], next(hops[name])), "required_capacity_gbps": float(capacity)})
        for name, capacity in zip(names, capacities)
    ]


def make_readings(rng: random.Random, nodes: list[str], refs: list[str], target_dbm: float) -> dict[str, list[dict]]:
    """Per-node power readings around *target_dbm*. Some channels read below
    target (they clip) and one reference names no grid occupant."""
    readings = {}
    for node in nodes:
        chosen = rng.sample(refs, min(len(refs), rng.randint(3, 6))) + ["ghost-ch"]
        readings[node] = [
            {"channel_ref": ref, "power_dbm": round(target_dbm + rng.uniform(-1.0, 3.0), 2)}
            for ref in chosen
        ]
    return readings
