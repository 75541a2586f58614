"""Independent checkers for awplan outputs.

Each checker recomputes a result from first principles on plain data (slot
arrays, raw topology JSON, the linear Q formula) and returns a list of
mismatch messages; an empty list means the output checks out. None of them
calls the function whose output it checks.
"""

from __future__ import annotations

import json
import math
import re

REAL_DECIMALS = 4
NATIVE_WIDTH = 2
CARRIER_RATE = {"QPSK": 50.0, "BPSK": 25.0}
HARD_MIN_DB = 6.5
DESIGN_MIN_DB = 8.5
# documents carry reals at four decimals, so a recomputed value may differ
# from the printed one by half a unit in the last place
Q_TOLERANCE_DB = 0.5e-4 + 1e-9


# -- canonical text ---------------------------------------------------------

def _emit(value, indent: int) -> str:
    pad = " " * indent
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = f"{value:.{REAL_DECIMALS}f}"
        return "0.0000" if text == "-0.0000" else text
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f"{pad}  {json.dumps(k)}: {_emit(v, indent + 2)}" for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if not value:
        return "[]"
    rows = [f"{pad}  {_emit(v, indent + 2)}" for v in value]
    return "[\n" + ",\n".join(rows) + "\n" + pad + "]"


def canonical_text(data) -> str:
    """The canonical rendering written from the format rules: two-space
    indent, keys in document order, reals at four decimals, newline at end."""
    return _emit(data, 0) + "\n"


def check_canonical(text: str, label: str) -> list[str]:
    """The document parses, and rendering the parsed data again gives the
    same bytes (serialize -> parse -> serialize is byte-identical)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        return [f"{label}: not JSON ({err.msg} at line {err.lineno})"]
    again = canonical_text(data)
    if again != text:
        at = next((i for i, (a, b) in enumerate(zip(text, again)) if a != b), min(len(text), len(again)))
        return [f"{label}: not canonical at byte {at}"]
    return []


_CSV_REAL = r"-?\d+\.\d{4}"


def check_csv(text: str, label: str) -> list[str]:
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) < 3:
        return [f"{label}: CSV must be a header and rows, newline-terminated"]
    problems = []
    if not re.fullmatch(r"[a-z_]+,[a-z_]+", lines[0]):
        problems.append(f"{label}: bad CSV header {lines[0]!r}")
    for i, line in enumerate(lines[1:-1], start=2):
        if not re.fullmatch(f"{_CSV_REAL},{_CSV_REAL}", line):
            problems.append(f"{label}: CSV line {i} not canonical: {line!r}")
    return problems


# -- spectrum ---------------------------------------------------------------

def _partition_mask(grid: dict) -> list[int | None]:
    """Slot -> index of the partition holding it, or None."""
    mask: list[int | None] = [None] * grid["band"]["slot_count"]
    for index, part in enumerate(grid["partitions"]):
        for slot in range(part["start_slot"], part["start_slot"] + part["width_slots"]):
            if 0 <= slot < len(mask):
                mask[slot] = index
    return mask


def check_grid(grid: dict, label: str) -> list[str]:
    """Invariants of a grid document on a plain slot array: no overlap,
    natives even-aligned and outside partitions, no block straddling a
    partition boundary, everything inside the band, ids unique."""
    band = grid["band"]
    slots = band["slot_count"]
    width = band["superchannel_width_slots"]
    problems = []
    owner: list[str | None] = [None] * slots
    covered = [False] * slots
    for part in grid["partitions"]:
        start, end = part["start_slot"], part["start_slot"] + part["width_slots"]
        if start % 2 or end % 2 or start < 0 or end > slots or end <= start:
            problems.append(f"{label}: partition [{start}, {end}) misaligned or out of band")
            continue
        for slot in range(start, end):
            if covered[slot]:
                problems.append(f"{label}: partitions overlap at slot {slot}")
            covered[slot] = True
    mask = _partition_mask(grid)
    ids: set[str] = set()
    occupants = [(n, NATIVE_WIDTH, True) for n in grid["natives"]] + [
        (s, s["width_slots"], False) for s in grid["superchannels"]
    ]
    for occ, occ_width, is_native in occupants:
        start, end = occ["start_slot"], occ["start_slot"] + occ_width
        if occ["id"] in ids:
            problems.append(f"{label}: duplicate id {occ['id']!r}")
        ids.add(occ["id"])
        if start < 0 or end > slots:
            problems.append(f"{label}: {occ['id']!r} outside the band")
            continue
        if is_native:
            if start % 2:
                problems.append(f"{label}: native {occ['id']!r} not even-aligned")
            if any(mask[s] is not None for s in range(start, end)):
                problems.append(f"{label}: native {occ['id']!r} inside a partition")
        else:
            if occ_width != width:
                problems.append(f"{label}: block {occ['id']!r} has width {occ_width}")
            inside = {mask[s] for s in range(start, end)}
            if len(inside) > 1:
                problems.append(f"{label}: block {occ['id']!r} straddles a partition boundary")
        for slot in range(start, end):
            if owner[slot] is not None:
                problems.append(f"{label}: slot {slot} held by {owner[slot]!r} and {occ['id']!r}")
            owner[slot] = occ["id"]
    return problems


def naive_first_fit(grid: dict, requests: list[dict]) -> tuple[list[int | None], dict]:
    """First fit on a slot array: each request takes the lowest start whose
    window is free, in band, on the right side of every partition rule and
    clear of the other kind by its guard band. Returns the starts and the
    final grid document."""
    band = grid["band"]
    slots = band["slot_count"]
    width = band["superchannel_width_slots"]
    mask = _partition_mask(grid)
    kind_at: list[str | None] = [None] * slots
    for native in grid["natives"]:
        for s in range(native["start_slot"], native["start_slot"] + NATIVE_WIDTH):
            kind_at[s] = "native"
    for block in grid["superchannels"]:
        for s in range(block["start_slot"], block["start_slot"] + block["width_slots"]):
            kind_at[s] = "superchannel"
    ids = {o["id"] for o in grid["natives"]} | {o["id"] for o in grid["superchannels"]}
    natives = list(grid["natives"])
    blocks = list(grid["superchannels"])
    starts: list[int | None] = []
    for request in requests:
        is_native = request["kind"] == "native"
        w = NATIVE_WIDTH if is_native else width
        guard = request["guard_band_slots"]
        other = "superchannel" if is_native else "native"
        found = None
        if request["id"] not in ids and not (is_native and request["partition_only"]):
            for start in range(0, slots - w + 1, 2 if is_native else 1):
                window = range(start, start + w)
                if any(kind_at[s] is not None for s in window):
                    continue
                parts = {mask[s] for s in window}
                if is_native and parts != {None}:
                    continue
                if not is_native:
                    if len(parts) > 1:
                        continue
                    if request["partition_only"] and parts == {None}:
                        continue
                if guard and any(
                    kind_at[s] == other for s in range(max(0, start - guard), min(slots, start + w + guard))
                ):
                    continue
                found = start
                break
        starts.append(found)
        if found is None:
            continue
        ids.add(request["id"])
        for s in range(found, found + w):
            kind_at[s] = request["kind"]
        if is_native:
            natives.append(
                {"id": request["id"], "start_slot": found, "bitrate_gbps": request["bitrate_gbps"], "format": "IM-DD"}
            )
        else:
            blocks.append(
                {
                    "id": request["id"],
                    "start_slot": found,
                    "width_slots": width,
                    "pairs": [{"index": i, "modulation": "QPSK", "enabled": True} for i in range(5)],
                    "active_carriers": 10,
                }
            )
    final = {"band": band, "natives": natives, "superchannels": blocks, "partitions": grid["partitions"]}
    return starts, final


def check_allocation(grid: dict, requests: list[dict], result: dict, label: str) -> list[str]:
    """An allocation result against the slot-array oracle, assignment by
    assignment, plus the invariants of its final grid."""
    expected, final = naive_first_fit(grid, requests)
    got = [a["start_slot"] for a in result["assignments"]]
    problems = []
    if len(got) != len(expected):
        return [f"{label}: {len(got)} assignments for {len(expected)} requests"]
    for i, (g, e) in enumerate(zip(got, expected)):
        if g != e:
            problems.append(f"{label}: request {i} ({requests[i]['id']}) at {g}, oracle says {e}")
        if result["assignments"][i]["request"]["id"] != requests[i]["id"]:
            problems.append(f"{label}: assignment {i} names another request")
    if result["grid"] != final:
        problems.append(f"{label}: final grid differs from the oracle's")
    problems += check_grid(result["grid"], label)
    return problems


# -- topology and planning --------------------------------------------------

def path_metrics(topology: dict, path: list[str]) -> tuple[float, int]:
    """(distance km, ROADM count) of a node path, summed from the raw
    topology document: every span joining consecutive nodes counts."""
    roadm = {n["id"]: n["has_roadm"] for n in topology["nodes"]}
    distance = 0.0
    for a, b in zip(path, path[1:]):
        distance += sum(
            s["length_km"] for s in topology["spans"] if {s["from"], s["to"]} == {a, b}
        )
    return distance, sum(1 for node in path if roadm[node])


def q_linear(model: dict, modulation: str, distance_km: float, roadm_count: int, guarded: int = 0, unguarded: int = 0) -> float:
    """The calibrated linear Q model, written out from its coefficients."""
    return (
        model["q_ref_db"][modulation]
        - model["slope_db_per_km"][modulation] * (distance_km - model["l_ref_km"])
        - model["p_guard_db"][modulation] * guarded
        - model["p_unguard_db"][modulation] * unguarded
        - model["roadm_penalty_db"] * roadm_count
    )


def q_class(value_db: float) -> str:
    if value_db <= HARD_MIN_DB:
        return "Infeasible"
    if value_db <= DESIGN_MIN_DB:
        return "Marginal"
    return "Ok"


def _check_option(option: dict, model: dict, distance: float, roadms: int, where: str) -> list[str]:
    problems = []
    mods = option["pair_modulations"]
    # each active carrier at its pair's rate; carriers fill pairs in order
    capacity = sum(CARRIER_RATE[mods[c // 2]] for c in range(option["active_carriers"]))
    if abs(capacity - option["capacity_gbps"]) > 1e-9:
        problems.append(f"{where}: capacity {option['capacity_gbps']} != {capacity}")
    q = option["q"]["value_db"]
    governing = "QPSK" if "QPSK" in mods else "BPSK"
    clean = q_linear(model, governing, distance, roadms)
    if option["strategy"] == "DedicatedPartition":
        if abs(q - clean) > Q_TOLERANCE_DB:
            problems.append(f"{where}: dedicated Q {q:.6f} != {clean:.6f} from the model")
    elif q > clean + Q_TOLERANCE_DB:
        problems.append(f"{where}: mixed Q {q:.6f} exceeds the neighbor-free {clean:.6f}")
    if option["q"]["class"] not in {q_class(q - Q_TOLERANCE_DB), q_class(q + Q_TOLERANCE_DB)}:
        problems.append(f"{where}: class {option['q']['class']} for Q {q:.4f}")
    if option["feasible"] and option["q"]["class"] == "Infeasible":
        problems.append(f"{where}: feasible option with an infeasible Q")
    return problems


def check_report(report: dict, topology: dict, model: dict, label: str) -> list[str]:
    """A plan report against distance and ROADM count from the raw topology,
    the linear Q formula, the capacity formula and the selection rule."""
    distance, roadms = path_metrics(topology, report["demand"]["path"])
    options = [report["chosen"], *report["alternatives"]]
    problems = []
    for i, option in enumerate(options):
        where = f"{label}.chosen" if i == 0 else f"{label}.alternatives[{i - 1}]"
        problems += _check_option(option, model, distance, roadms, where)
    feasible = [o for o in options if o["feasible"]]
    if feasible and not report["chosen"]["feasible"]:
        problems.append(f"{label}: an infeasible option chosen over a feasible one")
    pool = feasible or options
    best = max(o["capacity_gbps"] for o in pool)
    if report["chosen"]["capacity_gbps"] != best:
        problems.append(f"{label}: chosen capacity {report['chosen']['capacity_gbps']} below the best {best}")
    if not math.isfinite(report["native_impact_db"]):
        problems.append(f"{label}: native impact not finite")
    return problems


def check_placement(grid_before: dict, grid_after: dict, strategy: str, label: str) -> list[str]:
    """apply_plan added exactly one block, inside a partition for a dedicated
    choice and outside every partition for a mixed one."""
    before = {b["id"] for b in grid_before["superchannels"]}
    new = [b for b in grid_after["superchannels"] if b["id"] not in before]
    if len(new) != 1:
        return [f"{label}: apply_plan added {len(new)} blocks"]
    block = new[0]
    mask = _partition_mask(grid_after)
    inside = {mask[s] for s in range(block["start_slot"], block["start_slot"] + block["width_slots"])}
    if (strategy == "DedicatedPartition") != (None not in inside):
        return [f"{label}: {strategy} block at slot {block['start_slot']} on the wrong side of a partition"]
    return check_grid(grid_after, label)


def check_equalization(readings: dict[str, list[dict]], target: float, report: dict, known: set[str], tolerance: float, label: str) -> list[str]:
    """Per-node pass/fail recomputed from the raw readings."""
    problems = []
    nodes = {n["node_id"]: n for n in report["nodes"]}
    if sorted(nodes) != sorted(readings):
        return [f"{label}: nodes {sorted(nodes)} != {sorted(readings)}"]
    for node, items in readings.items():
        clipped = [r["channel_ref"] for r in items if r["power_dbm"] < target]
        residual = max(
            [abs(r["power_dbm"] - target) for r in items if r["power_dbm"] < target] or [0.0]
        )
        summary = nodes[node]
        unknown = sorted({r["channel_ref"] for r in items} - known)
        if summary["clipped_channels"] != clipped or summary["unknown_channel_refs"] != unknown:
            problems.append(f"{label}: node {node} clipped/unknown channels differ")
        if abs(summary["max_residual_db"] - residual) > 1e-3:
            problems.append(f"{label}: node {node} residual {summary['max_residual_db']} != {residual:.4f}")
        if summary["passed"] != (residual <= tolerance and not clipped):
            problems.append(f"{label}: node {node} pass flag wrong")
    return problems


# -- CLI --------------------------------------------------------------------

def check_calibration(model: dict, points: list[dict], label: str) -> list[str]:
    """The fitted model reproduces every calibration point, up to the
    rounding of the printed coefficients to four decimals."""
    problems = []
    for i, p in enumerate(points):
        cfg = p["neighbor_config"]
        g, u = cfg["guarded_native_count"], cfg["unguarded_native_count"]
        q = q_linear(model, p["modulation"], p["distance_km"], 0, g, u)
        slack = 0.5e-4 * (1 + abs(p["distance_km"] - model["l_ref_km"]) + g + u) + 1e-9
        if abs(q - p["measured_q_db"]) > slack:
            problems.append(f"{label}: point {i} predicted {q:.4f}, measured {p['measured_q_db']}")
    return problems
