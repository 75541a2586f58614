"""Pinned stdout bytes of the CLI on the bundled fixtures, and of
``allocate`` on a crowded grid written from literals.

The hashes were taken from the canonical output before the serialization
codec replaced the hand-written methods, before the calibration solve
moved off numpy and before the topology was indexed; any drift in bytes,
key order or number formatting fails here. The ``plan`` digests were taken
again when each point of the calibration fixture gained its
``"roadm_count": 0`` key: only the ``calibration_sha256`` line moved.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from awplan.cli import main

CALIB = "reference.calib.json"
DISTANCES = "277,345,495,813,1131"

GOLDEN = {
    "calibrate": (
        ("calibrate", "--points", CALIB),
        "65bc0a462177fdd006bb375507dd0ffb58d8f5b0beb5978c1ed19fdad888a3f8",
    ),
    "estimate-json": (
        ("estimate", "--calib", CALIB, "--distance", "1131", "--modulation", "qpsk",
         "--neighbors", "dedicated", "--json"),
        "46b771317036867c7dfb7ad630581168e7070904a808922fec74f2d9f063f3bb",
    ),
    "plan": (
        ("plan", "--calib", CALIB, "--topology", "garr.topo.json", "--demands", "rm-mi2.demands.json"),
        "8730b13de0800eacce254564e106e89d06f7422b7875e13cca53ff6bc2e273df",
    ),
    **{
        f"plan-busy-{demands}": (
            ("plan", "--calib", CALIB, "--topology", "garr.topo.json",
             "--demands", f"{demands}.demands.json", "--grid", "busy.grid.json"),
            digest,
        )
        for demands, digest in (
            ("ba1-bo1", "14bd7e29b72f7dbba887e4afd09af605a00951a33565c7879ba0e6557d32c91f"),
            ("bo1-mi1", "459ebe774156962560ca0bb1b9882646187f6aa15012c7ca9a14c8954773e5ad"),
            ("rm2-bo1", "5541b7946ec2c7db9705397c6741ef933787209fdd06e86aba428a4cedaa1816"),
            ("rm-mi2", "acf7e70f500ef65bf42bb777be02b5feeda18318dbbbe7925aa447b028244a7e"),
        )
    },
    "validate-topology": (
        ("validate", "garr.topo.json"),
        "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22",
    ),
    "allocate": (
        ("allocate", "--grid", "busy.grid.json", "--requests", "trial.requests.json"),
        "950d4f53642f407ea3fc97fd639fbf16485cee4e2fca3a432fb176830c48da6d",
    ),
    "export-plot-csv": (
        ("export-plot", "--calib", CALIB, "--modulation", "qpsk", "--neighbors", "dedicated",
         "--distances", DISTANCES, "--format", "csv"),
        "7c6f5f9afc9284433ea314ab8ad24860758823fecf845897b577548dccd42706",
    ),
    "export-plot-json": (
        ("export-plot", "--calib", CALIB, "--modulation", "qpsk", "--neighbors", "dedicated",
         "--distances", DISTANCES, "--format", "json"),
        "dca46b42ac9a8f0c90c3d46c559f3932032c2ca0e0f13a6e5f6be4021f5444c5",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_bytes_are_pinned(name, capsys, monkeypatch, fixture_dir):
    monkeypatch.setenv("AWPLAN_NO_COLOR", "1")
    argv, digest = GOLDEN[name]
    argv = [str(fixture_dir / arg) if arg.endswith(".json") else arg for arg in argv]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# A 48-slot band with a partition, natives and a super-channel in it, and a
# batch where most requests find no window and some ids repeat: one already
# in the grid, and one placed earlier in the batch.
CROWDED_GRID = {
    "band": {
        "slot_width_ghz": 25.0, "slot_count": 48,
        "native_channel_width_slots": 2, "superchannel_width_slots": 8,
    },
    "natives": [
        {"id": "N1", "start_slot": 0},
        {"id": "N2", "start_slot": 2, "bitrate_gbps": 40},
        {"id": "N3", "start_slot": 8},
        {"id": "N4", "start_slot": 34},
        {"id": "N5", "start_slot": 40},
    ],
    "superchannels": [{
        "id": "aw-0",
        "start_slot": 16,
        "width_slots": 8,
        "pairs": [{"index": i, "modulation": "QPSK"} for i in range(5)],
        "active_carriers": 10,
    }],
    "partitions": [{"start_slot": 16, "width_slots": 16}],
}
CROWDED_REQUESTS = [
    {"kind": "superchannel", "id": "aw-1", "guard_band_slots": 2},
    {"kind": "superchannel", "id": "aw-2", "guard_band_slots": 2},
    {"kind": "superchannel", "id": "aw-3", "guard_band_slots": 2},
    {"kind": "superchannel", "id": "aw-0", "partition_only": True},
    {"kind": "superchannel", "id": "aw-4", "partition_only": True},
    {"kind": "superchannel", "id": "aw-5", "partition_only": True},
    {"kind": "native", "id": "n-a"},
    {"kind": "native", "id": "n-a"},
    {"kind": "native", "id": "n-b", "bitrate_gbps": 40},
    {"kind": "native", "id": "n-c", "guard_band_slots": 2},
    {"kind": "native", "id": "n-d", "partition_only": True},
    {"kind": "superchannel", "id": "aw-6", "guard_band_slots": 2},
    {"kind": "superchannel", "id": "aw-7"},
    {"kind": "superchannel", "id": "aw-8"},
    {"kind": "native", "id": "n-e"},
    {"kind": "native", "id": "n-f"},
    {"kind": "native", "id": "n-g"},
    {"kind": "superchannel", "id": "aw-9", "guard_band_slots": 2},
    {"kind": "superchannel", "id": "aw-10", "partition_only": True},
    {"kind": "superchannel", "id": "aw-11"},
]
# taken before the grid load and first fit skipped the per-occupant replay
CROWDED_ALLOCATION_SHA256 = "d7b790f3060a4d724fd352e2a85019c56963077697c14a8c7beb815a69493935"


def test_crowded_allocation_is_pinned(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("AWPLAN_NO_COLOR", "1")
    grid, requests, allocation = tmp_path / "grid.json", tmp_path / "requests.json", tmp_path / "out.json"
    grid.write_text(json.dumps(CROWDED_GRID))
    requests.write_text(json.dumps(CROWDED_REQUESTS))
    assert main(["allocate", "--grid", str(grid), "--requests", str(requests), "--out", str(allocation)]) == 1
    assert hashlib.sha256(allocation.read_bytes()).hexdigest() == CROWDED_ALLOCATION_SHA256
    for document in (grid, allocation):
        assert main(["validate", str(document)]) == 0
        assert capsys.readouterr().out == "ok\n"
