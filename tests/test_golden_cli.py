"""Pinned stdout bytes of the CLI on the bundled fixtures.

The hashes were taken from the canonical output before the serialization
codec replaced the hand-written methods, before the calibration solve
moved off numpy and before the topology was indexed; any drift in bytes,
key order or number formatting fails here.
"""

from __future__ import annotations

import hashlib

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
        "47fccac4eb2624a89b98ff292b62f5ccf1ed023ccdf4efcd99791a59af713b01",
    ),
    **{
        f"plan-busy-{demands}": (
            ("plan", "--calib", CALIB, "--topology", "garr.topo.json",
             "--demands", f"{demands}.demands.json", "--grid", "busy.grid.json"),
            digest,
        )
        for demands, digest in (
            ("ba1-bo1", "fb10e47ac6af39dbd1bff10f9863c2d5b24e89d0302058d660414fadb84dab39"),
            ("bo1-mi1", "a737f5cb6caf5cd3a712c56c9ed827682da5eec6f2f5c44fec3897237839b661"),
            ("rm2-bo1", "979b4db89390d46c7abda8a504d45ab873936fffc28700e9d87073037cc64652"),
            ("rm-mi2", "75ad4434e461d8f0ceffd615ed9147bf3c8df0fb81cc4d26a58807c61d1516b9"),
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
