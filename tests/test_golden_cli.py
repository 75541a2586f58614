"""Pinned stdout bytes of the CLI on the bundled fixtures.

The hashes were taken from the canonical output before the serialization
codec replaced the hand-written methods and before the calibration solve
moved off numpy; any drift in bytes, key order or number formatting fails
here.
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

_FIXTURE_FLAGS = {"--points", "--calib", "--topology", "--demands", "--grid", "--requests"}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_bytes_are_pinned(name, capsys, monkeypatch, fixture_dir):
    monkeypatch.setenv("AWPLAN_NO_COLOR", "1")
    argv, digest = GOLDEN[name]
    argv = [
        str(fixture_dir / arg) if prev in _FIXTURE_FLAGS else arg
        for prev, arg in zip(("",) + argv, argv)
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
