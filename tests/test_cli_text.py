"""Pinned text outputs of `simulate`: stdout and the CSV file, one small run
per experiment.

``golden.json`` pins the payloads; ``cli_text.json`` pins what the command
line prints and writes from them.  Stdout, the CSV header and every cell that
is not a fractional number (text, booleans, integers) compare exactly; the
other cells as floats within a relative 1e-12, as in ``test_golden.py``, and
a nan must stay nan.  A change of the text on purpose re-records every
case, and says so:

    PYTHONPATH=src python tests/test_cli_text.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from succrelay.cli import main

TEXT_PATH = Path(__file__).with_name("cli_text.json")
CASES = {
    "geometry_sweep": [
        "--experiment", "geometry_sweep", "--geometry", "III", "--l", "3",
        "--snr", "0", "20", "--trials", "20", "--seed", "11", "--adaptive", "a",
    ],
    "geometry_sweep-none": [
        "--experiment", "geometry_sweep", "--geometry", "I", "--l", "2", "--snr", "10",
        "--trials", "15", "--seed", "12", "--adaptive", "none",
        "--protocols", "direct", "classic2", "successive_vblast",
    ],
    "gain_curve": [
        "--experiment", "gain_curve", "--snr", "0", "20", "--trials", "200", "--seed", "4",
        "--gain-l", "2", "3",
    ],
    "dmt_slope-successive": [
        "--experiment", "dmt_slope", "--snr", "20", "30", "40", "--trials", "40000",
        "--seed", "5", "--l", "7", "--r", "0.5",
    ],
    "dmt_slope-classic2": [
        "--experiment", "dmt_slope", "--snr", "20", "30", "40",
        "--dmt-trials", "2000", "20000", "200000", "--seed", "6", "--r", "0.35",
        "--dmt-scheme", "classic2",
    ],
    # seed 1's draw fails rule c: the relaying schemes fall back to direct
    "single_realization-fallback": [
        "--experiment", "single_realization", "--geometry", "I", "--l", "3",
        "--snr", "0", "20", "--seed", "1", "--adaptive", "c",
    ],
}


def _outputs(argv: list[str]) -> dict:
    """The stdout lines and CSV lines of one `simulate --format csv` run."""
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(stdout):
        out = Path(tmp) / "out.csv"
        assert main([*argv, "--format", "csv", "--out", str(out)]) == 0
        csv = out.read_text(encoding="utf-8").splitlines()
    return {"stdout": stdout.getvalue().replace(str(out), "OUT").splitlines(), "csv": csv}


def _is_float_cell(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return not cell.lstrip("-").isdigit()


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(TEXT_PATH.read_text(encoding="utf-8"))


def test_pins_cover_every_case(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_matches_pin(name, pinned):
    got, want = _outputs(CASES[name]), pinned[name]
    assert got["stdout"] == want["stdout"]
    assert len(got["csv"]) == len(want["csv"]) and got["csv"][0] == want["csv"][0]
    for i, (got_line, want_line) in enumerate(zip(got["csv"][1:], want["csv"][1:]), 1):
        got_cells, want_cells = got_line.split(","), want_line.split(",")
        assert len(got_cells) == len(want_cells), f"line {i}"
        for j, (g, w) in enumerate(zip(got_cells, want_cells)):
            if w == "nan":
                assert math.isnan(float(g)), f"line {i} cell {j}"
            elif _is_float_cell(w):
                assert float(g) == pytest.approx(float(w), rel=1e-12, abs=0.0), f"line {i} cell {j}"
            else:
                assert g == w, f"line {i} cell {j}"


if __name__ == "__main__":
    recorded = {name: _outputs(CASES[name]) for name in sorted(CASES)}
    TEXT_PATH.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
