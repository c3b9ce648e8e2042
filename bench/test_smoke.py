"""Smoke tests of the benchmark itself, at small trial counts.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_smoke.py

The DMT workload keeps its full trial counts: its 30 dB point needs them
to clear the usability floor its checks require.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import CHECKOUT, END_TO_END_UNITS, measure
from tracing import LAYER_UNITS
from workloads import WORKLOADS

SCALE = {"sweep_full": 0.05, "sweep_rates": 0.02, "gain_curve": 0.1, "dmt_slope": 1.0}

# Self times of all traced names; together they partition the root span.
SELF_TIMES = [
    k
    for k, unit in LAYER_UNITS.items()
    if unit == "s" and not k.startswith("trace.")
]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_run_passes_every_check(name):
    record = measure(name, seed=2, seconds=0.0, trace=False, scale=SCALE[name])
    result = record["result"]
    assert record["info"]["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_counts_and_self_times(name):
    record = measure(name, seed=1, seconds=0.0, trace=True, scale=SCALE[name])
    result = record["result"]
    assert record["info"]["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == LAYER_UNITS

    calls = record["calls"]
    assert len(calls) == len(record["traced_walls"]) >= 1
    for call, wall in zip(calls, record["traced_walls"]):
        assert sum(call[k] for k in SELF_TIMES) <= wall
    expected = WORKLOADS[name].sized(SCALE[name]).expected_counts()
    for key, value in expected.items():
        assert all(call[key] == value for call in calls), key


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero, printing nothing."""
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name, ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((CHECKOUT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "sweep_full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
