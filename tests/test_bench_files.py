"""The benchmark trajectory: every ``BENCH_*.json`` at the repository root.

Each file holds, for one commit, the ``info`` and ``result`` records that
``bench/run.py`` writes for every workload of ``BENCHMARK.json``, once with
``--trace 0`` and once with ``--trace 1``, at one seed and run length.  A
speed claim compares two such files, so each must name the same workloads,
run them all at one seed, and carry every end-to-end metric (trace 0) and
every per-layer metric (trace 1) in its declared unit.  Only
``BENCHMARK.json`` is read besides the files themselves.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
# trace -> the metrics its records carry, with their units
UNITS = {
    trace: {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer"))
}
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_trajectory_has_a_file():
    assert FILES, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_file_has_every_workload_at_both_traces(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    for key in ("commit", "nproc", "python", "numpy"):
        assert bench[key], key
    records = bench["records"]
    traces = {}
    for record in records:
        info = record["info"]
        traces.setdefault(info["workload"], []).append(info["trace"])
    assert set(traces) == WORKLOADS
    assert all(sorted(t) == [0, 1] for t in traces.values()), traces
    assert len({record["info"]["seed"] for record in records}) == 1
    for record in records:
        info, metrics = record["info"], record["result"]["metrics"]
        want = UNITS[info["trace"]]
        units = {name: metrics[name]["unit"] for name in want if name in metrics}
        assert units == want, (info["workload"], info["trace"])
