"""Golden values of every experiment at small fixed-seed configs.

``golden.json`` holds the payloads these runs produced when it was
recorded; a refactor that keeps the random streams and the arithmetic
must reproduce them.  Integers, booleans and strings compare exactly,
floats within a relative 1e-12.  A change that alters the streams on
purpose re-records the cases it changes, or with no names all of them, and
says so:

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

The other entries keep their recorded bytes.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import pytest

from succrelay.experiments import ExperimentConfig, run_experiment

GOLDEN_PATH = Path(__file__).with_name("golden.json")
ALL_PROTOCOLS = (
    "direct",
    "classic1",
    "classic2",
    "successive_genie",
    "successive_vblast",
    "theorem1",
)
GEOMETRIES = ("I", "II", "III")
RULES = ("none", "a", "b", "c")


def _cases() -> dict[str, dict]:
    cases = {}
    for geometry, rule, l in itertools.product(GEOMETRIES, RULES, (1, 2, 7)):
        common = dict(
            geometry=geometry, adaptive_rule=rule, l=l, snr_grid_db=(0.0, 20.0),
            protocols=ALL_PROTOCOLS, seed=2024,
        )
        cases[f"sweep-{geometry}-{rule}-{l}"] = dict(
            experiment="geometry_sweep", trials=25, **common
        )
        # one realization per geometry: every rule at l = 7, every l at rule b
        if l == 7 or rule == "b":
            cases[f"single-{geometry}-{rule}-{l}"] = dict(
                experiment="single_realization", trials=1, **common
            )
    cases["gain_curve"] = dict(
        experiment="gain_curve", snr_grid_db=(0.0, 20.0, 40.0), trials=300, seed=7,
        gain_l_values=(3, 7),
    )
    cases["dmt_slope"] = dict(
        experiment="dmt_slope", snr_grid_db=(20.0, 30.0, 40.0), trials=20_000, seed=5,
        l=7, dmt_r=0.5,
    )
    return cases


CASES = _cases()


def _result(name: str):
    payload = run_experiment(ExperimentConfig(**CASES[name]))
    data = payload.get("rows", payload.get("result"))
    return json.loads(json.dumps(data))


def _assert_matches(got, want, path: str) -> None:
    if isinstance(want, float):
        assert isinstance(got, float), path
        if math.isnan(want):
            assert math.isnan(got), path
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, path


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, golden):
    _assert_matches(_result(name), golden[name], name)


def _recorded(names: list[str]) -> dict:
    """Every case's payload: run afresh for ``names`` (all cases if none),
    the others as ``golden.json`` holds them."""
    fresh = names or sorted(CASES)
    unknown = sorted(set(fresh) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown golden cases {unknown}; known: {sorted(CASES)}")
    old = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if names else {}
    missing = sorted(set(CASES) - set(old) - set(fresh))
    if missing:
        raise SystemExit(f"cases {missing} were never recorded; name them too")
    return {name: _result(name) if name in fresh else old[name] for name in sorted(CASES)}


if __name__ == "__main__":
    recorded = _recorded(sys.argv[1:])
    GOLDEN_PATH.write_text(json.dumps(recorded, separators=(",", ":")) + "\n", encoding="utf-8")
