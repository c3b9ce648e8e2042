"""Benchmark of the `simulate` experiments, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep_full --seed 1 --seconds 20 --trace 0

Drives `succrelay.cli.main(argv)` in this process, the entry point users
run, on one workload (see workloads.py and README.md) for `--seconds`.
With `--trace 0` it prints the end-to-end metrics, with times scaled to
nominal machine speed (calibration.py); with `--trace 1` it alternates
untraced and traced calls and prints the per-layer metrics.  Every call's
output file is checked.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it is an info block (machine, versions, argv, raw samples).
Records and spans are also written under `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from calibration import speed_factor
from tracing import ROOT as ROOT_SPAN
from tracing import LAYER_UNITS, Tracer, layer_metrics, per_call
from workloads import WORKLOADS, Checks, Workload, check_output, load_reference

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
OUT = CHECKOUT / ".bench_out"

# Set-up is repeated in every run and its median reported; the warm-up call
# runs the workload at this fraction of its trial counts.
SETUP_ROUNDS = 5
WARMUP_SCALE = 0.05
TAIL_SAMPLES = 10


class ProgramMissing(RuntimeError):
    """The checkout holds no succrelay sources to benchmark."""


def import_program():
    """Import `succrelay.cli` afresh from the checkout's `src/`."""
    if not (SRC / "succrelay" / "cli.py").is_file():
        raise ProgramMissing(f"no succrelay sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "succrelay" or m.startswith("succrelay.")]:
        del sys.modules[name]
    cli = importlib.import_module("succrelay.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"succrelay imported from {cli.__file__}, not from {SRC}")
    return cli


def call(main, argv: list[str]) -> tuple[float, str | None]:
    """Time one `main(argv)` call; returns (seconds, error or None)."""
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        if rc != 0:
            error = f"cli.main returned {rc}"
    except Exception:  # a raising call is a failed check, not a crash of the benchmark
        error = traceback.format_exc()
    return time.perf_counter() - t0, error


def set_up(wl: Workload, seed: int, argv: list[str], checks: Checks):
    """Import the package, parse and validate the config, warm up; SETUP_ROUNDS times."""
    warm = wl.sized(WARMUP_SCALE).argv(seed, str(OUT / f"{wl.name}.warmup.{wl.output_format}"))
    times, factors = [], []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        cli = import_program()
        cli.config_from_args(cli.build_parser().parse_args(argv))
        _, error = call(cli.main, warm)
        times.append(time.perf_counter() - t0)
        factors.append(speed_factor(wl.calibration))
        checks.check(error is None, f"warm-up call failed: {error}")
    return cli, times, factors


def tail(samples: list[float]) -> dict | None:
    """The highest of p50/p90/p99/p99.9 with at least TAIL_SAMPLES beyond it."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(samples) * (1.0 - p / 100.0) >= TAIL_SAMPLES:
            return {"percentile": p, "value": float(np.percentile(samples, p))}
    return None


def src_lines() -> int:
    return sum(len(f.read_text(encoding="utf-8").splitlines()) for f in SRC.rglob("*.py"))


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Run one workload; returns the result line, the info block and raw samples."""
    wl = WORKLOADS[name].sized(scale)
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{wl.name}.{wl.output_format}"
    argv = wl.argv(seed, str(out))
    reference = load_reference()
    checks = Checks()
    cli, setup_times, setup_factors = set_up(wl, seed, argv, checks)
    modules = {
        "experiments": sys.modules["succrelay.experiments"],
        "protocols": sys.modules["succrelay.protocols"],
        "cli": cli,
    }
    tracer = Tracer() if trace else None
    traced_main = tracer.wrap(ROOT_SPAN, cli.main) if trace else None

    first = None

    def checked_call(main) -> float:
        nonlocal first
        out.unlink(missing_ok=True)
        wall, error = call(main, argv)
        checks.check(error is None, f"call failed: {error}")
        if error is None:
            data = out.read_bytes()
            check_output(wl, data, first, reference, checks)
            first = data if first is None else first
        return wall

    def traced_call() -> float:
        tracer.install(modules)
        try:
            return checked_call(traced_main)
        finally:
            tracer.remove()

    walls, factors, traced_walls = [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        # traced runs alternate which of the pair goes first, so that order
        # effects cancel in trace.overhead_s
        if trace and len(walls) % 2:
            traced_walls.append(traced_call())
        walls.append(checked_call(cli.main))
        if not trace:
            factors.append(speed_factor(wl.calibration))
        elif len(walls) % 2:
            traced_walls.append(traced_call())

    wall_s = statistics.median(walls)
    if trace:
        calls = [layer_metrics(c) for c in per_call(tracer)]
        values = {k: statistics.median(c[k] for c in calls) for k in calls[0]}
        traced_wall = statistics.median(traced_walls)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - wall_s
        units = LAYER_UNITS
        tracer.save(OUT / f"{wl.name}-seed{seed}-spans.npz")
    else:
        norm_wall = statistics.median(w * f for w, f in zip(walls, factors))
        values = {
            "wall_s": norm_wall,
            "trials_per_s": wl.work_units() / norm_wall,
            "setup_s": statistics.median(t * f for t, f in zip(setup_times, setup_factors)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_fraction": 1.0 - checks.failed / checks.attempted,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    info = {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "trace": int(trace),
        "scale": scale,
        "argv": argv,
        "work_units_per_call": wl.work_units(),
        "wall_s_raw": {"median": wall_s, "min": min(walls), "samples": len(walls), "tail": tail(walls)},
        "setup_s_raw": {"median": statistics.median(setup_times), "samples": setup_times},
        "speed_factor": factors,
        "failures": checks.failures[:20],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_lines(),
    }
    record = {"info": info, "result": result, "walls": walls, "traced_walls": traced_walls}
    if trace:
        record["calls"] = calls
    (OUT / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


END_TO_END_UNITS = {
    "wall_s": "s",
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_fraction": "fraction",
}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must lie in [0, 2**63)")
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"info": record["info"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
