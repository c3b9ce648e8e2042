"""The benchmark's workloads: argv generation, work units and output checks.

Each workload is one `simulate` invocation.  The benchmark seed becomes the
program's `--seed`; everything else is fixed here, so the program only ever
receives generated inputs.  `scale` shrinks the trial counts for the smoke
tests and for the set-up warm-up call; the timed runs use scale 1.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

ALL_PROTOCOLS = (
    "direct",
    "classic1",
    "classic2",
    "successive_genie",
    "successive_vblast",
    "theorem1",
)

# Sweep means must lie within this many combined standard errors of the
# reference means in reference.json (recorded at a different seed and a
# larger trial count, so a change of random streams still passes).
REFERENCE_SIGMAS = 6.0
# Shape bounds of acceptance criteria 5 (DMT slope) and 6 (gain curve).
DMT_SLOPE, DMT_SLOPE_TOL = 2.0, 0.3
GAIN_BAND = (1.4, 1.75)

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiment: str
    snr: tuple[float, ...]
    output_format: str
    trials: int = 1
    geometry: str | None = None
    l: int | None = None
    protocols: tuple[str, ...] = ()
    adaptive: str | None = None
    gain_l: tuple[int, ...] = ()
    dmt_trials: tuple[int, ...] = ()
    workers: int = 1
    # calibration kernel whose work resembles this workload's (calibration.py)
    calibration: str = "interpreter"

    def sized(self, scale: float) -> "Workload":
        """The same workload with every trial count multiplied by scale."""
        return replace(
            self,
            trials=max(1, round(self.trials * scale)),
            dmt_trials=tuple(max(1, round(t * scale)) for t in self.dmt_trials),
        )

    def argv(self, seed: int, out: str) -> list[str]:
        a = ["--experiment", self.experiment, "--seed", str(seed)]
        a += ["--snr", *(f"{x:g}" for x in self.snr)]
        if self.experiment == "dmt_slope":
            a += ["--r", "0", "--dmt-scheme", "successive"]
            a += ["--dmt-trials", *(str(t) for t in self.dmt_trials)]
        else:
            a += ["--trials", str(self.trials)]
        if self.geometry is not None:
            a += ["--geometry", self.geometry]
        if self.l is not None:
            a += ["--l", str(self.l)]
        if self.protocols:
            a += ["--protocols", *self.protocols]
        if self.adaptive is not None:
            a += ["--adaptive", self.adaptive]
        if self.gain_l:
            a += ["--gain-l", *(str(x) for x in self.gain_l)]
        a += ["--workers", str(self.workers), "--format", self.output_format, "--out", out]
        return a

    def work_units(self) -> int:
        """Trials done by one call, as counted by `trials_per_s`."""
        if self.experiment == "dmt_slope":
            return sum(self.dmt_trials)
        n = self.trials * len(self.snr)
        if self.experiment == "gain_curve":
            n *= len(self.gain_l)
        return n

    def expected_counts(self) -> dict[str, int]:
        """Per-call layer counts implied by the argv alone."""
        sweep = self.experiment == "geometry_sweep"
        draws = self.trials * len(self.snr) if sweep else 0
        vblast = sweep and "successive_vblast" in self.protocols
        return {
            "channel.calls": draws,
            "mimolinalg.sic_streams": draws * self.l if vblast else 0,
            "outage.draws": sum(self.dmt_trials),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_full",
            why="headline rate comparison, all six protocols; co-located relays "
            "fire the decode-first branch and the dense MMSE-SIC dominates",
            experiment="geometry_sweep",
            geometry="III",
            l=7,
            snr=(0.0, 10.0, 20.0),
            trials=1000,
            protocols=ALL_PROTOCOLS,
            adaptive="a",
            output_format="csv",
        ),
        Workload(
            name="sweep_rates",
            why="sweep without V-BLAST on far-apart relays: the per-trial channel "
            "sampler dominates and the SIC never runs",
            experiment="geometry_sweep",
            geometry="I",
            l=7,
            snr=(0.0, 10.0, 20.0),
            trials=5000,
            protocols=("direct", "classic1", "classic2", "successive_genie", "theorem1"),
            adaptive="b",
            output_format="csv",
        ),
        Workload(
            name="gain_curve",
            why="capacity-gain curve: Cholesky log-det of stacked Gram matrices "
            "dominates; no sampler, no SIC; draws repeat across SNR points",
            experiment="gain_curve",
            snr=tuple(float(x) for x in range(0, 45, 5)),
            trials=10000,
            gain_l=(3, 7),
            output_format="json",
            calibration="linalg",
        ),
        Workload(
            name="dmt_slope",
            why="diversity slope at r = 0: only the outage block runs, on the "
            "two-worker pool",
            experiment="dmt_slope",
            l=7,
            snr=(20.0, 30.0, 40.0),
            dmt_trials=(2_000_000, 30_000_000, 2_000_000),
            workers=2,
            output_format="csv",
            calibration="stream",
        ),
    )
}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


class Checks:
    """Tally of correctness checks; `failures` names each failed one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def parse_sweep_csv(data: bytes) -> dict[float, dict[str, float]]:
    rows = csv.DictReader(io.StringIO(data.decode("utf-8")))
    return {float(r["snr_db"]): {k: float(v) for k, v in r.items()} for r in rows}


def check_output(wl: Workload, data: bytes, first: bytes | None, reference: dict, c: Checks) -> None:
    """Check one call's output file against the workload's invariants."""
    c.check(first is None or data == first, "output bytes differ from the first call's")
    if wl.experiment == "geometry_sweep":
        _check_sweep(wl, data, reference[wl.name], c)
    elif wl.experiment == "gain_curve":
        _check_gain(wl, data, c)
    else:
        _check_dmt(data, c)


def _check_sweep(wl: Workload, data: bytes, ref: dict, c: Checks) -> None:
    rows = parse_sweep_csv(data)
    c.check(sorted(rows) == sorted(wl.snr), "sweep rows do not match the SNR grid")
    for snr, row in rows.items():
        for p in wl.protocols:
            mean, se = row[f"mean_{p}"], row[f"stderr_{p}"]
            finite = math.isfinite(mean) and math.isfinite(se) and mean >= 0.0 and se >= 0.0
            c.check(finite, f"{p} at {snr:g} dB: mean {mean} / stderr {se} not finite and >= 0")
            ref_mean, ref_se = ref["means"][f"{snr:g}"][p]
            tol = REFERENCE_SIGMAS * math.hypot(se, ref_se)
            c.check(
                abs(mean - ref_mean) <= tol,
                f"{p} at {snr:g} dB: mean {mean:.6g} vs reference {ref_mean:.6g} (tol {tol:.3g})",
            )
        if "successive_vblast" in wl.protocols:
            vb, genie = row["mean_successive_vblast"], row["mean_successive_genie"]
            c.check(vb <= genie + 1e-9, f"V-BLAST mean {vb} above genie mean {genie} at {snr:g} dB")


def _check_gain(wl: Workload, data: bytes, c: Checks) -> None:
    rows = json.loads(data)["rows"]
    curves = {
        l: [r["capacity_gain"] for r in sorted(rows, key=lambda r: r["snr_db"]) if r["l"] == l]
        for l in wl.gain_l
    }
    for l, curve in curves.items():
        ok = len(curve) == len(wl.snr) and all(b >= a for a, b in zip(curve, curve[1:]))
        c.check(ok, f"G({l}) not monotone in SNR: {curve}")
    at30 = wl.snr.index(30.0)
    c.check(curves[7][at30] > curves[3][at30], "G(7) <= G(3) at 30 dB")
    g40 = curves[7][wl.snr.index(40.0)]
    c.check(GAIN_BAND[0] < g40 < GAIN_BAND[1], f"G(7, 40 dB) = {g40} outside {GAIN_BAND}")


def _check_dmt(data: bytes, c: Checks) -> None:
    rows = {float(r["snr_db"]): r for r in csv.DictReader(io.StringIO(data.decode("utf-8")))}
    for snr in (20.0, 30.0):
        c.check(rows[snr]["low_event_flag"] == "false", f"{snr:g} dB point has too few events")
    slope = float(rows[20.0]["diversity_estimate"])
    c.check(
        abs(slope - DMT_SLOPE) <= DMT_SLOPE_TOL,
        f"diversity slope {slope} outside {DMT_SLOPE} +- {DMT_SLOPE_TOL}",
    )
