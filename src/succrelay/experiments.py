"""Configuration-driven experiment runner.

Reproduces the headline experiments at desk scale: the capacity-gain curve
over classic protocol II, the per-geometry rate sweeps, the empirical
diversity-multiplexing slope, and single-realization diagnostics.  Output
is data only (CSV or JSON); plotting is left to external tools.

Determinism contract: a sweep draws each SNR point's trials from one
stream per (seed, SNR index), trial-major, so a run with more trials
extends it without changing earlier trials.  Per-trial results are
assembled in trial order before any aggregation, and Monte Carlo counters
are integers, so a fixed (config, seed) pair produces byte-identical
output files for any worker count.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .channel import (
    LINK_NAMES,
    ChannelBatch,
    NetworkGeometry,
    preset_geometry,
    sample_realizations,
    trial_rng,
)
from .mimolinalg import require
from .outage import dmt_formula, estimate_dmt
from .protocols import (
    AdaptiveRule,
    adaptive_keep_batch,
    capacity_gain_G,
    interference_free_batch,
    rate_classic_batch,
    rate_direct_batch,
    successive_genie_batch,
    successive_vblast_batch,
    theorem1_rate_batch,
)

SCHEMA_VERSION = 1

EXPERIMENTS = ("gain_curve", "geometry_sweep", "dmt_slope", "single_realization")


def _one_codeword(rate: np.ndarray, slots: float):
    return rate, (slots * rate)[:, None], None


# name -> (relaying, kernel).  A kernel maps (gains (6, n), snr, l) to
# (rate per slot, per-codeword caps (n, k), decode-first branches (n, l-1));
# the caps are None for the interference-free capacity bound, the branches
# None for schemes without successive slots.  The adaptive rule replaces
# only relaying schemes with direct transmission.  Each lambda looks its
# kernel up in this module at call time, so a patched name takes effect.
PROTOCOLS = {
    "direct": (False, lambda g, snr, l: _one_codeword(rate_direct_batch(g, snr), 1.0)),
    "classic1": (
        True,
        lambda g, snr, l: _one_codeword(rate_classic_batch(g, snr, 1.0 / 3.0), 3.0),
    ),
    "classic2": (True, lambda g, snr, l: _one_codeword(rate_classic_batch(g, snr, 0.5), 2.0)),
    "successive_genie": (True, lambda g, snr, l: successive_genie_batch(g, snr, l)[:3]),
    "successive_vblast": (True, lambda g, snr, l: successive_vblast_batch(g, snr, l)),
    "theorem1": (False, lambda g, snr, l: (theorem1_rate_batch(g, snr, l), None, None)),
}
_GEOMETRY_KEYS = ("d_sd", "d_sr1", "d_sr2", "d_r1d", "d_r2d", "d_r1r2")


class ConfigError(ValueError):
    """Invalid experiment configuration, naming the offending field."""

    def __init__(self, config_field: str, message: str):
        self.field = config_field
        self.message = message
        super().__init__(f"config field '{config_field}': {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: what to simulate and where to write it."""

    experiment: str = "geometry_sweep"
    geometry: str | dict = "III"
    l: int = 7
    snr_grid_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    trials: int = 10_000
    seed: int = 12345
    protocols: tuple[str, ...] = tuple(PROTOCOLS)
    adaptive_rule: str = "a"
    output_path: str | None = None
    output_format: str = "csv"
    workers: int = 1
    gain_l_values: tuple[int, ...] = (3, 7)
    dmt_r: float = 0.0
    dmt_fixed_rate: float = 1.0
    dmt_scheme: str = "successive"
    dmt_trials_per_point: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("snr_grid_db", "protocols", "gain_l_values", "dmt_trials_per_point"):
            value = getattr(self, name)
            listed = hasattr(value, "__iter__") and not isinstance(value, str)
            if not (listed or value is None and name == "dmt_trials_per_point"):
                raise ConfigError(name, f"must be a list, got {value!r}")
        object.__setattr__(self, "snr_grid_db", tuple(self.snr_grid_db))
        object.__setattr__(self, "protocols", tuple(self.protocols))
        self.validate()
        object.__setattr__(self, "snr_grid_db", tuple(float(x) for x in self.snr_grid_db))
        if isinstance(self.geometry, dict):
            object.__setattr__(self, "geometry", {k: float(v) for k, v in self.geometry.items()})
        object.__setattr__(self, "gain_l_values", tuple(int(x) for x in self.gain_l_values))
        if self.dmt_trials_per_point is not None:
            object.__setattr__(
                self, "dmt_trials_per_point", tuple(int(x) for x in self.dmt_trials_per_point)
            )

    def validate(self) -> None:
        real, integer, text, path = numbers.Real, numbers.Integral, str, (str, type(None))
        typed = {
            "experiment": (text, [self.experiment]),
            "protocols": (text, self.protocols),
            "adaptive_rule": (text, [self.adaptive_rule]),
            "output_format": (text, [self.output_format]),
            "dmt_scheme": (text, [self.dmt_scheme]),
            "output_path": (path, [self.output_path]),
            "geometry": (real, self.geometry.values() if isinstance(self.geometry, dict) else ()),
            "snr_grid_db": (real, self.snr_grid_db),
            "dmt_r": (real, [self.dmt_r]),
            "dmt_fixed_rate": (real, [self.dmt_fixed_rate]),
            "l": (integer, [self.l]),
            "trials": (integer, [self.trials]),
            "seed": (integer, [self.seed]),
            "workers": (integer, [self.workers]),
            "gain_l_values": (integer, self.gain_l_values),
            "dmt_trials_per_point": (integer, self.dmt_trials_per_point or ()),
        }
        nouns = {real: "real numbers", integer: "integers", text: "strings", path: "str or null"}
        for name, (kind, values) in typed.items():
            if any(isinstance(v, bool) or not isinstance(v, kind) for v in values):
                raise ConfigError(name, f"must be {nouns[kind]}, got {getattr(self, name)!r}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError("experiment", f"must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if isinstance(self.geometry, dict):
            missing = [k for k in _GEOMETRY_KEYS if k not in self.geometry]
            if missing:
                raise ConfigError("geometry", f"custom geometry missing {missing}")
            allowed = set(_GEOMETRY_KEYS) | {"gamma", "shadow_sigma_db"}
            unknown = sorted(set(self.geometry) - allowed)
            if unknown:
                raise ConfigError("geometry", f"unknown geometry keys {unknown}")
        elif not isinstance(self.geometry, str):
            raise ConfigError("geometry", "must be a preset name or a distance mapping")
        try:
            resolve_geometry(self)
        except (TypeError, ValueError) as exc:
            raise ConfigError("geometry", str(exc)) from exc
        if self.l < 1:
            raise ConfigError("l", f"frame length must be >= 1, got {self.l}")
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db", "grid must be nonempty")
        if not all(math.isfinite(x) for x in self.snr_grid_db):
            raise ConfigError("snr_grid_db", f"entries must be finite, got {self.snr_grid_db}")
        if self.trials < 1:
            raise ConfigError("trials", f"must be >= 1, got {self.trials}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError("seed", "must fit an unsigned 64-bit integer")
        if not self.protocols:
            raise ConfigError("protocols", "select at least one protocol")
        for name in self.protocols:
            if name not in PROTOCOLS:
                raise ConfigError("protocols", f"unknown protocol {name!r}")
        if self.adaptive_rule not in ("none", "a", "b", "c"):
            raise ConfigError("adaptive_rule", f"must be none/a/b/c, got {self.adaptive_rule!r}")
        if self.output_format not in ("csv", "json"):
            raise ConfigError("output_format", f"must be csv or json, got {self.output_format!r}")
        if self.workers < 1:
            raise ConfigError("workers", f"must be >= 1, got {self.workers}")
        if self.experiment == "gain_curve" and not self.gain_l_values:
            raise ConfigError("gain_l_values", "gain curve needs at least one frame length")
        if self.dmt_scheme not in ("successive", "classic2"):
            raise ConfigError("dmt_scheme", f"must be successive or classic2, got {self.dmt_scheme!r}")
        if not 0.0 <= self.dmt_r < math.inf:
            raise ConfigError("dmt_r", f"must be finite and >= 0, got {self.dmt_r}")
        if not 0.0 <= self.dmt_fixed_rate < math.inf:
            raise ConfigError("dmt_fixed_rate", f"must be finite and >= 0, got {self.dmt_fixed_rate}")
        if self.dmt_trials_per_point is not None:
            if len(self.dmt_trials_per_point) != len(self.snr_grid_db):
                raise ConfigError("dmt_trials_per_point", "must match the SNR grid length")
            if min(self.dmt_trials_per_point) < 1:
                raise ConfigError("dmt_trials_per_point", "every entry must be >= 1")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(unknown[0], "unknown configuration key")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return asdict(self)


def resolve_geometry(cfg: ExperimentConfig) -> NetworkGeometry:
    if isinstance(cfg.geometry, str):
        return preset_geometry(cfg.geometry)
    extra = {k: float(v) for k, v in cfg.geometry.items() if k not in _GEOMETRY_KEYS}
    dists = {k: float(cfg.geometry[k]) for k in _GEOMETRY_KEYS}
    return NetworkGeometry(**dists, **extra)


@dataclass(frozen=True)
class SweepRow:
    """Per-SNR aggregate of one geometry sweep."""

    snr_db: float
    rates: dict[str, float]
    stderrs: dict[str, float]
    fallback_fraction: float
    interference_free_fraction: float
    source_links_strong_fraction: float

    def __post_init__(self) -> None:
        if any(v < 0.0 for v in self.rates.values()):
            raise ValueError("mean rates must be >= 0")
        if any(v < 0.0 for v in self.stderrs.values()):
            raise ValueError("standard errors must be >= 0")


def _sample_trials(geom: NetworkGeometry, seed: int, snr_idx: int, n: int) -> ChannelBatch:
    """Draw trials 0, ..., n - 1 of SNR point snr_idx's stream, in trial order.

    The stream is ``trial_rng(seed, snr_idx)``.  It is drawn one trial per
    `sample_realizations` call because the benchmark's tracer counts one
    call per trial (``channel.calls`` in ``bench/test_smoke.py``); one call
    for all n trials on the same stream gives the same bytes.
    """
    rng = trial_rng(seed, snr_idx)
    return ChannelBatch(
        np.concatenate([sample_realizations(geom, rng, 1).h for _ in range(n)], axis=1)
    )


def _mean_sem(x: np.ndarray) -> tuple[float, float]:
    n = x.shape[0]
    mean = float(np.mean(x))
    sem = float(np.std(x, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, sem


def run_geometry_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Mean per-protocol rates over the SNR grid for one geometry.

    Fresh realizations are drawn at every SNR point, from that point's own
    stream (see `_sample_trials`); the adaptive rule, when set, replaces each
    relaying scheme's rate with the direct rate on failing draws.  The
    interference-free capacity bound is reported unadapted.
    """
    if cfg.experiment != "geometry_sweep":
        raise ConfigError("experiment", f"expected geometry_sweep, got {cfg.experiment!r}")
    geom = resolve_geometry(cfg)
    rule = None if cfg.adaptive_rule == "none" else AdaptiveRule(cfg.adaptive_rule)
    rows = []
    for snr_idx, snr_db in enumerate(cfg.snr_grid_db):
        snr = 10.0 ** (snr_db / 10.0)
        g = _sample_trials(geom, cfg.seed, snr_idx, cfg.trials).gains()
        keep = np.ones(cfg.trials, dtype=bool) if rule is None else adaptive_keep_batch(g, rule)
        cancel_ok, source_ok = interference_free_batch(g, snr, cfg.l)
        # the fallback's direct rate doubles as the direct column
        direct = None if rule is None else rate_direct_batch(g, snr)
        means, sems = {}, {}
        for name in cfg.protocols:
            relaying, kernel = PROTOCOLS[name]
            values = direct if name == "direct" and direct is not None else kernel(g, snr, cfg.l)[0]
            if rule is not None and relaying:
                values = np.where(keep, values, direct)
            means[name], sems[name] = _mean_sem(values)
        rows.append(
            SweepRow(
                snr_db=float(snr_db),
                rates=means,
                stderrs=sems,
                fallback_fraction=float(1.0 - np.mean(keep)),
                interference_free_fraction=float(np.mean(cancel_ok)),
                source_links_strong_fraction=float(np.mean(source_ok)),
            )
        )
    return rows


def run_gain_curve(cfg: ExperimentConfig) -> list[dict]:
    """Capacity gain over classic protocol II per (frame length, SNR)."""
    if cfg.experiment != "gain_curve":
        raise ConfigError("experiment", f"expected gain_curve, got {cfg.experiment!r}")
    snrs = np.array([10.0 ** (snr_db / 10.0) for snr_db in cfg.snr_grid_db])
    rows = []
    for li, l in enumerate(cfg.gain_l_values):
        # common random numbers across the grid: one draw per frame length
        # keeps the curve smooth for point-to-point comparisons
        rng = trial_rng(cfg.seed, li)
        for snr_db, gain in zip(cfg.snr_grid_db, capacity_gain_G(snrs, l, cfg.trials, rng)):
            rows.append({"l": l, "snr_db": float(snr_db), "capacity_gain": float(gain)})
    return rows


def run_dmt(cfg: ExperimentConfig) -> dict:
    """Empirical diversity slope plus the closed-form tradeoff value."""
    if cfg.experiment != "dmt_slope":
        raise ConfigError("experiment", f"expected dmt_slope, got {cfg.experiment!r}")
    try:
        point = estimate_dmt(
            cfg.dmt_r,
            cfg.l,
            cfg.snr_grid_db,
            cfg.dmt_trials_per_point if cfg.dmt_trials_per_point is not None else cfg.trials,
            cfg.seed,
            scheme=cfg.dmt_scheme,
            fixed_rate_bits=cfg.dmt_fixed_rate,
            workers=cfg.workers,
        )
    except ValueError as exc:
        # estimate_dmt words every error about r as "multiplexing gain ..."
        field = "dmt_r" if str(exc).startswith("multiplexing gain") else "snr_grid_db"
        raise ConfigError(field, str(exc)) from exc
    result = asdict(point)
    result["dmt_formula"] = dmt_formula(cfg.dmt_r, cfg.l)
    return result


def run_single_realization(cfg: ExperimentConfig) -> dict:
    """Full per-protocol diagnostics of trial 0 across the SNR grid.

    The n = 1 view of the batched kernels: trial 0 of a sweep's first SNR
    point, the first draw of stream (seed, 0), with the decode-first
    branches, per-codeword caps and flags that the sweep averages away.
    """
    if cfg.experiment != "single_realization":
        raise ConfigError("experiment", f"expected single_realization, got {cfg.experiment!r}")
    batch = _sample_trials(resolve_geometry(cfg), cfg.seed, 0, 1)
    g = batch.gains()
    h = batch.h[:, 0].tolist()
    rule = None if cfg.adaptive_rule == "none" else AdaptiveRule(cfg.adaptive_rule)
    keep = rule is None or bool(adaptive_keep_batch(g, rule)[0])
    coeffs = {f"h_{name}": [c.real, c.imag] for name, c in zip(LINK_NAMES, h)}
    entries = []
    for snr_db in cfg.snr_grid_db:
        snr = 10.0 ** (snr_db / 10.0)
        flags = [bool(f[0]) for f in interference_free_batch(g, snr, cfg.l)]
        for name in cfg.protocols:
            relaying, kernel = PROTOCOLS[name]
            rate, per_cw, branch = kernel(g, snr, cfg.l)
            entry = {"snr_db": float(snr_db), "protocol": name, "rate_per_slot": float(rate[0])}
            entries.append(entry)
            if per_cw is None:
                entry["fallback_to_direct"] = False
                continue
            fallback = relaying and not keep
            decode = [] if branch is None or fallback else branch[0].tolist()
            if fallback:
                rate = rate_direct_batch(g, snr)
                per_cw = rate[:, None]
            entry.update(
                rate_per_slot=float(rate[0]),
                per_codeword_rates=per_cw[0].tolist(),
                decode_interference_first=decode,
                fallback_to_direct=fallback,
                interference_free=None if branch is None else flags[0],
                source_links_strong=None if branch is None else flags[1],
            )
    return {"realization": coeffs, "entries": entries}


@dataclass(frozen=True)
class GapRow:
    """Per-SNR V-BLAST-to-genie rate gap (no adaptive fallback applied)."""

    snr_db: float
    mean_gap: float
    mean_genie: float
    min_gap: float


def vblast_gap_report(cfg: ExperimentConfig) -> list[GapRow]:
    """Mean (genie - V-BLAST) rate gap per SNR point.

    The per-realization gap is never meaningfully negative: the SIC
    per-stream caps are at most the single-stream combining caps and the
    chain sum is exactly the log-det bound, so a gap below -1e-9 on any draw
    raises InvariantError.
    """
    if not {"successive_genie", "successive_vblast"} <= set(cfg.protocols):
        raise ConfigError("protocols", "gap report needs both successive variants")
    geom = resolve_geometry(cfg)
    rows = []
    for snr_idx, snr_db in enumerate(cfg.snr_grid_db):
        snr = 10.0 ** (snr_db / 10.0)
        g = _sample_trials(geom, cfg.seed, snr_idx, cfg.trials).gains()
        genie = successive_genie_batch(g, snr, cfg.l)[0]
        vblast = successive_vblast_batch(g, snr, cfg.l)[0]
        gap = genie - vblast
        require(gap >= -1e-9, "V-BLAST rate exceeded the genie bound")
        rows.append(
            GapRow(
                snr_db=float(snr_db),
                mean_gap=float(np.mean(gap)),
                mean_genie=float(np.mean(genie)),
                min_gap=float(np.min(gap)) if gap.size else 0.0,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# output serialization
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def _write_text(path: str | Path, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def write_json(path: str | Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def sweep_csv_table(cfg: ExperimentConfig, rows: list[SweepRow]) -> tuple[list[str], list[list]]:
    header = ["schema_version", "snr_db"]
    for name in cfg.protocols:
        header += [f"mean_{name}", f"stderr_{name}"]
    header += [
        "fallback_fraction",
        "interference_free_fraction",
        "source_links_strong_fraction",
    ]
    table = []
    for row in rows:
        values: list = [SCHEMA_VERSION, row.snr_db]
        for name in cfg.protocols:
            values += [row.rates[name], row.stderrs[name]]
        values += [
            row.fallback_fraction,
            row.interference_free_fraction,
            row.source_links_strong_fraction,
        ]
        table.append(values)
    return header, table


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run the configured experiment, write output if requested.

    Returns a JSON-ready payload; when ``cfg.output_path`` is set the
    payload (json) or its tabular form (csv) is also written there.
    """
    payload: dict = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "config": cfg.to_dict(),
    }
    if cfg.experiment == "geometry_sweep":
        rows = run_geometry_sweep(cfg)
        payload["rows"] = [asdict(r) for r in rows]
        header, table = sweep_csv_table(cfg, rows)
    elif cfg.experiment == "gain_curve":
        rows = run_gain_curve(cfg)
        payload["rows"] = rows
        header = ["schema_version", "l", "snr_db", "capacity_gain"]
        table = [[SCHEMA_VERSION, r["l"], r["snr_db"], r["capacity_gain"]] for r in rows]
    elif cfg.experiment == "dmt_slope":
        result = payload["result"] = run_dmt(cfg)
        columns = {  # CSV column -> per-grid-point field
            "snr_db": "snr_grid_db",
            "target_rate_per_slot": "target_rates_per_slot",
            "trials": "trials",
            "events": "events",
            "outage_prob": "outage_prob",
            "low_event_flag": "low_event_flags",
        }
        fits = ["diversity_estimate", "diversity_lstsq", "dmt_formula"]
        header = ["schema_version", *columns, *fits]
        table = [
            [SCHEMA_VERSION, *(result[f][i] for f in columns.values()), *(result[f] for f in fits)]
            for i in range(len(result["snr_grid_db"]))
        ]
    else:
        result = run_single_realization(cfg)
        payload["result"] = result
        header = ["schema_version", "snr_db", "protocol", "rate_per_slot", "fallback_to_direct"]
        table = [
            [SCHEMA_VERSION, e["snr_db"], e["protocol"], e["rate_per_slot"], e["fallback_to_direct"]]
            for e in result["entries"]
        ]

    if cfg.output_path:
        if cfg.output_format == "csv":
            write_csv(cfg.output_path, header, table)
        else:
            write_json(cfg.output_path, payload)
    return payload
