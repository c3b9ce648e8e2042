"""Configuration-driven experiment runner.

Reproduces the headline experiments at desk scale: the capacity-gain curve
over classic protocol II, the per-geometry rate sweeps, the empirical
diversity-multiplexing slope, and single-realization diagnostics.  Output
is data only (CSV or JSON); plotting is left to external tools.

Determinism contract: every trial's channel is keyed by (seed, global
trial index), per-trial results are assembled in trial order before any
aggregation, and Monte Carlo counters are integers, so a fixed (config,
seed) pair produces byte-identical output files for any worker count.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .channel import (
    ChannelBatch,
    NetworkGeometry,
    preset_geometry,
    sample_realizations,
    trial_rng,
    trial_streams,
)
from .mimolinalg import require
from .outage import DmtPoint, dmt_formula, estimate_dmt
from .protocols import (
    AdaptiveRule,
    Scheme,
    adaptive_keep_batch,
    apply_adaptive_fallback,
    capacity_gain_G,
    interference_free_batch,
    rate_classic1,
    rate_classic2,
    rate_classic_batch,
    rate_direct,
    rate_direct_batch,
    rate_successive_genie,
    rate_successive_vblast,
    rate_theorem1,
    successive_genie_batch,
    successive_vblast_batch,
    theorem1_rate_batch,
)

SCHEMA_VERSION = 1

EXPERIMENTS = ("gain_curve", "geometry_sweep", "dmt_slope", "single_realization")
PROTOCOL_NAMES = tuple(s.value for s in Scheme)
_RELAYING = {
    Scheme.CLASSIC1.value,
    Scheme.CLASSIC2.value,
    Scheme.SUCCESSIVE_GENIE.value,
    Scheme.SUCCESSIVE_VBLAST.value,
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
    protocols: tuple[str, ...] = (
        "direct",
        "classic1",
        "classic2",
        "successive_genie",
        "successive_vblast",
        "theorem1",
    )
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
        object.__setattr__(self, "snr_grid_db", tuple(float(x) for x in self.snr_grid_db))
        object.__setattr__(self, "protocols", tuple(self.protocols))
        object.__setattr__(self, "gain_l_values", tuple(int(x) for x in self.gain_l_values))
        if self.dmt_trials_per_point is not None:
            object.__setattr__(
                self, "dmt_trials_per_point", tuple(int(x) for x in self.dmt_trials_per_point)
            )
        self.validate()

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError("experiment", f"must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if isinstance(self.geometry, str):
            if self.geometry.strip().upper() not in ("I", "II", "III"):
                raise ConfigError("geometry", f"unknown preset {self.geometry!r}")
        elif isinstance(self.geometry, dict):
            missing = [k for k in _GEOMETRY_KEYS if k not in self.geometry]
            if missing:
                raise ConfigError("geometry", f"custom geometry missing {missing}")
            allowed = set(_GEOMETRY_KEYS) | {"gamma", "shadow_sigma_db"}
            unknown = sorted(set(self.geometry) - allowed)
            if unknown:
                raise ConfigError("geometry", f"unknown geometry keys {unknown}")
        else:
            raise ConfigError("geometry", "must be a preset name or a distance mapping")
        if self.l < 1:
            raise ConfigError("l", f"frame length must be >= 1, got {self.l}")
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db", "grid must be nonempty")
        if self.trials < 1:
            raise ConfigError("trials", f"must be >= 1, got {self.trials}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError("seed", "must fit an unsigned 64-bit integer")
        if not self.protocols:
            raise ConfigError("protocols", "select at least one protocol")
        for name in self.protocols:
            if name not in PROTOCOL_NAMES:
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
        if self.dmt_r < 0:
            raise ConfigError("dmt_r", f"must be >= 0, got {self.dmt_r}")
        if self.dmt_trials_per_point is not None and len(self.dmt_trials_per_point) != len(
            self.snr_grid_db
        ):
            raise ConfigError("dmt_trials_per_point", "must match the SNR grid length")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(unknown[0], "unknown configuration key")
        if isinstance(data.get("geometry"), dict):
            data = dict(data)
            data["geometry"] = {k: float(v) for k, v in data["geometry"].items()}
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


def _sample_trials(geom: NetworkGeometry, seed: int, first_trial: int, n: int) -> ChannelBatch:
    """Draw n realizations keyed by global trial index, in trial order.

    Trial t equals ``sample_realizations(geom, trial_rng(seed, first_trial + t), 1)``,
    drawn from one generator that `trial_streams` re-states per trial.
    """
    out = np.empty((6, n), dtype=complex)
    for t, rng in enumerate(trial_streams(seed, first_trial, n)):
        b = sample_realizations(geom, rng, 1)
        out[0, t] = b.h_sd[0]
        out[1, t] = b.h_sr1[0]
        out[2, t] = b.h_sr2[0]
        out[3, t] = b.h_r1r2[0]
        out[4, t] = b.h_r1d[0]
        out[5, t] = b.h_r2d[0]
    return ChannelBatch(out[0], out[1], out[2], out[3], out[4], out[5])


def _protocol_rates(
    batch: ChannelBatch, snr: float, l: int, names: tuple[str, ...]
) -> dict[str, np.ndarray]:
    rates: dict[str, np.ndarray] = {}
    for name in names:
        if name == "direct":
            rates[name] = rate_direct_batch(batch, snr)
        elif name == "classic1":
            rates[name] = rate_classic_batch(batch, snr, 1.0 / 3.0)
        elif name == "classic2":
            rates[name] = rate_classic_batch(batch, snr, 0.5)
        elif name == "successive_genie":
            rates[name] = successive_genie_batch(batch, snr, l)[0]
        elif name == "successive_vblast":
            rates[name] = successive_vblast_batch(batch, snr, l)[0]
        elif name == "theorem1":
            rates[name] = theorem1_rate_batch(batch, snr, l)
        else:
            raise ConfigError("protocols", f"unknown protocol {name!r}")
    return rates


def _mean_sem(x: np.ndarray) -> tuple[float, float]:
    n = x.shape[0]
    mean = float(np.mean(x))
    sem = float(np.std(x, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, sem


def run_geometry_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Mean per-protocol rates over the SNR grid for one geometry.

    Fresh realizations are drawn at every SNR point (global trial indices
    keep them reproducible); the adaptive rule, when set, replaces each
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
        batch = _sample_trials(geom, cfg.seed, snr_idx * cfg.trials, cfg.trials)
        keep = (
            adaptive_keep_batch(batch, rule)
            if rule is not None
            else np.ones(cfg.trials, dtype=bool)
        )
        cancel_ok, source_ok = interference_free_batch(batch, snr, cfg.l)
        direct = rate_direct_batch(batch, snr)
        raw = _protocol_rates(batch, snr, cfg.l, cfg.protocols)
        means, sems = {}, {}
        for name, values in raw.items():
            if rule is not None and name in _RELAYING:
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
        raise ConfigError("snr_grid_db", str(exc)) from exc
    result = asdict(point)
    result["dmt_formula"] = dmt_formula(cfg.dmt_r, cfg.l)
    return result


def run_single_realization(cfg: ExperimentConfig) -> dict:
    """Full per-protocol diagnostics of trial 0 across the SNR grid."""
    if cfg.experiment != "single_realization":
        raise ConfigError("experiment", f"expected single_realization, got {cfg.experiment!r}")
    geom = resolve_geometry(cfg)
    real = _sample_trials(geom, cfg.seed, 0, 1).realization(0)
    rule = None if cfg.adaptive_rule == "none" else AdaptiveRule(cfg.adaptive_rule)
    coeffs = {
        name: [getattr(real, name).real, getattr(real, name).imag]
        for name in ("h_sd", "h_sr1", "h_sr2", "h_r1r2", "h_r1d", "h_r2d")
    }
    entries = []
    for snr_db in cfg.snr_grid_db:
        snr = 10.0 ** (snr_db / 10.0)
        for name in cfg.protocols:
            if name == "direct":
                report = rate_direct(real, snr)
            elif name == "classic1":
                report = rate_classic1(real, snr)
            elif name == "classic2":
                report = rate_classic2(real, snr)
            elif name == "successive_genie":
                report = rate_successive_genie(real, snr, cfg.l)
            elif name == "successive_vblast":
                report = rate_successive_vblast(real, snr, cfg.l)
            else:
                entries.append(
                    {
                        "snr_db": float(snr_db),
                        "protocol": name,
                        "rate_per_slot": rate_theorem1(real, snr, cfg.l),
                        "fallback_to_direct": False,
                    }
                )
                continue
            if rule is not None and name in _RELAYING:
                report = apply_adaptive_fallback(report, real, snr, rule)
            entries.append(
                {
                    "snr_db": float(snr_db),
                    "protocol": name,
                    "rate_per_slot": report.rate_per_slot,
                    "per_codeword_rates": list(report.per_codeword_rates),
                    "decode_interference_first": list(report.decode_interference_first),
                    "fallback_to_direct": report.fallback_to_direct,
                    "interference_free": report.interference_free,
                    "source_links_strong": report.source_links_strong,
                }
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
        batch = _sample_trials(geom, cfg.seed, snr_idx * cfg.trials, cfg.trials)
        genie = successive_genie_batch(batch, snr, cfg.l)[0]
        vblast = successive_vblast_batch(batch, snr, cfg.l)[0]
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
        result = run_dmt(cfg)
        payload["result"] = result
        header = [
            "schema_version",
            "snr_db",
            "target_rate_per_slot",
            "trials",
            "events",
            "outage_prob",
            "low_event_flag",
            "diversity_estimate",
            "diversity_lstsq",
            "dmt_formula",
        ]
        table = [
            [
                SCHEMA_VERSION,
                result["snr_grid_db"][i],
                result["target_rates_per_slot"][i],
                result["trials"][i],
                result["events"][i],
                result["outage_prob"][i],
                result["low_event_flags"][i],
                result["diversity_estimate"],
                result["diversity_lstsq"],
                result["dmt_formula"],
            ]
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
