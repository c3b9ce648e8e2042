"""Configuration-driven experiment runner.

Reproduces the headline experiments at desk scale, one `EXPERIMENTS` row
each: the capacity-gain curve over classic protocol II, the per-geometry
rate sweeps, the empirical DMT slope and single-realization diagnostics.
Output is data only (CSV or JSON); plotting is left to external tools.

Determinism contract: each experiment draws from its own `trial_rng`
streams, keyed apart as that function states, on one thread.  A sweep
draws each SNR point's trials trial-major, so a run with more trials
extends it without changing earlier trials.  Per-trial results are
assembled in trial order before any aggregation, and Monte Carlo counters
are integers, so a fixed (config, seed) pair produces byte-identical
output files.
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
from .outage import SCHEMES, estimate_dmt, snr_from_db
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
# config adaptive_rule -> the rule it names; under "none" every draw relays
ADAPTIVE_RULES = {"none": None, **{rule.value: rule for rule in AdaptiveRule}}


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
            "gain_l_values": (integer, self.gain_l_values),
            "dmt_trials_per_point": (integer, self.dmt_trials_per_point or ()),
        }
        nouns = {real: "real numbers", integer: "integers", text: "strings", path: "str or null"}
        for name, (kind, values) in typed.items():
            if any(isinstance(v, bool) or not isinstance(v, kind) for v in values):
                raise ConfigError(name, f"must be {nouns[kind]}, got {getattr(self, name)!r}")
        for name, allowed in CHOICES.items():
            for value in typed[name][1]:
                if value not in allowed:
                    raise ConfigError(name, f"must be one of {allowed}, got {value!r}")
        if not isinstance(self.geometry, (str, dict)):
            raise ConfigError("geometry", "must be a preset name or a distance mapping")
        try:  # a custom geometry's keys are NetworkGeometry's fields
            resolve_geometry(self)
        except (TypeError, ValueError) as exc:
            raise ConfigError("geometry", str(exc)) from exc
        if self.l < 1:
            raise ConfigError("l", f"frame length must be >= 1, got {self.l}")
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db", "grid must be nonempty")
        try:
            [snr_from_db(x) for x in self.snr_grid_db]
        except ValueError as exc:
            raise ConfigError("snr_grid_db", str(exc)) from exc
        if not 1 <= self.trials < 2**63:
            raise ConfigError("trials", f"must lie in [1, 2**63), got {self.trials}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError("seed", "must fit an unsigned 64-bit integer")
        if not self.protocols:
            raise ConfigError("protocols", "select at least one protocol")
        if self.experiment == "gain_curve" and not self.gain_l_values:
            raise ConfigError("gain_l_values", "gain curve needs at least one frame length")
        if any(x < 1 for x in self.gain_l_values):
            raise ConfigError("gain_l_values", f"entries must be >= 1, got {self.gain_l_values}")
        if not 0.0 <= self.dmt_r < math.inf:
            raise ConfigError("dmt_r", f"must be finite and >= 0, got {self.dmt_r}")
        if not 0.0 <= self.dmt_fixed_rate < math.inf:
            raise ConfigError("dmt_fixed_rate", f"must be finite and >= 0, got {self.dmt_fixed_rate}")
        if self.dmt_trials_per_point is not None:
            if len(self.dmt_trials_per_point) != len(self.snr_grid_db):
                raise ConfigError("dmt_trials_per_point", "must match the SNR grid length")
            if not all(1 <= x < 2**63 for x in self.dmt_trials_per_point):
                raise ConfigError("dmt_trials_per_point", "every entry must lie in [1, 2**63)")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(unknown[0], "unknown configuration key")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError("config", f"cannot read {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config", f"{path} holds a {type(data).__name__}, not a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)


def resolve_geometry(cfg: ExperimentConfig) -> NetworkGeometry:
    if isinstance(cfg.geometry, str):
        return preset_geometry(cfg.geometry)
    return NetworkGeometry(**{k: float(v) for k, v in cfg.geometry.items()})


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
    geom = resolve_geometry(cfg)
    rule = ADAPTIVE_RULES[cfg.adaptive_rule]
    rows = []
    for snr_idx, snr_db in enumerate(cfg.snr_grid_db):
        snr = snr_from_db(snr_db)
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
    snrs = np.array([snr_from_db(snr_db) for snr_db in cfg.snr_grid_db])
    rows = []
    for li, l in enumerate(cfg.gain_l_values):
        # one Exp(1) draw per frame length (unit-variance Rayleigh, no pathloss
        # or shadowing): common random numbers keep the curve smooth
        g = trial_rng(cfg.seed, (li, 1)).standard_exponential((3, cfg.trials))
        for snr_db, gain in zip(cfg.snr_grid_db, capacity_gain_G(*g, snrs, l)):
            rows.append({"l": l, "snr_db": float(snr_db), "capacity_gain": float(gain)})
    return rows


def run_dmt(cfg: ExperimentConfig) -> dict:
    """Empirical diversity slope plus the measured scheme's closed-form tradeoff."""
    try:
        point = estimate_dmt(
            cfg.dmt_r,
            cfg.l,
            cfg.snr_grid_db,
            cfg.dmt_trials_per_point if cfg.dmt_trials_per_point is not None else cfg.trials,
            cfg.seed,
            scheme=cfg.dmt_scheme,
            fixed_rate_bits=cfg.dmt_fixed_rate,
        )
    except ValueError as exc:
        # estimate_dmt words every error about r as "multiplexing gain ..."
        field = "dmt_r" if str(exc).startswith("multiplexing gain") else "snr_grid_db"
        raise ConfigError(field, str(exc)) from exc
    return {**asdict(point), "dmt_formula": SCHEMES[cfg.dmt_scheme][3](cfg.dmt_r, cfg.l)}


def run_single_realization(cfg: ExperimentConfig) -> dict:
    """Full per-protocol diagnostics of trial 0 across the SNR grid.

    The n = 1 view of the batched kernels: trial 0 of a sweep's first SNR
    point, the first draw of stream (seed, 0), with the decode-first
    branches, per-codeword caps and flags that the sweep averages away.
    """
    batch = _sample_trials(resolve_geometry(cfg), cfg.seed, 0, 1)
    g = batch.gains()
    h = batch.h[:, 0].tolist()
    rule = ADAPTIVE_RULES[cfg.adaptive_rule]
    keep = rule is None or bool(adaptive_keep_batch(g, rule)[0])
    coeffs = {f"h_{name}": [c.real, c.imag] for name, c in zip(LINK_NAMES, h)}
    entries = []
    for snr_db in cfg.snr_grid_db:
        snr = snr_from_db(snr_db)
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


def _table(records: list[dict], columns: list[str]) -> tuple[list[str], list[list]]:
    """CSV header and rows: the schema version, then the named columns of each record."""
    rows = [[SCHEMA_VERSION, *(record[c] for c in columns)] for record in records]
    return ["schema_version", *columns], rows


def sweep_csv_table(cfg: ExperimentConfig, rows: list[SweepRow]) -> tuple[list[str], list[list]]:
    stats = [f"{stat}_{name}" for name in cfg.protocols for stat in ("mean", "stderr")]
    fractions = ["fallback_fraction", "interference_free_fraction", "source_links_strong_fraction"]
    records = [
        {
            **asdict(row),
            **{f"mean_{name}": rate for name, rate in row.rates.items()},
            **{f"stderr_{name}": sem for name, sem in row.stderrs.items()},
        }
        for row in rows
    ]
    return _table(records, ["snr_db", *stats, *fractions])


# dmt_slope CSV column -> the result's per-grid-point field; the fits follow
_DMT_COLUMNS = dict(
    snr_db="snr_grid_db", target_rate_per_slot="target_rates_per_slot", trials="trials",
    events="events", outage_prob="outage_prob", low_event_flag="low_event_flags",
)
_DMT_FITS = ["diversity_estimate", "diversity_lstsq", "dmt_formula"]


def _dmt_points(result: dict) -> list[dict]:
    """One record per grid point: its own columns, then the fits of the whole grid."""
    fits = {name: result[name] for name in _DMT_FITS}
    return [
        {**{column: result[field][i] for column, field in _DMT_COLUMNS.items()}, **fits}
        for i in range(len(result["snr_grid_db"]))
    ]


def _dmt_lines(result: dict) -> list[str]:
    lines = [
        f"snr={p['snr_db']:g} dB  p_out={p['outage_prob']:.4g}  events={p['events']}"
        + ("  (low events)" if p["low_event_flag"] else "")
        for p in _dmt_points(result)
    ]
    return [
        *lines,
        f"diversity estimate={result['diversity_estimate']:.3f}  "
        f"lstsq={result['diversity_lstsq']:.3f}  formula={result['dmt_formula']:.3f}",
    ]


# name -> (payload key, runner, CSV table, console lines).  The runner returns the
# JSON-ready entry that the payload holds under its key; the CSV table maps (config,
# entry) to a header and rows, and `simulate` prints the entry's console lines.
EXPERIMENTS = {
    "gain_curve": (
        "rows",
        run_gain_curve,
        lambda cfg, rows: _table(rows, ["l", "snr_db", "capacity_gain"]),
        lambda rows: [
            f"l={r['l']}  snr={r['snr_db']:g} dB  G={r['capacity_gain']:.4f}" for r in rows
        ],
    ),
    "geometry_sweep": (
        "rows",
        lambda cfg: [asdict(row) for row in run_geometry_sweep(cfg)],
        lambda cfg, rows: sweep_csv_table(cfg, [SweepRow(**row) for row in rows]),
        lambda rows: [
            f"snr={r['snr_db']:g} dB  " + "  ".join(f"{k}={v:.4f}" for k, v in r["rates"].items())
            for r in rows
        ],
    ),
    "dmt_slope": (
        "result",
        run_dmt,
        lambda cfg, result: _table(_dmt_points(result), [*_DMT_COLUMNS, *_DMT_FITS]),
        _dmt_lines,
    ),
    "single_realization": (
        "result",
        run_single_realization,
        lambda cfg, result: _table(
            result["entries"], ["snr_db", "protocol", "rate_per_slot", "fallback_to_direct"]
        ),
        lambda result: [
            f"snr={e['snr_db']:g} dB  {e['protocol']}: {e['rate_per_slot']:.4f} bits/slot"
            for e in result["entries"]
        ],
    ),
}
# config field -> the values it may take; `simulate` offers the same choices
CHOICES = {
    "experiment": tuple(EXPERIMENTS),
    "protocols": tuple(PROTOCOLS),
    "adaptive_rule": tuple(ADAPTIVE_RULES),
    "output_format": ("csv", "json"),
    "dmt_scheme": tuple(SCHEMES),
}


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run the configured experiment, write output if requested.

    Returns a JSON-ready payload; when ``cfg.output_path`` is set the
    payload (json) or its tabular form (csv) is also written there.
    """
    key, run, csv_table, _ = EXPERIMENTS[cfg.experiment]
    payload = dict(schema_version=SCHEMA_VERSION, experiment=cfg.experiment, config=cfg.to_dict())
    payload[key] = run(cfg)
    if cfg.output_path and cfg.output_format == "csv":
        write_csv(cfg.output_path, *csv_table(cfg, payload[key]))
    elif cfg.output_path:
        write_json(cfg.output_path, payload)
    return payload
