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
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from numbers import Integral, Real
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
from .outage import SCHEMES, estimate_dmt, snr_from_db
from .protocols import (
    ADAPTIVE_RULES,
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


class ConfigError(ValueError):
    """Invalid experiment configuration, naming the offending field."""

    def __init__(self, config_field: str, message: str):
        self.field = config_field
        self.message = message
        super().__init__(f"config field '{config_field}': {message}")


# config field -> (type of each value, whether the field is a list, the rule each
# value meets as (predicate, message) or None), in field order; `network` checks
# `geometry`.  The message takes the stored field; `snr_from_db` raises its own.
_FIELDS = {
    "experiment": (str, False, None),
    "l": (Integral, False, (lambda x: x >= 1, "frame length must be >= 1, got {}")),
    "snr_grid_db": (Real, True, (snr_from_db, None)),
    "trials": (Integral, False, (lambda x: 1 <= x < 2**63, "must lie in [1, 2**63), got {}")),
    "seed": (Integral, False, (lambda x: 0 <= x < 2**64, "must fit an unsigned 64-bit integer")),
    "protocols": (str, True, None),
    "adaptive_rule": (str, False, None),
    "output_path": (str, False, None),
    "output_format": (str, False, None),
    "gain_l_values": (Integral, True, (lambda x: x >= 1, "entries must be >= 1, got {}")),
    "dmt_r": (Real, False, (lambda x: 0.0 <= x < math.inf, "must be finite and >= 0, got {}")),
    "dmt_scheme": (str, False, None),
    "dmt_trials_per_point": (
        Integral, True, (lambda x: 1 <= x < 2**63, "every entry must lie in [1, 2**63)")
    ),
}
# type -> how a value is stored (numpy scalars pass the check but not json.dumps), its noun
_KINDS = {str: (str, "strings"), Real: (float, "real numbers"), Integral: (int, "integers")}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: what to simulate and where to write it; construction checks it."""

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
    dmt_scheme: str = "successive"
    dmt_trials_per_point: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for name, (kind, listed, rule) in _FIELDS.items():
            value = getattr(self, name)
            if value is None and name in ("output_path", "dmt_trials_per_point"):
                continue
            if listed and (isinstance(value, str) or not hasattr(value, "__iter__")):
                raise ConfigError(name, f"must be a list, got {value!r}")
            value = tuple(value) if listed else value  # an iterator is read once, here
            store, noun = _KINDS[kind]
            values = value if listed else (value,)
            if any(isinstance(v, bool) or not isinstance(v, kind) for v in values):
                raise ConfigError(name, f"must be {noun}, got {value!r}")
            try:  # float() rejects a JSON integer past float range
                values = tuple(store(v) for v in values)
                ok = rule is None or all(rule[0](v) for v in values)
            except (OverflowError, ValueError) as exc:
                raise ConfigError(name, str(exc)) from exc
            value = values if listed else values[0]
            if not ok:
                raise ConfigError(name, rule[1].format(value))
            for v in values if name in CHOICES else ():
                if v not in CHOICES[name]:
                    raise ConfigError(name, f"must be one of {CHOICES[name]}, got {v!r}")
            object.__setattr__(self, name, value)
        if not isinstance(self.geometry, (str, dict)):
            raise ConfigError("geometry", "must be a preset name or a distance mapping")
        try:  # builds `network` for the runners; a custom geometry's keys are its fields
            network = self.network
        except (TypeError, ValueError) as exc:
            raise ConfigError("geometry", str(exc)) from exc
        if isinstance(self.geometry, dict):
            object.__setattr__(self, "geometry", {k: getattr(network, k) for k in self.geometry})
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db", "grid must be nonempty")
        if not self.protocols:
            raise ConfigError("protocols", "select at least one protocol")
        if not self.gain_l_values:
            raise ConfigError("gain_l_values", "select at least one frame length")
        for name in ("protocols", "gain_l_values"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(name, f"entries must not repeat, got {values}")
        points = self.dmt_trials_per_point
        if points is not None and len(points) != len(self.snr_grid_db):
            raise ConfigError("dmt_trials_per_point", "must match the SNR grid length")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(unknown[0], "unknown configuration key")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path: str | Path, overrides: dict | None = None) -> "ExperimentConfig":
        """The file's JSON object, with ``overrides`` replacing its values, as one config."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError("config", f"cannot read {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config", f"{path} holds a {type(data).__name__}, not a JSON object")
        return cls.from_dict({**data, **(overrides or {})})

    @cached_property
    def network(self) -> NetworkGeometry:
        """The geometry that ``geometry`` names, preset or custom; the check builds it."""
        if isinstance(self.geometry, str):
            return preset_geometry(self.geometry)
        return NetworkGeometry(**self.geometry)


def _sample_trials(geom: NetworkGeometry, seed: int, snr_idx: int, n: int) -> ChannelBatch:
    """Draw trials 0, ..., n - 1 of SNR point snr_idx's stream, in trial order.

    The stream is ``trial_rng(seed, snr_idx)``.  It is drawn one trial per
    `sample_realizations` call because the benchmark's tracer counts one
    call per trial (``channel.calls`` in ``bench/test_smoke.py``); one call
    for all n trials on the same stream gives the same bytes.  A coefficient
    that path loss or shadowing overflows is left inf, for `_point`.
    """
    rng = trial_rng(seed, snr_idx)
    with np.errstate(over="ignore", invalid="ignore"):  # once, not per call
        return ChannelBatch(
            np.concatenate([sample_realizations(geom, rng, 1).h for _ in range(n)], axis=1)
        )


def _mean_sem(x: np.ndarray) -> tuple[float, float]:
    n = x.shape[0]
    mean = float(np.mean(x))
    sem = float(np.std(x, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, sem


def _point(cfg: ExperimentConfig, snr_idx: int, snr_db: float, n: int):
    """Every configured protocol at one SNR point, on trials 0, ..., n - 1 of
    stream (seed, snr_idx), drawn by `_sample_trials`.

    Returns the drawn batch, the rule's keep mask, the two interference-free
    flags and one (name, relaying, rate, per-codeword caps, decode-first
    branches) row per protocol.  A relaying scheme's rejected draws take the
    direct rate; its caps and branches stay the kernel's.  A gain that path
    loss or shadowing overflows, or an overflow in a kernel, is a geometry error.
    """
    batch = _sample_trials(cfg.network, cfg.seed, snr_idx, n)
    snr = snr_from_db(snr_db)
    try:
        with np.errstate(over="raise", invalid="raise"):
            # the gains first: past the config check, theirs is the only ValueError here
            g = batch.gains()
            keep = adaptive_keep_batch(g, cfg.adaptive_rule)
            flags = interference_free_batch(g, snr, cfg.l)
            # each kernel runs once; the direct rate is also every fallback
            out = {
                name: PROTOCOLS[name][1](g, snr, cfg.l)
                for name in dict.fromkeys(["direct", *cfg.protocols])
            }
    except (ValueError, FloatingPointError) as exc:
        message = f"{exc} at snr {snr_db:g} dB; gamma or shadow_sigma_db is too large"
        raise ConfigError("geometry", message) from exc
    rows = []
    for name in cfg.protocols:
        relaying, (rate, caps, branches) = PROTOCOLS[name][0], out[name]
        rate = np.where(keep, rate, out["direct"][0]) if relaying else rate
        rows.append((name, relaying, rate, caps, branches))
    return batch, keep, flags, rows


def run_geometry_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Mean per-protocol rates over the SNR grid for one geometry, one row per point.

    Fresh realizations are drawn at every SNR point, from that point's own
    stream (see `_sample_trials`), and averaged over `_point`'s pass.  The
    interference-free capacity bound is reported unadapted.  A mean or
    standard error below 0, or NaN, raises InvariantError.
    """
    rows = []
    for snr_idx, snr_db in enumerate(cfg.snr_grid_db):
        _, keep, (cancel_ok, source_ok), point = _point(cfg, snr_idx, snr_db, cfg.trials)
        stats = {name: _mean_sem(rate) for name, _, rate, _, _ in point}
        require(np.array([*stats.values()]) >= 0.0, "mean rates and standard errors must be >= 0")
        rows.append(
            dict(
                snr_db=float(snr_db),
                rates={name: mean for name, (mean, _) in stats.items()},
                stderrs={name: sem for name, (_, sem) in stats.items()},
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
        try:  # Exp(1) gains: only the SNR can overflow
            with np.errstate(over="raise", invalid="raise"):
                gains = capacity_gain_G(*g, snrs, l)
        except FloatingPointError as exc:
            raise ConfigError("snr_grid_db", f"{exc}; an SNR of the grid is too large") from exc
        for snr_db, gain in zip(cfg.snr_grid_db, gains):
            rows.append({"l": l, "snr_db": float(snr_db), "capacity_gain": float(gain)})
    return rows


def run_dmt(cfg: ExperimentConfig) -> dict:
    """Empirical diversity slope plus the measured scheme's closed-form tradeoff."""
    trials = cfg.dmt_trials_per_point if cfg.dmt_trials_per_point is not None else cfg.trials
    try:
        with np.errstate(over="raise", invalid="raise"):
            point = estimate_dmt(
                cfg.dmt_r, cfg.l, cfg.snr_grid_db, trials, cfg.seed, scheme=cfg.dmt_scheme
            )
    except FloatingPointError as exc:  # Exp(1) gains: only the SNR can overflow
        raise ConfigError("snr_grid_db", f"{exc}; an SNR of the grid is too large") from exc
    except ValueError as exc:
        # estimate_dmt words every error about r as "multiplexing gain ..."
        field = "dmt_r" if str(exc).startswith("multiplexing gain") else "snr_grid_db"
        raise ConfigError(field, str(exc)) from exc
    return {**asdict(point), "dmt_formula": SCHEMES[cfg.dmt_scheme][3](cfg.dmt_r, cfg.l)}


def run_single_realization(cfg: ExperimentConfig) -> dict:
    """Full per-protocol diagnostics of trial 0 across the SNR grid.

    The n = 1 view of the sweep's `_point`: every SNR point reads trial 0
    of stream (seed, 0), the first draw of the sweep's first point, and
    lists the decode-first branches, per-codeword caps and flags that the
    sweep averages away.  A fallen-back codeword is one direct codeword,
    with no branches.
    """
    entries = []
    for snr_db in cfg.snr_grid_db:
        batch, keep, flags, point = _point(cfg, 0, snr_db, 1)
        for name, relaying, rate, caps, branches in point:
            entry = {"snr_db": float(snr_db), "protocol": name, "rate_per_slot": float(rate[0])}
            entries.append(entry)
            if caps is None:
                entry["fallback_to_direct"] = False
                continue
            fallback = relaying and not keep[0]
            decode = [] if branches is None or fallback else branches[0].tolist()
            entry.update(
                per_codeword_rates=[float(rate[0])] if fallback else caps[0].tolist(),
                decode_interference_first=decode,
                fallback_to_direct=fallback,
                interference_free=None if branches is None else bool(flags[0][0]),
                source_links_strong=None if branches is None else bool(flags[1][0]),
            )
    h = batch.h[:, 0].tolist()  # the same draw at every point
    coeffs = {f"h_{name}": [c.real, c.imag] for name, c in zip(LINK_NAMES, h)}
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
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError("output_path", f"cannot write {path}: {exc}") from exc


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


def sweep_csv_table(rows: list[dict]) -> tuple[list[str], list[list]]:
    """CSV header and rows of `run_geometry_sweep`'s rows, protocols in their ``rates`` order."""
    names = dict.fromkeys(name for row in rows for name in row["rates"])
    stats = [f"{stat}_{name}" for name in names for stat in ("mean", "stderr")]
    fractions = ["fallback_fraction", "interference_free_fraction", "source_links_strong_fraction"]
    records = [
        {
            **row,
            **{f"mean_{name}": rate for name, rate in row["rates"].items()},
            **{f"stderr_{name}": sem for name, sem in row["stderrs"].items()},
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
# JSON-ready entry that the payload holds under its key; the CSV table maps the
# entry alone to a header and rows, and `simulate` prints the entry's console lines.
EXPERIMENTS = {
    "gain_curve": (
        "rows",
        run_gain_curve,
        lambda rows: _table(rows, ["l", "snr_db", "capacity_gain"]),
        lambda rows: [
            f"l={r['l']}  snr={r['snr_db']:g} dB  G={r['capacity_gain']:.4f}" for r in rows
        ],
    ),
    "geometry_sweep": (
        "rows",
        run_geometry_sweep,
        sweep_csv_table,
        lambda rows: [
            f"snr={r['snr_db']:g} dB  " + "  ".join(f"{k}={v:.4f}" for k, v in r["rates"].items())
            for r in rows
        ],
    ),
    "dmt_slope": (
        "result",
        run_dmt,
        lambda result: _table(_dmt_points(result), [*_DMT_COLUMNS, *_DMT_FITS]),
        _dmt_lines,
    ),
    "single_realization": (
        "result",
        run_single_realization,
        lambda result: _table(
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
    payload = dict(schema_version=SCHEMA_VERSION, experiment=cfg.experiment, config=asdict(cfg))
    payload[key] = run(cfg)
    if cfg.output_path and cfg.output_format == "csv":
        write_csv(cfg.output_path, *csv_table(payload[key]))
    elif cfg.output_path:
        write_json(cfg.output_path, payload)
    return payload
