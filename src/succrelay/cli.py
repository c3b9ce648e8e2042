"""Command-line front end for the experiment runner.

Usage examples:

    simulate --experiment geometry_sweep --geometry III --l 7 \
        --snr 0 5 10 15 20 --trials 10000 --seed 7 --adaptive a \
        --out case3.csv --format csv

    simulate --config run.json --out sweep.json --format json

A JSON config file mirrors ExperimentConfig; explicit flags override the
file's values.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    EXPERIMENTS,
    PROTOCOLS,
    ConfigError,
    ExperimentConfig,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="simulate",
        description="Rate and outage experiments for the two-relay successive-relaying network.",
    )
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--experiment", "-e", choices=EXPERIMENTS)
    p.add_argument(
        "--geometry",
        help="I, II, III, or a custom JSON distance object "
        '(e.g. \'{"d_sd": 1, "d_sr1": 0.5, ...}\')',
    )
    p.add_argument("--l", type=int, help="codewords per frame")
    p.add_argument("--snr", type=float, nargs="+", help="SNR grid in dB")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--protocols", nargs="+", choices=tuple(PROTOCOLS))
    p.add_argument("--adaptive", choices=("none", "a", "b", "c"))
    p.add_argument("--out", help="output file path")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument(
        "--workers",
        type=int,
        help="threads for the outage blocks of dmt_slope; other experiments run "
        "on one thread, and no output depends on it",
    )
    p.add_argument("--gain-l", type=int, nargs="+", help="frame lengths for the gain curve")
    p.add_argument("--r", type=float, help="multiplexing gain for the DMT experiment")
    p.add_argument("--dmt-scheme", choices=("successive", "classic2"))
    p.add_argument("--dmt-trials", type=int, nargs="+", help="per-grid-point trial counts")
    return p


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        cfg = ExperimentConfig.from_json_file(args.config)
        data = cfg.to_dict()
    geometry = args.geometry
    if geometry and geometry.lstrip().startswith("{"):
        geometry = json.loads(geometry)
    overrides = {
        "experiment": args.experiment,
        "geometry": geometry,
        "l": args.l,
        "snr_grid_db": args.snr,
        "trials": args.trials,
        "seed": args.seed,
        "protocols": args.protocols,
        "adaptive_rule": args.adaptive,
        "output_path": args.out,
        "output_format": args.format,
        "workers": args.workers,
        "gain_l_values": args.gain_l,
        "dmt_r": args.r,
        "dmt_scheme": args.dmt_scheme,
        "dmt_trials_per_point": args.dmt_trials,
    }
    data.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        payload = run_experiment(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if cfg.experiment == "geometry_sweep":
        for row in payload["rows"]:
            rates = "  ".join(f"{k}={v:.4f}" for k, v in row["rates"].items())
            print(f"snr={row['snr_db']:g} dB  {rates}")
    elif cfg.experiment == "gain_curve":
        for row in payload["rows"]:
            print(f"l={row['l']}  snr={row['snr_db']:g} dB  G={row['capacity_gain']:.4f}")
    elif cfg.experiment == "dmt_slope":
        res = payload["result"]
        for i, db in enumerate(res["snr_grid_db"]):
            flag = "  (low events)" if res["low_event_flags"][i] else ""
            print(
                f"snr={db:g} dB  p_out={res['outage_prob'][i]:.4g}  "
                f"events={res['events'][i]}{flag}"
            )
        print(
            f"diversity estimate={res['diversity_estimate']:.3f}  "
            f"lstsq={res['diversity_lstsq']:.3f}  formula={res['dmt_formula']:.3f}"
        )
    else:
        for e in payload["result"]["entries"]:
            print(f"snr={e['snr_db']:g} dB  {e['protocol']}: {e['rate_per_slot']:.4f} bits/slot")
    if cfg.output_path:
        print(f"wrote {cfg.output_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
