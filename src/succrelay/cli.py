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


def _geometry(text: str):
    return json.loads(text) if text.lstrip().startswith("{") else text


def build_parser() -> argparse.ArgumentParser:
    """Each flag stores its value under the ExperimentConfig field it overrides."""
    p = argparse.ArgumentParser(
        prog="simulate",
        description="Rate and outage experiments for the two-relay successive-relaying network.",
    )
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--experiment", "-e", choices=EXPERIMENTS)
    p.add_argument(
        "--geometry",
        type=_geometry,
        help="I, II, III, or a custom JSON distance object "
        '(e.g. \'{"d_sd": 1, "d_sr1": 0.5, ...}\')',
    )
    p.add_argument("--l", type=int, help="codewords per frame")
    p.add_argument(
        "--snr", dest="snr_grid_db", metavar="SNR", type=float, nargs="+", help="SNR grid in dB"
    )
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--protocols", nargs="+", choices=tuple(PROTOCOLS))
    p.add_argument("--adaptive", dest="adaptive_rule", choices=("none", "a", "b", "c"))
    p.add_argument("--out", dest="output_path", metavar="OUT", help="output file path")
    p.add_argument("--format", dest="output_format", choices=("csv", "json"))
    p.add_argument(
        "--workers",
        type=int,
        help="threads for the outage blocks of dmt_slope, at most one per block: "
        "two overlap on a multi-block point; other experiments run on one "
        "thread, and no output depends on it",
    )
    p.add_argument(
        "--gain-l",
        dest="gain_l_values",
        metavar="GAIN_L",
        type=int,
        nargs="+",
        help="frame lengths for the gain curve",
    )
    p.add_argument(
        "--r", dest="dmt_r", metavar="R", type=float, help="multiplexing gain for the DMT experiment"
    )
    p.add_argument("--dmt-scheme", choices=("successive", "classic2"))
    p.add_argument(
        "--dmt-trials",
        dest="dmt_trials_per_point",
        metavar="DMT_TRIALS",
        type=int,
        nargs="+",
        help="per-grid-point trial counts",
    )
    return p


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data = ExperimentConfig.from_json_file(args.config).to_dict() if args.config else {}
    data.update({k: v for k, v in vars(args).items() if k != "config" and v is not None})
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
