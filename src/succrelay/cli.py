"""Command-line front end for the experiment runner.

Usage examples:

    simulate --experiment geometry_sweep --geometry III --l 7 \
        --snr 0 5 10 15 20 --trials 10000 --seed 7 --adaptive a \
        --out case3.csv --format csv

    simulate --config run.json --out sweep.json --format json

A JSON config file mirrors ExperimentConfig.  Explicit flags replace the
file's values before any check, and the merged values build the one config
of the run, so a file value that a flag replaces is never checked.  Each
field's flags, value type, list-ness, choices and help come from its row of
`experiments._FIELDS`; only --config, --geometry and --workers are spelled here.
The parser is built once, when this module is imported, and `main` parses
every argv with it; `build_parser()` returns a fresh one.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import _FIELDS, CHOICES, EXPERIMENTS, ConfigError, ExperimentConfig
from .experiments import run_experiment


def _geometry(text: str):
    return json.loads(text) if text.lstrip().startswith("{") else text


def build_parser() -> argparse.ArgumentParser:
    """Each field's flags, from its `_FIELDS` row, store its value under its name."""
    p = argparse.ArgumentParser(
        prog="simulate",
        description="Rate and outage experiments for the two-relay successive-relaying network.",
    )
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument(
        "--geometry",
        type=_geometry,
        help="I, II, III, or a custom JSON distance object "
        '(e.g. \'{"d_sd": 1, "d_sr1": 0.5, ...}\')',
    )
    for name, (store, listed, _, flags, text) in _FIELDS.items():
        flags, choices = flags.split(), CHOICES.get(name)
        metavar = None if choices else flags[0].lstrip("-").upper().replace("-", "_")
        p.add_argument(
            *flags, dest=name, type=store, nargs="+" if listed else None,
            choices=choices, metavar=metavar, help=text,
        )
    # older scripts pass --workers; every experiment runs on one thread
    p.add_argument("--workers", type=int, help="ignored: every experiment runs on one thread")
    return p


# derived from `_FIELDS` and `CHOICES` like `CHOICES` itself; parsing leaves it unchanged
_PARSER = build_parser()


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The one config of a run: the set flags laid over the ``--config`` file's values."""
    ignored = ("config", "workers")
    flags = {k: v for k, v in vars(args).items() if k not in ignored and v is not None}
    if args.config:
        return ExperimentConfig.from_json_file(args.config, flags)
    return ExperimentConfig.from_dict(flags)


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = config_from_args(args)
        payload = run_experiment(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    key, _, _, lines = EXPERIMENTS[cfg.experiment]
    for line in lines(payload[key]):
        print(line)
    if cfg.output_path:
        print(f"wrote {cfg.output_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
