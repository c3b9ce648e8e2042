"""Record the sweep reference means that the benchmark's checks compare to.

Usage, from the root of a checkout:

    python3 bench/make_reference.py

Runs each sweep workload once at REFERENCE_SCALE times its trial count and
a seed no benchmark run is expected to use, and writes every per-SNR
protocol mean with its standard error to bench/reference.json.  Re-record
only when a change is meant to alter the simulated rates, and say so.
"""

from __future__ import annotations

import json
import sys

from run import OUT, call, import_program
from workloads import REFERENCE_PATH, WORKLOADS, parse_sweep_csv

REFERENCE_SCALE = 20
REFERENCE_SEED = 2_718_281_828


def main() -> int:
    cli = import_program()
    OUT.mkdir(exist_ok=True)
    reference = {}
    for wl in WORKLOADS.values():
        if wl.experiment != "geometry_sweep":
            continue
        sized = wl.sized(REFERENCE_SCALE)
        out = OUT / f"{wl.name}.reference.csv"
        argv = sized.argv(REFERENCE_SEED, str(out))
        wall, error = call(cli.main, argv)
        if error is not None:
            print(error, file=sys.stderr)
            return 1
        rows = parse_sweep_csv(out.read_bytes())
        reference[wl.name] = {
            "trials": sized.trials,
            "seed": REFERENCE_SEED,
            "means": {
                f"{snr:g}": {p: [row[f"mean_{p}"], row[f"stderr_{p}"]] for p in wl.protocols}
                for snr, row in rows.items()
            },
        }
        print(f"{wl.name}: {sized.trials} trials per point in {wall:.1f} s")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
