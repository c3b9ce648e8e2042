"""Span tracing of succrelay from outside the package.

The traced run replaces, in memory, the names each caller module imported
(for example `succrelay.experiments.sample_realizations`) with wrappers that
record a span: name, start, end and parent span.  Nothing under `src/` is
changed.  Spans stay in memory and are written out when the run ends;
per-layer self times and counts are derived from them.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

import numpy as np


def _rates(result) -> int:
    # successive_*_batch return a tuple led by the per-draw rates
    return (result[0] if isinstance(result, tuple) else result).size


# caller module -> imported name -> work count(args, result); None records
# no count.  A second count (kept draws, outage events) comes from SECOND.
TRACED = {
    "experiments": {
        "trial_rng": None,
        "sample_realizations": lambda a, r: len(r),
        "rate_direct_batch": lambda a, r: _rates(r),
        "rate_classic_batch": lambda a, r: _rates(r),
        "successive_genie_batch": lambda a, r: _rates(r),
        "successive_vblast_batch": lambda a, r: _rates(r),
        "theorem1_rate_batch": lambda a, r: _rates(r),
        "interference_free_batch": lambda a, r: r[0].size,
        "adaptive_keep_batch": lambda a, r: r.size,
        "capacity_gain_G": None,
        "estimate_dmt": lambda a, r: sum(r.trials),
        "write_csv": lambda a, r: os.path.getsize(a[0]),
        "write_json": lambda a, r: os.path.getsize(a[0]),
    },
    "protocols": {
        "build_equivalent_channel_batch": lambda a, r: r.nbytes,
        "logdet_capacity_batch": lambda a, r: r.size,
        "mmse_sic_sinrs_batch": lambda a, r: r[1].size,
    },
    "cli": {"run_experiment": None},
}
SECOND = {
    "adaptive_keep_batch": lambda a, r: int(np.count_nonzero(r)),
    "estimate_dmt": lambda a, r: sum(r.events),
}
ROOT = "cli.main"

# Per-layer metrics, in report order, with their units.
LAYER_UNITS = {
    "channel.sample_s": "s",
    "channel.calls": "count",
    "channel.draws": "count",
    "channel.us_per_draw": "us",
    "mimolinalg.sic_s": "s",
    "mimolinalg.sic_streams": "count",
    "mimolinalg.sic_us_per_stream": "us",
    "mimolinalg.logdet_s": "s",
    "mimolinalg.logdet_matrices": "count",
    "mimolinalg.build_s": "s",
    "mimolinalg.build_bytes_computed": "bytes",
    "protocols.genie_self_s": "s",
    "protocols.vblast_self_s": "s",
    "protocols.theorem1_self_s": "s",
    "protocols.classic_s": "s",
    "protocols.flags_s": "s",
    "protocols.gain_G_self_s": "s",
    "protocols.rate_evals": "count",
    "protocols.relay_kept_fraction": "fraction",
    "outage.dmt_s": "s",
    "outage.draws": "count",
    "outage.draws_per_s": "1/s",
    "outage.events": "count",
    "outage.event_ratio": "fraction",
    "experiments.self_s": "s",
    "experiments.write_s": "s",
    "experiments.write_bytes": "bytes",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans of the wrapped names while installed.

    One span stack serves the thread that created the tracer.  Every
    wrapped name is called from that thread in these workloads; a call from
    any other thread raises rather than attach a span to the wrong parent.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.count: list[float] = []
        self.count2: list[float] = []
        self._stack = [-1]
        self._owner = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, count=None, count2=None):
        nid = self._name_id(name)
        stack, owner, clock = self._stack, self._owner, time.perf_counter
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        counts, counts2 = self.count, self.count2

        def traced(*args, **kwargs):
            if threading.get_ident() != owner:
                raise RuntimeError(f"traced name {name} called from a worker thread")
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            counts.append(0.0)
            counts2.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                counts[i] = count(args, result)
            if count2 is not None:
                counts2[i] = count2(args, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every name in TRACED inside the given caller modules."""
        for mod_key, names in TRACED.items():
            module = modules[mod_key]
            for attr, count in names.items():
                fn = getattr(module, attr)
                home = fn.__module__.rsplit(".", 1)[-1]
                wrapped = self.wrap(f"{home}.{attr}", fn, count, SECOND.get(attr))
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrapped)

    def remove(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name_of, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "count": np.array(self.count),
            "count2": np.array(self.count2),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def per_call(tracer: Tracer) -> list[dict[str, dict[str, float]]]:
    """Self time, summed counts and call count per span name, per root span.

    A span's self time is its duration minus the durations of its direct
    children; children are nested in their parent, so they never overlap.
    """
    s = tracer.arrays()
    n = s["name"].size
    dur = s["end"] - s["start"]
    has_parent = s["parent"] >= 0
    child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    root_id = tracer.names.index(ROOT)
    roots = np.flatnonzero(s["name"] == root_id)
    owner = np.searchsorted(roots, np.arange(n), side="right") - 1
    k = len(tracer.names)
    key = owner * k + s["name"]
    size = len(roots) * k

    def table(w):
        return np.bincount(key, weights=w, minlength=size).reshape(len(roots), k)

    tables = {
        "self": table(self_t),
        "count": table(s["count"]),
        "count2": table(s["count2"]),
        "calls": table(np.ones(n)),
    }
    return [
        {
            name: {t: float(v[r, j]) for t, v in tables.items()}
            for j, name in enumerate(tracer.names)
        }
        for r in range(len(roots))
    ]


def layer_metrics(call: dict[str, dict[str, float]]) -> dict[str, float]:
    """The per-layer metrics of one traced `cli.main` call."""

    def get(name: str, field: str = "self") -> float:
        return call.get(name, {}).get(field, 0.0)

    def ratio(a: float, b: float, scale: float = 1.0) -> float:
        return scale * a / b if b else 0.0

    sample_s = get("channel.trial_rng") + get("channel.sample_realizations")
    draws = get("channel.sample_realizations", "count")
    sic_s = get("mimolinalg.mmse_sic_sinrs_batch")
    streams = get("mimolinalg.mmse_sic_sinrs_batch", "count")
    dmt_s = get("outage.estimate_dmt")
    outage_draws = get("outage.estimate_dmt", "count")
    events = get("outage.estimate_dmt", "count2")
    rate_kernels = (
        "protocols.rate_direct_batch",
        "protocols.rate_classic_batch",
        "protocols.successive_genie_batch",
        "protocols.successive_vblast_batch",
        "protocols.theorem1_rate_batch",
    )
    writers = ("experiments.write_csv", "experiments.write_json")
    return {
        "channel.sample_s": sample_s,
        "channel.calls": get("channel.sample_realizations", "calls"),
        "channel.draws": draws,
        "channel.us_per_draw": ratio(sample_s, draws, 1e6),
        "mimolinalg.sic_s": sic_s,
        "mimolinalg.sic_streams": streams,
        "mimolinalg.sic_us_per_stream": ratio(sic_s, streams, 1e6),
        "mimolinalg.logdet_s": get("mimolinalg.logdet_capacity_batch"),
        "mimolinalg.logdet_matrices": get("mimolinalg.logdet_capacity_batch", "count"),
        "mimolinalg.build_s": get("mimolinalg.build_equivalent_channel_batch"),
        "mimolinalg.build_bytes_computed": get(
            "mimolinalg.build_equivalent_channel_batch", "count"
        ),
        "protocols.genie_self_s": get("protocols.successive_genie_batch"),
        "protocols.vblast_self_s": get("protocols.successive_vblast_batch"),
        "protocols.theorem1_self_s": get("protocols.theorem1_rate_batch"),
        "protocols.classic_s": get("protocols.rate_direct_batch")
        + get("protocols.rate_classic_batch"),
        "protocols.flags_s": get("protocols.interference_free_batch")
        + get("protocols.adaptive_keep_batch"),
        "protocols.gain_G_self_s": get("protocols.capacity_gain_G"),
        "protocols.rate_evals": sum(get(k, "count") for k in rate_kernels),
        "protocols.relay_kept_fraction": ratio(
            get("protocols.adaptive_keep_batch", "count2"),
            get("protocols.adaptive_keep_batch", "count"),
        ),
        "outage.dmt_s": dmt_s,
        "outage.draws": outage_draws,
        "outage.draws_per_s": ratio(outage_draws, dmt_s),
        "outage.events": events,
        "outage.event_ratio": ratio(events, outage_draws),
        "experiments.self_s": get("experiments.run_experiment"),
        "experiments.write_s": sum(get(k) for k in writers),
        "experiments.write_bytes": sum(get(k, "count") for k in writers),
        "cli.self_s": get(ROOT),
    }
