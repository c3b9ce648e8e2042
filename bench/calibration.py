"""Machine-speed calibration of the benchmark's timings.

The host's speed drifts by up to 2x over tens of seconds, from load by
other tenants; CPU time drifts with it, so this is not descheduling.  After
every timed call and set-up round the benchmark times a fixed kernel that
does not touch succrelay, and scales the call's time by the kernel's
nominal time over its time now.  Times are then seconds at the speed where
the kernel takes its nominal time, which is its typical time on a 2-core
2.0 GHz Xeon; the raw times are kept in the info block.

Each workload names the kernel whose work resembles its own, because the
drift hits interpreter-bound, cache-bound and page-fault-bound work
differently.  Over six 20 s runs, the spread (quartile distance over
median) of the per-run median fell from 0.43 to 0.02 on `sweep_full` with
the interpreter kernel (0.17 with the linalg one), from 0.21 to 0.02 on
`gain_curve` with the linalg kernel (0.07 with the interpreter one), and
from 0.17 to 0.06 on `dmt_slope` with the stream kernel.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _interpreter() -> float:
    """Per-item seeding and tiny draws, then batched small linear algebra."""
    acc = 0.0
    for i in range(200):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=1, spawn_key=(i,)))
        acc += float(rng.standard_normal((2, 6)).sum())
    x = np.random.default_rng(2).standard_normal((300, 8, 7))
    g = x @ x.swapaxes(1, 2) + np.eye(8)
    return acc + float(np.linalg.cholesky(g)[:, 0, 0].sum())


def _linalg() -> float:
    """Log-det via Cholesky of 2,000 stacked 8x8 complex Gram matrices."""
    x = np.random.default_rng(3).standard_normal((2, 2000, 8, 7))
    h = x[0] + 1j * x[1]
    g = h @ h.conj().swapaxes(-1, -2) + np.eye(8)
    return float(np.log(np.real(np.einsum("nii->ni", np.linalg.cholesky(g)))).sum())


def _stream_part(seed: int) -> int:
    g = np.random.default_rng(seed).standard_exponential(size=(3, 1 << 21))
    return int(np.count_nonzero((g[0] + g[1]) * (1.0 + g[2]) < 0.05))


def _stream() -> int:
    """Two threads drawing and reducing fresh 48 MB arrays."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        return sum(pool.map(_stream_part, range(2)))


# kernel name -> (kernel, repeats per calibration, nominal seconds)
KERNELS = {
    "interpreter": (_interpreter, 5, 0.006),
    "linalg": (_linalg, 3, 0.017),
    "stream": (_stream, 3, 0.1),
}


def speed_factor(kind: str) -> float:
    """Nominal kernel time over its median time now."""
    kernel, repeats, nominal = KERNELS[kind]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return nominal / statistics.median(times)
