"""Outage probabilities and diversity-multiplexing slopes.

The outage model conditions on the relays decoding correctly, so only the
direct and the two relay-to-destination links stay random; by default they
are i.i.d. unit-variance Rayleigh (squared magnitudes ~ Exp(1)).  A frame
carrying l codewords at a per-slot target of rbar bits needs every
per-codeword rate R = (l+1) rbar / l supported by its single-stream
combining cap, and l*R supported by the equivalent channel's log-det
bound; outage is the failure of any of these.

A few vector operations per cache-sized piece fill one block mask of
candidates (`_candidates`), a superset of the outage events: ~0.2 % of
draws at 20 dB, l = 7, 1 bit/slot.  A block's candidates, or the whole
block if most of it is candidates, run the exact test once: the caps and
the O(l) pivot recurrence.  So the count is exact; no channel matrix is formed.

Both entry points call one validated count over grid points, `_outage_events`.
It runs the (seed, block) streams of BLOCK_SIZE of all points, largest first,
on one pool of at most `workers` threads, each drawing into one buffer kept
for the call, so a count depends on BLOCK_SIZE but not on the worker count.
"""

from __future__ import annotations

import numbers
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import NetworkGeometry, trial_rng
from .mimolinalg import CHUNK, logdet_capacity_batch

_SCHEMES = ("successive", "classic2")
# Trials per (seed, block) stream.  Counts depend on it through the streams,
# so it is part of the determinism contract, not a caller's choice.
BLOCK_SIZE = 1 << 22
# Grid points with fewer outage events are flagged and left out of the fits.
MIN_EVENTS = 20


def _check_frame_length(l) -> None:
    if isinstance(l, bool) or not isinstance(l, numbers.Integral) or l < 1:
        raise ValueError(f"frame length l must be an integer >= 1, got {l!r}")


def dmt_formula(r: float, l: int) -> float:
    """Diversity gain of the successive scheme at multiplexing gain r."""
    if not 0.0 <= r < np.inf:
        raise ValueError(f"multiplexing gain must be finite and >= 0, got {r}")
    _check_frame_length(l)
    return 2.0 * max(0.0, 1.0 - (l + 1) * r / l)


@dataclass(frozen=True)
class DmtPoint:
    """Empirical diversity estimate over an SNR grid at one multiplexing gain."""

    multiplexing_r: float
    snr_grid_db: tuple[float, ...]
    outage_prob: tuple[float, ...]
    diversity_estimate: float
    diversity_lstsq: float
    events: tuple[int, ...]
    trials: tuple[int, ...]
    low_event_flags: tuple[bool, ...]
    target_rates_per_slot: tuple[float, ...]
    scheme: str

    def __post_init__(self) -> None:
        if any(not 0.0 <= p <= 1.0 for p in self.outage_prob):
            raise ValueError("outage probabilities must lie in [0, 1]")


def _count_block(
    scheme: str,
    snr: float,
    rbar: float,
    l: int,
    seed: int,
    block: int,
    size: int,
    geom: NetworkGeometry | None,
    buf: np.ndarray | None = None,
) -> int:
    # no gain in the draws' float range meets a threshold past it: all fail
    classic = scheme == "classic2"
    r_cw = 2.0 * rbar if classic else (l + 1) * rbar / l
    threshold = (2.0**r_cw - 1.0) / snr if r_cw < 1024.0 else np.inf
    dtype = np.float32 if classic else np.float64
    if not threshold < float(np.finfo(dtype).max):
        return size
    rng = trial_rng(seed, block)
    # a byte buffer, reused across blocks, of 25 bytes per draw: the (3, size)
    # draws in their dtype up front, the successive block mask after 24 each
    buf = np.empty(25 * size, np.uint8) if buf is None else buf
    g = buf[: 24 * size].view(dtype)[: 3 * size].reshape(3, size)
    rng.standard_exponential(dtype=dtype, out=g)
    if geom is not None:
        # pathloss on the three destination links, broadcast from (3, 1)
        w = np.array([[geom.d_sd], [geom.d_r1d], [geom.d_r2d]]) ** (-geom.gamma)
        sigma = geom.shadow_sigma_db
        if sigma > 0.0:
            w = w * 10.0 ** (rng.normal(0.0, sigma, size=(3, size)) / 10.0)
        g *= w.astype(dtype, copy=False)
    if classic:
        # Only the three-branch combining cap binds once the relays decode:
        # outage iff 0.5 * C(g3 snr) < rbar.
        return int(np.count_nonzero(g.sum(axis=0) < threshold))

    # mask each cache-sized piece into one block mask; the exact test runs
    # once, on the candidates or, if they are most of the block, on all of it
    lims = _screen_limits(snr, l, r_cw)
    mask = buf[24 * size : 25 * size].view(bool)
    for s in range(0, size, CHUNK):
        mask[s : s + CHUNK] = _candidates(g[:, s : s + CHUNK], l, threshold, lims)
    keep = np.flatnonzero(mask)
    if 2 * keep.size <= size:
        g = g[:, keep]
    events = _caps_fail(g, l, threshold) | (logdet_capacity_batch(*g, snr, l) < l * r_cw)
    return int(np.count_nonzero(events))


def _screen_limits(snr: float, l: int, r_cw: float) -> np.ndarray:
    """Gain limits (lim1, lim2) below which the log-det may miss l r_cw bits.

    Every pivot f_k = 1 + v_k + snr g_r(k) of `logdet_capacity_batch` is
    >= 1 + snr g_r(k), and f_0 = 1 + snr (g0 + g1), so the log-det is
    >= (1 + (l-1)//2) log2(1 + snr g1) and >= (l//2) log2(1 + snr g2).  The
    target carries 1e-6 relative slack, far above the kernel's <= 1e-13
    relative error; a limit past float range, or with l//2 = 0, is inf, and
    none is below the smallest normal float, so underflowing gains stay in.
    """
    shares = np.array([1 + (l - 1) // 2, l // 2])
    with np.errstate(divide="ignore", over="ignore"):
        lims = np.expm1(l * r_cw * (1.0 + 1e-6) * np.log(2.0) / shares) / snr
    return np.maximum(lims, np.finfo(float).tiny)


def _caps_fail(g: np.ndarray, l: int, threshold: float) -> np.ndarray:
    """Cap failures of (3, n) gains: g0 + g1 or (l >= 2) g0 + g2 below threshold."""
    g0, g1, g2 = g
    # rounding is monotone, so the sum with min(g1, g2) fails iff one of those does
    return g0 + (np.minimum(g1, g2) if l > 1 else g1) < threshold


def _candidates(g: np.ndarray, l: int, threshold: float, lims) -> np.ndarray:
    """Outage superset of (3, n) gains: caps fail, or both relay gains are below lims."""
    return _caps_fail(g, l, threshold) | ((g[1] < lims[0]) & (g[2] < lims[1]))


def _outage_events(
    scheme: str, points: list[tuple], l: int, geom: NetworkGeometry | None, workers: int
) -> list[int]:
    """Outage events of each (snr, rbar, trials, seed) point, all checked before any draw."""
    _check_frame_length(l)
    if scheme not in _SCHEMES:
        raise ValueError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    for snr, rbar, trials, _ in points:
        if not snr > 0.0:
            raise ValueError(f"snr must be > 0, got {snr}")
        if not 0.0 <= rbar < np.inf:
            raise ValueError(f"target rate must be finite and >= 0, got {rbar}")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
    tasks = [
        (min(BLOCK_SIZE, trials - start), point, start // BLOCK_SIZE)
        for point, (_, rbar, trials, _) in enumerate(points) if rbar > 0.0
        for start in range(0, trials, BLOCK_SIZE)
    ]
    tasks.sort(reverse=True)  # (size, point, block): largest blocks first
    local = threading.local()

    def count(task: tuple[int, int, int]) -> int:
        size, point, block = task
        snr, rbar, _, seed = points[point]
        if not hasattr(local, "buf"):
            local.buf = np.empty(25 * tasks[0][0], np.uint8)  # see _count_block
        return _count_block(scheme, snr, rbar, l, seed, block, size, geom, local.buf)

    workers = min(workers, len(tasks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(count, tasks))
    else:
        results = map(count, tasks)
    counts = [0] * len(points)
    for (_, point, _), events in zip(tasks, results):
        counts[point] += events
    return counts


def outage_prob_conditioned(
    snr: float,
    rate_per_slot_target: float,
    l: int,
    trials: int,
    seed: int,
    *,
    scheme: str = "successive",
    geom: NetworkGeometry | None = None,
    workers: int = 1,
) -> float:
    """Monte Carlo outage frequency of the conditioned relay channel.

    The three destination-side links are i.i.d. unit-variance Rayleigh, or
    carry ``geom``'s pathloss and shadowing weights when one is given.
    ``scheme`` picks the successive frame model or the classic-II
    comparator.  Block-seeded counting makes the result independent of
    worker count and execution order.
    """
    point = (snr, rate_per_slot_target, trials, seed)
    return _outage_events(scheme, [point], l, geom, workers)[0] / trials


def estimate_dmt(
    r: float,
    l: int,
    snr_grid_db,
    trials_per_point,
    seed: int,
    *,
    scheme: str = "successive",
    fixed_rate_bits: float = 1.0,
    workers: int = 1,
) -> DmtPoint:
    """Fit an empirical diversity slope over a high-SNR grid.

    The per-slot target at each grid point is r * log2(snr), or
    ``fixed_rate_bits`` when r = 0.  Grid points with fewer than
    MIN_EVENTS outage events are flagged statistically unusable and
    excluded from the fits.  The primary slope uses the two highest usable
    points (the asymptotic ones); a full least-squares slope over all
    usable points is reported as a diagnostic.
    """
    if not 0.0 <= r < np.inf:
        raise ValueError(f"multiplexing gain must be finite and >= 0, got {r}")
    grid = [float(x) for x in snr_grid_db]
    if len(grid) < 3:
        raise ValueError("snr grid needs at least 3 points")
    if min(grid) < 20.0 or max(grid) - min(grid) < 20.0:
        raise ValueError("snr grid must span >= 20 dB within the >= 20 dB region")
    if any(b >= a for a, b in zip(grid[1:], grid)):
        raise ValueError("snr grid must be strictly increasing")
    if np.isscalar(trials_per_point):
        trial_counts = [int(trials_per_point)] * len(grid)
    else:
        trial_counts = [int(t) for t in trials_per_point]
        if len(trial_counts) != len(grid):
            raise ValueError("trials_per_point must match the grid length")

    snrs = [10.0 ** (snr_db / 10.0) for snr_db in grid]
    # a product of Python floats overflows to inf without a warning
    targets = [fixed_rate_bits if r == 0.0 else r * float(np.log2(snr)) for snr in snrs]
    if r > 0.0 and not max(targets) < np.inf:
        raise ValueError(f"multiplexing gain {r} puts r * log2(snr) past float range")
    points = [(*p, seed + i) for i, p in enumerate(zip(snrs, targets, trial_counts))]
    events = _outage_events(scheme, points, l, None, workers)
    probs = [count / trials for count, trials in zip(events, trial_counts)]

    usable = [i for i, c in enumerate(events) if c >= MIN_EVENTS]
    if len(usable) >= 2:
        decades = np.array([grid[i] / 10.0 for i in usable])
        neglog = -np.log10([probs[i] for i in usable])
        a, b = usable[-2], usable[-1]
        primary = float(
            (np.log10(probs[a]) - np.log10(probs[b])) / ((grid[b] - grid[a]) / 10.0)
        )
        lstsq = float(np.polyfit(decades, neglog, 1)[0])
    else:
        primary = float("nan")
        lstsq = float("nan")

    return DmtPoint(
        multiplexing_r=float(r),
        snr_grid_db=tuple(grid),
        outage_prob=tuple(probs),
        diversity_estimate=primary,
        diversity_lstsq=lstsq,
        events=tuple(events),
        trials=tuple(trial_counts),
        low_event_flags=tuple(c < MIN_EVENTS for c in events),
        target_rates_per_slot=tuple(float(t) for t in targets),
        scheme=scheme,
    )
