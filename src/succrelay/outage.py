"""Outage probabilities and diversity-multiplexing slopes.

The outage model conditions on the relays decoding correctly, so only the
direct and the two relay-to-destination links stay random; by default they
are i.i.d. unit-variance Rayleigh (squared magnitudes ~ Exp(1)).  A frame
carrying l codewords at a per-slot target of rbar bits needs every
per-codeword rate R = (l+1) rbar / l supported by its single-stream
combining cap, and l*R supported by the equivalent channel's log-det
bound; outage is the failure of any of these.

A few vector operations mask the candidate draws (`_candidates`), a
superset of the outage events kept at ~0.2 % of draws at 20 dB (l = 7,
1 bit/slot).  Only they run the exact test: the caps, then
`mimolinalg.logdet_below`, whose pivot lower bound leaves the O(l) pivot
recurrence to a few.  So the count is exact; no channel matrix is formed.

Both entry points call one validated count, `_outage_events`.  It draws
the trials in (seed, block) streams of BLOCK_SIZE, so a count depends on
that constant but not on the worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import NetworkGeometry, trial_rng
from .mimolinalg import CHUNK, logdet_below

_SCHEMES = ("successive", "classic2")
# Trials per (seed, block) stream.  Counts depend on it through the streams,
# so it is part of the determinism contract, not a caller's choice.
BLOCK_SIZE = 1 << 22
# Grid points with fewer outage events are flagged and left out of the fits.
MIN_EVENTS = 20


def dmt_formula(r: float, l: int) -> float:
    """Diversity gain of the successive scheme at multiplexing gain r."""
    if not 0.0 <= r < np.inf:
        raise ValueError(f"multiplexing gain must be finite and >= 0, got {r}")
    if l < 1:
        raise ValueError(f"frame length l must be >= 1, got {l}")
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
) -> int:
    # no gain in the draws' float range meets a threshold past it: all fail
    classic = scheme == "classic2"
    r_cw = 2.0 * rbar if classic else (l + 1) * rbar / l
    threshold = (2.0**r_cw - 1.0) / snr if r_cw < 1024.0 else np.inf
    dtype = np.float32 if classic else np.float64
    if not threshold < float(np.finfo(dtype).max):
        return size
    rng = trial_rng(seed, block)
    g = rng.standard_exponential(size=(3, size), dtype=dtype)
    if geom is not None:
        # pathloss on the three destination links, broadcast from (3, 1)
        w = np.array([[geom.d_sd], [geom.d_r1d], [geom.d_r2d]]) ** (-geom.gamma)
        sigma = geom.shadow_sigma_db
        if sigma > 0.0:
            w = w * 10.0 ** (rng.normal(0.0, sigma, size=(3, size)) / 10.0)
        g = g * w.astype(dtype, copy=False)
    if classic:
        # Only the three-branch combining cap binds once the relays decode:
        # outage iff 0.5 * C(g3 snr) < rbar.
        return int(np.count_nonzero(g.sum(axis=0) < threshold))

    # the exact test on each piece's candidates, or on the whole piece if most are
    lims = _screen_limits(snr, l, r_cw)
    events = 0
    for start in range(0, size, CHUNK):
        piece = g[:, start : start + CHUNK]
        cap, cand = _candidates(piece, l, threshold, lims)
        kept = np.count_nonzero(cand)
        if kept:
            keep = np.flatnonzero(cand) if 2 * kept <= cand.size else slice(None)
            below = logdet_below(*piece[:, keep], snr, l, l * r_cw)
            events += int(np.count_nonzero(cap[keep] | below))
    return events


def _screen_limits(snr: float, l: int, r_cw: float) -> np.ndarray:
    """Gain limits (lim1, lim2) below which the log-det may miss l r_cw bits.

    `logdet_below`'s bound is >= (1 + (l-1)//2) log2(1 + snr g1) and
    >= (l//2) log2(1 + snr g2).  The target carries 1e-6 relative slack, far
    above rounding; a limit past float range, or with l//2 = 0, is inf, and
    none is below the smallest normal float, so underflowing gains stay in.
    """
    shares = np.array([1 + (l - 1) // 2, l // 2])
    with np.errstate(divide="ignore", over="ignore"):
        lims = np.expm1(l * r_cw * (1.0 + 1e-6) * np.log(2.0) / shares) / snr
    return np.maximum(lims, np.finfo(float).tiny)


def _candidates(g: np.ndarray, l: int, threshold: float, lims) -> tuple[np.ndarray, np.ndarray]:
    """(cap, candidates) of (3, n) gains: cap failures, and a superset of outage.

    Rounding is monotone, so g0 + min(g1, g2) < threshold is exactly one of
    the caps failing; a log-det outage needs both gains below `_screen_limits`.
    """
    g0, g1, g2 = g
    cap = g0 + (np.minimum(g1, g2) if l > 1 else g1) < threshold
    return cap, cap | ((g1 < lims[0]) & (g2 < lims[1]))


def _outage_events(
    scheme: str,
    snr: float,
    rbar: float,
    l: int,
    trials: int,
    seed: int,
    geom: NetworkGeometry | None,
    workers: int,
) -> int:
    """Outage events among ``trials`` draws, in (seed, block) streams of BLOCK_SIZE."""
    if not snr > 0.0:
        raise ValueError(f"snr must be > 0, got {snr}")
    if not 0.0 <= rbar < np.inf:
        raise ValueError(f"target rate must be finite and >= 0, got {rbar}")
    if l < 1:
        raise ValueError(f"frame length l must be >= 1, got {l}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if scheme not in _SCHEMES:
        raise ValueError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    if rbar == 0.0:
        return 0
    size = BLOCK_SIZE
    blocks = [(b, min(size, trials - b * size)) for b in range(-(-trials // size))]

    def count(block: tuple[int, int]) -> int:
        return _count_block(scheme, snr, rbar, l, seed, *block, geom)

    workers = min(workers, len(blocks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(count, blocks))
    return sum(map(count, blocks))


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
    events = _outage_events(scheme, snr, rate_per_slot_target, l, trials, seed, geom, workers)
    return events / trials


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

    probs, events, targets = [], [], []
    for point, (snr_db, trials) in enumerate(zip(grid, trial_counts)):
        snr = 10.0 ** (snr_db / 10.0)
        rbar = fixed_rate_bits if r == 0.0 else r * np.log2(snr)
        count = _outage_events(scheme, snr, rbar, l, trials, seed + point, None, workers)
        probs.append(count / trials)
        events.append(count)
        targets.append(float(rbar))

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
        target_rates_per_slot=tuple(targets),
        scheme=scheme,
    )
