"""Outage probabilities and diversity-multiplexing slopes.

The outage model conditions on the relays decoding correctly, so only the
direct and the two relay-to-destination links stay random; by default they
are i.i.d. unit-variance Rayleigh (squared magnitudes ~ Exp(1)).  A frame
carrying l codewords at a per-slot target of rbar bits needs every
per-codeword rate R = (l+1) rbar / l supported by its single-stream
combining cap, and l*R supported by the equivalent channel's log-det
bound; outage is the failure of any of these.

The log-det condition is `mimolinalg.logdet_below`: a pivot lower bound
settles almost every draw in a few operations, and the O(l) pivot
recurrence that every rate path shares runs only on the rest, so the
count is exact.  No channel matrix is formed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import NetworkGeometry, trial_rng
from .mimolinalg import CHUNK, logdet_below

_SCHEMES = ("successive", "classic2")


def dmt_formula(r: float, l: int) -> float:
    """Diversity gain of the successive scheme at multiplexing gain r."""
    if r < 0.0:
        raise ValueError(f"multiplexing gain must be >= 0, got {r}")
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
    weights_sampler,
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
    if weights_sampler is not None:
        g = g * weights_sampler(rng, size).astype(dtype, copy=False)
    if classic:
        # Only the three-branch combining cap binds once the relays decode:
        # outage iff 0.5 * C(g3 snr) < rbar.
        return int(np.count_nonzero(g.sum(axis=0) < threshold))

    # one pass over cache-sized pieces: the two caps, then the log-det screen
    events = 0
    for start in range(0, size, CHUNK):
        g0, g1, g2 = g[:, start : start + CHUNK]
        fail = (g0 + g1) < threshold
        if l >= 2:
            fail |= (g0 + g2) < threshold
        fail |= logdet_below(g0, g1, g2, snr, l, l * r_cw)
        events += int(np.count_nonzero(fail))
    return events


def _outage_events(
    scheme: str,
    snr: float,
    rbar: float,
    l: int,
    trials: int,
    seed: int,
    geom: NetworkGeometry | None,
    workers: int,
    block_size: int,
) -> int:
    weights_sampler = None
    if geom is not None:
        base = np.array([[geom.d_sd], [geom.d_r1d], [geom.d_r2d]]) ** (-geom.gamma)
        sigma = geom.shadow_sigma_db

        def weights_sampler(rng, size, base=base, sigma=sigma):
            if sigma > 0.0:
                return base * 10.0 ** (rng.normal(0.0, sigma, size=(3, size)) / 10.0)
            return base

    blocks = [
        (b, min(block_size, trials - b * block_size))
        for b in range((trials + block_size - 1) // block_size)
    ]

    def count(block: tuple[int, int]) -> int:
        return _count_block(scheme, snr, rbar, l, seed, *block, weights_sampler)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(count, blocks))
    return sum(map(count, blocks))


def outage_prob_conditioned(
    geom_free: bool,
    snr: float,
    rate_per_slot_target: float,
    l: int,
    trials: int,
    seed: int,
    *,
    scheme: str = "successive",
    geom: NetworkGeometry | None = None,
    workers: int = 1,
    block_size: int = 1 << 22,
) -> float:
    """Monte Carlo outage frequency of the conditioned relay channel.

    ``geom_free`` selects i.i.d. unit-variance links; with it False a
    ``geom`` must supply pathloss/shadowing weights for the three
    destination-side links.  ``scheme`` picks the successive frame model or
    the classic-II comparator.  Block-seeded counting makes the result
    independent of worker count and execution order.
    """
    if snr <= 0.0:
        raise ValueError(f"snr must be > 0, got {snr}")
    if rate_per_slot_target < 0.0:
        raise ValueError(f"target rate must be >= 0, got {rate_per_slot_target}")
    if l < 1:
        raise ValueError(f"frame length l must be >= 1, got {l}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if scheme not in _SCHEMES:
        raise ValueError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    if geom_free:
        geom = None
    elif geom is None:
        raise ValueError("geom_free=False requires a geometry")
    if rate_per_slot_target == 0.0:
        return 0.0
    events = _outage_events(
        scheme, snr, rate_per_slot_target, l, trials, seed, geom, workers, block_size
    )
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
    min_events: int = 20,
    workers: int = 1,
    block_size: int = 1 << 22,
) -> DmtPoint:
    """Fit an empirical diversity slope over a high-SNR grid.

    The per-slot target at each grid point is r * log2(snr), or
    ``fixed_rate_bits`` when r = 0.  Grid points with fewer than
    ``min_events`` outage events are flagged statistically unusable and
    excluded from the fits.  The primary slope uses the two highest usable
    points (the asymptotic ones); a full least-squares slope over all
    usable points is reported as a diagnostic.
    """
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
    if any(t < 1 for t in trial_counts):
        raise ValueError("every grid point needs trials >= 1")

    probs, events, targets = [], [], []
    for point, (snr_db, trials) in enumerate(zip(grid, trial_counts)):
        snr = 10.0 ** (snr_db / 10.0)
        rbar = fixed_rate_bits if r == 0.0 else r * np.log2(snr)
        count = _outage_events(
            scheme, snr, rbar, l, trials, seed + point, None, workers, block_size
        )
        probs.append(count / trials)
        events.append(count)
        targets.append(float(rbar))

    usable = [i for i, c in enumerate(events) if c >= min_events]
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
        low_event_flags=tuple(c < min_events for c in events),
        target_rates_per_slot=tuple(targets),
        scheme=scheme,
    )
