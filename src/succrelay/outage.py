"""Outage probabilities and diversity-multiplexing slopes.

The outage model conditions on the relays decoding correctly, so only the
direct and the two relay-to-destination links stay random; by default they
are i.i.d. unit-variance Rayleigh (squared magnitudes ~ Exp(1)).  A frame
carrying l codewords at a per-slot target of rbar bits needs every
per-codeword rate R = (l+1) rbar / l supported by its single-stream
combining cap, and l*R supported by the equivalent channel's log-det
bound; outage is the failure of any of these.

The log-det bound comes from `mimolinalg.logdet_capacity_batch`, the
O(l) pivot recurrence on the three squared link gains that every rate
path shares; no channel matrix is formed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import NetworkGeometry
from .mimolinalg import logdet_capacity_batch

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
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(block),))
    )
    if scheme == "classic2":
        # Only the three-branch combining cap binds once the relays decode:
        # outage iff 0.5 * C(g3 snr) < rbar.
        threshold = (2.0 ** (2.0 * rbar) - 1.0) / snr
        g = rng.standard_exponential(size=(3, size), dtype=np.float32)
        if weights_sampler is not None:
            g = g * weights_sampler(rng, size).astype(np.float32)
        return int(np.count_nonzero(g.sum(axis=0) < threshold))

    r_cw = (l + 1) * rbar / l
    threshold = (2.0 ** r_cw - 1.0) / snr
    g = rng.standard_exponential(size=(3, size))
    if weights_sampler is not None:
        g = g * weights_sampler(rng, size)
    g0, g1, g2 = g
    fail = (g0 + g1) < threshold
    if l >= 2:
        fail |= (g0 + g2) < threshold
    logdet = logdet_capacity_batch(g0, g1, g2, snr, l)
    fail |= logdet < l * r_cw
    return int(np.count_nonzero(fail))


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
        d = np.array([geom.d_sd, geom.d_r1d, geom.d_r2d])
        base = d ** (-geom.gamma)
        sigma = geom.shadow_sigma_db

        def weights_sampler(rng, size, base=base, sigma=sigma):
            w = np.repeat(base[:, None], size, axis=1)
            if sigma > 0.0:
                w = w * 10.0 ** (rng.normal(0.0, sigma, size=(3, size)) / 10.0)
            return w

    blocks = [
        (b, min(block_size, trials - b * block_size))
        for b in range((trials + block_size - 1) // block_size)
    ]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(
                pool.map(
                    lambda args: _count_block(
                        scheme, snr, rbar, l, seed, args[0], args[1], weights_sampler
                    ),
                    blocks,
                )
            )
    else:
        counts = [
            _count_block(scheme, snr, rbar, l, seed, b, size, weights_sampler)
            for b, size in blocks
        ]
    return int(sum(counts))


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
