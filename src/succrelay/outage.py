"""Outage probabilities and diversity-multiplexing slopes.

The outage model conditions on the relays decoding correctly, so only the
direct and the two relay-to-destination links stay random: i.i.d.
unit-variance Rayleigh, with squared gains g0, g1, g2 ~ Exp(1).  Each
scheme's row of `SCHEMES` spells out its outage event, the failure of its
weakest single-stream cap or of the log-det bound, and its tradeoff.

The outage event is a down-set: the caps are sums, and the log-det never
falls as a gain rises.  So one fixed grid of cells covers (g1, g2), and
`_staircase` gives each cell, in closed form, a g0 below which all its
events lie.  Each grid point's one (seed, (point, 0)) stream makes one
multinomial draw of its trials over the cells and a rest that holds no
event, draws the candidates' gains by inverting the truncated Exp(1)
(Devroye, Non-Uniform Random Variate Generation, 1986, ch. 2) in pieces of
CHUNK, and runs the exact test on them: the cap and, where the row asks,
the O(l) pivot recurrence.  The count is Binomial(trials, p_out), as for
drawing every trial; only the stream differs.  The inversion gathers the
lower edges and spans of the drawn cells alone: past the staircase, a
point's work grows with its candidates, not with the grid.
"""

from __future__ import annotations

import contextlib
import numbers
from dataclasses import dataclass

import numpy as np

from .channel import trial_rng
from .mimolinalg import CHUNK, check_kernel_args, logdet_capacity_batch

# Cell edges of each relay gain: 0, half-octaves from 2^-30 up to 64, inf;
# each interval's expm1(a - b), and its Exp(1) mass e^-a (1 - e^-(b - a)).
_EDGES = np.concatenate([[0.0], 2.0 ** (np.arange(-60, 13) / 2.0), [np.inf]])
_SPAN = np.expm1(_EDGES[:-1] - _EDGES[1:])
_MASS = np.exp(-_EDGES[:-1]) * -_SPAN
# Cell i * _MASS.size + j of the (g1, g2) grid: its lower corner and its mass.
_C1, _C2 = np.repeat(_EDGES[:-1], _MASS.size), np.tile(_EDGES[:-1], _MASS.size)
_BASE = np.outer(_MASS, _MASS).ravel()
# Relative slack on each cell's target, and a g0 past every Exp(1) draw
# (e^-1024 underflows to 0).
_SLACK = 1e-6
_G0_MAX = 1024.0
# Grid points with fewer outage events are flagged and left out of the fits.
MIN_EVENTS = 20
# Per-slot target of every grid point at r = 0, in bits: the diversity at a fixed rate.
FIXED_RATE_BITS = 1.0


# name -> (per-codeword rate r_cw(rbar, l), relay gains cap(g1, g2, l) that
# the weakest single-stream cap adds to g0, whether the log-det must also
# carry l * r_cw, tradeoff d(r, l)).  Successive: l codewords in l + 1 slots,
# each capped by g0 plus one relay (the first sees only relay 1), so by
# monotone rounding g0 + min(g1, g2) fails iff g0 + g1 or g0 + g2 does.
# Classic protocol II: one codeword in two slots, over all three branches.
SCHEMES = {
    "successive": (
        lambda rbar, l: (l + 1) * rbar / l,
        lambda g1, g2, l: np.minimum(g1, g2) if l > 1 else g1,
        True,
        lambda r, l: 2.0 * max(0.0, 1.0 - (l + 1) * r / l),
    ),
    "classic2": (
        lambda rbar, l: 2.0 * rbar,
        lambda g1, g2, l: g1 + g2,
        False,
        lambda r, l: 3.0 * max(0.0, 1.0 - 2.0 * r),
    ),
}


def _multiplexing_gain(r) -> float:
    """float(r); ValueError unless it is finite and >= 0 (an int past float range is not)."""
    with contextlib.suppress(OverflowError):
        if 0.0 <= float(r) < np.inf:
            return float(r)
    raise ValueError(f"multiplexing gain must be finite and >= 0, got {r}")


def dmt_formula(r: float, l: int) -> float:
    """Diversity gain of the successive scheme at multiplexing gain r."""
    r = _multiplexing_gain(r)
    check_kernel_args(l=l)
    return SCHEMES["successive"][3](r, l)


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


def _staircase(scheme: str, snr: float, l: int, r_cw: float, threshold: float, c1, c2):
    """Per cell with lower corner (c1, c2), a g0 above which it holds no event.

    The value is the largest g0 at which the corner is still an event: the
    cap root, the threshold less the corner's gains in the cap, or past it
    the root of a pivot lower bound B <= log-det, at or above the log-det's
    root; one kernel call certifies it, and a corner that rounding leaves
    below the target there gets inf.  Both roots carry 1e-6 relative slack
    on the target, far above rounding and the kernel's <= ~5e-16 relative
    fall as one gain rises.  A corner still an event at g0 = _G0_MAX gets
    inf: no Exp(1) draw is cut off there.
    """
    with np.errstate(over="ignore"):
        reach = threshold * (1.0 + _SLACK)
        # l log2(1 + snr g0) <= log-det: the log-det root lies below this, and
        # it is >= reach, since x ln 2 >= 1 - 2^-x
        bound = min(np.expm1(r_cw * (1.0 + 2.0 * _SLACK) * np.log(2.0)) / snr, _G0_MAX)
    _, cap, logdet, _ = SCHEMES[scheme]
    tau = np.minimum(np.maximum(reach - cap(c1, c2, l), 0.0), _G0_MAX)
    if logdet:
        # corners still below the log-det target at the cap root
        target = l * r_cw * (1.0 + _SLACK)
        todo = np.flatnonzero(logdet_capacity_batch(tau, c1, c2, snr, l) < target)
        c1, c2 = c1[todo], c2[todo]
        a1, a2 = snr * c1, snr * c2
        # B = log2(1 + a0 + a1) + (l-1)//2 log2(1 + a1) + l//2 log2(1 + a2), a0 = snr g0,
        # meets the target at a0 = e^rest - 1 - a1, rest in nats
        rest = target * np.log(2.0) - (l - 1) // 2 * np.log1p(a1) - l // 2 * np.log1p(a2)
        with np.errstate(over="ignore"):
            hi = np.maximum(tau[todo], np.minimum((np.expm1(rest) - a1) / snr, bound))
        hi[logdet_capacity_batch(hi, c1, c2, snr, l) < target] = np.inf
        tau[todo] = hi
    tau[tau >= _G0_MAX] = np.inf
    return tau


def _cells(scheme: str, snr: float, l: int, r_cw: float, threshold: float):
    """The cells of positive mass, ascending by mass: (masses, cell ids, and
    every cell's staircase value of g0)."""
    tau = _staircase(scheme, snr, l, r_cw, threshold, _C1, _C2)
    mass = _BASE * -np.expm1(-tau)
    # the largest masses last keep numpy's running remainder far from 0; the
    # zero masses sort first, ties by cell id
    cells = np.argsort(mass, kind="stable")[np.count_nonzero(mass == 0.0) :]
    return mass[cells], cells, tau


def _candidate_gains(rng, size: int, mass, cells, tau):
    """(3, <= CHUNK) gains of the trials that the multinomial draw puts in a
    cell; only the drawn cells' lower edges and spans are gathered."""
    ends = np.cumsum(rng.multinomial(size, np.append(mass, max(0.0, 1.0 - mass.sum())))[:-1])
    for first in range(0, int(ends[-1]) if ends.size else 0, CHUNK):
        pick = np.searchsorted(ends, np.arange(first, min(first + CHUNK, ends[-1])), "right")
        cell = cells[pick]
        i, j = np.divmod(cell, _MASS.size)
        lower = np.array([np.zeros(cell.size), _EDGES[i], _EDGES[j]])
        span = np.array([np.expm1(-tau[cell]), _SPAN[i], _SPAN[j]])
        yield lower - np.log1p(rng.random((3, cell.size)) * span)


def _outage_events(scheme: str, points: list[tuple], l: int, seed: int) -> list[int]:
    """Outage events of each (snr, rbar, trials) point, all checked before any draw."""
    check_kernel_args(l=l)
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {tuple(SCHEMES)}, got {scheme!r}")
    for snr, rbar, trials in points:
        if not 0.0 < snr < np.inf:
            raise ValueError(f"snr must be finite and > 0, got {snr}")
        if not 0.0 <= rbar < np.inf:
            raise ValueError(f"target rate must be finite and >= 0, got {rbar}")
        integer = isinstance(trials, numbers.Integral) and not isinstance(trials, bool)
        if not (integer and 1 <= trials < 2**63):  # numpy's multinomial takes int64 counts
            raise ValueError(f"trials must be an integer in [1, 2**63), got {trials!r}")
    return [_point_events(scheme, l, seed, point, *p) for point, p in enumerate(points)]


def _point_events(
    scheme: str, l: int, seed: int, point: int, snr: float, rbar: float, trials: int
) -> int:
    """Events of grid point ``point``, all drawn from one stream."""
    if rbar == 0.0:
        return 0
    codeword_rate, cap, logdet, _ = SCHEMES[scheme]
    r_cw = codeword_rate(rbar, l)
    threshold = (2.0**r_cw - 1.0) / snr if r_cw < 1024.0 else np.inf
    if not threshold < np.finfo(float).max:
        return int(trials)  # no gain in float range meets a threshold past it
    # the two-element key keeps these streams apart from the sweeps' (snr_idx,)
    rng = trial_rng(seed, (point, 0))
    events = 0
    for g in _candidate_gains(rng, trials, *_cells(scheme, snr, l, r_cw, threshold)):
        failed = g[0] + cap(g[1], g[2], l) < threshold
        if logdet:
            failed |= logdet_capacity_batch(*g, snr, l) < l * r_cw
        events += int(np.count_nonzero(failed))
    return events


def outage_prob_conditioned(
    snr: float,
    rate_per_slot_target: float,
    l: int,
    trials: int,
    seed: int,
    *,
    scheme: str = "successive",
) -> float:
    """Monte Carlo outage frequency of the conditioned relay channel.

    The three destination-side links are i.i.d. unit-variance Rayleigh.
    ``scheme`` names a row of `SCHEMES`: the successive frame model or the
    classic-II comparator.  The count draws from the (seed, (0, 0)) stream.
    """
    return _outage_events(scheme, [(snr, rate_per_slot_target, trials)], l, seed)[0] / trials


def snr_from_db(snr_db: float) -> float:
    """10 ** (snr_db / 10), raising ValueError unless it is a positive finite float."""
    try:
        snr = 10.0 ** (float(snr_db) / 10.0)  # a Python float power raises, numpy's warns
    except OverflowError:
        snr = np.inf
    if not 0.0 < snr < np.inf:
        raise ValueError(f"snr {snr_db} dB has no positive finite linear value")
    return snr


def estimate_dmt(
    r: float,
    l: int,
    snr_grid_db,
    trials_per_point,
    seed: int,
    *,
    scheme: str = "successive",
) -> DmtPoint:
    """Fit an empirical diversity slope over a high-SNR grid.

    The per-slot target at each grid point is r * log2(snr), or
    FIXED_RATE_BITS when r = 0.  Grid points with fewer than
    MIN_EVENTS outage events are flagged statistically unusable and
    excluded from the fits.  The primary slope uses the two highest usable
    points (the asymptotic ones); a full least-squares slope over all
    usable points is reported as a diagnostic.  Grid point i counts on the
    (seed, (i, 0)) stream.
    """
    r = _multiplexing_gain(r)
    grid = list(snr_grid_db)
    snrs = [snr_from_db(x) for x in grid]  # ValueError where float(x) would overflow
    grid = [float(x) for x in grid]
    if len(grid) < 3:
        raise ValueError("snr grid needs at least 3 points")
    if min(grid) < 20.0 or max(grid) - min(grid) < 20.0:
        raise ValueError("snr grid must span >= 20 dB within the >= 20 dB region")
    if any(b >= a for a, b in zip(grid[1:], grid)):
        raise ValueError("snr grid must be strictly increasing")
    if np.isscalar(trials_per_point):
        trial_counts = [trials_per_point] * len(grid)
    else:
        trial_counts = list(trials_per_point)
        if len(trial_counts) != len(grid):
            raise ValueError("trials_per_point must match the grid length")

    # a product of Python floats overflows to inf without a warning
    targets = [FIXED_RATE_BITS if r == 0.0 else r * float(np.log2(snr)) for snr in snrs]
    if r > 0.0 and not max(targets) < np.inf:
        raise ValueError(f"multiplexing gain {r} puts r * log2(snr) past float range")
    events = _outage_events(scheme, list(zip(snrs, targets, trial_counts)), l, seed)
    probs = [count / trials for count, trials in zip(events, trial_counts)]

    usable = [i for i, c in enumerate(events) if c >= MIN_EVENTS]
    primary = lstsq = float("nan")
    if len(usable) >= 2:
        decades = np.array([grid[i] / 10.0 for i in usable])
        neglog = -np.log10([probs[i] for i in usable])
        a, b = usable[-2], usable[-1]
        primary = float(
            (np.log10(probs[a]) - np.log10(probs[b])) / ((grid[b] - grid[a]) / 10.0)
        )
        lstsq = float(np.polyfit(decades, neglog, 1)[0])

    return DmtPoint(
        multiplexing_r=r,
        snr_grid_db=tuple(grid),
        outage_prob=tuple(probs),
        diversity_estimate=primary,
        diversity_lstsq=lstsq,
        events=tuple(events),
        trials=tuple(int(t) for t in trial_counts),  # integers: _outage_events checked them
        low_event_flags=tuple(c < MIN_EVENTS for c in events),
        target_rates_per_slot=tuple(float(t) for t in targets),
        scheme=scheme,
    )
