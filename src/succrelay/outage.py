"""Outage probabilities and diversity-multiplexing slopes.

The outage model conditions on the relays decoding correctly, so only the
direct and the two relay-to-destination links stay random: i.i.d.
unit-variance Rayleigh, with squared gains g0, g1, g2 ~ Exp(1).  Each
scheme's row of `SCHEMES` spells out its outage event, the failure of its
weakest single-stream cap or of the log-det bound, and its tradeoff.

The outage event is a down-set: the caps are sums, and the log-det never
falls as a gain rises.  So one fixed grid of cells covers (g1, g2), and
`_staircase` gives each cell, in closed form, a g0 below which all its
events lie.  Each grid point's one (seed, (point, 0)) stream draws how
many trials fall in a cell as one Binomial(trials, total mass), then, in
pieces of `CANDIDATE_CHUNK`, picks each one's cell and gains by inverting
the masses' running sum and the truncated Exp(1) (Devroye, Non-Uniform
Random Variate Generation, 1986, ch. 2 and XI), and runs the exact test on
them: the cap and, where the row asks, the O(l) pivot recurrence.  The
candidate pieces fix how the stream is read; the log-det kernel pieces its
draws by its own cache-sized `mimolinalg.CHUNK`, which changes no bit.  The
count is Binomial(trials, p_out), as for drawing every trial; only the
stream differs.  Past the staircase, a point's work grows with its
candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import trial_rng
from .mimolinalg import check_count, check_kernel_args, check_real, logdet_capacity_batch
from .mimolinalg import arg_ndim, require, snr_from_db

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


@dataclass(frozen=True)
class DmtPoint:
    """Empirical diversity estimate over an SNR grid at one multiplexing gain,
    and the closed-form tradeoff d(r, l) of its scheme's `SCHEMES` row."""

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
    dmt_formula: float

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
    """(The running sum of the cell masses in cell-id order, every cell's
    staircase value of g0)."""
    tau = _staircase(scheme, snr, l, r_cw, threshold, _C1, _C2)
    return np.cumsum(_BASE * -np.expm1(-tau)), tau


# Candidates per piece of the outage count, which bounds the memory they
# take.  Each piece draws its own (4, m) uniforms, so changing this changes
# how every grid point's stream is read, and with it the DMT counts.
CANDIDATE_CHUNK = 8192


def _candidate_gains(rng, size: int, cum, tau):
    """(3, <= `CANDIDATE_CHUNK`) gains of the Binomial(size, total) trials in
    a cell.  A uniform u picks the cell where ``cum`` first passes u * total,
    exact up to rounding (a cell below ~1e-16 of the total can be
    mis-weighted), clamped to the last cell that raises the running sum;
    only drawn cells' edges and spans are gathered."""
    total = cum[-1]
    last = np.searchsorted(cum, total)
    n = int(rng.binomial(size, min(total, 1.0)))
    for first in range(0, n, CANDIDATE_CHUNK):
        u = rng.random((4, min(CANDIDATE_CHUNK, n - first)))
        cell = np.minimum(np.searchsorted(cum, u[0] * total, "right"), last)
        i, j = np.divmod(cell, _MASS.size)
        lower = np.array([np.zeros(cell.size), _EDGES[i], _EDGES[j]])
        span = np.array([np.expm1(-tau[cell]), _SPAN[i], _SPAN[j]])
        yield lower - np.log1p(u[1:] * span)


def _outage_events(scheme: str, points: list[tuple], l: int, seed: int) -> list[int]:
    """Outage events of each (snr, rbar, trials) point, all checked before any draw."""
    check_kernel_args(l=l)
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {tuple(SCHEMES)}, got {scheme!r}")
    points = [  # numpy's binomial takes int64 counts
        (check_real(snr, "snr", positive=True), check_real(rbar, "target rate"),
         check_count(trials, "trials"))
        for snr, rbar, trials in points
    ]
    events = [_point_events(scheme, l, seed, point, *p) for point, p in enumerate(points)]
    ok = [0 <= e <= p[2] for e, p in zip(events, points)]  # a fault here, not a bad grid
    require(ok, "outage events must lie in [0, trials]")
    return events


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
        return trials  # no gain in float range meets a threshold past it
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
    Before any draw, ``snr`` must pass `check_real` > 0, the target
    `check_real` >= 0, and ``l`` and ``trials`` `check_count`, or ValueError
    names the argument; `trial_rng` checks the seed.
    """
    return _outage_events(scheme, [(snr, rate_per_slot_target, trials)], l, seed)[0] / trials


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
    usable points is reported as a diagnostic, and ``dmt_formula`` is the
    scheme's closed-form d(r, l) to compare them with.  Grid point i counts
    on the (seed, (i, 0)) stream.  Before any draw, ``r`` must pass
    `check_real` >= 0, each grid entry `snr_from_db`, and ``l`` and each
    trial count `check_count`, or ValueError names the argument; `trial_rng`
    checks the seed.
    """
    r = check_real(r, "multiplexing gain")  # run_dmt maps this wording to dmt_r
    grid = list(snr_grid_db)
    snrs = [snr_from_db(x) for x in grid]  # first: float(x) parses a str and can overflow
    grid = [float(x) for x in grid]
    if len(grid) < 3:
        raise ValueError("snr grid needs at least 3 points")
    if min(grid) < 20.0 or max(grid) - min(grid) < 20.0:
        raise ValueError("snr grid must span >= 20 dB within the >= 20 dB region")
    if any(b >= a for a, b in zip(grid[1:], grid)):
        raise ValueError("snr grid must be strictly increasing")
    one = arg_ndim(trials_per_point) == 0
    trial_counts = [trials_per_point] * len(grid) if one else list(trials_per_point)
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
        dmt_formula=SCHEMES[scheme][3](r, l),
    )
