"""Per-realization achievable rates of the transmission schemes.

Schemes covered: direct transmission, the two classic broadcast-then-relay
protocols (multiplexing 1/3 and 1/2), the successive-relaying genie bound,
its MMSE-SIC (V-BLAST) counterpart, the interference-free capacity
specialization, the adaptive fallback rules, and the average capacity gain
over classic protocol II.

Every rate, interference flag and fallback rule depends only on the six
squared link gains, so every kernel here takes one (6, n) float array ``g``
of them, rows in ``channel.LINK_NAMES`` order (`channel.link_gains`), and
returns one value per frame.  A caller computes ``g`` once per batch of
draws; a single realization is the n = 1 case.  The capacity gain reads
only the three destination gains and takes those rows.

The relays take turns (R1, R2, R1, ...), so every slot term of the
successive scheme depends only on the parity of its slot: each is computed
once per parity, as a (2, n) array, and gathered into frame order with
``np.arange(l) % 2``.  In the slot where one relay forwards a codeword, the
other relay either decodes that transmission first (when the inter-relay
link is the stronger one) or treats it as Gaussian noise, which caps either
the forwarded codeword's rate or the next codeword's source-to-relay rate.
Only the first codeword's source cap (the first slot has no interference)
and the last codeword's interference cap (no codeword follows it) fall
outside the pattern.  Every codeword also carries the destination-side
single-stream cap, and the frame total is clipped by the equivalent MIMO
channel's log-det bound.  The l/(l+1) pre-log holds for `theorem1_rate_batch`
(the interference-free bound) and for the relay-conditioned DMT of `outage`.
The genie and V-BLAST recursion grows at (growing codewords)/(l+1) per draw:
a saturated codeword tends to log2(1 + g_r1r2/g_next) or log2(1 + g_next/g_r1r2).
PAPER.md holds only the abstract, so the paper's relay decoding rule cannot be
checked here.
"""

from __future__ import annotations

import reprlib

import numpy as np

# No rate builds the channel matrix; build_equivalent_channel_batch is
# imported only because bench/tracing.py wraps it in this module.
from .mimolinalg import (  # noqa: F401
    DetectionOrder,
    arg_ndim,
    build_equivalent_channel_batch,
    check_frame_lengths,
    check_kernel_args,
    check_real,
    logdet_capacity_batch,
    mmse_sic_sinrs_batch,
    require,
)

_LN2 = np.log(2.0)


def _cap(x: np.ndarray) -> np.ndarray:
    return np.log1p(x) / _LN2


def rate_direct_batch(g: np.ndarray, snr: float) -> np.ndarray:
    """Point-to-point rate of the direct link, one codeword per slot."""
    check_kernel_args(snr)
    return _cap(g[0] * snr)


def rate_classic_batch(g: np.ndarray, snr: float, prefactor: float) -> np.ndarray:
    """Broadcast-then-relay rate: ``prefactor`` 1/3 for one relay slot each
    (classic I), 1/2 for simultaneous space-time relaying (classic II); it
    must pass `check_real` > 0."""
    check_kernel_args(snr)
    prefactor = check_real(prefactor, "prefactor", positive=True)
    gsd, gsr1, gsr2, _, gr1d, gr2d = g
    bottleneck = np.minimum(
        np.minimum(_cap(gsr1 * snr), _cap(gsr2 * snr)),
        _cap((gsd + gr1d + gr2d) * snr),
    )
    return prefactor * bottleneck


def _successive_codeword_caps(
    g: np.ndarray, snr: float, l: int, dest_caps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-codeword rate caps shared by the genie and V-BLAST rates.

    ``dest_caps`` is the (n, l) per-codeword destination-side cap: the
    single-stream combining rate for the genie bound, the per-stream SIC
    rate for V-BLAST.  Returns (per_codeword (n, l), branch (n, l-1)) where
    branch is True when the decode-interference-first branch fired.
    """
    # Row p: the slot where the relay of parity p forwards a codeword while
    # the source sends the next one to the other relay, whose gain is g_next.
    g_next, gr1r2 = g[[2, 1]], g[3]
    stronger = gr1r2 > g_next  # squared magnitudes; ties treat as noise
    interference = np.where(stronger, _cap(gr1r2 * snr / (1.0 + g_next * snr)), np.inf)
    source_next = np.where(
        stronger, _cap(g_next * snr), _cap(g_next * snr / (1.0 + gr1r2 * snr))
    )
    parity = np.arange(l) % 2
    source = source_next[1 - parity]
    source[0] = _cap(g[1] * snr)
    caps = np.minimum(source, interference[parity])
    caps[-1] = source[-1]  # the last slot carries no next codeword
    # C order keeps each frame's row sum bitwise that of a lone frame.
    per_cw = np.minimum(caps.T, dest_caps, out=np.empty(dest_caps.shape))
    return per_cw, stronger[parity[:-1]].T


def check_jensen_bound(combining_sum: np.ndarray, logdet: np.ndarray) -> None:
    """Concavity of log2(1+x) makes the per-codeword combining rates sum to
    at least the log-det bound; a violation beyond rounding is a numerics bug."""
    require(
        combining_sum >= logdet * (1.0 - 1e-9) - 1e-12,
        "combining-rate sum fell below the log-det bound",
    )


def successive_genie_batch(
    g: np.ndarray, snr: float, l: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Genie-bound rates: (rate_per_slot, per_codeword, branch, sum_caps, logdet)."""
    logdet = logdet_capacity_batch(g[0], g[4], g[5], snr, l)  # checks snr, l
    dest = _cap((g[0] + g[4:6]) * snr)[np.arange(l) % 2].T
    per_cw, branch = _successive_codeword_caps(g, snr, l, dest)
    sum_caps = per_cw.sum(axis=1)
    check_jensen_bound(dest.sum(axis=1), logdet)
    rate = np.minimum(sum_caps, logdet) / (l + 1)
    return rate, per_cw, branch, sum_caps, logdet


def successive_vblast_batch(
    g: np.ndarray, snr: float, l: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MMSE-SIC rates: (rate_per_slot, per_codeword, branch)."""
    _, sinrs = mmse_sic_sinrs_batch(g[0], g[4], g[5], snr, l, DetectionOrder.STRONGEST_FIRST)
    per_cw, branch = _successive_codeword_caps(g, snr, l, _cap(sinrs))
    # The SIC chain already enforces the sum-rate bound, so no outer min.
    rate = per_cw.sum(axis=1) / (l + 1)
    return rate, per_cw, branch


def theorem1_rate_batch(g: np.ndarray, snr: float, l: int) -> np.ndarray:
    """Interference-free successive-relaying capacity, bits per slot."""
    return logdet_capacity_batch(g[0], g[4], g[5], snr, l) / (l + 1)


def interference_free_batch(
    g: np.ndarray, snr: float, l: int
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (n,) flags for the two interference-free conditions.

    First flag: on every slot the inter-relay link is strong enough that
    decoding-then-subtracting the other relay's codeword never binds below
    the codeword's other caps.  Second flag: each used source-relay gain at
    least matches the combined direct-plus-forward gain of its codewords.

    The flags are a screen, not a guarantee: with both set, the genie rate
    can still fall short of the log-det share ``theorem1_rate_batch`` when
    g_r1r2 < g_sr2 makes the recursion treat the interference as noise
    (tests/test_properties.py pins such a point at l = 2 and 0 dB).  Each
    slot's condition depends only on its parity, so the first flag tests
    slots 0 and 1 alone: the same two conditions for every l >= 2.
    """
    check_kernel_args(snr, l)
    gsd, gsr, gr1r2, grd = g[0], g[1:3], g[3], g[4:6]
    cancel_ok = gr1r2 * snr / (1.0 + gsr[::-1] * snr) >= np.minimum(gsr * snr, (gsd + grd) * snr)
    source_ok = gsr >= gsd + grd
    used = slice(min(l, 2))  # row p: slots and codewords of parity p
    return np.all(cancel_ok[used], axis=0), np.all(source_ok[used], axis=0)


# adaptive_rule -> keep(g): True where the draw may relay, by non-strict
# inequalities; a rejected draw falls back to direct transmission.
#   none: every draw relays.
#   a: both source-relay links at least as strong as the direct link.
#   b: each source-relay gain at least the combined direct + that relay's
#      forward gain (the interference-free source-link condition).
#   c: the classic-protocol condition, each source-relay gain at least the
#      full three-branch destination combining gain.
ADAPTIVE_RULES = {
    "none": lambda g: np.ones(g.shape[1], dtype=bool),
    "a": lambda g: np.minimum(g[1], g[2]) >= g[0],
    "b": lambda g: (g[1] >= g[0] + g[4]) & (g[2] >= g[0] + g[5]),
    "c": lambda g: np.minimum(g[1], g[2]) >= g[0] + g[4] + g[5],
}


def adaptive_keep_batch(g: np.ndarray, rule: str) -> np.ndarray:
    """True where the `ADAPTIVE_RULES` row ``rule`` lets the draw relay."""
    if rule not in ADAPTIVE_RULES:
        raise ValueError(f"adaptive rule must be one of {tuple(ADAPTIVE_RULES)}, got {rule!r}")
    return ADAPTIVE_RULES[rule](g)


def capacity_gain_G(
    g_sd: np.ndarray, g_r1d: np.ndarray, g_r2d: np.ndarray, snrs: np.ndarray, ls
) -> np.ndarray:
    """Average capacity gain of successive relaying over classic protocol II.

    Takes the (n,) squared destination gains of n draws, like
    `logdet_capacity_batch`, and returns a (len(ls), len(snrs)) array: one
    row per frame length of ``ls``, in its order, one gain per entry of the
    nonempty 1-D ``snrs``, all from the same draws.  The numerator is the
    mean per-slot log-det rate of the (l+1) x l equivalent channel, every
    length read off one `logdet_capacity_batch` pass per SNR; the
    denominator, shared by every length, the mean classic-II rate with both
    relays decoding, 0.5 * C((g_sd + g_r1d + g_r2d) snr).  Before any work,
    each entry of ``snrs`` must pass `check_real` > 0 and ``ls``
    `check_frame_lengths`, or ValueError names the argument.
    """
    if arg_ndim(snrs) != 1 or not len(snrs):
        raise ValueError(f"snrs must be a nonempty 1-D sequence, got {reprlib.repr(snrs)}")
    values = np.array([check_real(snr, "snrs", positive=True) for snr in snrs])
    check_frame_lengths(ls)
    if np.size(g_sd) == 0:
        raise ValueError("capacity gain needs at least one draw")
    slots = np.asarray(ls) + 1
    num = [
        np.mean(logdet_capacity_batch(g_sd, g_r1d, g_r2d, s, ls), axis=1) / slots for s in values
    ]
    g_sum = g_sd + g_r1d + g_r2d
    den = [0.5 * np.mean(_cap(g_sum * s)) for s in values]
    return np.array(num).T / np.array(den)
