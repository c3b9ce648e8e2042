"""Per-realization achievable rates of the transmission schemes.

Schemes covered: direct transmission, the two classic broadcast-then-relay
protocols (multiplexing 1/3 and 1/2), the successive-relaying genie bound,
its MMSE-SIC (V-BLAST) counterpart, the interference-free capacity
specialization, the adaptive fallback rules, and the average capacity gain
over classic protocol II.

Rate bookkeeping for the successive scheme walks the frame slot by slot:
the first slot only constrains the source-to-relay rate of codeword 1; in
each middle slot the listening relay either decodes the other relay's
transmission first (when the inter-relay link is the stronger one) or
treats it as Gaussian noise, which caps either the previous codeword's
rate or the next codeword's source-to-relay rate; the last slot closes the
final codeword.  Every codeword also carries the destination-side
single-stream cap, and the frame total is clipped by the equivalent MIMO
channel's log-det bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelBatch, ChannelRealization
# No rate builds the channel matrix; build_equivalent_channel_batch is
# imported only because bench/tracing.py wraps it in this module.
from .mimolinalg import (  # noqa: F401
    DetectionOrder,
    build_equivalent_channel_batch,
    logdet_capacity_batch,
    mmse_sic_sinrs_batch,
    require,
)

_LN2 = np.log(2.0)


class Scheme(Enum):
    DIRECT = "direct"
    CLASSIC1 = "classic1"
    CLASSIC2 = "classic2"
    SUCCESSIVE_GENIE = "successive_genie"
    SUCCESSIVE_VBLAST = "successive_vblast"
    THEOREM1 = "theorem1"


class AdaptiveRule(Enum):
    """Fallback-to-direct conditions, checked before using any relays.

    A: both source-relay links at least as strong as the direct link.
    B: each source-relay gain at least the combined direct + that relay's
       forward gain (the interference-free source-link condition).
    C: the classic-protocol condition, each source-relay gain at least the
       full three-branch destination combining gain.
    """

    A = "a"
    B = "b"
    C = "c"


def capacity_fn(x: float) -> float:
    """Shannon capacity log2(1 + x) of a nonnegative SNR-like quantity."""
    if x < 0.0:
        raise ValueError(f"capacity argument must be >= 0, got {x}")
    return float(np.log1p(x) / _LN2)


def _cap(x: np.ndarray) -> np.ndarray:
    return np.log1p(x) / _LN2


@dataclass(frozen=True)
class RateReport:
    """Rate outcome of one scheme on one realization.

    Attributes:
        scheme: which transmission scheme produced the report.
        rate_per_slot: achievable rate in bits per transmission time slot.
        per_codeword_rates: the rate cap of each codeword, in bits.
        decode_interference_first: per middle slot, True when the listening
            relay decoded the other relay's signal before its own (empty
            for non-successive schemes).
        fallback_to_direct: True when an adaptive rule replaced the scheme
            with direct transmission.
        interference_free: whether the strong-interference cancellation
            condition held on every slot (None for non-relaying schemes).
        source_links_strong: whether each source-relay gain dominated the
            combined direct-plus-forward gain (None for non-relaying
            schemes).
    """

    scheme: Scheme
    rate_per_slot: float
    per_codeword_rates: tuple[float, ...]
    decode_interference_first: tuple[bool, ...] = ()
    fallback_to_direct: bool = False
    interference_free: bool | None = None
    source_links_strong: bool | None = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.rate_per_slot) and self.rate_per_slot >= 0.0):
            raise ValueError(f"rate_per_slot must be finite and >= 0, got {self.rate_per_slot}")
        if any(r < 0.0 for r in self.per_codeword_rates):
            raise ValueError("per-codeword rates must all be >= 0")


def _check_snr(snr: float) -> None:
    if snr < 0.0:
        raise ValueError(f"snr must be >= 0, got {snr}")


def _destination_gains(batch: ChannelBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.abs(batch.h_sd) ** 2, np.abs(batch.h_r1d) ** 2, np.abs(batch.h_r2d) ** 2


def _gains(batch: ChannelBatch) -> tuple[np.ndarray, ...]:
    return (
        np.abs(batch.h_sd) ** 2,
        np.abs(batch.h_sr1) ** 2,
        np.abs(batch.h_sr2) ** 2,
        np.abs(batch.h_r1r2) ** 2,
        np.abs(batch.h_r1d) ** 2,
        np.abs(batch.h_r2d) ** 2,
    )


# ---------------------------------------------------------------------------
# batched kernels (used by the experiment runner; scalar ops wrap n=1)
# ---------------------------------------------------------------------------


def rate_direct_batch(batch: ChannelBatch, snr: float) -> np.ndarray:
    gsd = np.abs(batch.h_sd) ** 2
    return _cap(gsd * snr)


def rate_classic_batch(batch: ChannelBatch, snr: float, prefactor: float) -> np.ndarray:
    gsd, gsr1, gsr2, _, gr1d, gr2d = _gains(batch)
    bottleneck = np.minimum(
        np.minimum(_cap(gsr1 * snr), _cap(gsr2 * snr)),
        _cap((gsd + gr1d + gr2d) * snr),
    )
    return prefactor * bottleneck


def _successive_codeword_caps(
    batch: ChannelBatch, snr: float, l: int, dest_caps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Slot-by-slot rate caps shared by the genie and V-BLAST recursions.

    ``dest_caps`` is the (n, l) per-codeword destination-side cap: the
    single-stream combining rate for the genie bound, the per-stream SIC
    rate for V-BLAST.  Returns (per_codeword (n, l), branch (n, l-1)) where
    branch is True when the decode-interference-first branch fired.
    """
    gsd, gsr1, gsr2, gr1r2, _, _ = _gains(batch)
    n = len(batch)
    gsr = (gsr1, gsr2)

    per_cw = np.empty((n, l))
    branch = np.empty((n, max(l - 1, 0)), dtype=bool)
    r_source = _cap(gsr[0] * snr)
    for i0 in range(l - 1):
        g_next = gsr[(i0 + 1) % 2]
        stronger = gr1r2 > g_next  # squared magnitudes; ties treat as noise
        int_term = _cap(gr1r2 * snr / (1.0 + g_next * snr))
        r_if = np.minimum(np.minimum(int_term, r_source), dest_caps[:, i0])
        r_else = np.minimum(r_source, dest_caps[:, i0])
        per_cw[:, i0] = np.where(stronger, r_if, r_else)
        r_source = np.where(
            stronger,
            _cap(g_next * snr),
            _cap(g_next * snr / (1.0 + gr1r2 * snr)),
        )
        branch[:, i0] = stronger
    per_cw[:, l - 1] = np.minimum(r_source, dest_caps[:, l - 1])
    return per_cw, branch


def _destination_combining_caps(batch: ChannelBatch, snr: float, l: int) -> np.ndarray:
    gsd, _, _, _, gr1d, gr2d = _gains(batch)
    grd = (gr1d, gr2d)
    return np.stack([_cap((gsd + grd[i0 % 2]) * snr) for i0 in range(l)], axis=1)


def check_jensen_bound(combining_sum: np.ndarray, logdet: np.ndarray) -> None:
    """Concavity of log2(1+x) makes the per-codeword combining rates sum to
    at least the log-det bound; a violation beyond rounding is a numerics bug."""
    require(
        combining_sum >= logdet * (1.0 - 1e-9) - 1e-12,
        "combining-rate sum fell below the log-det bound",
    )


def successive_genie_batch(
    batch: ChannelBatch, snr: float, l: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Genie-bound rates: (rate_per_slot, per_codeword, branch, sum_caps, logdet)."""
    logdet = logdet_capacity_batch(*_destination_gains(batch), snr, l)  # checks snr, l
    dest = _destination_combining_caps(batch, snr, l)
    per_cw, branch = _successive_codeword_caps(batch, snr, l, dest)
    sum_caps = per_cw.sum(axis=1)
    check_jensen_bound(dest.sum(axis=1), logdet)
    rate = np.minimum(sum_caps, logdet) / (l + 1)
    return rate, per_cw, branch, sum_caps, logdet


def successive_vblast_batch(
    batch: ChannelBatch, snr: float, l: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MMSE-SIC rates: (rate_per_slot, per_codeword, branch)."""
    _, sinrs = mmse_sic_sinrs_batch(
        *_destination_gains(batch), snr, l, DetectionOrder.STRONGEST_FIRST
    )
    stream_caps = _cap(sinrs)
    per_cw, branch = _successive_codeword_caps(batch, snr, l, stream_caps)
    # The SIC chain already enforces the sum-rate bound, so no outer min.
    rate = per_cw.sum(axis=1) / (l + 1)
    return rate, per_cw, branch


def theorem1_rate_batch(batch: ChannelBatch, snr: float, l: int) -> np.ndarray:
    return logdet_capacity_batch(*_destination_gains(batch), snr, l) / (l + 1)


def interference_free_batch(
    batch: ChannelBatch, snr: float, l: int
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (n,) flags for the two interference-free conditions.

    First flag: on every slot the inter-relay link is strong enough that
    decoding-then-subtracting the other relay's codeword never binds below
    the codeword's other caps.  Second flag: each used source-relay gain at
    least matches the combined direct-plus-forward gain of its codewords.
    """
    _check_snr(snr)
    gsd, gsr1, gsr2, gr1r2, gr1d, gr2d = _gains(batch)
    gsr = (gsr1, gsr2)
    grd = (gr1d, gr2d)

    cancel_ok = np.ones(len(batch), dtype=bool)
    for i0 in range(l):
        g_next = gsr[(i0 + 1) % 2]
        lhs = gr1r2 * snr / (1.0 + g_next * snr)
        rhs = np.minimum(gsr[i0 % 2] * snr, (gsd + grd[i0 % 2]) * snr)
        cancel_ok &= lhs >= rhs

    source_ok = gsr1 >= gsd + gr1d
    if l >= 2:
        source_ok = source_ok & (gsr2 >= gsd + gr2d)
    return cancel_ok, source_ok


def adaptive_keep_batch(batch: ChannelBatch, rule: AdaptiveRule) -> np.ndarray:
    """True where the rule allows relaying (non-strict inequalities)."""
    gsd, gsr1, gsr2, _, gr1d, gr2d = _gains(batch)
    if rule is AdaptiveRule.A:
        return np.minimum(gsr1, gsr2) >= gsd
    if rule is AdaptiveRule.B:
        return (gsr1 >= gsd + gr1d) & (gsr2 >= gsd + gr2d)
    if rule is AdaptiveRule.C:
        return np.minimum(gsr1, gsr2) >= gsd + gr1d + gr2d
    raise ValueError(f"unknown adaptive rule {rule!r}")


# ---------------------------------------------------------------------------
# single-realization operations
# ---------------------------------------------------------------------------


def rate_direct(real: ChannelRealization, snr: float) -> RateReport:
    """Point-to-point rate of the direct link, one codeword per slot."""
    _check_snr(snr)
    rate = capacity_fn(abs(real.h_sd) ** 2 * snr)
    return RateReport(Scheme.DIRECT, rate, (rate,))


def rate_classic1(real: ChannelRealization, snr: float) -> RateReport:
    """Broadcast then one relay slot each: multiplexing factor 1/3."""
    _check_snr(snr)
    r = float(rate_classic_batch(ChannelBatch.from_realization(real), snr, 1.0 / 3.0)[0])
    return RateReport(Scheme.CLASSIC1, r, (3.0 * r,))


def rate_classic2(real: ChannelRealization, snr: float) -> RateReport:
    """Broadcast then simultaneous space-time relaying: multiplexing 1/2."""
    _check_snr(snr)
    r = float(rate_classic_batch(ChannelBatch.from_realization(real), snr, 0.5)[0])
    return RateReport(Scheme.CLASSIC2, r, (2.0 * r,))


def rate_successive_genie(real: ChannelRealization, snr: float, l: int) -> RateReport:
    """Successive-relaying rate with ideal rate adaptation (genie bound)."""
    batch = ChannelBatch.from_realization(real)
    rate, per_cw, branch, _, _ = successive_genie_batch(batch, snr, l)
    eq_cancel, eq_source = check_interference_free(real, snr, l)
    return RateReport(
        Scheme.SUCCESSIVE_GENIE,
        float(rate[0]),
        tuple(float(r) for r in per_cw[0]),
        tuple(bool(b) for b in branch[0]),
        interference_free=eq_cancel,
        source_links_strong=eq_source,
    )


def rate_successive_vblast(real: ChannelRealization, snr: float, l: int) -> RateReport:
    """Successive-relaying rate under MMSE-SIC per-stream caps."""
    batch = ChannelBatch.from_realization(real)
    rate, per_cw, branch = successive_vblast_batch(batch, snr, l)
    eq_cancel, eq_source = check_interference_free(real, snr, l)
    return RateReport(
        Scheme.SUCCESSIVE_VBLAST,
        float(rate[0]),
        tuple(float(r) for r in per_cw[0]),
        tuple(bool(b) for b in branch[0]),
        interference_free=eq_cancel,
        source_links_strong=eq_source,
    )


def check_interference_free(
    real: ChannelRealization, snr: float, l: int
) -> tuple[bool, bool]:
    """Evaluate the two interference-free conditions on one realization."""
    cancel_ok, source_ok = interference_free_batch(
        ChannelBatch.from_realization(real), snr, l
    )
    return bool(cancel_ok[0]), bool(source_ok[0])


def rate_theorem1(real: ChannelRealization, snr: float, l: int) -> float:
    """Interference-free successive-relaying capacity, bits per slot."""
    return float(theorem1_rate_batch(ChannelBatch.from_realization(real), snr, l)[0])


def apply_adaptive_fallback(
    report: RateReport,
    real: ChannelRealization,
    snr: float,
    rule: AdaptiveRule = AdaptiveRule.A,
) -> RateReport:
    """Replace a relaying-scheme report with direct transmission if the
    rule's condition fails; otherwise return the report unchanged."""
    if isinstance(rule, str):
        rule = AdaptiveRule(rule.lower())
    keep = bool(adaptive_keep_batch(ChannelBatch.from_realization(real), rule)[0])
    if keep:
        return report
    direct = rate_direct(real, snr)
    return RateReport(
        scheme=report.scheme,
        rate_per_slot=direct.rate_per_slot,
        per_codeword_rates=direct.per_codeword_rates,
        decode_interference_first=(),
        fallback_to_direct=True,
        interference_free=report.interference_free,
        source_links_strong=report.source_links_strong,
    )


def capacity_gain_G(
    snr: float | np.ndarray,
    l: int,
    trials: int,
    seed,
    conditioned: bool = False,
) -> float | np.ndarray:
    """Average capacity gain of successive relaying over classic protocol II.

    Coefficients are i.i.d. unit-variance complex Gaussians (no pathloss or
    shadowing).  The numerator is the mean per-slot log-det rate of the
    (l+1) x l equivalent channel; the denominator the mean classic-II rate
    with both relays decoding, 0.5 * C((|h_sd|^2+|h_r1d|^2+|h_r2d|^2) snr).
    A 1-D ``snr`` array gives one gain per SNR, all from the same draws.

    With ``conditioned`` set, both means are restricted to draws where each
    protocol attains its best-case rate (source-relay links dominate the
    destination-side combining gains).
    """
    snrs = np.asarray(snr, dtype=float)
    if not np.all(snrs > 0.0):
        raise ValueError(f"snr must be > 0, got {snr}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    n_links = 5 if conditioned else 3
    v = rng.standard_normal((2, n_links, trials))
    g = np.abs((v[0] + 1j * v[1]) / np.sqrt(2.0)) ** 2
    gsd, g1, g2 = g[:3]

    if conditioned:
        gsr1, gsr2 = g[3:]
        mask = (
            (gsr1 >= gsd + g1)
            & (gsr2 >= gsd + g2)
            & (np.minimum(gsr1, gsr2) >= gsd + g1 + g2)
        )
        if not mask.any():
            raise ValueError("no draws satisfy the conditioning event; raise trials")
        gsd, g1, g2 = gsd[mask], g1[mask], g2[mask]

    gains = []
    for s in snrs.ravel():
        num = float(np.mean(logdet_capacity_batch(gsd, g1, g2, s, l))) / (l + 1)
        den = 0.5 * float(np.mean(_cap((gsd + g1 + g2) * s)))
        gains.append(num / den)
    return gains[0] if snrs.ndim == 0 else np.array(gains)
