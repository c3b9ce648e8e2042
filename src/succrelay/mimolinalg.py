"""Gains-only kernels of the equivalent multiple-access MIMO channel.

With L codewords sent over L+1 slots, the destination sees an (L+1) x L
bidiagonal channel matrix H: column k carries the direct coefficient on
row k and the forwarding relay's coefficient on row k+1, relays
alternating R1, R2, R1, ...  Neither the sum-rate log-determinant bound
nor the per-stream MMSE successive interference cancellation (V-BLAST)
SINRs form H; `build_equivalent_channel_batch` stacks it for the tests'
dense oracles.

H^H H is tridiagonal and depends only on g_sd = |h_sd|^2 and the relay
gains g_r(k) = |h_r1d|^2, |h_r2d|^2, so both kernels take these three
squared-gain arrays: with a_k = snr (g_sd + g_r(k)) and
c_k = snr^2 g_sd g_r(k), I + snr H^H H has diagonal 1 + a_k and squared
off-diagonal moduli c_k.  The log-det sums the log pivots without
cancellation (`logdet_capacity_batch`).  Detecting a stream deletes its
row and column, which zeroes the couplings next to it.  The MMSE-SIC SINR
1/[(I + snr H_A^H H_A)^-1]_kk - 1 of an undetected stream (Tse &
Viswanath, Fundamentals of Wireless Communication, ch. 8) is then
a_k - c_{k-1}/f_{k-1} - c_k/g_{k+1}, where f and g are the forward and
backward pivots of the tridiagonal matrix (the diagonal of a tridiagonal
inverse: Meurant, SIAM J. Matrix Anal. Appl. 13(3), 1992; Usmani,
Linear Algebra Appl. 212/213, 1994).  The pivots are >= 1, so no
division can fail.  The log-det costs O(l) per frame, a SIC stage O(l):
O(l^2) for strongest-first order and O(l) in total for natural order.
Dense factorizations of H serve only as test oracles.
"""

from __future__ import annotations

import numbers
from enum import Enum

import numpy as np

_LN2 = np.log(2.0)

# Relative slack of the per-stream SINR bound check; the bound is exact in
# exact arithmetic, the slack only absorbs rounding.
_SINR_BOUND_RTOL = 1e-9

# Strongest-first candidates within this relative distance of the stage
# maximum are tied; the lowest stream index wins.  Rounding alone moves
# exactly tied SINRs apart by ~1e-13 relative.
TIE_RTOL = 1e-9

# The log-det kernel moves its running product into a log scale past this.
_PRODUCT_LIMIT = 1e150
# Draws per piece of the log-det kernel and the outage count: 64 KB arrays
# stay in a core's cache (a 4M-draw outage block ran ~2.5x faster).
CHUNK = 8192


class InvariantError(ArithmeticError):
    """An identity that holds in exact arithmetic failed beyond rounding."""


def require(ok: np.ndarray, what: str) -> None:
    """Raise InvariantError naming ``what`` unless every entry of ``ok`` holds."""
    bad = np.size(ok) - np.count_nonzero(ok)
    if bad:
        raise InvariantError(f"{what} ({bad} of {np.size(ok)} entries)")


def check_sinr_bound(sinrs: np.ndarray, bound: np.ndarray) -> None:
    """Per-stream SINRs must not exceed snr * ||h_k||^2 beyond rounding."""
    require(
        sinrs <= bound * (1.0 + _SINR_BOUND_RTOL) + 1e-12,
        "per-stream SINR exceeded the column-norm bound",
    )


class DetectionOrder(Enum):
    """Stream selection rule for successive interference cancellation."""

    STRONGEST_FIRST = "strongest_first"
    NATURAL = "natural"


def build_equivalent_channel_batch(
    h_sd: np.ndarray, h_r1d: np.ndarray, h_r2d: np.ndarray, l: int
) -> np.ndarray:
    """Stacked (n, l+1, l) channel matrices from coefficient arrays."""
    check_kernel_args(l=l)
    n = h_sd.shape[0]
    m = np.zeros((n, l + 1, l), dtype=complex)
    for k in range(l):
        m[:, k, k] = h_sd
        m[:, k + 1, k] = h_r1d if k % 2 == 0 else h_r2d
    return m


def check_kernel_args(snr: float = 0.0, l: int = 1) -> None:
    """Every gains kernel's check: 0 <= snr < inf (not NaN), l an int >= 1 (not a bool)."""
    if not 0.0 <= snr < np.inf:
        raise ValueError(f"snr must be finite and >= 0, got {snr!r}")
    if isinstance(l, bool) or not isinstance(l, numbers.Integral) or l < 1:
        raise ValueError(f"frame length l must be an integer >= 1, got {l!r}")


def logdet_capacity_batch(
    g_sd: np.ndarray, g_r1d: np.ndarray, g_r2d: np.ndarray, snr: float, l: int
) -> np.ndarray:
    """log2 det(I + snr * H^H H) of l-codeword frames, from (n,) squared gains.

    With a_0 = snr * g_sd and a_r(k) = snr * g_r(k), the pivots of the
    tridiagonal matrix are f_k = 1 + w_k with w_k = v_k + a_r(k), where
    v_0 = a_0 and v_{k+1} = a_0 (1 + v_k) / (1 + w_k) is the part of the
    direct gain that stream k leaves to stream k+1.  Every term is >= 0, so
    nothing cancels however the gains compare; q = prod(1 + w_k) - 1 is
    accumulated as q <- q (1 + w_k) + w_k and the result is log1p(q), exact
    to rounding also for vanishing gains.
    """
    check_kernel_args(snr, l)
    out = np.empty(len(g_sd))
    for start in range(0, len(out), CHUNK):
        part = slice(start, start + CHUNK)
        out[part] = _log_pivot_product(
            snr * g_sd[part], (snr * g_r1d[part], snr * g_r2d[part]), l
        )
    return out / _LN2


def _log_pivot_product(a0: np.ndarray, ar: tuple[np.ndarray, ...], l: int) -> np.ndarray:
    """Natural log of prod_k (1 + w_k), see `logdet_capacity_batch`.

    Past `_PRODUCT_LIMIT`, q moves into a log scale and restarts at 0.  A
    factor 1 + w_k <= 1 + a_0 + max a_r below 1e150 cannot overflow it.
    """
    v = a0.copy()
    q = np.zeros_like(a0)
    w = np.empty_like(a0)
    t = np.empty_like(a0)
    scale = 0.0
    for k in range(l):
        np.add(v, ar[k % 2], out=w)
        np.add(w, 1.0, out=t)
        q *= t
        q += w
        if k < l - 1:
            v += 1.0
            v *= a0
            v /= t
        big = q > _PRODUCT_LIMIT
        if big.any():
            scale = scale + np.where(big, np.log1p(q), 0.0)
            q[big] = 0.0
    return np.log1p(q) + scale


def _right_terms(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per-stream c_k / g_{k+1} from the backward pivot recurrence.

    ``a`` is (l, n), ``c`` the (l-1, n) couplings.  The pivots
    g_k = 1 + a_k - c_k/g_{k+1} are Schur complements of I + snr * G, so
    they are >= 1.
    """
    right = np.zeros_like(a)
    for k in range(a.shape[0] - 2, -1, -1):
        right[k] = c[k] / (1.0 + a[k + 1] - right[k + 1])
    return right


def _interference(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per-stream c_{k-1}/f_{k-1} + c_k/g_{k+1}.

    The forward pivots f_k = 1 + a_k - c_{k-1}/f_{k-1} are the backward
    pivots of the reversed chain.
    """
    return _right_terms(a, c) + _right_terms(a[::-1], c[::-1])[::-1]


def mmse_sic_sinrs_batch(
    g_sd: np.ndarray,
    g_r1d: np.ndarray,
    g_r2d: np.ndarray,
    snr: float,
    l: int,
    ordering: DetectionOrder = DetectionOrder.STRONGEST_FIRST,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized MMSE-SIC of the l-codeword frame, from squared gains.

    At each stage the SINR of an undetected stream k is
    1 / [(I + snr * H_A^H H_A)^-1]_kk - 1 with A the set of undetected
    streams; the Gram matrix is tridiagonal, so this is
    a_k - c_{k-1}/f_{k-1} - c_k/g_{k+1} (see `_interference`) with
    a_k = snr * (g_sd + g_r(k)) and c_k = snr^2 * g_sd * g_r(k) while streams
    k and k+1 are both undetected, 0 otherwise.  Strongest-first picks the
    maximal-SINR stream, counting candidates within a relative
    `TIE_RTOL` of the maximum as tied and taking the lowest index among
    them; natural order detects streams in time order.

    Returns (orders, sinrs): (n, l) arrays, sinrs indexed by stream.
    """
    check_kernel_args(snr, l)
    g_r = np.stack([g_r1d if k % 2 == 0 else g_r2d for k in range(l)])
    n = g_sd.shape[0]
    a = snr * (g_sd + g_r)
    c = snr * snr * g_sd * g_r[:-1]
    orders = np.empty((l, n), dtype=np.intp)

    if ordering is DetectionOrder.NATURAL:
        # Stream j meets only the undetected streams j+1.. on its right.
        orders[:] = np.arange(l)[:, None]
        sinrs = np.maximum(a - _right_terms(a, c), 0.0)
    else:
        cols = np.arange(n)
        sinrs = np.zeros((l, n))
        active = np.ones((l, n), dtype=bool)
        for stage in range(l):
            live = c * (active[:-1] & active[1:])
            cand = np.where(active, np.maximum(a - _interference(a, live), 0.0), -np.inf)
            best = cand.max(axis=0)
            sel = np.argmax(cand >= best * (1.0 - TIE_RTOL), axis=0)
            orders[stage] = sel
            sinrs[sel, cols] = cand[sel, cols]
            active[sel, cols] = False

    # Post-detection SINR can never exceed the interference-free bound
    # a_k = snr * ||h_k||^2.
    check_sinr_bound(sinrs, a)
    return orders.T, sinrs.T
