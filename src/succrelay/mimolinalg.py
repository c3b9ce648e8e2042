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
cancellation; an l-codeword frame's pivots are the first l of any longer
frame's, so one pass of `logdet_capacity_batch` writes the log-det of one
frame length or of several.  Detecting a stream deletes its row and
column, which zeroes the couplings next to it.  The MMSE-SIC SINR
1/[(I + snr H_A^H H_A)^-1]_kk - 1 of an undetected stream (Tse &
Viswanath, Fundamentals of Wireless Communication, ch. 8) is then
a_k - c_{k-1}/f_{k-1} - c_k/g_{k+1}, where f and g are the forward and
backward pivots of the tridiagonal matrix (the diagonal of a tridiagonal
inverse: Meurant, SIAM J. Matrix Anal. Appl. 13(3), 1992; Usmani,
Linear Algebra Appl. 212/213, 1994).  The pivots are >= 1, so no
division can fail.  The log-det costs O(l) per frame, a SIC stage O(l):
O(l^2) for strongest-first order and O(l) in total for natural order.
Strongest-first holds detected streams at a -inf floor and picks the
lowest tied stream k as the least k - l, mod l.  The argument checks that
every entry point shares, `check_real` and `check_count`, live here.
"""

from __future__ import annotations

import contextlib
import numbers
import reprlib
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
# stay in a core's cache.  At l = 32 on a 2-core Xeon the pieced log-det took
# 10.8 ms against 16.2 ms unpieced for 100,000 draws and 97 against 153 ms for
# 1,000,000, with no difference at 10,000; the pieces also bound the memory
# that the outage count's candidates take.
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


def _real(x) -> float:
    """float(x) of a real number (a Python or numpy int or float, or a 0-d array
    of one); NaN for anything else, such as a str, bytes, bool or an int past float range."""
    real = isinstance(x, numbers.Real) and not isinstance(x, bool)
    if real or isinstance(x, np.ndarray) and x.shape == () and x.dtype.kind in "iuf":
        with contextlib.suppress(OverflowError):
            return float(x)
    return np.nan


def check_real(x, name: str, *, positive: bool = False) -> float:
    """``x`` as a float, or ValueError naming ``name`` unless it is a real
    number (see `_real`) that is finite and >= 0, or > 0 when ``positive``."""
    value, sign = _real(x), ">" if positive else ">="
    if (value > 0.0 if positive else value >= 0.0) and value < np.inf:
        return value
    raise ValueError(f"{name} must be a finite real number {sign} 0, got {reprlib.repr(x)}")


def check_count(x, name: str, lo: int = 1, bits: int = 63) -> int:
    """``x`` as an int, or ValueError naming ``name`` unless it is an integer,
    Python or numpy and not a bool, in [lo, 2**bits): a count fits numpy's int64."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or not lo <= x < 2**bits:
        raise ValueError(f"{name} must be an integer in [{lo}, 2**{bits}), got {reprlib.repr(x)}")
    return int(x)


def snr_from_db(snr_db: float) -> float:
    """10 ** (snr_db / 10), or ValueError unless ``snr_db`` is a real number
    (see `_real`) whose linear value is a positive finite float."""
    with contextlib.suppress(OverflowError):  # a Python float power raises, numpy's warns
        snr = 10.0 ** (_real(snr_db) / 10.0)
        if 0.0 < snr < np.inf:
            return snr
    raise ValueError(f"snr {reprlib.repr(snr_db)} dB has no positive finite linear value")


def check_kernel_args(snr: float = 0.0, l: int = 1) -> None:
    """Every gains kernel's check: snr a `check_real` >= 0, l a `check_count` in [1, 2**63)."""
    check_real(snr, "snr")
    check_count(l, "frame length l")


def arg_ndim(x) -> int:
    """np.ndim(x), also of a ragged sequence (np.ndim refuses one): the depth it is regular to."""
    return np.ndim(np.array(x, dtype=object))


def check_frame_lengths(ls) -> None:
    """A nonempty 1-D sequence of frame lengths, each passing `check_kernel_args`."""
    if arg_ndim(ls) != 1 or not len(ls):
        raise ValueError(f"frame lengths l must be a nonempty 1-D sequence, got {reprlib.repr(ls)}")
    for l in ls:
        check_kernel_args(l=l)


def logdet_capacity_batch(
    g_sd: np.ndarray, g_r1d: np.ndarray, g_r2d: np.ndarray, snr: float, l
) -> np.ndarray:
    """log2 det(I + snr * H^H H) of l-codeword frames, from (n,) squared
    gains: an (n,) array for one frame length ``l``, or for a sequence ``l``
    of lengths one (n,) row per entry, in its order.

    With a_0 = snr * g_sd and a_r(k) = snr * g_r(k), the pivots of the
    tridiagonal matrix are f_k = 1 + w_k with w_k = v_k + a_r(k), where
    v_0 = a_0 and v_{k+1} = a_0 (1 + v_k) / (1 + w_k) is the part of the
    direct gain that stream k leaves to stream k+1.  Every term is >= 0, so
    nothing cancels however the gains compare; q = prod(1 + w_k) - 1 is
    accumulated as q <- q (1 + w_k) + w_k and the result is log1p(q), exact
    to rounding also for vanishing gains.  The first l pivots of a longer
    frame are those of an l-codeword frame, so one recurrence up to the
    longest length reads every length off on its way, bit for bit as a lone
    length.  Each piece of `CHUNK` draws is written in place; a step whose q
    cannot pass `_PRODUCT_LIMIT` by the piece's bound skips the overflow
    check (see `_log_pivot_product`), which changes no output bit.  The
    gains are squared moduli, so >= 0.  A bad snr or length raises
    ValueError before any work.
    """
    one = arg_ndim(l) == 0
    ls = (l,) if one else l
    check_kernel_args(snr)
    check_frame_lengths(ls)
    out = np.empty((len(ls), len(g_sd)))
    for start in range(0, len(g_sd), CHUNK):
        part = slice(start, start + CHUNK)
        _log_pivot_product(
            snr * g_sd[part], (snr * g_r1d[part], snr * g_r2d[part]), ls, out[:, part]
        )
    out /= _LN2
    return out[0] if one else out


def _log_pivot_product(
    a0: np.ndarray, ar: tuple[np.ndarray, np.ndarray], ls, out: np.ndarray
) -> None:
    """Write the natural log of prod_{k<l} (1 + w_k) into row i of ``out``
    for each length l = ls[i], see `logdet_capacity_batch`.

    Past `_PRODUCT_LIMIT`, q moves into a log scale and restarts at 0.  As
    v_k <= a_0, each factor 1 + w_k is at most top = 1 + max a_0 +
    max(max a_1, max a_2) over the piece, so q after step k is below
    top^(k+1).  The check runs from the first step k with
    top^(k+1) > _PRODUCT_LIMIT / 2 on (the slack of 2 absorbs rounding),
    and at every step when top is NaN or inf: a NaN gain must not hide a
    huge finite one beside it.  top is a Python float, so an inf there sets
    off no numpy floating-point error.  q starts at q_0 = 0 (1 + w_0) + w_0,
    so an inf gain gives NaN, as 0 inf + inf must.
    Whether step k checks does not depend on the longest length, so each
    row is written after the same steps as a lone length's.
    """
    rows = {}  # step k -> the rows of the frames that end after it
    for i, l in enumerate(ls):
        rows.setdefault(l - 1, []).append(i)
    last = max(rows) + 1
    top = 1.0 + float(a0.max()) + float(np.maximum(ar[0].max(), ar[1].max()))
    first = 0  # the first step that checks
    if top < np.inf:
        bound = top
        while first < last and bound <= _PRODUCT_LIMIT / 2:
            bound *= top
            first += 1
    w = a0 + ar[0]  # v_0 = a_0
    t = w + 1.0
    q = t * 0.0 + w
    v = a0
    scale = None  # the logs moved out of q, once a step moved any
    for k in range(last):
        if k:
            np.add(v, ar[k % 2], out=w)
            np.add(w, 1.0, out=t)
            q *= t
            q += w
        if k < last - 1:
            v = np.add(v, 1.0, out=v if k else None)  # v_0 is a_0 itself: copy it once
            v *= a0
            v /= t
        if k >= first:
            big = q > _PRODUCT_LIMIT
            if big.any():
                moved = np.where(big, np.log1p(q), 0.0)
                scale = moved if scale is None else scale + moved
                q[big] = 0.0
        for i in rows.get(k, ()):
            np.log1p(q, out=out[i])
            if scale is not None:
                out[i] += scale


def _right_terms(a1: np.ndarray, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write each stream's c_k / g_{k+1} into ``out`` and return it.

    ``a1`` is the (l, n) diagonal 1 + a, ``c`` the (l-1, n) couplings.  The
    backward pivots g_k = 1 + a_k - c_k/g_{k+1} are Schur complements of
    I + snr * G, so they are >= 1.  On the reversed chain (``a1[::-1]``,
    ``c[::-1]``, ``out[::-1]``) this writes c_{k-1}/f_{k-1}, from the
    forward pivots f_k = 1 + a_k - c_{k-1}/f_{k-1}.
    """
    out[-1] = 0.0
    for k in range(len(c) - 1, -1, -1):
        np.divide(c[k], a1[k + 1] - out[k + 1], out=out[k])
    return out


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
    a_k - c_{k-1}/f_{k-1} - c_k/g_{k+1} (see `_right_terms`) with
    a_k = snr * (g_sd + g_r(k)) and c_k = snr^2 * g_sd * g_r(k) while streams
    k and k+1 are both undetected, 0 otherwise.  Strongest-first holds a
    detected stream's candidate at max(-inf - interference, -inf) = -inf and
    picks the lowest stream k within a relative `TIE_RTOL` of the maximum as
    (min over those k of k - l) mod l: 0 in a NaN column, as with argmax.
    Natural order goes in time order; a non-DetectionOrder ``ordering`` raises ValueError.

    Returns (orders, sinrs): (n, l) arrays, sinrs indexed by stream.
    """
    check_kernel_args(snr, l)
    if not isinstance(ordering, DetectionOrder):
        raise ValueError(f"ordering must be a DetectionOrder, got {ordering!r}")
    g_r = np.stack((g_r1d, g_r2d))[np.arange(l) % 2]
    n = g_sd.shape[0]
    a = snr * (g_sd + g_r)
    # snr^2 once per coupling, squared by numpy so that its overflow raises
    # here under np.errstate; a lone stream has no coupling to square
    c = np.square(np.full((l - 1, 1), snr, dtype=float)) * g_sd * g_r[:-1]
    a1 = 1.0 + a
    right = np.empty_like(a)
    orders = np.empty((l, n), dtype=np.intp)

    if ordering is DetectionOrder.NATURAL:
        # Stream j meets only the undetected streams j+1.. on its right.
        orders[:] = np.arange(l)[:, None]
        sinrs = np.maximum(a - _right_terms(a1, c, right), 0.0)
    else:
        cols, rank = np.arange(n), np.arange(-l, 0)[:, None]  # rank k - l: lowest tie is least
        sinrs = np.zeros((l, n))
        active = np.ones((l, n), dtype=bool)
        masked, floor = a.copy(), np.zeros((l, n))  # a and 0, -inf once detected
        left = np.empty_like(a)
        for stage in range(l):
            if stage < l - 1:
                live = c * (active[:-1] & active[1:]) if stage else c
                _right_terms(a1, live, right)
                _right_terms(a1[::-1], live[::-1], left[::-1])
                right += left
            else:
                right[:] = 0.0  # one stream is left and every coupling is dead
            cand = np.maximum(np.subtract(masked, right, out=right), floor, out=right)
            hits = cand >= cand.max(axis=0) * (1.0 - TIE_RTOL)
            sel = np.remainder((rank * hits).min(axis=0), l, out=orders[stage])
            flat = sel * n + cols
            sinrs.reshape(-1)[flat] = cand.reshape(-1)[flat]
            for done, value in ((active, False), (masked, -np.inf), (floor, -np.inf)):
                done.reshape(-1)[flat] = value

    # Post-detection SINR can never exceed the interference-free bound
    # a_k = snr * ||h_k||^2.
    check_sinr_bound(sinrs, a)
    return orders.T, sinrs.T
