"""Dense references for the gains-only kernels of ``succrelay.mimolinalg``.

The log-det oracle factors the (l+1) x (l+1) matrix I + snr H H^H with
``np.linalg.cholesky``; a second one runs the textbook pivot recurrence of
the tridiagonal I + snr H^H H in ``mpmath``, where its cancellation is
harmless.  `recurrence_logdet_capacity_batch` is the library's own pivot
recurrence with its overflow check at every step, the reference that the
library's skipped checks must match bit for bit.  Likewise
`stagewise_mmse_sic_sinrs_batch` is the library's tridiagonal SIC with both
pivot chains recomputed from fresh arrays over every stream at every stage,
the reference that its in-place chains must match bit for bit.  Each
candidate's SIC SINR
is snr * h_k^H (I + snr * sum_{j in A, j != k} h_j h_j^H)^-1 h_k, solved
afresh from the undetected columns A with ``np.linalg.solve`` on the
(l+1) x (l+1) covariance: O(l^5) per frame, independent of the tridiagonal
structure the library exploits.  A second
SIC oracle repeats the same SIC in 60-digit ``mpmath`` arithmetic.

The channel oracle `coefficients` forms the six complex coefficients h that
``channel.link_gains`` never builds, so the tests can pin its gains against
|h|**2 and feed the dense oracles, which take complex columns.

The outage oracle is the full-draw count that ``succrelay.outage`` draws
sparsely: every trial's three Exp(1) gains are drawn and run through the
exact test, so its count is Binomial(trials, p_out), as the sampler's is.
The staircase oracle bisects each cell's log-det root, where the library
takes the closed-form root of a lower bound.  The cell-table oracle builds
every cell's mass, lower edges and spans of (g0, g1, g2), picks each
candidate's cell from that dense table and inverts the truncated Exp(1)
there, where the library gathers the edges and spans of the drawn cells
only.

The capacity-gain reference is deterministic: product Gauss-Legendre rules
in u = ln g integrate the mean log-det over three Exp(1) gains and the
classic-II mean over their Gamma(3, 1) sum, with no random draw.  The
direct-rate reference integrates the closed-form Rayleigh mean over the
lognormal shadowing with a Gauss-Hermite rule, likewise with no draw.  For
unshadowed gains, independent exponentials, the mean count of growing
successive codewords is a closed form in the three gain means, and the classic
I/II mean is a 1-D ``quad`` integral of a product of exponential and
hypoexponential tails.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.special import exp1

from succrelay import outage
from succrelay.channel import NetworkGeometry, realization_shape
from succrelay.mimolinalg import (
    _PRODUCT_LIMIT,
    CHUNK,
    TIE_RTOL,
    DetectionOrder,
    check_kernel_args,
    check_sinr_bound,
    logdet_capacity_batch,
)

LN2 = np.log(2.0)


def coefficients(geom: NetworkGeometry, v: np.ndarray) -> np.ndarray:
    """The (6, n) complex coefficients of normals ``v``, rows in LINK_NAMES order.

    ``v`` is a trial-major ``(n, k, 6)`` block as `sample_realizations`
    draws it: trial t's real parts, imaginary parts and, when ``geom`` is
    shadowed (k = 3; else k = 2), its shadowing ``zeta / shadow_sigma_db``,
    each in LINK_NAMES order.  Both parts of a coefficient are multiplied by
    the real amplitude ``exp(log(d**(-gamma/2) / sqrt 2) + zeta * ln(10) / 20)``,
    zeta in dB; the 1/sqrt 2 gives the complex Gaussian unit variance.  A
    coefficient that path loss or shadowing overflows is left inf or NaN,
    with no warning.  ``v`` of any other shape raises ValueError.
    """
    shape = realization_shape(geom, len(v))
    if v.shape != shape:
        raise ValueError(f"v must have shape {shape}, got {v.shape}")
    h = np.empty((6, v.shape[0]), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        log_amp = -0.5 * (geom.gamma * np.log(geom.link_distances()) + np.log(2.0))
        if geom.shadow_sigma_db > 0.0:
            log_amp = log_amp + v[:, 2] * (geom.shadow_sigma_db * (np.log(10.0) / 20.0))
        amp = np.exp(log_amp)
        h.real = (v[:, 0] * amp).T
        h.imag = (v[:, 1] * amp).T
    return h


def gains(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g_sd, g_r1d, g_r2d) of stacked (n, l+1, l) relay matrices."""
    r2 = min(1, h.shape[2] - 1)  # at l = 1 no stream is forwarded by R2
    return np.abs(h[:, 0, 0]) ** 2, np.abs(h[:, 1, 0]) ** 2, np.abs(h[:, r2 + 1, r2]) ** 2


def dense_logdet_capacity_batch(h: np.ndarray, snr: float) -> np.ndarray:
    """log2 det(I + snr * H H^H) of stacked matrices, via Cholesky."""
    rows = h.shape[1]
    gram = snr * (h @ h.conj().swapaxes(-1, -2))
    gram[:, np.arange(rows), np.arange(rows)] += 1.0
    chol = np.linalg.cholesky(gram)
    diag = np.real(np.einsum("nii->ni", chol))
    return 2.0 * np.sum(np.log(diag), axis=1) / LN2


def recurrence_logdet_capacity_batch(
    g_sd: np.ndarray, g_r1d: np.ndarray, g_r2d: np.ndarray, snr: float, l: int
) -> np.ndarray:
    """`logdet_capacity_batch`'s pivot recurrence, in pieces of `CHUNK`, that
    checks q against `_PRODUCT_LIMIT` after every step from a zero start."""
    out = np.empty(len(g_sd))
    for start in range(0, len(out), CHUNK):
        part = slice(start, start + CHUNK)
        a0 = snr * g_sd[part]
        ar = (snr * g_r1d[part], snr * g_r2d[part])
        v = a0.copy()
        q = np.zeros_like(a0)
        scale = 0.0
        for k in range(l):
            w = v + ar[k % 2]
            t = w + 1.0
            q = q * t + w
            if k < l - 1:
                v = (v + 1.0) * a0 / t
            big = q > _PRODUCT_LIMIT
            if big.any():
                scale = scale + np.where(big, np.log1p(q), 0.0)
                q[big] = 0.0
        out[part] = np.log1p(q) + scale
    return out / LN2


def mp_logdet_capacity(
    g_sd: float, g_r1d: float, g_r2d: float, snr: float, l: int, dps: int = 80
):
    """log2 det(I + snr * H^H H) as an mpmath number, from the pivots
    f_k = 1 + a_0 + a_r(k) - a_0 a_r(k-1) / f_{k-1} in ``dps`` digits."""
    import mpmath

    with mpmath.workdps(dps):
        a0 = mpmath.mpf(snr) * mpmath.mpf(g_sd)
        ar = (mpmath.mpf(snr) * mpmath.mpf(g_r1d), mpmath.mpf(snr) * mpmath.mpf(g_r2d))
        total = mpmath.mpf(0)
        f = None
        for k in range(l):
            f = 1 + a0 + ar[k % 2] - (a0 * ar[(k - 1) % 2] / f if k else 0)
            total += mpmath.log(f)
        return total / mpmath.log(2)


def dense_mmse_sic_sinrs_batch(
    h: np.ndarray, snr: float, ordering: DetectionOrder = DetectionOrder.STRONGEST_FIRST
) -> tuple[np.ndarray, np.ndarray]:
    """(orders, sinrs), (n, l) each, by per-candidate dense solves."""
    n, rows, l = h.shape
    eye = np.eye(rows)
    active = np.ones((n, l), dtype=bool)
    orders = np.empty((n, l), dtype=np.intp)
    sinrs = np.zeros((n, l))
    rows_idx = np.arange(n)

    def candidate_sinr(k: int) -> np.ndarray:
        mask = active.copy()
        mask[:, k] = False
        hm = h * mask[:, None, :]
        a = eye + snr * (hm @ hm.conj().swapaxes(-1, -2))
        x = np.linalg.solve(a, h[:, :, k][:, :, None])[:, :, 0]
        q = np.real(np.einsum("ni,ni->n", h[:, :, k].conj(), x))
        return snr * np.maximum(q, 0.0)

    for stage in range(l):
        if ordering is DetectionOrder.NATURAL:
            sel = np.full(n, stage, dtype=np.intp)
            sel_sinr = candidate_sinr(stage)
        else:
            cand = np.full((n, l), -np.inf)
            for k in range(l):
                live = active[:, k]
                if live.any():
                    cand[live, k] = candidate_sinr(k)[live]
            best = cand.max(axis=1, keepdims=True)
            sel = np.argmax(cand >= best * (1.0 - TIE_RTOL), axis=1)
            sel_sinr = cand[rows_idx, sel]
        orders[:, stage] = sel
        sinrs[rows_idx, sel] = sel_sinr
        active[rows_idx, sel] = False
    return orders, sinrs


def _stagewise_right_terms(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    right = np.zeros_like(a)
    for k in range(a.shape[0] - 2, -1, -1):
        right[k] = c[k] / (1.0 + a[k + 1] - right[k + 1])
    return right


def stagewise_mmse_sic_sinrs_batch(
    g_sd: np.ndarray,
    g_r1d: np.ndarray,
    g_r2d: np.ndarray,
    snr: float,
    l: int,
    ordering: DetectionOrder = DetectionOrder.STRONGEST_FIRST,
) -> tuple[np.ndarray, np.ndarray]:
    """`mimolinalg.mmse_sic_sinrs_batch` that rebuilds the couplings and both
    pivot chains (c_k/g_{k+1} and, reversed, c_{k-1}/f_{k-1}) of every
    stream at every stage, the last included.  It keeps the plain selection
    on purpose: detected streams masked by `np.where`, the lowest tied stream
    by `np.argmax`, and scatters on (stream, column) pairs, so that the
    kernel's -inf floor, rank pick and flat scatters are checked against it."""
    check_kernel_args(snr, l)
    g_r = np.stack((g_r1d, g_r2d))[np.arange(l) % 2]
    n = g_sd.shape[0]
    a = snr * (g_sd + g_r)
    c = np.square(np.full((l - 1, 1), snr, dtype=float)) * g_sd * g_r[:-1]
    orders = np.empty((l, n), dtype=np.intp)
    if ordering is DetectionOrder.NATURAL:
        orders[:] = np.arange(l)[:, None]
        sinrs = np.maximum(a - _stagewise_right_terms(a, c), 0.0)
    else:
        cols = np.arange(n)
        sinrs = np.zeros((l, n))
        active = np.ones((l, n), dtype=bool)
        for stage in range(l):
            live = c * (active[:-1] & active[1:])
            interference = (
                _stagewise_right_terms(a, live)
                + _stagewise_right_terms(a[::-1], live[::-1])[::-1]
            )
            cand = np.where(active, np.maximum(a - interference, 0.0), -np.inf)
            best = cand.max(axis=0)
            sel = np.argmax(cand >= best * (1.0 - TIE_RTOL), axis=0)
            orders[stage] = sel
            sinrs[sel, cols] = cand[sel, cols]
            active[sel, cols] = False
    check_sinr_bound(sinrs, a)
    return orders.T, sinrs.T


def mp_mmse_sic_sinrs(
    h: np.ndarray, snr: float, ordering: DetectionOrder, dps: int = 60
) -> tuple[tuple[int, ...], np.ndarray]:
    """One frame's (order, sinrs) as 1/[(I + snr H_A^H H_A)^-1]_kk - 1 in mpmath."""
    import mpmath

    rows, l = h.shape
    with mpmath.workdps(dps):
        hm = mpmath.matrix(rows, l)
        for i in range(rows):
            for j in range(l):
                hm[i, j] = mpmath.mpc(complex(h[i, j]))
        rho = mpmath.mpf(snr)
        active = list(range(l))
        order: list[int] = []
        sinrs = [mpmath.mpf(0)] * l
        while active:
            m = len(active)
            gram = mpmath.eye(m)
            for p, i in enumerate(active):
                for q, j in enumerate(active):
                    gram[p, q] += rho * sum(
                        mpmath.conj(hm[r, i]) * hm[r, j] for r in range(rows)
                    )
            inv = gram**-1
            cand = [1 / mpmath.re(inv[p, p]) - 1 for p in range(m)]
            if ordering is DetectionOrder.NATURAL:
                p = 0
            else:
                best = max(cand)
                p = next(i for i, v in enumerate(cand) if v >= best * (1 - TIE_RTOL))
            order.append(active[p])
            sinrs[active[p]] = cand[p]
            del active[p]
        return tuple(order), np.array([float(v) for v in sinrs])


def exact_outage(g: np.ndarray, snr: float, l: int, r_cw: float):
    """Per-draw (threshold, cap failures, outage) of (3, n) successive-scheme
    gains, with the exact log-det kernel run on every draw."""
    threshold = (2.0**r_cw - 1.0) / snr if r_cw < 1024.0 else np.inf
    caps = (g[0] + g[1]) < threshold
    if l >= 2:
        caps |= (g[0] + g[2]) < threshold
    return threshold, caps, caps | (logdet_capacity_batch(g[0], g[1], g[2], snr, l) < l * r_cw)


def full_draw_count(scheme: str, snr: float, rbar: float, l: int, trials: int, seed: int) -> int:
    """Outage events among ``trials`` fresh Exp(1) draws of the (seed, 0)
    stream, every draw run through the exact test, in pieces of 2**18."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    events = 0
    for start in range(0, trials, 1 << 18):
        g = rng.standard_exponential((3, min(1 << 18, trials - start)))
        if scheme == "classic2":
            events += np.count_nonzero(g.sum(axis=0) < (2.0 ** (2.0 * rbar) - 1.0) / snr)
        else:
            events += np.count_nonzero(exact_outage(g, snr, l, (l + 1) * rbar / l)[2])
    return int(events)


def bisected_staircase(
    scheme: str, snr: float, l: int, r_cw: float, threshold: float, c1, c2, steps: int = 70
) -> np.ndarray:
    """`outage._staircase` with each log-det root bisected ``steps`` times.

    From the cap root, below the target, up to g0 = expm1(r_cw ln 2) / snr,
    where l log2(1 + snr g0) <= log-det clears it: at 70 steps the bracket
    is within 1024 / 2^70 < 1e-18 of the root.  inf where the upper end is
    below the target, or it reaches `outage._G0_MAX`.
    """
    with np.errstate(over="ignore"):
        reach = threshold * (1.0 + outage._SLACK)
        bound = min(np.expm1(r_cw * (1.0 + 2.0 * outage._SLACK) * LN2) / snr, outage._G0_MAX)
    _, cap, logdet, _ = outage.SCHEMES[scheme]
    tau = np.minimum(np.maximum(reach - cap(c1, c2, l), 0.0), outage._G0_MAX)
    if logdet:
        target = l * r_cw * (1.0 + outage._SLACK)
        todo = np.flatnonzero(logdet_capacity_batch(tau, c1, c2, snr, l) < target)
        lo, hi, c1, c2 = tau[todo], np.full(todo.size, bound), c1[todo], c2[todo]
        for _ in range(steps):
            mid = lo + 0.5 * (hi - lo)
            below = logdet_capacity_batch(mid, c1, c2, snr, l) < target
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        hi[logdet_capacity_batch(hi, c1, c2, snr, l) < target] = np.inf
        tau[todo] = hi
    tau[tau >= outage._G0_MAX] = np.inf
    return tau


def full_cell_table(scheme: str, snr: float, l: int, r_cw: float, threshold: float):
    """Every cell in cell-id order, zero masses too: (masses, (3, n) lower
    edges and (3, n) expm1(lower - upper) of g0, g1, g2)."""
    i, j = (a.ravel() for a in np.indices((outage._MASS.size, outage._MASS.size)))
    edges = outage._EDGES
    tau = outage._staircase(scheme, snr, l, r_cw, threshold, edges[i], edges[j])
    mass = outage._MASS[i] * outage._MASS[j] * -np.expm1(-tau)
    lower = np.array([np.zeros(i.size), edges[i], edges[j]])
    span = np.expm1(np.array([-tau, edges[i] - edges[i + 1], edges[j] - edges[j + 1]]))
    return mass, lower, span


def table_picks(rng, size: int, mass):
    """Per piece of <= CHUNK candidates, (their cells, (3, m) uniforms of their
    gains): one Binomial(size, total) count of the candidates, then one (4, m)
    ``random`` per piece, whose first row picks the cell where the running sum
    of ``mass`` first exceeds u * total.  A u * total that rounds up to the
    total picks the last cell whose mass the running sum shows."""
    cum = np.cumsum(mass)
    total = cum[-1]
    n = int(rng.binomial(size, min(total, 1.0)))
    for first in range(0, n, CHUNK):
        u = rng.random((4, min(CHUNK, n - first)))
        cell = np.searchsorted(cum, u[0] * total, "right")
        cell[cell == mass.size] = np.flatnonzero(np.diff(cum, prepend=0.0))[-1]
        yield cell, u[1:]


def table_candidate_gains(rng, size: int, mass, lower, span):
    """(3, <= CHUNK) candidate gains inverted from a `full_cell_table` at the
    cells that `table_picks` draws."""
    for cell, u in table_picks(rng, size, mass):
        yield lower[:, cell] - np.log1p(u * span[:, cell])


def _log_gauss_legendre(lo: float, hi: float, m: int):
    """Nodes g = e^u and weights of an m-point Gauss-Legendre rule in u = ln g on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(m)
    return np.exp(0.5 * (hi - lo) * x + 0.5 * (hi + lo)), 0.5 * (hi - lo) * w


def quadrature_capacity_gain(l: int, snr: float, m: int = 60) -> float:
    """`protocols.capacity_gain_G` with both means integrated, not sampled.

    The numerator, the mean per-slot log-det over three Exp(1) gains, is a
    product rule of m nodes per axis in u = ln g on [-40, ln 60]: the Exp(1)
    mass outside is e^-60 above and ~e^-40 below.  The denominator, the mean
    0.5 log2(1 + X snr) over X ~ Gamma(3, 1), is a 1-D rule of m nodes on
    [-12, ln 60]; the Gamma(3, 1) mass below e^-12 is ~e^-36 / 6.  Each
    density is written in u, so it carries the Jacobian g.
    """
    g, w = _log_gauss_legendre(-40.0, np.log(60.0), m)
    dens = w * g * np.exp(-g)
    g0, g1, g2 = (a.ravel() for a in np.meshgrid(g, g, g, indexing="ij"))
    weights = np.einsum("i,j,k->ijk", dens, dens, dens).ravel()
    num = weights @ logdet_capacity_batch(g0, g1, g2, snr, l) / (l + 1)
    x, w = _log_gauss_legendre(-12.0, np.log(60.0), m)
    den = (w * x**3 * np.exp(-x) / 2.0) @ (0.5 * np.log1p(x * snr) / LN2)
    return float(num / den)


def quadrature_direct_rate(
    snr: float, d_sd: float, gamma: float, sigma_db: float, m: int = 60
) -> float:
    """The mean direct rate E[log2(1 + snr |h_sd|^2)], integrated, not sampled.

    Given the shadowing zeta, |h_sd|^2 is s E / snr with E ~ Exp(1) and
    s = snr d_sd**-gamma 10**(zeta / 10), and E[ln(1 + s E)] =
    e^(1/s) E1(1/s).  An m-node Gauss-Hermite rule takes the mean over
    zeta ~ Normal(0, sigma_db**2).  Past 1/s = 500, where e^(1/s) nears
    overflow, the asymptotic series 1/x - 1/x^2 + 2/x^3 - 6/x^4 in x = 1/s
    replaces the product; its first omitted term, 24/x^5, is below 4e-10
    of the sum there.
    """
    z, w = np.polynomial.hermite.hermgauss(m)
    x = 1.0 / (snr * d_sd**-gamma * 10.0 ** (np.sqrt(2.0) * sigma_db * z / 10.0))
    far = x > 500.0
    xs, xf = np.where(far, 1.0, x), np.where(far, x, 1.0)
    mean_ln = np.where(far, 1 / xf - 1 / xf**2 + 2 / xf**3 - 6 / xf**4, np.exp(xs) * exp1(xs))
    return float(w @ mean_ln / np.sqrt(np.pi) / LN2)


def expected_growing_codewords(l: int, mu_sr1: float, mu_sr2: float, mu_r1r2: float) -> float:
    """E[growing codewords] of a frame of l codewords, in closed form, for
    independent exponential gains of means mu (unshadowed: mu = d**-gamma).

    With s_p = (g_r1r2 > g_next of parity p), g_next = (g_sr2, g_sr1), the
    count is a function of the cell (s_0, s_1) alone: codeword 0 grows iff
    not s_0, a middle codeword of parity p iff s_(1-p) and not s_p, the last
    iff s_(1-p).  So both or neither give 1; s_0 alone the odd codewords,
    floor(l/2); s_1 alone the even ones, ceil(l/2).  At l = 1 the one
    codeword always grows.  Each s_p compares two exponentials, so
    P(s_p) = mu_r1r2 / (mu_r1r2 + mu_next), and in rates lambda = 1/mu,
    P(s_0 and s_1) = P(g_r1r2 > max(g_sr1, g_sr2))
    = 1 - lr/(lr + l1) - lr/(lr + l2) + lr/(lr + l1 + l2).
    """
    if l == 1:
        return 1.0
    lr, l1, l2 = 1.0 / mu_r1r2, 1.0 / mu_sr1, 1.0 / mu_sr2
    p0, p1 = mu_r1r2 / (mu_r1r2 + mu_sr2), mu_r1r2 / (mu_r1r2 + mu_sr1)
    both = 1.0 - lr / (lr + l1) - lr / (lr + l2) + lr / (lr + l1 + l2)
    neither = 1.0 - p0 - p1 + both
    return both + neither + (p0 - both) * (l // 2) + (p1 - both) * ((l + 1) // 2)


def quadrature_classic_bottleneck(snr: float, means: np.ndarray) -> tuple[float, float]:
    """E[min(C(snr g_sr1), C(snr g_sr2), C(snr S))], S = g_sd + g_r1d + g_r2d,
    for independent exponential gains of ``means`` in `channel.LINK_NAMES`
    order, integrated, not sampled; returns the mean and quad's error bound.

    The classic rates are 1/3 and 1/2 of it under rule none.  A nonnegative
    variable's mean is the integral of its tail: the min exceeds t bits iff
    each gain exceeds x = (2^t - 1) / snr, so the integrand is
    e^(-x/mu_sr1) e^(-x/mu_sr2) P(S > x), with the hypoexponential tail
    P(S > x) = sum_i e^(-lambda_i x) prod_(j != i) lambda_j / (lambda_j - lambda_i)
    of three distinct rates lambda = 1/mu.  2^t - 1 is expm1(t ln 2), and t
    stops where x reaches 60 times the larger source-relay mean: the
    integrand is below e^-60 past it.  ``quad`` would overflow 2**t on an
    infinite range.
    """
    mu_sd, mu_sr1, mu_sr2, _, mu_r1d, mu_r2d = means
    lam = 1.0 / np.array([mu_sd, mu_r1d, mu_r2d])
    if len(set(lam)) < 3:
        raise ValueError(f"the destination means must be distinct, got {means}")
    weights = [np.prod([lj / (lj - li) for lj in lam if lj != li]) for li in lam]

    def tail(t: float) -> float:
        x = np.expm1(t * LN2) / snr
        s_tail = sum(w * np.exp(-li * x) for w, li in zip(weights, lam))
        return float(np.exp(-x / mu_sr1 - x / mu_sr2) * s_tail)

    t_end = np.log1p(60.0 * max(mu_sr1, mu_sr2) * snr) / LN2
    mean, err = quad(tail, 0.0, t_end, epsabs=1e-12, epsrel=1e-12, limit=200)
    return mean, err
