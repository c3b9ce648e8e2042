"""Dense references for the gains-only kernels of ``succrelay.mimolinalg``.

The log-det oracle factors the (l+1) x (l+1) matrix I + snr H H^H with
``np.linalg.cholesky``; a second one runs the textbook pivot recurrence of
the tridiagonal I + snr H^H H in ``mpmath``, where its cancellation is
harmless.  Each candidate's SIC SINR is snr * h_k^H (I + snr * sum_{j in A,
j != k} h_j h_j^H)^-1 h_k, solved afresh from the undetected columns A with
``np.linalg.solve`` on the (l+1) x (l+1) covariance: O(l^5) per frame,
independent of the tridiagonal structure the library exploits.  A second
SIC oracle repeats the same SIC in 60-digit ``mpmath`` arithmetic.

The outage oracle is the full-draw count that ``succrelay.outage`` draws
sparsely: every trial's three Exp(1) gains are drawn and run through the
exact test, so its count is Binomial(trials, p_out), as the sampler's is.
The staircase oracle bisects each cell's log-det root, where the library
takes the closed-form root of a lower bound.  The cell-table oracle builds
every positive cell's lower edges and spans of (g0, g1, g2) and inverts the
truncated Exp(1) from that dense table, where the library gathers them for
the drawn cells only.
"""

from __future__ import annotations

import numpy as np

from succrelay import outage
from succrelay.mimolinalg import CHUNK, TIE_RTOL, DetectionOrder, logdet_capacity_batch

LN2 = np.log(2.0)


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
    """The cells of positive mass, ascending by mass, ties by cell id: (masses,
    (3, n) lower edges and (3, n) expm1(lower - upper) of g0, g1, g2)."""
    i, j = (a.ravel() for a in np.indices((outage._MASS.size, outage._MASS.size)))
    edges = outage._EDGES
    tau = outage._staircase(scheme, snr, l, r_cw, threshold, edges[i], edges[j])
    mass = outage._MASS[i] * outage._MASS[j] * -np.expm1(-tau)
    cells = np.flatnonzero(mass)[np.argsort(mass[mass > 0.0], kind="stable")]
    i, j = i[cells], j[cells]
    lower = np.array([np.zeros(cells.size), edges[i], edges[j]])
    span = np.expm1(np.array([-tau[cells], edges[i] - edges[i + 1], edges[j] - edges[j + 1]]))
    return mass[cells], lower, span


def table_candidate_gains(rng, size: int, mass, lower, span):
    """(3, <= CHUNK) candidate gains inverted from a `full_cell_table`: one
    multinomial draw over the cells and a rest, then one ``random`` per piece."""
    ends = np.cumsum(rng.multinomial(size, np.append(mass, max(0.0, 1.0 - mass.sum())))[:-1])
    for first in range(0, int(ends[-1]) if ends.size else 0, CHUNK):
        cell = np.searchsorted(ends, np.arange(first, min(first + CHUNK, ends[-1])), "right")
        yield lower[:, cell] - np.log1p(rng.random((3, cell.size)) * span[:, cell])
