"""Dense references for the gains-only kernels of ``succrelay.mimolinalg``.

The log-det oracle factors the (l+1) x (l+1) matrix I + snr H H^H with
``np.linalg.cholesky``; a second one runs the textbook pivot recurrence of
the tridiagonal I + snr H^H H in ``mpmath``, where its cancellation is
harmless.  Each candidate's SIC SINR is snr * h_k^H (I + snr * sum_{j in A,
j != k} h_j h_j^H)^-1 h_k, solved afresh from the undetected columns A with
``np.linalg.solve`` on the (l+1) x (l+1) covariance: O(l^5) per frame,
independent of the tridiagonal structure the library exploits.  A second
SIC oracle repeats the same SIC in 60-digit ``mpmath`` arithmetic.
"""

from __future__ import annotations

import numpy as np

from succrelay.mimolinalg import TIE_RTOL, DetectionOrder

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
