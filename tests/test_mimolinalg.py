import itertools
import warnings

import numpy as np
import pytest

from dense_oracle import (
    dense_logdet_capacity_batch,
    coefficients,
    dense_mmse_sic_sinrs_batch,
    gains,
    mp_logdet_capacity,
    mp_mmse_sic_sinrs,
    recurrence_logdet_capacity_batch,
    stagewise_mmse_sic_sinrs_batch,
)
from succrelay.channel import link_gains, preset_geometry, sample_realizations
from succrelay.mimolinalg import (
    _PRODUCT_LIMIT,
    CHUNK,
    DetectionOrder,
    InvariantError,
    build_equivalent_channel_batch,
    check_sinr_bound,
    logdet_capacity_batch,
    mmse_sic_sinrs_batch,
)

LN2 = np.log(2.0)


def random_frame(rng) -> tuple[complex, complex, complex]:
    """(h_sd, h_r1d, h_r2d) of one frame."""
    v = (rng.standard_normal(12) + 1j * rng.standard_normal(12))[:6] / np.sqrt(2)
    return v[0], v[4], v[5]


def matrix(frame, l: int) -> np.ndarray:
    """The (l+1) x l relay matrix of one frame."""
    return build_equivalent_channel_batch(*(np.array([h], dtype=complex) for h in frame), l)[0]


def one(frame) -> tuple[np.ndarray, ...]:
    """The frame's squared gains as (1,) arrays, for the batched kernels."""
    return tuple(np.array([abs(h) ** 2], dtype=float) for h in frame)


def logdet(frame, snr: float, l: int) -> float:
    return float(logdet_capacity_batch(*one(frame), snr, l)[0])


def sic(frame, snr: float, l: int, ordering=DetectionOrder.STRONGEST_FIRST):
    """One frame's (detection order, per-stream SINRs)."""
    orders, sinrs = mmse_sic_sinrs_batch(*one(frame), snr, l, ordering)
    return tuple(int(k) for k in orders[0]), sinrs[0]


def cofactor_det(m: np.ndarray) -> complex:
    # brute-force first-row expansion, independent of numpy.linalg
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0 + 0.0j
    sub = np.delete(m, 0, axis=0)
    for j in range(n):
        minor = np.delete(sub, j, axis=1)
        total += (-1) ** j * m[0, j] * cofactor_det(minor)
    return total


class TestBuild:
    def test_smallest_frame(self):
        m = matrix((1 + 2j, 3 - 1j, 5.0), 1)
        assert m.shape == (2, 1)
        assert m[0, 0] == 1 + 2j
        assert m[1, 0] == 3 - 1j

    def test_relay_alternation_l3(self):
        m = matrix((1.0, 10.0, 20.0), 3)
        sub = [m[k + 1, k] for k in range(3)]
        assert sub == [10.0, 20.0, 10.0]
        assert all(m[k, k] == 1.0 for k in range(3))

    def test_zero_links_give_zero_matrix(self):
        assert np.all(matrix((0.0, 0.0, 0.0), 2) == 0.0)

    def test_rejects_empty_frame(self):
        with pytest.raises(ValueError):
            matrix((1.0, 1.0, 1.0), 0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        frames = [random_frame(rng) for _ in range(3)]
        hb = build_equivalent_channel_batch(*(np.array(h) for h in zip(*frames)), 4)
        for i, frame in enumerate(frames):
            assert np.array_equal(hb[i], matrix(frame, 4))


class TestLogdet:
    def test_zero_snr(self):
        assert logdet((2.0, 3.0, 4.0), 0.0, 3) == 0.0

    def test_two_by_one_vector_channel(self):
        # det(I + snr h h^H) for a column h expands to 1 + snr ||h||^2;
        # checked against the explicit 2x2 determinant.
        a, b = 1.0, np.sqrt(3.0)
        got = logdet((a, b, 1.0), 1.0, 1)
        h = np.array([[a], [b]])
        g = np.eye(2) + h @ h.conj().T
        explicit = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        assert explicit == pytest.approx(1 + a * a + b * b, rel=1e-15)
        assert got == pytest.approx(np.log2(5.0), rel=1e-12)
        assert got == pytest.approx(np.log2(explicit.real), rel=1e-12)

    @pytest.mark.parametrize("l", [1, 2, 4, 7])
    def test_matches_cofactor_determinant(self, l):
        rng = np.random.default_rng(10 + l)
        frame = random_frame(rng)
        m = matrix(frame, l)
        snr = 100.0
        gram = np.eye(l + 1) + snr * m @ m.conj().T
        oracle = cofactor_det(gram)
        assert abs(oracle.imag) < 1e-9 * abs(oracle.real)
        assert logdet(frame, snr, l) == pytest.approx(np.log2(oracle.real), rel=1e-9)

    def test_monotone_in_snr(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            frame = random_frame(rng)
            snrs = np.sort(rng.uniform(0.0, 500.0, size=4))
            values = [logdet(frame, s, 5) for s in snrs]
            assert np.all(np.diff(values) >= -1e-12)

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            logdet((1.0, 1.0, 1.0), -1.0, 1)


class TestMmseSic:
    def test_single_stream_no_interference(self):
        order, sinr = sic((1 + 1j, 2.0, 1.0), 3.0, 1)
        assert order == (0,)
        assert sinr[0] == pytest.approx(3.0 * (2.0 + 4.0), rel=1e-12)

    @pytest.mark.parametrize("ordering", ["natural", "strongest_first", None, 0])
    def test_ordering_that_is_not_a_detection_order_rejected(self, ordering):
        # a string is not a DetectionOrder, even one that names a member's value
        g = np.ones(4)
        with pytest.raises(ValueError, match="^ordering must be a DetectionOrder"):
            mmse_sic_sinrs_batch(g, g, g, 10.0, 7, ordering)

    def test_all_zero_channel(self):
        _, sinr = sic((0.0, 0.0, 0.0), 10.0, 3)
        assert np.all(sinr == 0.0)

    def test_tie_breaks_to_lowest_index(self):
        # orthogonal equal-norm columns: exact SINR tie at the first stage
        order, sinr = sic((0.0, 2.0, 2.0), 1.0, 2)
        assert sinr[0] == sinr[1]
        assert order[0] == 0

    def test_near_tie_within_tolerance_goes_to_lowest_index(self):
        # orthogonal columns, stream 1 stronger by 2e-12 relative: a tie
        order, sinr = sic((0.0, 2.0, 2.0 * (1.0 + 1e-12)), 1.0, 2)
        assert sinr[1] > sinr[0]
        assert order == (0, 1)

    def test_gap_beyond_tolerance_is_not_a_tie(self):
        order, _ = sic((0.0, 2.0, 2.0 * (1.0 + 1e-8)), 1.0, 2)
        assert order == (1, 0)

    def test_natural_order_is_time_order(self):
        rng = np.random.default_rng(8)
        order, _ = sic(random_frame(rng), 10.0, 5, DetectionOrder.NATURAL)
        assert order == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("ordering", list(DetectionOrder))
    @pytest.mark.parametrize("snr", [0.1, 1.0, 10.0, 1000.0])
    def test_chain_rule_identity(self, ordering, snr):
        rng = np.random.default_rng(77)
        for l in range(1, 9):
            n = 25
            v = rng.standard_normal((2, 3, n))
            h = (v[0] + 1j * v[1]) / np.sqrt(2)
            g = np.abs(h) ** 2
            ld = logdet_capacity_batch(g[0], g[1], g[2], snr, l)
            _, sinr = mmse_sic_sinrs_batch(g[0], g[1], g[2], snr, l, ordering)
            chain = np.sum(np.log1p(sinr), axis=1) / LN2
            rel = np.abs(chain - ld) / np.maximum(np.abs(ld), 1e-300)
            assert np.max(rel) < 1e-9

    def test_orderings_same_sum_different_streams(self):
        # second stream has by far the strongest column, so strongest-first
        # departs from time order
        frame = (1.0, 0.1, 10.0)
        strongest = sic(frame, 50.0, 3, DetectionOrder.STRONGEST_FIRST)
        natural = sic(frame, 50.0, 3, DetectionOrder.NATURAL)
        assert strongest[0][0] == 1
        assert strongest[0] != natural[0]
        sum_rate = [np.sum(np.log1p(sinr)) / LN2 for _, sinr in (strongest, natural)]
        assert sum_rate[0] == pytest.approx(sum_rate[1], rel=1e-9)
        assert not np.allclose(strongest[1], natural[1])

    def test_per_stream_sinr_bound(self):
        rng = np.random.default_rng(31)
        for snr in (1.0, 100.0, 1e4):
            v = rng.standard_normal((2, 3, 200))
            h = (v[0] + 1j * v[1]) / np.sqrt(2)
            hb = build_equivalent_channel_batch(h[0], h[1], h[2], 7)
            _, sinr = mmse_sic_sinrs_batch(*gains(hb), snr, 7)
            bound = snr * np.sum(np.abs(hb) ** 2, axis=1)
            assert np.all(sinr <= bound * (1 + 1e-9) + 1e-12)

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            sic((1.0, 1.0, 1.0), -0.5, 2)

    def test_sinr_bound_check_raises(self):
        bound = np.array([[1.0, 2.0]])
        check_sinr_bound(bound * (1.0 + 1e-12), bound)
        for sinrs in ([[1.0, 2.1]], [[np.nan, 0.0]]):
            with pytest.raises(InvariantError, match="column-norm bound"):
                check_sinr_bound(np.array(sinrs), bound)


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0])
    @pytest.mark.parametrize("case", ["I", "II", "III"])
    def test_orders_and_sinrs_match(self, case, snr_db):
        # SINR errors are measured against the stream's bound snr * ||h_k||^2
        snr = 10.0 ** (snr_db / 10.0)
        rng = np.random.default_rng(500 + int(snr_db))
        for l in range(1, 9):
            geom = preset_geometry(case)
            h = coefficients(geom, sample_realizations(geom, rng, 200))
            hb = build_equivalent_channel_batch(h[0], h[4], h[5], l)
            bound = snr * np.sum(np.abs(hb) ** 2, axis=1)
            for ordering in DetectionOrder:
                orders, sinrs = mmse_sic_sinrs_batch(*gains(hb), snr, l, ordering)
                want_orders, want_sinrs = dense_mmse_sic_sinrs_batch(hb, snr, ordering)
                assert np.array_equal(orders, want_orders), (l, ordering)
                assert np.all(np.abs(sinrs - want_sinrs) <= 1e-9 * bound), (l, ordering)

    @pytest.mark.parametrize("case", ["I", "II", "III"])
    def test_60db_against_mpmath(self, case):
        # At 60 dB the dense solves lose ~1e-9 relative and may pick another
        # order; 60-digit arithmetic settles every draw where they differ.
        pytest.importorskip("mpmath")
        snr = 1e6
        rng = np.random.default_rng(600)
        checked = 0
        for l in (3, 5, 7, 8):
            geom = preset_geometry(case)
            h = coefficients(geom, sample_realizations(geom, rng, 200))
            hb = build_equivalent_channel_batch(h[0], h[4], h[5], l)
            bound = snr * np.sum(np.abs(hb) ** 2, axis=1)
            for ordering in DetectionOrder:
                orders, sinrs = mmse_sic_sinrs_batch(*gains(hb), snr, l, ordering)
                dense_orders, dense_sinrs = dense_mmse_sic_sinrs_batch(hb, snr, ordering)
                differ = np.any(orders != dense_orders, axis=1) | np.any(
                    np.abs(sinrs - dense_sinrs) > 1e-9 * bound, axis=1
                )
                for i in sorted({0, 1, *np.flatnonzero(differ)}):
                    want_order, want_sinrs = mp_mmse_sic_sinrs(hb[i], snr, ordering)
                    assert tuple(orders[i]) == want_order, (l, ordering, i)
                    assert np.all(np.abs(sinrs[i] - want_sinrs) <= 1e-13 * bound[i])
                    checked += 1
        assert checked >= 16


class TestExtremeInputs:
    LEVELS = (0.0, 1e-12, 1.0, 1e12)

    @pytest.mark.parametrize("l", [1, 2, 3, 8, 16, 64])
    def test_finite_nonnegative_without_warnings(self, l):
        rng = np.random.default_rng(700 + l)
        corners = np.array(list(itertools.product(self.LEVELS, repeat=3))).T
        g = np.concatenate([10.0 ** rng.uniform(-12.0, 12.0, (3, 100)), corners], axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for snr in (0.0, 1e6):
                for ordering in DetectionOrder:
                    _, sinrs = mmse_sic_sinrs_batch(*g, snr, l, ordering)
                    assert np.all(np.isfinite(sinrs)) and np.all(sinrs >= 0.0)
                    if snr == 0.0:
                        assert np.all(sinrs == 0.0)

    def test_snr_square_overflow_raises_where_it_happens(self):
        # snr^2 passes float range at ~1541.3 dB; a Python float square would
        # turn inf silently and fail two steps later as an invalid divide
        g, snr = np.ones((3, 4)), 10.0**154.5
        for ordering in DetectionOrder:
            with np.errstate(over="raise"):
                with pytest.raises(FloatingPointError, match="^overflow encountered"):
                    mmse_sic_sinrs_batch(*g, snr, 7, ordering)
                # a lone stream has no coupling, so nothing is squared
                _, sinrs = mmse_sic_sinrs_batch(*g, snr, 1, ordering)
            assert np.all(sinrs == 2.0 * snr)

    def test_all_zero_channel_every_length(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for l in (1, 2, 7, 64):
                g = np.zeros(3)
                for snr in (0.0, 1e6):
                    orders, sinrs = mmse_sic_sinrs_batch(g, g, g, snr, l)
                    assert np.all(sinrs == 0.0)
                    assert np.all(orders == np.arange(l))

    def test_extreme_gains_against_mpmath(self):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(707)
        g = 10.0 ** rng.uniform(-12.0, 12.0, (3, 8))
        h = np.sqrt(g) * np.exp(2j * np.pi * rng.uniform(size=g.shape))
        hb = build_equivalent_channel_batch(h[0], h[1], h[2], 8)
        snr = 1e6
        bound = snr * np.sum(np.abs(hb) ** 2, axis=1)
        for ordering in DetectionOrder:
            orders, sinrs = mmse_sic_sinrs_batch(*gains(hb), snr, 8, ordering)
            for i in range(len(hb)):
                want_order, want_sinrs = mp_mmse_sic_sinrs(hb[i], snr, ordering)
                assert tuple(orders[i]) == want_order
                assert np.all(np.abs(sinrs[i] - want_sinrs) <= 1e-13 * bound[i])


class TestLogdetExtremes:
    LEVELS = (0.0, 1e-12, 1e-3, 1.0, 1e3, 1e12)

    @pytest.mark.parametrize("l", [1, 2, 3, 8, 64])
    def test_gain_grid_against_mpmath(self, l):
        # every gain combination, including a0 >> a_r where the textbook
        # pivot recurrence cancels; 80-digit pivots are the reference
        pytest.importorskip("mpmath")
        g = np.array(list(itertools.product(self.LEVELS, repeat=3))).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for snr in (0.0, 1.0, 1e6):
                got = logdet_capacity_batch(g[0], g[1], g[2], snr, l)
                assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
                want = np.array([float(mp_logdet_capacity(*col, snr, l)) for col in g.T])
                assert np.all(np.abs(got - want) <= 1e-13 * want), (snr, l)

    @pytest.mark.parametrize("l", range(1, 13))
    def test_matches_dense_cholesky(self, l):
        rng = np.random.default_rng(900 + l)
        g = 10.0 ** rng.uniform(-3.0, 3.0, (3, 400))
        h = np.sqrt(g) * np.exp(2j * np.pi * rng.uniform(size=g.shape))
        hb = build_equivalent_channel_batch(h[0], h[1], h[2], l)
        for snr in (0.0, 1e-2, 1.0, 1e2, 1e4):
            got = logdet_capacity_batch(*gains(hb), snr, l)
            want = dense_logdet_capacity_batch(hb, snr)
            assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(want, 1.0)), (snr, l)


class TestLogdetPeriod:
    """Two more codewords add one period of the pivot recurrence, in closed form.

    Pivot step k maps v to T_r(v) = a0 (1 + v) / (1 + v + a_r), the Moebius
    map of [[a0, a0], [1, 1 + a_r]], with relay r = 1 on even k and 2 on odd
    k.  From an even l one period is M = [[A, B], [C, D]] =
    [[a0, a0], [1, 1 + a2]] @ [[a0, a0], [1, 1 + a1]], and it adds
    log2((1 + v_l + a1) (1 + T_1(v_l) + a2)) = log2(C v_l + D) bits.  M's
    eigenvalues lam1 > lam2 > 0 have the fixed points p, the positive v*,
    and q < 0, with lam = C v + D at each; z = (v - p) / (v - q) shrinks by
    lam2 / lam1 per period, from v_0 = a0.  So with z_l = (lam2 / lam1)^(l/2) z_0,
    v_l = (p - q z_l) / (1 - z_l) and the period adds
    log2((lam1 - lam2 z_l) / (1 - z_l)), which tends to
    log2(lam1) = log2((1 + v* + a1) (1 + T_1(v*) + a2)).  The ratio lam2 / lam1
    nears 1 as the three gains near each other at high SNR: at 40 dB one of
    these draws still stands 3e-5 bits off that limit at l = 64.
    """

    @pytest.mark.parametrize("l", [2, 16, 64])
    @pytest.mark.parametrize("snr", [1.0, 100.0, 1e4])
    def test_two_more_codewords_add_one_period(self, snr, l):
        g = np.random.default_rng(5).standard_exponential((3, 5))
        a0, a1, a2 = snr * g
        one = np.ones_like(a0)
        m1 = np.array([[a0, a0], [one, 1.0 + a1]]).transpose(2, 0, 1)
        m2 = np.array([[a0, a0], [one, 1.0 + a2]]).transpose(2, 0, 1)
        (A, B), (C, D) = (m2 @ m1).transpose(1, 2, 0)
        trace = A + D
        lam1 = (trace + np.sqrt(trace**2 - 4.0 * (a0 * a1) * (a0 * a2))) / 2.0
        lam2 = (a0 * a1) * (a0 * a2) / lam1  # det M = det M2 det M1
        # the fixed points solve C v^2 + (D - A) v - B = 0
        p = (A - D + np.sqrt((A - D) ** 2 + 4.0 * B * C)) / (2.0 * C)
        q = -B / (C * p)
        t1 = a0 * (1.0 + p) / (1.0 + p + a1)
        np.testing.assert_allclose((1.0 + p + a1) * (1.0 + t1 + a2), lam1, rtol=1e-14)
        z_l = (lam2 / lam1) ** (l // 2) * (a0 - p) / (a0 - q)
        want = np.log2(lam1 - lam2 * z_l) - np.log2(1.0 - z_l)
        longer = logdet_capacity_batch(*g, snr, l + 2)
        got = longer - logdet_capacity_batch(*g, snr, l)
        # each of the l + 2 pivot steps rounds q and its factor a few times,
        # a few eps each in the log, and each move of q's log into the scale
        # rounds relative to the log-det: each log-det is exact to a few eps
        # (l + 2 + logdet) bits, their difference to twice that
        tol = 8.0 * np.finfo(float).eps * (l + 2 + longer)
        assert np.all(np.abs(got - want) <= tol), (got - want, tol)


class TestLogdetAgainstEveryStepCheck:
    """The kernel skips the overflow check where its piece's bound says q
    cannot pass `_PRODUCT_LIMIT`: its bytes equal those of the recurrence
    that checks every step, with NaN where that has NaN."""

    LENGTHS = [1, 2, 3, 7, 8, 16, 64]
    SNRS = (0.0, 1e-3, 1.0, 1e4, 1e6, 1e12)

    @staticmethod
    def outcome(kernel, g, snr, l, over):
        with np.errstate(over=over, invalid=over):
            try:
                return kernel(*g, snr, l)
            except FloatingPointError as exc:
                return str(exc)

    def assert_same(self, g, l, over):
        for snr in self.SNRS:
            got = self.outcome(logdet_capacity_batch, g, snr, l, over)
            want = self.outcome(recurrence_logdet_capacity_batch, g, snr, l, over)
            if isinstance(want, str):
                assert got == want, (snr, l)
                continue
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), (snr, l)
            assert got[~nan].tobytes() == want[~nan].tobytes(), (snr, l)

    @pytest.mark.parametrize("l", LENGTHS)
    def test_log_uniform_gains(self, l):
        # gains 1e-12..1e12 over two pieces: at 1e12 snr, l = 64 rescales
        g = 10.0 ** np.random.default_rng(2500 + l).uniform(-12.0, 12.0, (3, CHUNK + 1000))
        self.assert_same(g, l, "raise")
        if l == 64:
            assert logdet_capacity_batch(*g, 1e12, l).max() > np.log2(_PRODUCT_LIMIT)

    @pytest.mark.parametrize("odd", [np.nan, np.inf, 1e308])
    @pytest.mark.parametrize("l", LENGTHS)
    def test_odd_gain_beside_huge_ones(self, l, odd):
        # the first piece holds the odd gain in each row next to 1e12 gains,
        # and (odd, 1e12, 1); the second piece is ordinary
        g = 10.0 ** np.random.default_rng(2600 + l).uniform(-3.0, 3.0, (3, CHUNK + 1000))
        g[:, :16] = 1e12
        g[[0, 1, 2, 0], [0, 1, 2, 3]] = odd
        g[2, 3] = 1.0
        self.assert_same(g, l, "ignore")
        self.assert_same(g, l, "raise")


class TestLogdetPieceEdges:
    """Draw counts one short of a piece of `CHUNK`, one piece, one draw past
    it and one past two pieces: the kernel's bytes equal those of the
    recurrence that checks every step.  The last draw's 1e12 gains give the
    last piece a bound of its own, so the pieces skip different checks."""

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("l", [1, 7, 64])
    def test_equals_every_step_check(self, n, l):
        g = np.random.default_rng(2800 + l).standard_exponential((3, n))
        g[:, -1] = 1e12
        for snr in (1.0, 1e4, 1e12):
            with np.errstate(all="raise"):
                got = logdet_capacity_batch(*g, snr, l)
                want = recurrence_logdet_capacity_batch(*g, snr, l)
            assert got.tobytes() == want.tobytes(), (n, l, snr)


class TestLogdetLengths:
    """Given a sequence of lengths, one pivot pass up to the longest writes
    every length's row, bit for bit as a lone length's (n,) array, in the
    order the lengths are given."""

    @pytest.mark.parametrize(
        "ls", [(1, 2, 3, 7, 8, 16, 64), (64, 7, 1, 16, 3), (8, 2), (3, 7), (64,)]
    )
    def test_rows_equal_lone_lengths(self, ls):
        # Exp(1) gains over two pieces; at 1e60 and 1e150 every step rescales
        g = np.random.default_rng(2700).standard_exponential((3, CHUNK + 1000))
        for snr in (1.0, 1e4, 1e60, 1e150):
            with np.errstate(all="raise"):
                got = logdet_capacity_batch(*g, snr, ls)
            assert got.shape == (len(ls), g.shape[1])
            for row, l in zip(got, ls):
                assert row.tobytes() == logdet_capacity_batch(*g, snr, l).tobytes(), (snr, l)

    def test_repeated_length_fills_each_row(self):
        g = np.random.default_rng(2701).standard_exponential((3, 100))
        got = logdet_capacity_batch(*g, 10.0, [3, 5, 3])
        assert got[0].tobytes() == got[2].tobytes() == logdet_capacity_batch(*g, 10.0, 3).tobytes()

    def test_one_length_gives_one_array(self):
        g = np.random.default_rng(2702).standard_exponential((3, 100))
        lone = logdet_capacity_batch(*g, 10.0, np.int64(7))
        assert lone.shape == (100,)
        for ls in ([7], (7,), np.array([7])):
            rows = logdet_capacity_batch(*g, 10.0, ls)
            assert rows.shape == (1, 100) and rows[0].tobytes() == lone.tobytes()

    def test_bad_length_rejected_before_any_work(self):
        # the gains are not arrays: any work on them would raise TypeError
        for ls in ([], (), [0], [3, 0], [True], [3, False], [2.5], [[3, 7]], "37"):
            with pytest.raises(ValueError, match="frame length"):
                logdet_capacity_batch(None, None, None, 1.0, ls)
        for l in (0, -1, True, 2.5):
            with pytest.raises(ValueError, match="frame length"):
                logdet_capacity_batch(None, None, None, 1.0, l)


class TestSicAgainstStagewiseChains:
    """The kernel writes both pivot chains in place, skips them at the last
    stage and picks the lowest tied stream without the reference's argmax:
    its orders and SINR bytes equal those of the reference that recomputes
    every chain at every stage, and it raises where that raises."""

    # snr^2 leaves float range at 10^154.5, where only a frame with a coupling squares it
    SNRS = (0.0, 1e-3, 1.0, 100.0, 1e5, 1e9, 10.0**154.5)

    @staticmethod
    def outcome(kernel, g, snr, l, ordering):
        with np.errstate(all="raise"):
            try:
                return kernel(*g, snr, l, ordering)
            except FloatingPointError as exc:
                return str(exc)
            except InvariantError as exc:
                return type(exc), str(exc)

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 7, 8, 16, 64])
    def test_same_bytes_and_errors(self, l):
        rng = np.random.default_rng(2700 + l)
        batches = [
            10.0 ** rng.uniform(-3.0, 3.0, (3, n)) * rng.standard_exponential((3, n))
            for n in (1, 1000)
        ]
        batches.append(np.full((3, 50), 0.7))  # every stream ties at every stage
        batches.append(np.full((3, 4), 1e300))  # a overflows from snr 1e9 on, c from 1 on
        # NaN gains: every column of the first, and some entries of the
        # second, have no candidate at the stage maximum, so the pick is stream 0
        batches.append(np.full((3, 5), np.nan))
        batches.append(np.where(rng.random((3, 40)) < 0.1, np.nan, rng.exponential(size=(3, 40))))
        raised = invariant = 0
        for g, snr, ordering in itertools.product(batches, self.SNRS, DetectionOrder):
            got = self.outcome(mmse_sic_sinrs_batch, g, snr, l, ordering)
            want = self.outcome(stagewise_mmse_sic_sinrs_batch, g, snr, l, ordering)
            if isinstance(want, str) or want[0] is InvariantError:
                raised += 1
                invariant += want[0] is InvariantError
                assert got == want, (snr, ordering)
                continue
            assert got[0].tobytes() == want[0].tobytes(), (snr, ordering)
            assert got[1].tobytes() == want[1].tobytes(), (snr, ordering)
        # both NaN batches fail the column-norm bound at every SNR whose
        # square stays in float range, in both orders
        assert raised >= 4 and invariant >= 2 * 6 * 2


class TestBounds:
    def test_jensen_bound_on_sampled_realizations(self):
        # per-codeword single-stream rates sum to at least the log-det bound
        geom = preset_geometry("III")
        g = link_gains(geom, sample_realizations(geom, np.random.default_rng(9), 3000))
        l, snr = 7, 100.0
        gsd, grd = g[0], [g[4], g[5]]
        ld = logdet_capacity_batch(gsd, grd[0], grd[1], snr, l)
        caps = sum(np.log1p((gsd + grd[i % 2]) * snr) / LN2 for i in range(l))
        assert np.all(caps >= ld * (1 - 1e-9) - 1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_principal_determinant_lower_bound(self, m):
        # det(I + rho/2 H H^H) >= (rho/2 gsd)^m + prod_k (1 + rho/2 g_rk)
        rng = np.random.default_rng(40 + m)
        v = rng.standard_normal((2, 3, 5000))
        h = (v[0] + 1j * v[1]) / np.sqrt(2)
        g = np.abs(h) ** 2
        for rho in (1.0, 100.0):
            ld = logdet_capacity_batch(g[0], g[1], g[2], rho / 2.0, m)
            grd = [g[1] if k % 2 == 0 else g[2] for k in range(m)]
            bound = (rho / 2.0 * g[0]) ** m + np.prod(
                [1.0 + rho / 2.0 * gr for gr in grd], axis=0
            )
            assert np.all(ld >= np.log2(bound) * (1 - 1e-12) - 1e-12)
