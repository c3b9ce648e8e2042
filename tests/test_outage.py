import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dense_oracle import dense_logdet_capacity_batch
from succrelay import outage
from succrelay.channel import preset_geometry
from succrelay.mimolinalg import build_equivalent_channel_batch, logdet_capacity_batch
from succrelay.outage import (
    DmtPoint,
    _count_block,
    dmt_formula,
    estimate_dmt,
    outage_prob_conditioned,
)


def miso_outage_oracle(snr: float, rbar: float) -> float:
    # l=1 reduces to a two-branch MISO outage: both the per-codeword cap and
    # the log-det bound collapse to |h0|^2 + |h1|^2 < (2^R - 1)/snr with the
    # per-codeword rate R = 2 rbar; the gain sum is Gamma(2, 1)
    x = (2.0 ** (2.0 * rbar) - 1.0) / snr
    closed = 1.0 - np.exp(-x) * (1.0 + x)
    assert closed == pytest.approx(float(stats.gamma.cdf(x, a=2)), rel=1e-12, abs=1e-300)
    return closed


class TestFormula:
    def test_zero_multiplexing_full_diversity(self):
        assert dmt_formula(0.0, 7) == 2.0

    def test_zero_crossing(self):
        for l in (1, 3, 7):
            assert dmt_formula(l / (l + 1), l) == pytest.approx(0.0, abs=1e-15)

    def test_interior_point(self):
        assert dmt_formula(0.4375, 7) == pytest.approx(1.0, rel=1e-12)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            dmt_formula(-0.1, 7)

    @pytest.mark.parametrize("l", [0, 2.5, 7.0, True])
    def test_non_integer_or_small_l_rejected(self, l):
        with pytest.raises(ValueError):
            dmt_formula(0.5, l)

    def test_numpy_integer_l_accepted(self):
        assert dmt_formula(0.4375, np.int64(7)) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("r", [float("nan"), float("inf")])
    def test_non_finite_r_rejected(self, r):
        with pytest.raises(ValueError):
            dmt_formula(r, 7)


class TestRecurrence:
    @pytest.mark.parametrize("l", [1, 2, 3, 7, 12])
    def test_matches_dense_factorization(self, l):
        # gains-only kernel vs the dense Cholesky oracle, inside the engine's
        # operating envelope (unit-variance-scale gains, snr <= 1e4); random
        # phases confirm the log-det depends only on squared magnitudes
        rng = np.random.default_rng(50 + l)
        n = 1500
        mag = 10.0 ** rng.uniform(-2, 1, size=(3, n))
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(3, n)))
        h = mag * phase
        hb = build_equivalent_channel_batch(h[0], h[1], h[2], l)
        for snr in (0.01, 1.0, 100.0, 1e4):
            dense = dense_logdet_capacity_batch(hb, snr)
            rec = logdet_capacity_batch(mag[0] ** 2, mag[1] ** 2, mag[2] ** 2, snr, l)
            err = np.abs(dense - rec) / np.maximum(np.abs(dense), 1.0)
            assert np.max(err) < 1e-9

    def test_rescaling_keeps_finite(self):
        rng = np.random.default_rng(60)
        g = 10.0 ** rng.uniform(0, 3, size=(3, 500))
        out = logdet_capacity_batch(g[0], g[1], g[2], 1e6, 40)
        assert np.all(np.isfinite(out))
        assert out.max() > 300  # determinant far beyond float range


def exact_outage(g, snr, l, r_cw):
    """Per-draw (threshold, cap failures, outage) with the exact kernel on every draw."""
    threshold = (2.0**r_cw - 1.0) / snr if r_cw < 1024.0 else np.inf
    caps = (g[0] + g[1]) < threshold
    if l >= 2:
        caps |= (g[0] + g[2]) < threshold
    return threshold, caps, caps | (logdet_capacity_batch(g[0], g[1], g[2], snr, l) < l * r_cw)


def block_rng(seed, block):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


def unscreened_count(snr, rbar, l, seed, block, size, weights_sampler, scheme="successive"):
    """The block's count from a fresh draw, with the exact test run on every draw."""
    rng = block_rng(seed, block)
    dtype = np.float32 if scheme == "classic2" else np.float64
    g = rng.standard_exponential(size=(3, size), dtype=dtype)
    if weights_sampler is not None:
        g = g * weights_sampler(rng, size).astype(dtype)
    if scheme == "classic2":
        return int(np.count_nonzero(g.sum(axis=0) < (2.0 ** (2.0 * rbar) - 1.0) / snr))
    return int(np.count_nonzero(exact_outage(g, snr, l, (l + 1) * rbar / l)[2]))


def shadowed_weights(rng, size):
    # case III's pathloss on the three destination links, 8 dB shadowing
    geom = preset_geometry("III")
    d = np.array([[geom.d_sd], [geom.d_r1d], [geom.d_r2d]])
    return d ** -geom.gamma * 10.0 ** (rng.normal(0.0, 8.0, size=(3, size)) / 10.0)


class TestScreenedCount:
    @pytest.mark.parametrize(
        "geom,weights",
        [(None, None), (preset_geometry("III"), shadowed_weights)],
        ids=["unit", "geometry"],
    )
    @pytest.mark.parametrize("l", [1, 2, 3, 7, 8, 64])
    def test_matches_unscreened_count(self, l, geom, weights):
        # 20,000 draws span three cache-sized pieces, the last one partial
        for snr_db in (0.0, 10.0, 20.0, 30.0, 40.0):
            for rbar in (0.5, 1.0, 3.0):
                snr = 10.0 ** (snr_db / 10.0)
                args = (snr, rbar, l, 40 + l, 3, 20_000)
                got = _count_block("successive", *args, geom)
                assert got == unscreened_count(*args, weights), (snr_db, rbar)


    @pytest.mark.parametrize(
        "geom,weights",
        [(None, None), (preset_geometry("III"), shadowed_weights)],
        ids=["unit", "geometry"],
    )
    def test_two_workers_match_unscreened_blocks(self, monkeypatch, geom, weights):
        # four blocks, the last one partial, counted on a two-thread pool
        monkeypatch.setattr(outage, "BLOCK_SIZE", 1 << 14)
        sizes = [1 << 14] * 3 + [1000]
        for snr_db in (0.0, 20.0, 40.0):
            snr = 10.0 ** (snr_db / 10.0)
            got = outage._outage_events("successive", [(snr, 1.0, sum(sizes), 23)], 7, geom, 2)
            expected = sum(
                unscreened_count(snr, 1.0, 7, 23, block, size, weights)
                for block, size in enumerate(sizes)
            )
            assert got == [expected], snr_db

    @pytest.mark.parametrize("l", [1, 2, 7])
    def test_targets_on_drawn_log_dets(self, l):
        # a draw whose log-det equals l * r_cw exactly is not in outage by it
        n, seed = 20_000, 61
        g = block_rng(seed, 0).standard_exponential(size=(3, n))
        boundary = 0
        for snr in (1.0, 100.0):
            logdet = logdet_capacity_batch(*g, snr, l)
            for i in np.argsort(logdet)[:40]:
                # per-slot targets next to bits / (l + 1), rounded as the count does
                bits = logdet[i]
                for rbar in rbars_near(bits / (l + 1)):
                    if l * ((l + 1) * rbar / l) == bits:
                        break
                else:
                    continue
                got = _count_block("successive", snr, rbar, l, seed, 0, n, None)
                assert got == unscreened_count(snr, rbar, l, seed, 0, n, None), (snr, i)
                _, caps, _ = exact_outage(g[:, i : i + 1], snr, l, (l + 1) * rbar / l)
                boundary += not caps[0]
        # some targets sit on a draw that only `<` leaves out of the count
        assert boundary >= 3

    def test_exact_test_runs_on_candidates_unless_most_are(self, monkeypatch):
        sizes = []
        kernel = outage.logdet_capacity_batch

        def recording(g_sd, *args):
            sizes.append(len(g_sd))
            return kernel(g_sd, *args)

        monkeypatch.setattr(outage, "logdet_capacity_batch", recording)
        l, r_cw, n = 7, 8 / 7, 20_000
        g = block_rng(5, 0).standard_exponential(size=(3, n))
        for snr_db, most in ((0.0, True), (20.0, False)):
            snr = 10.0 ** (snr_db / 10.0)
            threshold = (2.0**r_cw - 1.0) / snr
            cand = outage._candidates(g, l, threshold, outage._screen_limits(snr, l, r_cw))
            kept = np.count_nonzero(cand)
            assert (2 * kept > n) == most
            sizes.clear()
            _count_block("successive", snr, 1.0, l, 5, 0, n, None)
            assert sizes == [n if most else kept], snr_db


def rbars_near(x, ulps=8):
    """x and its nearest floats, up to ``ulps`` steps either way."""
    yield x
    up = down = x
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        yield up
        yield down


def check_screen(g, snr, l, r_cw):
    """The candidate mask holds every exact event, and its cap part is the caps."""
    threshold, caps, events = exact_outage(g, snr, l, r_cw)
    cand = outage._candidates(g, l, threshold, outage._screen_limits(snr, l, r_cw))
    cap = outage._caps_fail(g, l, threshold)
    missed = np.flatnonzero(events & ~cand)
    assert not missed.size, (snr, l, r_cw, g[:, missed[:3]].T.tolist())
    assert np.array_equal(cap, caps)


def own_logdet_targets(g, snr, l):
    """Per-draw r_cw values at and next to each draw's own log-det."""
    logdet = logdet_capacity_batch(g[0], g[1], g[2], snr, l)
    for bits in logdet:
        for target in (bits - 1e-12, bits, np.nextafter(bits, np.inf), bits + 1e-12):
            if target > 0.0:
                yield target / l


screen_gain = st.one_of(st.just(0.0), st.floats(-12.0, 12.0).map(lambda e: 10.0**e))
screen_gains = st.lists(st.tuples(*[screen_gain] * 3), min_size=1, max_size=8).map(
    lambda draws: np.array(draws, dtype=float).T
)
screen_lengths = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 64])
screen_snrs = st.floats(0.0, 60.0).map(lambda db: 10.0 ** (db / 10.0))


class TestCandidateScreen:
    """`_candidates` keeps a superset of the exact outage events, and few others.

    Gains are log-uniform in [1e-12, 1e12] or exactly zero, at 0-60 dB and
    l = 1..8 and 64; targets are (l+1) rbar bits and each draw's own log-det.
    """

    @settings(deadline=None)
    @given(g=screen_gains, snr=screen_snrs, l=screen_lengths)
    def test_superset_of_events(self, g, snr, l):
        for rbar in (0.5, 1.0, 4.0):
            check_screen(g, snr, l, (l + 1) * rbar / l)
        for r_cw in own_logdet_targets(g, snr, l):
            check_screen(g, snr, l, r_cw)

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6, 7, 8, 64])
    def test_superset_on_grid(self, l):
        levels = np.concatenate([[0.0], 10.0 ** np.arange(-12.0, 13.0, 2.0)])
        g = np.array(np.meshgrid(levels, levels, levels)).reshape(3, -1)
        for snr_db in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0):
            snr = 10.0 ** (snr_db / 10.0)
            for rbar in (0.5, 1.0, 4.0):
                check_screen(g, snr, l, (l + 1) * rbar / l)
            few = g[:, :: 37]
            for r_cw in own_logdet_targets(few, snr, l):
                check_screen(few, snr, l, r_cw)

    @pytest.mark.parametrize("l", [1, 2, 7, 64])
    @pytest.mark.parametrize("r_cw", [20.3125, 500.0, 1000.0, 1023.99, 1024.0, 5000.0])
    def test_huge_targets_without_warnings(self, l, r_cw):
        levels = np.concatenate([[0.0], 10.0 ** np.arange(-12.0, 13.0, 3.0)])
        g = np.array(np.meshgrid(levels, levels, levels)).reshape(3, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for snr in (1.0, 1e6):
                check_screen(g, snr, l, r_cw)

    def test_keeps_few_draws_at_high_snr(self):
        # l = 7, 1 bit/slot, 20 dB: the caps fail with probability (1 - e^-t)^2
        # and both relay gains fall below their limits with probability
        # (1 - e^-lim1)(1 - e^-lim2), lim1 = 3 / snr and lim2 = (2^(8/3) - 1) / snr
        l, snr, n = 7, 100.0, 1_000_000
        g = np.random.default_rng(31).standard_exponential((3, n))
        t = (2.0 ** (8 / 7) - 1.0) / snr
        lims = np.array([2.0 ** (8 / 4) - 1.0, 2.0 ** (8 / 3) - 1.0]) / snr
        p_caps, p_lims = np.expm1(-t) ** 2, np.prod(-np.expm1(-lims))
        cand = outage._candidates(g, l, t, outage._screen_limits(snr, l, 8 / 7))
        cap = outage._caps_fail(g, l, t)
        sigma = np.sqrt((p_caps + p_lims) / n)
        assert p_lims - 5 * sigma < np.mean(cand) < p_caps + p_lims + 5 * sigma
        assert np.mean(cap) == pytest.approx(p_caps, abs=5 * np.sqrt(p_caps / n))


class TestHugeTargets:
    """A threshold past float range is certain outage, counted without warnings."""

    @pytest.mark.parametrize(
        "scheme,l,rbar",
        [("classic2", 2, 1000.0), ("classic2", 7, 100.0), ("successive", 7, 1200.0)],
    )
    def test_certain_outage(self, scheme, l, rbar):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outage_prob_conditioned(1e3, rbar, l, 1000, 0, scheme=scheme) == 1.0

    def test_log_det_target_past_float_range(self):
        # l * r_cw = 1300 bits: 2^1300 overflows, the per-stream 2^20.3 does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _count_block("successive", 1e6, 20.0, 64, 7, 0, 20_000, None)
        assert got == unscreened_count(1e6, 20.0, 64, 7, 0, 20_000, None)
        assert 0 < got < 20_000


def recording_pools(monkeypatch):
    """Swap in a stand-in pool that records its size and tasks and maps serially."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers, self.tasks = max_workers, []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            self.tasks = list(items)
            return map(fn, self.tasks)

    monkeypatch.setattr(outage, "ThreadPoolExecutor", RecordingPool)
    return pools


# one-block, four-block (last partial) and six-block points at 1 << 14 per block
GRID_DB = [20.0, 30.0, 40.0]
GRID_TRIALS = [1 << 14, 3 * (1 << 14) + 5, 6 * (1 << 14)]


class TestGridPool:
    """`estimate_dmt` counts the blocks of all its grid points on one pool."""

    @pytest.mark.parametrize("scheme", ["successive", "classic2"])
    def test_grid_counts_match_per_point_counts(self, monkeypatch, scheme):
        # r = 0.5 keeps events at every point: ~1e-2 at 20 dB, ~4e-4 at 40 dB
        monkeypatch.setattr(outage, "BLOCK_SIZE", 1 << 14)
        args = (0.5, 7, GRID_DB, GRID_TRIALS, 17)
        points = {w: estimate_dmt(*args, scheme=scheme, workers=w) for w in (1, 2, 3)}
        assert points[1] == points[2] == points[3]
        dmt = points[2]
        assert all(count > 0 for count in dmt.events)
        for i, (rbar, trials) in enumerate(zip(dmt.target_rates_per_slot, GRID_TRIALS)):
            snr = 10.0 ** (GRID_DB[i] / 10.0)
            p = outage_prob_conditioned(snr, rbar, 7, trials, 17 + i, scheme=scheme)
            assert dmt.outage_prob[i] == p
            assert dmt.events[i] == round(p * trials)

    def test_one_pool_per_call_largest_blocks_first(self, monkeypatch):
        pools = recording_pools(monkeypatch)
        monkeypatch.setattr(outage, "BLOCK_SIZE", 1 << 14)
        for workers in (1, 2, 3, 10**6):
            estimate_dmt(0.5, 7, GRID_DB, GRID_TRIALS, 17, workers=workers)
        # 1 + 4 + 6 blocks; one worker runs them inline
        assert [p.max_workers for p in pools] == [2, 3, 11]
        for pool in pools:
            sizes = [size for size, _, _ in pool.tasks]
            assert len(sizes) == 11 and sizes == sorted(sizes, reverse=True)
            assert sizes[-1] == 5

    @pytest.mark.parametrize(
        "scheme,geom,weights",
        [
            ("successive", None, None),
            ("classic2", None, None),
            ("successive", preset_geometry("III"), shadowed_weights),
            ("classic2", preset_geometry("III"), shadowed_weights),
        ],
        ids=["successive", "classic2", "successive-geometry", "classic2-geometry"],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_reused_buffers_match_fresh_draws(self, monkeypatch, scheme, geom, weights, workers):
        # each worker's buffer serves full and partial blocks of several points
        monkeypatch.setattr(outage, "BLOCK_SIZE", 1 << 14)
        points = [
            (1.0, 1.0, 3 * (1 << 14) + 1000, 23),
            (100.0, 1.0, 1000, 24),
            (1e4, 6.0, 2 * (1 << 14) + 1, 25),
            (10.0, 1.0, 5, 26),
        ]
        got = outage._outage_events(scheme, points, 7, geom, workers)
        expected = []
        for snr, rbar, trials, seed in points:
            sizes = [min(1 << 14, trials - start) for start in range(0, trials, 1 << 14)]
            expected.append(
                sum(
                    unscreened_count(snr, rbar, 7, seed, block, size, weights, scheme)
                    for block, size in enumerate(sizes)
                )
            )
        assert got == expected
        assert 0 < sum(expected) < sum(p[2] for p in points)

    def test_invalid_point_rejected_before_any_draw(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(outage, "trial_rng", lambda *key: drawn.append(key))
        good = (100.0, 1.0, 1000, 1)
        for bad in ((0.0, 1.0, 1000, 2), (100.0, -1.0, 1000, 2), (100.0, 1.0, 0, 2)):
            with pytest.raises(ValueError):
                outage._outage_events("successive", [good, bad], 7, None, 2)
        assert drawn == []


class TestOutageProb:
    def test_zero_target_never_in_outage(self):
        assert outage_prob_conditioned(10.0, 0.0, 7, 1000, 0) == 0.0

    def test_vanishing_snr_always_in_outage(self):
        p = outage_prob_conditioned(1e-9, 1.0, 7, 2000, 0)
        assert p == 1.0

    @pytest.mark.parametrize(
        "snr_db,rbar", [(0.0, 1.0), (10.0, 1.0), (10.0, 2.0)]
    )
    def test_miso_oracle_agreement(self, snr_db, rbar):
        snr = 10.0 ** (snr_db / 10.0)
        trials = 100_000
        p = outage_prob_conditioned(snr, rbar, 1, trials, 77)
        expected = miso_outage_oracle(snr, rbar)
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(p - expected) < 3 * sigma

    @pytest.mark.parametrize("snr_db", [10.0, 20.0])
    @pytest.mark.parametrize("l", [2, 3, 7, 8])
    def test_cap_oracle_beyond_one_codeword(self, l, snr_db):
        # {g0 + g1 < t} | {g0 + g2 < t} = {g0 + min(g1, g2) < t} with
        # min(g1, g2) ~ Exp(2), so the caps alone fail with probability
        # (1 - e^-t)^2.  Draws in outage by the log-det alone add <= 6e-5 at
        # 10 dB (under 0.6 sigma here) and none were seen at 20 dB
        snr = 10.0 ** (snr_db / 10.0)
        trials = 2_000_000
        t = (2.0 ** ((l + 1) / l) - 1.0) / snr
        expected = np.expm1(-t) ** 2
        p = outage_prob_conditioned(snr, 1.0, l, trials, 79)
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(p - expected) < 5 * sigma

    def test_classic_comparator_gamma3_oracle(self):
        # conditioned classic II outage is Gamma(3, 1) < (2^{2 rbar} - 1)/snr
        snr, rbar, trials = 10.0, 1.0, 1_000_000
        p = outage_prob_conditioned(snr, rbar, 7, trials, 78, scheme="classic2")
        x = (2.0 ** (2.0 * rbar) - 1.0) / snr
        expected = float(stats.gamma.cdf(x, a=3))
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(p - expected) < 3 * sigma

    def test_monotone_in_snr(self):
        probs = [
            outage_prob_conditioned(10.0 ** (db / 10.0), 1.0, 4, 200_000, 5)
            for db in (0.0, 5.0, 10.0, 15.0)
        ]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_monotone_in_target_rate(self):
        probs = [
            outage_prob_conditioned(10.0, rbar, 4, 200_000, 6)
            for rbar in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a <= b for a, b in zip(probs, probs[1:]))

    def test_worker_count_invariance(self, monkeypatch):
        monkeypatch.setattr(outage, "BLOCK_SIZE", 1 << 14)
        kwargs = dict(scheme="successive")
        p1 = outage_prob_conditioned(3.0, 1.0, 3, 300_000, 9, workers=1, **kwargs)
        p3 = outage_prob_conditioned(3.0, 1.0, 3, 300_000, 9, workers=3, **kwargs)
        assert p1 == p3

    def test_pool_sized_to_the_blocks(self, monkeypatch):
        pools = recording_pools(monkeypatch)
        monkeypatch.setattr(outage, "BLOCK_SIZE", 1 << 14)

        def count(trials, workers):
            return outage._outage_events("successive", [(3.0, 1.0, trials, 9)], 3, None, workers)

        single = {tuple(count(1 << 14, w)) for w in (1, 2, 10**6)}
        assert len(single) == 1 and pools == []
        four = {tuple(count(3 * (1 << 14) + 5, w)) for w in (1, 2, 3, 10**6)}
        assert len(four) == 1 and [p.max_workers for p in pools] == [2, 3, 4]

    @pytest.mark.parametrize("scheme", ["successive", "classic2"])
    def test_counts_identical_for_one_to_three_workers(self, monkeypatch, scheme):
        monkeypatch.setattr(outage, "BLOCK_SIZE", 1 << 14)
        counts = {
            tuple(outage._outage_events(scheme, [(3.0, 1.0, 5 * (1 << 14) + 7, 10)], 3, None, w))
            for w in (1, 2, 3)
        }
        assert len(counts) == 1

    def test_geometry_weighted_variant(self):
        geom = preset_geometry("III")
        p_weighted = outage_prob_conditioned(10.0, 1.0, 7, 200_000, 11, geom=geom)
        p_unit = outage_prob_conditioned(10.0, 1.0, 7, 200_000, 11)
        # case III relay-destination links are ~16x stronger on average
        assert p_weighted < p_unit

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            outage_prob_conditioned(0.0, 1.0, 7, 100, 0)
        with pytest.raises(ValueError):
            outage_prob_conditioned(1.0, 1.0, 0, 100, 0)
        with pytest.raises(ValueError):
            outage_prob_conditioned(1.0, 1.0, 7, 0, 0)
        with pytest.raises(ValueError):
            outage_prob_conditioned(1.0, 1.0, 7, 100, 0, scheme="alamouti")
        for l in (2.5, 7.0, True):
            with pytest.raises(ValueError):
                outage_prob_conditioned(1e4, 1.0, l, 100, 1)

    def test_numpy_integer_l_accepted(self):
        p = outage_prob_conditioned(10.0, 1.0, np.int64(3), 20_000, 9)
        assert p == outage_prob_conditioned(10.0, 1.0, 3, 20_000, 9)


class TestEstimateDmt:
    def test_grid_preconditions(self):
        with pytest.raises(ValueError):
            estimate_dmt(0.0, 7, [20.0, 30.0], 1000, 0)  # too few points
        with pytest.raises(ValueError):
            estimate_dmt(0.0, 7, [10.0, 20.0, 30.0], 1000, 0)  # below 20 dB
        with pytest.raises(ValueError):
            estimate_dmt(0.0, 7, [20.0, 25.0, 35.0], 1000, 0)  # span < 20 dB
        with pytest.raises(ValueError):
            estimate_dmt(0.0, 7, [20.0, 40.0, 30.0], 1000, 0)  # not increasing
        with pytest.raises(ValueError):
            estimate_dmt(0.0, 7, [20.0, 30.0, 40.0], [1000, 1000], 0)  # count mismatch

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(scheme="alamouti"),
            dict(l=0),
            dict(l=2.5),
            dict(l=7.0),
            dict(l=True),
            dict(r=-0.5),
            dict(r=float("nan")),
            dict(r=1e308),
            dict(fixed_rate_bits=-1.0),
        ],
        ids=[
            "scheme",
            "l",
            "fractional_l",
            "float_l",
            "bool_l",
            "negative_r",
            "nan_r",
            "overflowing_r",
            "negative_fixed_rate",
        ],
    )
    def test_invalid_arguments(self, kwargs):
        args = dict(r=0.0, l=7, snr_grid_db=[20.0, 30.0, 40.0], trials_per_point=100, seed=0)
        with pytest.raises(ValueError):
            estimate_dmt(**{**args, **kwargs})

    def test_low_event_points_flagged_and_excluded(self):
        point = estimate_dmt(0.0, 1, [20.0, 30.0, 40.0], [300_000, 20_000_000, 1000], 13)
        assert point.low_event_flags[-1]
        assert not point.low_event_flags[0] and not point.low_event_flags[1]
        # slope from the two usable points: the MISO pair decays with
        # diversity 2
        assert point.diversity_estimate == pytest.approx(2.0, abs=0.3)

    def test_all_points_unusable_gives_nan(self):
        point = estimate_dmt(0.0, 7, [20.0, 30.0, 40.0], 50, 14)
        assert all(point.low_event_flags)
        assert np.isnan(point.diversity_estimate)
        assert np.isnan(point.diversity_lstsq)

    def test_positive_multiplexing_gain_slope(self):
        # at r = 0.5 with l = 7 the formula gives 6/7; events are plentiful
        # at every grid point so all three enter the least-squares fit
        point = estimate_dmt(0.5, 7, [20.0, 30.0, 40.0], 1_000_000, 15)
        assert not any(point.low_event_flags)
        assert point.diversity_estimate == pytest.approx(dmt_formula(0.5, 7), abs=0.3)
        assert point.target_rates_per_slot[0] == pytest.approx(0.5 * np.log2(100.0))

    def test_slope_dominance_over_single_codeword_frame(self):
        # longer frames never fall below the l=1 diversity (minus noise)
        kwargs = dict(seed=16)
        d1 = estimate_dmt(0.0, 1, [20.0, 30.0, 40.0], [1_000_000, 30_000_000, 1000], **kwargs)
        d2 = estimate_dmt(0.0, 2, [20.0, 30.0, 40.0], [1_000_000, 30_000_000, 1000], **kwargs)
        assert d2.diversity_estimate >= d1.diversity_estimate - 0.25

    def test_point_invariants(self):
        with pytest.raises(ValueError):
            DmtPoint(
                multiplexing_r=0.0,
                snr_grid_db=(20.0,),
                outage_prob=(1.5,),
                diversity_estimate=2.0,
                diversity_lstsq=2.0,
                events=(10,),
                trials=(100,),
                low_event_flags=(False,),
                target_rates_per_slot=(1.0,),
                scheme="successive",
            )
