import warnings

import numpy as np
import pytest
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


def unscreened_count(snr, rbar, l, seed, block, size, weights_sampler):
    """The successive block's count with the exact kernel run on every draw."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
    g = rng.standard_exponential(size=(3, size))
    if weights_sampler is not None:
        g = g * weights_sampler(rng, size)
    r_cw = (l + 1) * rbar / l
    threshold = (2.0**r_cw - 1.0) / snr
    fail = (g[0] + g[1]) < threshold
    if l >= 2:
        fail |= (g[0] + g[2]) < threshold
    fail |= logdet_capacity_batch(g[0], g[1], g[2], snr, l) < l * r_cw
    return int(np.count_nonzero(fail))


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
        for snr_db in (0.0, 10.0, 20.0, 30.0):
            for rbar in (0.5, 1.0, 3.0):
                snr = 10.0 ** (snr_db / 10.0)
                args = (snr, rbar, l, 40 + l, 3, 20_000)
                got = _count_block("successive", *args, geom)
                assert got == unscreened_count(*args, weights), (snr_db, rbar)


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
            dict(r=-0.5),
            dict(r=float("nan")),
            dict(fixed_rate_bits=-1.0),
        ],
        ids=["scheme", "l", "negative_r", "nan_r", "negative_fixed_rate"],
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
