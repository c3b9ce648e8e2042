import numpy as np
import pytest

from succrelay.channel import (
    ChannelBatch,
    ChannelRealization,
    preset_geometry,
    sample_realizations,
)
from succrelay.mimolinalg import (
    DetectionOrder,
    InvariantError,
    build_equivalent_channel,
    logdet_capacity,
    mmse_sic_sinrs_batch,
)
from succrelay.protocols import (
    AdaptiveRule,
    RateReport,
    Scheme,
    apply_adaptive_fallback,
    capacity_fn,
    capacity_gain_G,
    check_interference_free,
    check_jensen_bound,
    interference_free_batch,
    rate_classic1,
    rate_classic2,
    rate_direct,
    rate_successive_genie,
    rate_successive_vblast,
    rate_theorem1,
    successive_genie_batch,
    successive_vblast_batch,
    theorem1_rate_batch,
)

LN2 = np.log(2.0)


def real_from_gains(gsd=1.0, gsr1=1.0, gsr2=1.0, gr1r2=1.0, gr1d=1.0, gr2d=1.0):
    return ChannelRealization(
        *(np.sqrt(g) for g in (gsd, gsr1, gsr2, gr1r2, gr1d, gr2d))
    )


def random_batch(seed, n, case="III"):
    return sample_realizations(preset_geometry(case), np.random.default_rng(seed), n)


class TestCapacityFn:
    @pytest.mark.parametrize("x,expected", [(0.0, 0.0), (1.0, 1.0), (3.0, 2.0)])
    def test_values(self, x, expected):
        assert capacity_fn(x) == pytest.approx(expected, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            capacity_fn(-0.1)


class TestDirect:
    def test_unit_gain(self):
        assert rate_direct(real_from_gains(gsd=1.0), 1.0).rate_per_slot == pytest.approx(1.0)

    def test_dead_link(self):
        assert rate_direct(real_from_gains(gsd=0.0), 5.0).rate_per_slot == 0.0

    def test_two_bits(self):
        rep = rate_direct(real_from_gains(gsd=3.0), 1.0)
        assert rep.rate_per_slot == pytest.approx(2.0)
        assert rep.scheme is Scheme.DIRECT
        assert rep.per_codeword_rates == (2.0,)


class TestClassics:
    def test_classic1_all_unit(self):
        assert rate_classic1(real_from_gains(), 1.0).rate_per_slot == pytest.approx(1 / 3)

    def test_classic1_dead_source_relay(self):
        assert rate_classic1(real_from_gains(gsr1=0.0), 1.0).rate_per_slot == 0.0

    def test_classic1_combining_bottleneck(self):
        rep = rate_classic1(real_from_gains(gsr1=1e3, gsr2=1e3), 1.0)
        assert rep.rate_per_slot == pytest.approx(np.log2(4.0) / 3.0)

    def test_classic2_all_unit(self):
        assert rate_classic2(real_from_gains(), 1.0).rate_per_slot == pytest.approx(0.5)

    def test_classic2_combining_bottleneck(self):
        rep = rate_classic2(real_from_gains(gsr1=1e3, gsr2=1e3), 1.0)
        assert rep.rate_per_slot == pytest.approx(1.0)

    def test_classic2_dominates_classic1(self):
        batch = random_batch(1, 500)
        for snr in (1.0, 100.0):
            for i in range(0, 500, 50):
                real = batch.realization(i)
                assert (
                    rate_classic2(real, snr).rate_per_slot
                    >= rate_classic1(real, snr).rate_per_slot
                )


class TestSuccessiveGenie:
    def test_worked_example_strong_interference(self):
        # dead direct link, overwhelming inter-relay link, unit links
        # elsewhere: both codewords reach 1 bit, log-det also gives 2 bits
        real = real_from_gains(gsd=0.0, gr1r2=1e9)
        rep = rate_successive_genie(real, 1.0, 2)
        assert rep.per_codeword_rates == (1.0, 1.0)
        assert rep.decode_interference_first == (True,)
        assert rep.rate_per_slot == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_all_zero_links(self):
        real = ChannelRealization(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert rate_successive_genie(real, 10.0, 4).rate_per_slot == 0.0

    def test_bounded_by_logdet_share(self):
        batch = random_batch(2, 400)
        for snr in (1.0, 100.0):
            rate, _, _, _, logdet = successive_genie_batch(batch, snr, 7)
            assert np.all(rate <= logdet / 8 + 1e-12)

    def test_jensen_check_raises(self):
        logdet = np.array([2.0, 5.0])
        check_jensen_bound(logdet * (1.0 - 1e-12), logdet)
        for combining_sum in ([2.0, 4.9], [np.nan, 5.0]):
            with pytest.raises(InvariantError, match="log-det bound"):
                check_jensen_bound(np.array(combining_sum), logdet)

    def test_min_structure_never_increased_by_logdet(self):
        batch = random_batch(3, 400)
        rate, _, _, sum_caps, _ = successive_genie_batch(batch, 100.0, 7)
        assert np.all(rate <= sum_caps / 8 + 1e-12)

    def test_branch_consistency(self):
        batch = random_batch(4, 300)
        l, snr = 7, 10.0
        _, _, branch, _, _ = successive_genie_batch(batch, snr, l)
        gsr = (np.abs(batch.h_sr1) ** 2, np.abs(batch.h_sr2) ** 2)
        gint = np.abs(batch.h_r1r2) ** 2
        for i0 in range(l - 1):
            expected = gint > gsr[(i0 + 1) % 2]
            assert np.array_equal(branch[:, i0], expected)

    def test_tie_goes_to_treat_as_noise(self):
        real = real_from_gains(gr1r2=1.0, gsr2=1.0)  # exact tie in slot 2
        rep = rate_successive_genie(real, 1.0, 2)
        assert rep.decode_interference_first == (False,)

    def test_relay_alternation_in_destination_caps(self):
        # dead direct and R1-destination links zero out the odd codewords'
        # caps; even codewords ride on the strong R2 link
        real = real_from_gains(gsd=0.0, gr1d=0.0, gr2d=4.0, gsr1=1e3, gsr2=1e3, gr1r2=1e9)
        rep = rate_successive_genie(real, 1.0, 4)
        assert rep.per_codeword_rates[0] == 0.0
        assert rep.per_codeword_rates[2] == 0.0
        assert rep.per_codeword_rates[1] == pytest.approx(np.log2(5.0))
        assert rep.per_codeword_rates[3] == pytest.approx(np.log2(5.0))

    def test_rates_finite_nonnegative(self):
        batch = random_batch(5, 300)
        for snr in (0.0, 1e4):
            rate, per_cw, _, _, _ = successive_genie_batch(batch, snr, 5)
            assert np.all(np.isfinite(rate)) and np.all(rate >= 0.0)
            assert np.all(per_cw >= 0.0)


class TestInterferenceFree:
    def test_huge_inter_relay_link(self):
        real = real_from_gains(gr1r2=1e12)
        cancel_ok, _ = check_interference_free(real, 10.0, 7)
        assert cancel_ok

    def test_source_condition_non_strict_boundary(self):
        real = real_from_gains(gsd=1.0, gr1d=1.0, gr2d=1.0, gsr1=2.0, gsr2=2.0)
        _, source_ok = check_interference_free(real, 1.0, 4)
        assert source_ok

    def test_source_condition_single_relay_frame(self):
        # only relay 1 carries codewords when l = 1
        real = real_from_gains(gsr1=5.0, gsr2=0.0, gsd=1.0, gr1d=1.0)
        _, source_ok = check_interference_free(real, 1.0, 1)
        assert source_ok
        _, source_ok2 = check_interference_free(real, 1.0, 2)
        assert not source_ok2

    def test_case3_like_frequency_regression(self):
        # measured on the pathloss-only case III model (inter-relay mean
        # gain 160,000) at 20 dB; recorded as a regression value
        from dataclasses import replace

        geom = replace(preset_geometry("III"), shadow_sigma_db=0.0)
        batch = sample_realizations(geom, np.random.default_rng(123), 200_000)
        cancel_ok, _ = interference_free_batch(batch, 100.0, 7)
        assert cancel_ok.mean() > 0.90


class TestTheorem1:
    def test_zero_snr(self):
        assert rate_theorem1(real_from_gains(), 0.0, 3) == 0.0

    def test_two_by_one_example(self):
        real = real_from_gains(gsd=1.0, gr1d=1.0)
        assert rate_theorem1(real, 1.0, 1) == pytest.approx(np.log2(3.0) / 2.0, rel=1e-12)

    def test_equals_genie_under_conditions(self):
        batch = random_batch(6, 5000)
        snr, l = 100.0, 7
        cancel_ok, source_ok = interference_free_batch(batch, snr, l)
        mask = cancel_ok & source_ok
        assert mask.sum() >= 300
        genie = successive_genie_batch(batch, snr, l)[0]
        bound = theorem1_rate_batch(batch, snr, l)
        rel = np.abs(genie[mask] - bound[mask]) / np.maximum(bound[mask], 1e-300)
        assert np.max(rel) < 1e-9


class TestSuccessiveVblast:
    def test_never_exceeds_genie(self):
        batch = random_batch(7, 2000)
        for snr in (1.0, 100.0):
            genie = successive_genie_batch(batch, snr, 7)[0]
            vblast = successive_vblast_batch(batch, snr, 7)[0]
            assert np.all(vblast <= genie + 1e-9)

    def test_all_zero_links(self):
        real = ChannelRealization(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert rate_successive_vblast(real, 10.0, 3).rate_per_slot == 0.0

    def test_achieves_capacity_under_sic_conditions(self):
        # strong inter-relay and source-relay links in the SIC sense: each
        # per-stream rate binds at the SIC cap and the chain sums to the
        # log-det bound
        batch = random_batch(8, 4000)
        snr, l = 100.0, 7
        g = [np.abs(h) ** 2 for h in (batch.h_sd, batch.h_r1d, batch.h_r2d)]
        _, sinrs = mmse_sic_sinrs_batch(*g, snr, l, DetectionOrder.STRONGEST_FIRST)
        stream_caps = np.log1p(sinrs) / LN2
        gsr = (np.abs(batch.h_sr1) ** 2, np.abs(batch.h_sr2) ** 2)
        gint = np.abs(batch.h_r1r2) ** 2
        ok = np.ones(len(batch), dtype=bool)
        for i0 in range(l):
            g_next = gsr[(i0 + 1) % 2]
            lhs = np.log1p(gint * snr / (1.0 + g_next * snr)) / LN2
            src = np.log1p(gsr[i0 % 2] * snr) / LN2
            ok &= lhs >= np.minimum(src, stream_caps[:, i0])
            ok &= src >= stream_caps[:, i0]
        assert ok.sum() >= 200
        vblast = successive_vblast_batch(batch, snr, l)[0]
        bound = theorem1_rate_batch(batch, snr, l)
        rel = np.abs(vblast[ok] - bound[ok]) / np.maximum(bound[ok], 1e-300)
        assert np.max(rel) < 1e-9

    def test_report_fields(self):
        rep = rate_successive_vblast(random_batch(9, 1).realization(0), 100.0, 4)
        assert rep.scheme is Scheme.SUCCESSIVE_VBLAST
        assert len(rep.per_codeword_rates) == 4
        assert len(rep.decode_interference_first) == 3


class TestSchemeOrdering:
    def test_full_ordering_on_random_draws(self):
        batch = random_batch(10, 2000)
        snr, l = 100.0, 7
        c1 = np.array([rate_classic1(batch.realization(i), snr).rate_per_slot for i in range(0, 2000, 100)])
        c2 = np.array([rate_classic2(batch.realization(i), snr).rate_per_slot for i in range(0, 2000, 100)])
        assert np.all(c1 <= c2 + 1e-12)

        genie = successive_genie_batch(batch, snr, l)[0]
        vblast = successive_vblast_batch(batch, snr, l)[0]
        bound = theorem1_rate_batch(batch, snr, l)
        cancel_ok, source_ok = interference_free_batch(batch, snr, l)
        mask = cancel_ok & source_ok
        assert np.all(vblast <= genie + 1e-9)
        assert np.all(genie[mask] <= bound[mask] + 1e-9)
        assert np.all(np.abs(genie[mask] - bound[mask]) <= 1e-9 * bound[mask])


class TestAdaptiveFallback:
    def test_rule_a_falls_back(self):
        real = real_from_gains(gsd=4.0, gsr1=1.0, gsr2=9.0)
        rep = rate_successive_genie(real, 1.0, 3)
        adapted = apply_adaptive_fallback(rep, real, 1.0, AdaptiveRule.A)
        assert adapted.fallback_to_direct
        assert adapted.scheme is Scheme.SUCCESSIVE_GENIE
        assert adapted.rate_per_slot == rate_direct(real, 1.0).rate_per_slot

    def test_rule_a_boundary_keeps_relaying(self):
        real = real_from_gains(gsd=1.0, gsr1=1.0, gsr2=1.0)
        rep = rate_successive_genie(real, 1.0, 3)
        adapted = apply_adaptive_fallback(rep, real, 1.0, AdaptiveRule.A)
        assert not adapted.fallback_to_direct
        assert adapted == rep

    def test_rule_b_uses_combined_gains(self):
        real = real_from_gains(gsd=1.0, gr1d=1.0, gr2d=1.0, gsr1=2.0, gsr2=1.5)
        rep = rate_classic2(real, 1.0)
        adapted = apply_adaptive_fallback(rep, real, 1.0, AdaptiveRule.B)
        assert adapted.fallback_to_direct  # gsr2 < gsd + gr2d

    def test_rule_c_keeps_best_combining_rate(self):
        real = real_from_gains(gsd=1.0, gr1d=1.0, gr2d=1.0, gsr1=4.0, gsr2=4.0)
        rep = rate_classic2(real, 2.0)
        adapted = apply_adaptive_fallback(rep, real, 2.0, AdaptiveRule.C)
        assert not adapted.fallback_to_direct
        # with both source-relay links dominating, the combining term binds
        assert adapted.rate_per_slot == pytest.approx(0.5 * np.log2(1 + 3.0 * 2.0))

    def test_string_rule_accepted(self):
        real = real_from_gains()
        rep = rate_classic1(real, 1.0)
        assert apply_adaptive_fallback(rep, real, 1.0, "a") == rep


class TestCapacityGain:
    def test_low_snr_limit(self):
        l = 7
        g = capacity_gain_G(1e-6, l, 40_000, seed=0)
        assert g == pytest.approx(4 * l / (3 * (l + 1)), rel=0.02)

    def test_deterministic_in_seed(self):
        assert capacity_gain_G(10.0, 3, 5000, seed=4) == capacity_gain_G(10.0, 3, 5000, seed=4)

    def test_conditioned_variant_runs(self):
        g = capacity_gain_G(10.0, 3, 20_000, seed=5, conditioned=True)
        assert np.isfinite(g) and g > 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            capacity_gain_G(0.0, 7, 100, seed=0)
        with pytest.raises(ValueError):
            capacity_gain_G(1.0, 7, 0, seed=0)


def test_rate_report_validation():
    with pytest.raises(ValueError):
        RateReport(Scheme.DIRECT, -1.0, (0.0,))
    with pytest.raises(ValueError):
        RateReport(Scheme.DIRECT, 1.0, (-0.5,))
