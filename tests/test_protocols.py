import numpy as np
import pytest

from succrelay.channel import preset_geometry, sample_realizations
from succrelay.experiments import PROTOCOLS
from succrelay.mimolinalg import DetectionOrder, InvariantError, mmse_sic_sinrs_batch
from succrelay.protocols import (
    _cap,
    adaptive_keep_batch,
    capacity_gain_G,
    check_jensen_bound,
    interference_free_batch,
    rate_classic_batch,
    rate_direct_batch,
    successive_genie_batch,
    successive_vblast_batch,
    theorem1_rate_batch,
)

LN2 = np.log(2.0)


def gains(gsd=1.0, gsr1=1.0, gsr2=1.0, gr1r2=1.0, gr1d=1.0, gr2d=1.0):
    """The (6, 1) gain array of one frame."""
    return np.array([[gsd], [gsr1], [gsr2], [gr1r2], [gr1d], [gr2d]], dtype=float)


def random_gains(seed, n, case="III"):
    return sample_realizations(preset_geometry(case), np.random.default_rng(seed), n).gains()


def classic1(g, snr):
    return rate_classic_batch(g, snr, 1.0 / 3.0)


def classic2(g, snr):
    return rate_classic_batch(g, snr, 0.5)


class TestCapacityFn:
    @pytest.mark.parametrize("x,expected", [(0.0, 0.0), (1.0, 1.0), (3.0, 2.0)])
    def test_values(self, x, expected):
        assert _cap(np.array([x]))[0] == pytest.approx(expected, abs=1e-15)


class TestDirect:
    def test_unit_gain(self):
        assert rate_direct_batch(gains(gsd=1.0), 1.0)[0] == pytest.approx(1.0)

    def test_dead_link(self):
        assert rate_direct_batch(gains(gsd=0.0), 5.0)[0] == 0.0

    def test_two_bits(self):
        rate, per_cw, branch = PROTOCOLS["direct"][1](gains(gsd=3.0), 1.0, 1)
        assert rate[0] == pytest.approx(2.0)
        assert per_cw[0].tolist() == [2.0] and branch is None


class TestClassics:
    def test_classic1_all_unit(self):
        assert classic1(gains(), 1.0)[0] == pytest.approx(1 / 3)

    def test_classic1_dead_source_relay(self):
        assert classic1(gains(gsr1=0.0), 1.0)[0] == 0.0

    def test_classic1_combining_bottleneck(self):
        assert classic1(gains(gsr1=1e3, gsr2=1e3), 1.0)[0] == pytest.approx(np.log2(4.0) / 3.0)

    def test_classic2_all_unit(self):
        assert classic2(gains(), 1.0)[0] == pytest.approx(0.5)

    def test_classic2_combining_bottleneck(self):
        assert classic2(gains(gsr1=1e3, gsr2=1e3), 1.0)[0] == pytest.approx(1.0)

    def test_classic2_dominates_classic1(self):
        g = random_gains(1, 500)
        for snr in (1.0, 100.0):
            assert np.all(classic2(g, snr) >= classic1(g, snr))


class TestSuccessiveGenie:
    def test_worked_example_strong_interference(self):
        # dead direct link, overwhelming inter-relay link, unit links
        # elsewhere: both codewords reach 1 bit, log-det also gives 2 bits
        rate, per_cw, branch, _, _ = successive_genie_batch(gains(gsd=0.0, gr1r2=1e9), 1.0, 2)
        assert per_cw[0].tolist() == [1.0, 1.0]
        assert branch[0].tolist() == [True]
        assert rate[0] == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_all_zero_links(self):
        assert successive_genie_batch(np.zeros((6, 1)), 10.0, 4)[0][0] == 0.0

    def test_bounded_by_logdet_share(self):
        g = random_gains(2, 400)
        for snr in (1.0, 100.0):
            rate, _, _, _, logdet = successive_genie_batch(g, snr, 7)
            assert np.all(rate <= logdet / 8 + 1e-12)

    def test_jensen_check_raises(self):
        logdet = np.array([2.0, 5.0])
        check_jensen_bound(logdet * (1.0 - 1e-12), logdet)
        for combining_sum in ([2.0, 4.9], [np.nan, 5.0]):
            with pytest.raises(InvariantError, match="log-det bound"):
                check_jensen_bound(np.array(combining_sum), logdet)

    def test_min_structure_never_increased_by_logdet(self):
        rate, _, _, sum_caps, _ = successive_genie_batch(random_gains(3, 400), 100.0, 7)
        assert np.all(rate <= sum_caps / 8 + 1e-12)

    def test_branch_consistency(self):
        g = random_gains(4, 300)
        l, snr = 7, 10.0
        _, _, branch, _, _ = successive_genie_batch(g, snr, l)
        gsr = (g[1], g[2])
        gint = g[3]
        for i0 in range(l - 1):
            expected = gint > gsr[(i0 + 1) % 2]
            assert np.array_equal(branch[:, i0], expected)

    def test_tie_goes_to_treat_as_noise(self):
        g = gains(gr1r2=1.0, gsr2=1.0)  # exact tie in slot 2
        assert successive_genie_batch(g, 1.0, 2)[2][0].tolist() == [False]

    def test_relay_alternation_in_destination_caps(self):
        # dead direct and R1-destination links zero out the odd codewords'
        # caps; even codewords ride on the strong R2 link
        g = gains(gsd=0.0, gr1d=0.0, gr2d=4.0, gsr1=1e3, gsr2=1e3, gr1r2=1e9)
        per_cw = successive_genie_batch(g, 1.0, 4)[1][0]
        assert per_cw[0] == 0.0
        assert per_cw[2] == 0.0
        assert per_cw[1] == pytest.approx(np.log2(5.0))
        assert per_cw[3] == pytest.approx(np.log2(5.0))

    def test_rates_finite_nonnegative(self):
        g = random_gains(5, 300)
        for snr in (0.0, 1e4):
            rate, per_cw, _, _, _ = successive_genie_batch(g, snr, 5)
            assert np.all(np.isfinite(rate)) and np.all(rate >= 0.0)
            assert np.all(per_cw >= 0.0)


class TestInterferenceFree:
    def test_huge_inter_relay_link(self):
        cancel_ok, _ = interference_free_batch(gains(gr1r2=1e12), 10.0, 7)
        assert cancel_ok[0]

    def test_source_condition_non_strict_boundary(self):
        g = gains(gsd=1.0, gr1d=1.0, gr2d=1.0, gsr1=2.0, gsr2=2.0)
        _, source_ok = interference_free_batch(g, 1.0, 4)
        assert source_ok[0]

    def test_source_condition_single_relay_frame(self):
        # only relay 1 carries codewords when l = 1
        g = gains(gsr1=5.0, gsr2=0.0, gsd=1.0, gr1d=1.0)
        _, source_ok = interference_free_batch(g, 1.0, 1)
        assert source_ok[0]
        _, source_ok2 = interference_free_batch(g, 1.0, 2)
        assert not source_ok2[0]

    def test_case3_like_frequency_regression(self):
        # measured on the pathloss-only case III model (inter-relay mean
        # gain 160,000) at 20 dB; recorded as a regression value
        from dataclasses import replace

        geom = replace(preset_geometry("III"), shadow_sigma_db=0.0)
        g = sample_realizations(geom, np.random.default_rng(123), 200_000).gains()
        cancel_ok, _ = interference_free_batch(g, 100.0, 7)
        assert cancel_ok.mean() > 0.90

    @pytest.mark.parametrize("l", range(2, 9))
    def test_flags_depend_on_frame_length_parity_alone(self, l):
        # slot i's conditions depend only on i mod 2, so l and l + 2 agree
        for case, snr in (("I", 1.0), ("II", 10.0), ("III", 100.0)):
            g = random_gains(l, 2000, case)
            flags = interference_free_batch(g, snr, l)
            assert 0 < flags[0].sum() < g.shape[1]
            for flag, flag_2 in zip(flags, interference_free_batch(g, snr, l + 2)):
                np.testing.assert_array_equal(flag, flag_2)


class TestTheorem1:
    def test_zero_snr(self):
        assert theorem1_rate_batch(gains(), 0.0, 3)[0] == 0.0

    def test_two_by_one_example(self):
        g = gains(gsd=1.0, gr1d=1.0)
        assert theorem1_rate_batch(g, 1.0, 1)[0] == pytest.approx(np.log2(3.0) / 2.0, rel=1e-12)

    def test_equals_genie_under_conditions(self):
        g = random_gains(6, 5000)
        snr, l = 100.0, 7
        cancel_ok, source_ok = interference_free_batch(g, snr, l)
        mask = cancel_ok & source_ok
        assert mask.sum() >= 300
        genie = successive_genie_batch(g, snr, l)[0]
        bound = theorem1_rate_batch(g, snr, l)
        rel = np.abs(genie[mask] - bound[mask]) / np.maximum(bound[mask], 1e-300)
        assert np.max(rel) < 1e-9


class TestSuccessiveVblast:
    def test_never_exceeds_genie(self):
        g = random_gains(7, 2000)
        for snr in (1.0, 100.0):
            genie = successive_genie_batch(g, snr, 7)[0]
            vblast = successive_vblast_batch(g, snr, 7)[0]
            assert np.all(vblast <= genie + 1e-9)

    def test_all_zero_links(self):
        assert successive_vblast_batch(np.zeros((6, 1)), 10.0, 3)[0][0] == 0.0

    def test_achieves_capacity_under_sic_conditions(self):
        # strong inter-relay and source-relay links in the SIC sense: each
        # per-stream rate binds at the SIC cap and the chain sums to the
        # log-det bound
        g = random_gains(8, 4000)
        snr, l = 100.0, 7
        _, sinrs = mmse_sic_sinrs_batch(g[0], g[4], g[5], snr, l, DetectionOrder.STRONGEST_FIRST)
        stream_caps = np.log1p(sinrs) / LN2
        gsr = (g[1], g[2])
        gint = g[3]
        ok = np.ones(g.shape[1], dtype=bool)
        for i0 in range(l):
            g_next = gsr[(i0 + 1) % 2]
            lhs = np.log1p(gint * snr / (1.0 + g_next * snr)) / LN2
            src = np.log1p(gsr[i0 % 2] * snr) / LN2
            ok &= lhs >= np.minimum(src, stream_caps[:, i0])
            ok &= src >= stream_caps[:, i0]
        assert ok.sum() >= 200
        vblast = successive_vblast_batch(g, snr, l)[0]
        bound = theorem1_rate_batch(g, snr, l)
        rel = np.abs(vblast[ok] - bound[ok]) / np.maximum(bound[ok], 1e-300)
        assert np.max(rel) < 1e-9

    def test_report_fields(self):
        _, per_cw, branch = successive_vblast_batch(random_gains(9, 1), 100.0, 4)
        assert per_cw.shape == (1, 4)
        assert branch.shape == (1, 3)


class TestSchemeOrdering:
    def test_full_ordering_on_random_draws(self):
        g = random_gains(10, 2000)
        snr, l = 100.0, 7
        c1 = classic1(g[:, ::100], snr)
        c2 = classic2(g[:, ::100], snr)
        assert np.all(c1 <= c2 + 1e-12)

        genie = successive_genie_batch(g, snr, l)[0]
        vblast = successive_vblast_batch(g, snr, l)[0]
        bound = theorem1_rate_batch(g, snr, l)
        cancel_ok, source_ok = interference_free_batch(g, snr, l)
        mask = cancel_ok & source_ok
        assert np.all(vblast <= genie + 1e-9)
        assert np.all(genie[mask] <= bound[mask] + 1e-9)
        assert np.all(np.abs(genie[mask] - bound[mask]) <= 1e-9 * bound[mask])


# name -> kernel(g, snr, l); direct and classic rates take no frame length
GAINS_KERNELS = {
    "direct": lambda g, snr, l: rate_direct_batch(g, snr),
    "classic": lambda g, snr, l: classic2(g, snr),
    "genie": successive_genie_batch,
    "vblast": successive_vblast_batch,
    "theorem1": theorem1_rate_batch,
    "flags": interference_free_batch,
}
BAD_ARGS = [(np.nan, 2), (np.inf, 2), (-1.0, 2), (1.0, True), (1.0, 2.5), (1.0, 0)]


@pytest.mark.parametrize(
    "kernel,snr,l",
    [
        pytest.param(kernel, snr, l, id=f"{name}-snr{snr}-l{l}")
        for name, kernel in GAINS_KERNELS.items()
        for snr, l in BAD_ARGS
        if name not in ("direct", "classic") or l == 2
    ],
)
def test_kernels_reject_bad_snr_or_frame_length(kernel, snr, l):
    # NaN fails no `snr < 0` test, and a bool is an int: each must still raise
    with pytest.raises(ValueError):
        kernel(random_gains(0, 4), snr, l)


class TestAdaptiveFallback:
    def test_rule_a_falls_back(self):
        g = gains(gsd=4.0, gsr1=1.0, gsr2=9.0)
        assert not adaptive_keep_batch(g, "a")[0]

    def test_rule_a_boundary_keeps_relaying(self):
        g = gains(gsd=1.0, gsr1=1.0, gsr2=1.0)
        assert adaptive_keep_batch(g, "a")[0]

    def test_rule_b_uses_combined_gains(self):
        g = gains(gsd=1.0, gr1d=1.0, gr2d=1.0, gsr1=2.0, gsr2=1.5)
        assert not adaptive_keep_batch(g, "b")[0]  # gsr2 < gsd + gr2d

    def test_unknown_rule_names_the_choices(self):
        with pytest.raises(ValueError, match=r"\('none', 'a', 'b', 'c'\)"):
            adaptive_keep_batch(gains(), "d")

    def test_rule_c_keeps_best_combining_rate(self):
        g = gains(gsd=1.0, gr1d=1.0, gr2d=1.0, gsr1=4.0, gsr2=4.0)
        assert adaptive_keep_batch(g, "c")[0]
        # with both source-relay links dominating, the combining term binds
        assert classic2(g, 2.0)[0] == pytest.approx(0.5 * np.log2(1 + 3.0 * 2.0))


def exp_gains(seed, n):
    """Three rows of n i.i.d. Exp(1) squared gains, as the gain curve draws them."""
    return np.random.default_rng(seed).standard_exponential((3, n))


class TestCapacityGain:
    def test_low_snr_limit(self):
        l = 7
        g = capacity_gain_G(*exp_gains(0, 40_000), [1e-6], l)[0]
        assert g == pytest.approx(4 * l / (3 * (l + 1)), rel=0.02)

    def test_deterministic_in_seed(self):
        first = capacity_gain_G(*exp_gains(4, 5000), [10.0], 3)
        assert first.tolist() == capacity_gain_G(*exp_gains(4, 5000), [10.0], 3).tolist()

    def test_snr_array_reuses_the_draws(self):
        snrs = np.array([1.0, 10.0, 1e4])
        g = exp_gains(6, 20_000)
        got = capacity_gain_G(*g, snrs, 3)
        want = [capacity_gain_G(*g, [s], 3)[0] for s in snrs]
        assert isinstance(got, np.ndarray) and got.tolist() == want

    def test_invalid_arguments(self):
        g = exp_gains(0, 100)
        with pytest.raises(ValueError):
            capacity_gain_G(*g, [0.0], 7)
        with pytest.raises(ValueError):
            capacity_gain_G(*g, np.array([1.0, 0.0]), 7)
        with pytest.raises(ValueError, match="at least one draw"):
            capacity_gain_G(*exp_gains(0, 0), [1.0], 7)

    @pytest.mark.parametrize(
        "snrs,match",
        [
            (1.0, "1-D"),
            ([[1.0, 10.0]], "1-D"),
            ([1.0, -1.0], "> 0"),
            ([1.0, np.inf], "finite"),
            ([np.nan], "finite"),
        ],
    )
    def test_snrs_errors_are_named(self, snrs, match):
        with pytest.raises(ValueError, match=match):
            capacity_gain_G(*exp_gains(1, 10), snrs, 3)
