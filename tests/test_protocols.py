import numpy as np
import pytest

from dense_oracle import expected_growing_codewords
from succrelay.channel import (
    NetworkGeometry,
    link_gains,
    preset_geometry,
    sample_realizations,
    trial_rng,
)
from succrelay.experiments import PROTOCOLS
from succrelay import protocols
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
    geom = preset_geometry(case)
    return link_gains(geom, sample_realizations(geom, np.random.default_rng(seed), n))


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
        g = link_gains(geom, sample_realizations(geom, np.random.default_rng(123), 200_000))
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


@pytest.mark.parametrize("l", [1, 2, 3, 7, 8, 9, 16, 64])
@pytest.mark.parametrize("snr", [1.0, 100.0, 1e5])
@pytest.mark.parametrize("case", ["I", "II", "III"])
def test_draw_gives_the_same_bits_alone_or_in_a_batch(case, snr, l):
    # numpy sums a contiguous row pairwise but a strided one in sequence, so
    # a frame's caps laid out along a strided axis change its total's last
    # bits at l >= 8 in a batch; golden.json's 1e-12 tolerance misses that
    g = random_gains(20 + l, 40, case)
    for name, (_, kernel) in PROTOCOLS.items():
        batch = kernel(g, snr, l)
        for t in range(g.shape[1]):
            alone = kernel(g[:, t : t + 1], snr, l)
            for out, one in zip(batch, alone, strict=True):
                if out is not None:
                    assert out[t].tobytes() == one[0].tobytes(), (name, t)


def codeword_grows(g: np.ndarray, l: int) -> np.ndarray:
    """(l, n): True where a codeword's cap grows without bound with snr.

    With s_p = (g_r1r2 > g_next of parity p), g_next = g[[2, 1]][p], a
    codeword of parity p has a decode-first interference cap that saturates
    when s_p (but the last has none) and a source cap that saturates when
    not s_(1-p) (but codeword 0's always grows).  So codeword 0 grows iff
    not s_0; a middle codeword of parity p iff s_(1-p) and not s_p; the
    last iff s_(1-p); at l = 1 the one codeword always grows.
    """
    if l == 1:
        return np.ones((1, g.shape[1]), dtype=bool)
    s = g[3] > g[[2, 1]]
    p = np.arange(l) % 2
    grows = s[1 - p] & ~s[p]
    grows[0] = ~s[0]
    grows[-1] = s[1 - p[-1]]
    return grows


def growing_codewords(g: np.ndarray, l: int) -> np.ndarray:
    """Per draw, how many codeword caps grow without bound with snr."""
    return codeword_grows(g, l).sum(axis=0)


@pytest.mark.parametrize("l", [1, 2, 3, 7, 8, 16])
@pytest.mark.parametrize("case", ["I", "II", "III"])
@pytest.mark.parametrize("kernel", [successive_genie_batch, successive_vblast_batch])
def test_high_snr_slope_counts_growing_codewords(kernel, case, l):
    """From snr 1e12 to 1e16 each draw's rate rises by
    count * log2(1e4) / (l + 1) bits, count = `growing_codewords` >= 1.

    The destination caps grow at slope 1 in log2 snr and the log-det at
    slope l >= count, so the growing codewords set the slope.  The 1e-5-bit
    tolerance is four times the largest gap measured on these 5,000 draws
    per case: 2.4e-6 bits, for both kernels at geometry I and l = 16.
    """
    geom = preset_geometry(case)
    g = link_gains(geom, sample_realizations(geom, trial_rng(5, 0), 5000))
    count = growing_codewords(g, l)
    rise = kernel(g, 1e16, l)[0] - kernel(g, 1e12, l)[0]
    assert count.min() >= 1
    assert np.abs(rise - count * np.log2(1e4) / (l + 1)).max() <= 1e-5


@pytest.mark.parametrize("l", [2, 3, 7, 16])
@pytest.mark.parametrize("case", ["I", "II", "III"])
@pytest.mark.parametrize("kernel", [successive_genie_batch, successive_vblast_batch])
def test_saturated_caps_equal_their_ceilings(kernel, case, l):
    """At snr 1e16 each codeword that `codeword_grows` counts as bounded has
    the smaller of its ceilings as its cap: log2(1 + g_r1r2/g_next[p]) when
    s_p and it is not the last codeword, log2(1 + g_next[1-p]/g_r1r2) when
    not s_(1-p) and it is not codeword 0.

    Each saturating cap is log2(1 + c / (1 + 1/(g snr))) for its ceiling
    log2(1 + c) and denominator gain g (g_next[p] or g_r1r2), which lies
    within 1/(g snr) nats of the ceiling.  The tolerance is that gap at the
    smaller of the two gains, plus 8 ulps of the ceiling for rounding: four
    times the largest excess over the gap, 2 ulps, on these 5,000 draws per
    case.  The largest relative gap itself was 1.5e-11, at geometry I.
    """
    snr = 1e16
    geom = preset_geometry(case)
    g = link_gains(geom, sample_realizations(geom, trial_rng(5, 0), 5000))
    g_next, gr1r2 = g[[2, 1]], g[3]
    s, p = gr1r2 > g_next, np.arange(l) % 2
    interference = np.where(s[p], np.log2(1.0 + gr1r2 / g_next[p]), np.inf)
    source = np.where(~s[1 - p], np.log2(1.0 + g_next[1 - p] / gr1r2), np.inf)
    interference[-1] = source[0] = np.inf
    bounded = ~codeword_grows(g, l)
    ceiling = np.minimum(interference, source)[bounded]
    assert np.isfinite(ceiling).all()  # a bounded codeword has a ceiling
    gap = 1.0 / (np.minimum(g_next[p], gr1r2)[bounded] * snr * LN2) + 8 * np.spacing(ceiling)
    cap = kernel(g, snr, l)[1].T[bounded]
    assert np.all(np.abs(cap - ceiling) <= gap)


@pytest.mark.parametrize("l", [1, 2, 3, 7, 8, 16])
def test_mean_growing_codewords_matches_the_closed_form(l):
    """On unshadowed gains the mean of `growing_codewords` over 400,000
    draws lies within 4 standard errors of `expected_growing_codewords`:
    a false failure has probability ~6e-5 per l.  The distances are distinct,
    so no two gain means tie.  At l <= 2 every draw counts 1 and the
    standard error is 0: the means must agree to rounding.
    """
    geom = NetworkGeometry(1.0, 0.6, 0.8, 0.7, 0.5, 0.9, shadow_sigma_db=0.0)
    mu = geom.link_distances() ** -geom.gamma
    g = link_gains(geom, sample_realizations(geom, trial_rng(1, 0), 400_000))
    count = growing_codewords(g, l)
    want = expected_growing_codewords(l, mu[1], mu[2], mu[3])
    sem = count.std(ddof=1) / np.sqrt(count.size)
    assert abs(count.mean() - want) <= 4.0 * sem + 1e-12, (count.mean(), want, sem)


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
        g = capacity_gain_G(*exp_gains(0, 40_000), [1e-6], [l])[0][0]
        assert g == pytest.approx(4 * l / (3 * (l + 1)), rel=0.02)

    def test_deterministic_in_seed(self):
        first = capacity_gain_G(*exp_gains(4, 5000), [10.0], [3])
        assert first.tolist() == capacity_gain_G(*exp_gains(4, 5000), [10.0], [3]).tolist()

    def test_snr_array_reuses_the_draws(self):
        snrs = np.array([1.0, 10.0, 1e4])
        g = exp_gains(6, 20_000)
        got = capacity_gain_G(*g, snrs, [3])[0]
        want = [capacity_gain_G(*g, [s], [3])[0][0] for s in snrs]
        assert isinstance(got, np.ndarray) and got.tolist() == want

    def test_invalid_arguments(self):
        g = exp_gains(0, 100)
        with pytest.raises(ValueError):
            capacity_gain_G(*g, [0.0], [7])
        with pytest.raises(ValueError):
            capacity_gain_G(*g, np.array([1.0, 0.0]), [7])
        with pytest.raises(ValueError, match="at least one draw"):
            capacity_gain_G(*exp_gains(0, 0), [1.0], [7])
        # a bad frame length is named before the draws are read: an empty
        # draw would otherwise raise first
        for ls in ([], (), 7, [0], [3, 0], [True], [3, False], [2.5], [[3, 7]], "37"):
            with pytest.raises(ValueError, match="frame length"):
                capacity_gain_G(*exp_gains(0, 0), [1.0], ls)

    @pytest.mark.parametrize(
        "snrs,match",
        [
            (1.0, "1-D"),
            ([[1.0, 10.0]], "1-D"),
            ([1.0, -1.0], "> 0"),
            ([1.0, np.inf], "finite"),
            ([np.nan], "finite"),
            ([], "nonempty"),
            ([10**400], "finite"),
        ],
    )
    def test_snrs_errors_are_named(self, snrs, match):
        with pytest.raises(ValueError, match=match):
            capacity_gain_G(*exp_gains(1, 10), snrs, [3])

    def test_log_det_runs_through_the_traced_name(self, monkeypatch):
        # bench/tracing.py books log-det time under protocols.logdet_capacity_batch:
        # every rate that needs the log-det must reach it through that name
        calls = []
        kernel = protocols.logdet_capacity_batch

        def recorder(g_sd, g_r1d, g_r2d, snr, l):
            calls.append((snr, l))
            return kernel(g_sd, g_r1d, g_r2d, snr, l)

        monkeypatch.setattr(protocols, "logdet_capacity_batch", recorder)
        capacity_gain_G(*exp_gains(2, 50), [1.0, 10.0, 100.0], [3, 7])
        assert calls == [(1.0, [3, 7]), (10.0, [3, 7]), (100.0, [3, 7])]
        g = random_gains(2, 50)
        for rate in (successive_genie_batch, theorem1_rate_batch):
            calls.clear()
            rate(g, 10.0, 7)
            assert calls == [(10.0, 7)], rate.__name__
