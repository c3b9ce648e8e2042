import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dense_oracle import (
    bisected_staircase,
    dense_logdet_capacity_batch,
    exact_outage,
    full_cell_table,
    full_draw_count,
    table_candidate_gains,
    table_picks,
)
from succrelay import outage
from succrelay.channel import NetworkGeometry, link_gains, sample_realizations, trial_rng
from succrelay.mimolinalg import CHUNK, build_equivalent_channel_batch, logdet_capacity_batch
from succrelay.outage import (
    DmtPoint,
    estimate_dmt,
    outage_prob_conditioned,
    snr_from_db,
)
from succrelay.protocols import rate_classic_batch, successive_genie_batch


def miso_outage_oracle(snr: float, rbar: float) -> float:
    # l=1 reduces to a two-branch MISO outage: both the per-codeword cap and
    # the log-det bound collapse to |h0|^2 + |h1|^2 < (2^R - 1)/snr with the
    # per-codeword rate R = 2 rbar; the gain sum is Gamma(2, 1).  Its CDF
    # 1 - e^-x (1 + x), written so that nothing cancels at small x
    x = (2.0 ** (2.0 * rbar) - 1.0) / snr
    closed = -np.expm1(-x) - x * np.exp(-x)
    assert closed == pytest.approx(float(stats.gamma.cdf(x, a=2)), rel=1e-12, abs=1e-300)
    return closed


def formula(r, l, scheme="successive"):
    """The closed-form tradeoff that `estimate_dmt` reports with a small count."""
    return estimate_dmt(r, l, [20.0, 30.0, 40.0], 100, 0, scheme=scheme).dmt_formula


class TestFormula:
    def test_zero_multiplexing_full_diversity(self):
        assert formula(0.0, 7) == 2.0
        assert formula(0.0, 7, "classic2") == 3.0

    def test_zero_crossing(self):
        for l in (1, 3, 7):
            assert formula(l / (l + 1), l) == pytest.approx(0.0, abs=1e-15)
        assert formula(0.5, 7, "classic2") == 0.0

    def test_interior_point(self):
        assert formula(0.4375, 7) == pytest.approx(1.0, rel=1e-12)

    def test_numpy_integer_l_accepted(self):
        assert formula(0.4375, np.int64(7)) == pytest.approx(1.0, rel=1e-12)


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


def cells_of(g):
    """The id of the cell that each draw's (g1, g2) lies in."""
    i = np.searchsorted(outage._EDGES, g[1], side="right") - 1
    j = np.searchsorted(outage._EDGES, g[2], side="right") - 1
    return i * outage._MASS.size + j


def limits_of_cells(g, scheme, snr, l, r_cw, threshold):
    """The staircase value of the cell that each draw's (g1, g2) lies in."""
    cell = cells_of(g)
    return outage._staircase(scheme, snr, l, r_cw, threshold, outage._C1[cell], outage._C2[cell])


def check_screen(g, snr, l, r_cw, scheme="successive"):
    """Every exact event of (3, n) gains, by the oracle and by the scheme's row
    of `SCHEMES`, lies below its cell's staircase value; a target past float
    range needs no staircase, as every draw is an event."""
    threshold, caps, events = exact_outage(g, snr, l, r_cw)
    row_caps = g[0] + outage.SCHEMES[scheme][1](g[1], g[2], l) < threshold
    if scheme == "classic2":
        events = g.sum(axis=0) < threshold
    else:
        assert np.array_equal(row_caps, caps)
    events = events | row_caps
    if not threshold < np.finfo(float).max:
        assert events.all()
        return
    if events.any():
        tau = limits_of_cells(g[:, events], scheme, snr, l, r_cw, threshold)
        missed = np.flatnonzero(g[0, events] >= tau)
        assert not missed.size, (scheme, snr, l, r_cw, g[:, events][:, missed[:3]].T.tolist())


def rbars_near(x, ulps=8):
    """x and its nearest floats, up to ``ulps`` steps either way."""
    yield x
    up = down = x
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        yield up
        yield down


def own_logdet_targets(g, snr, l):
    """Per-draw r_cw values at and next to each draw's own log-det."""
    logdet = logdet_capacity_batch(g[0], g[1], g[2], snr, l)
    for bits in logdet:
        for target in (bits - 1e-12, bits, np.nextafter(bits, np.inf), bits + 1e-12):
            if target > 0.0:
                yield target / l


def sigmas_apart(a, n_a, b, n_b):
    """|a/n_a - b/n_b| in binomial standard errors of the pooled frequency."""
    p = (a + b) / (n_a + n_b)
    se = np.sqrt(max(p * (1.0 - p), 1.0 / (n_a + n_b)) * (1.0 / n_a + 1.0 / n_b))
    return abs(a / n_a - b / n_b) / se


screen_gain = st.one_of(st.just(0.0), st.floats(-12.0, 12.0).map(lambda e: 10.0**e))
screen_gains = st.lists(st.tuples(*[screen_gain] * 3), min_size=1, max_size=8).map(
    lambda draws: np.array(draws, dtype=float).T
)
screen_lengths = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 64])
screen_snrs = st.floats(0.0, 60.0).map(lambda db: 10.0 ** (db / 10.0))


class TestCandidateScreen:
    """The staircase keeps a superset of the exact outage events, and few others.

    Each cell of the (g1, g2) grid may hold events only below its staircase
    value of g0.  Gains are log-uniform in [1e-12, 1e12] or exactly zero, at
    0-60 dB and l = 1..8 and 64; targets are (l+1) rbar bits and each
    draw's own log-det.
    """

    @settings(deadline=None)
    @given(g=screen_gains, snr=screen_snrs, l=screen_lengths)
    def test_superset_of_events(self, g, snr, l):
        for rbar in (0.5, 1.0, 4.0):
            check_screen(g, snr, l, (l + 1) * rbar / l)
            check_screen(g, snr, l, 2.0 * rbar, "classic2")
        for r_cw in own_logdet_targets(g[:, :2], snr, l):
            check_screen(g, snr, l, r_cw)

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6, 7, 8, 64])
    def test_superset_on_grid(self, l):
        levels = np.concatenate([[0.0], 10.0 ** np.arange(-12.0, 13.0, 2.0)])
        g = np.array(np.meshgrid(levels, levels, levels)).reshape(3, -1)
        for snr_db in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0):
            snr = 10.0 ** (snr_db / 10.0)
            for rbar in (0.5, 1.0, 4.0):
                check_screen(g, snr, l, (l + 1) * rbar / l)
                check_screen(g, snr, l, 2.0 * rbar, "classic2")
            # each target costs two O(l) kernel calls on the grid: a few targets
            few = g[:, :: 37 * (15 if l == 64 else 5)]
            for r_cw in own_logdet_targets(few, snr, l):
                check_screen(g, snr, l, r_cw)

    @pytest.mark.parametrize("scheme", ["successive", "classic2"])
    def test_cap_events_at_cell_corners(self, scheme):
        # (g1, g2) on a cell's lower corner and g0 the largest float whose cap
        # still fails: rounding can put it at threshold - corner or above, so
        # only the slack on the cap root keeps it below the staircase value
        corners = outage._EDGES[1:-1]
        for l, snr in ((1, 1.0), (2, 100.0), (7, 1e4)):
            r_cw = 2.0 if scheme == "classic2" else (l + 1) / l
            t = (2.0**r_cw - 1.0) / snr
            cap = 2.0 * corners if scheme == "classic2" else corners
            c = corners[cap < t / 2.0]
            fails = (lambda x: x + c + c < t) if scheme == "classic2" else (lambda x: x + c < t)
            g0 = t - (c + c if scheme == "classic2" else c)
            for _ in range(8):
                up = np.nextafter(g0, np.inf)
                g0 = np.where(fails(up), up, g0)
            for _ in range(8):
                g0 = np.where(fails(g0), g0, np.nextafter(g0, -np.inf))
            assert fails(g0).all() and not fails(np.nextafter(g0, np.inf)).any()
            check_screen(np.array([g0, c, c]), snr, l, r_cw, scheme)

    @pytest.mark.parametrize("l", [1, 2, 7, 64])
    @pytest.mark.parametrize("r_cw", [20.3125, 500.0, 1000.0, 1023.99, 1024.0, 5000.0])
    def test_huge_targets_without_warnings(self, l, r_cw):
        levels = np.concatenate([[0.0], 10.0 ** np.arange(-12.0, 13.0, 3.0)])
        g = np.array(np.meshgrid(levels, levels, levels)).reshape(3, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for snr in (1.0, 1e6):
                check_screen(g, snr, l, r_cw)
                check_screen(g, snr, l, r_cw, "classic2")

    def test_keeps_few_draws_at_high_snr(self):
        # l = 7, 1 bit/slot: the caps alone fail with probability (1 - e^-t)^2,
        # at most p_out, so cells of mass up to 1.3 times that keep few draws;
        # the count draws ~1.2 candidates per event at 20-60 dB (1.18-1.22,
        # cell mass over p_out from ~33,000 events at each 10 dB)
        l, r_cw = 7, 8 / 7
        for snr_db in (20.0, 40.0, 60.0):
            snr = 10.0 ** (snr_db / 10.0)
            t = (2.0**r_cw - 1.0) / snr
            total = outage._cells("successive", snr, l, r_cw, t)[0][-1]
            assert np.expm1(-t) ** 2 <= total < 1.3 * np.expm1(-t) ** 2, snr_db

    @pytest.mark.parametrize("scheme", ["successive", "classic2"])
    @pytest.mark.parametrize("l", [1, 2, 7, 64])
    def test_cell_masses_sum_to_at_most_one(self, scheme, l):
        # the count's Binomial(trials, min(total, 1)) clips only rounding: the
        # running sum of the masses never falls and ends at <= 1 + 1e-12; at
        # -10 dB and 12 bits nearly all is cells
        for snr_db, rbar in ((-10.0, 12.0), (0.0, 1.0), (20.0, 1.0), (60.0, 0.5)):
            snr = 10.0 ** (snr_db / 10.0)
            r_cw = 2.0 * rbar if scheme == "classic2" else (l + 1) * rbar / l
            cum, tau = outage._cells(scheme, snr, l, r_cw, (2.0**r_cw - 1.0) / snr)
            mass = outage._BASE * -np.expm1(-tau)
            assert np.array_equal(cum, np.cumsum(mass)) and np.all(mass >= 0.0)
            assert 0.0 < cum[-1] <= 1.0 + 1e-12, (snr_db, cum[-1])
            # the lower edges and spans that the inversion gathers for the
            # cells it can pick, those of positive mass
            cells = np.flatnonzero(mass)
            i, j = np.divmod(cells, outage._MASS.size)
            lower = np.array([np.zeros(cells.size), outage._EDGES[i], outage._EDGES[j]])
            span = np.array([np.expm1(-tau[cells]), outage._SPAN[i], outage._SPAN[j]])
            assert np.all((span >= -1.0) & (span < 0.0)) and np.all(lower >= 0.0)

    @pytest.mark.parametrize("scheme", ["successive", "classic2"])
    @pytest.mark.parametrize("l", [1, 2, 7, 64])
    def test_drawn_cells_match_the_full_table(self, scheme, l):
        # the cells come in the full table's order, and gathering the drawn
        # cells' rows gives the same pieces as inverting from the whole table;
        # -10 dB and 12 bits put nearly every trial in a cell, over 4 pieces;
        # elsewhere ~2,000 candidates are drawn, or what 2**62 trials hold
        for snr_db in range(-10, 61, 10):
            snr = 10.0 ** (snr_db / 10.0)
            r_cw = outage.SCHEMES[scheme][0](12.0 if snr_db < 0 else 1.0, l)
            args = (scheme, snr, l, r_cw, (2.0**r_cw - 1.0) / snr)
            drawn = cum, tau = outage._cells(*args)
            table = full_cell_table(*args)
            assert np.array_equal(cum, np.cumsum(table[0])), snr_db
            assert np.array_equal(outage._C1, table[1][1]), snr_db
            assert np.array_equal(outage._C2, table[1][2]), snr_db
            trials = 3 * CHUNK + 100 if snr_db < 0 else int(min(2.0**62, 2000.0 / cum[-1]))
            for seed in (0, 1):
                got = list(outage._candidate_gains(trial_rng(seed, (0, 0)), trials, *drawn))
                want = list(table_candidate_gains(trial_rng(seed, (0, 0)), trials, *table))
                assert len(got) == len(want) == (4 if snr_db < 0 else 1), (snr_db, seed)
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (snr_db, seed)

    @pytest.mark.parametrize(
        "snr_db,rbar,trials,point",
        [
            # the dmt_slope benchmark's grid at seed 3, and a point whose cells
            # hold nearly every trial, drawn over several pieces
            (20.0, 1.0, 2_000_000, 0),
            (30.0, 1.0, 30_000_000, 1),
            (40.0, 1.0, 2_000_000, 2),
            (-10.0, 12.0, 3 * CHUNK + 100, 0),
        ],
    )
    def test_candidates_lie_in_their_cells(self, snr_db, rbar, trials, point):
        # each candidate lies in the cell its first uniform picked (the cell
        # whose lower edge <= g1, g2 < its upper edge), a cell of positive
        # mass, and 0 <= g0 < the staircase value there
        l, seed = 7, 3
        snr, r_cw = 10.0 ** (snr_db / 10.0), (l + 1) * rbar / l
        args = ("successive", snr, l, r_cw, (2.0**r_cw - 1.0) / snr)
        drawn = outage._candidate_gains(trial_rng(seed, (point, 0)), trials, *outage._cells(*args))
        pieces = list(drawn)
        g = np.concatenate([np.empty((3, 0)), *pieces], axis=1)
        mass = full_cell_table(*args)[0]
        picks = table_picks(trial_rng(seed, (point, 0)), trials, mass)
        cells = np.concatenate([np.empty(0, int), *(cell for cell, _ in picks)])
        assert g.shape[1] == cells.size and np.all(mass[cells] > 0.0)
        if snr_db < 0:
            assert len(pieces) == 4 and g.shape[1] > 0.99 * trials
        assert np.array_equal(cells_of(g), cells)
        assert np.all(g[0] >= 0.0)
        assert np.all(g[0] < limits_of_cells(g, *args))


def candidates(rng, trials, cum, tau):
    """The (3, n) gains of every candidate that `_candidate_gains` draws."""
    return np.concatenate([np.empty((3, 0)), *outage._candidate_gains(rng, trials, cum, tau)], 1)


def cell_args(scheme, snr_db, rbar=1.0, l=7):
    """`_cells`' arguments at one grid point."""
    snr = 10.0 ** (snr_db / 10.0)
    r_cw = outage.SCHEMES[scheme][0](rbar, l)
    return scheme, snr, l, r_cw, (2.0**r_cw - 1.0) / snr


class TopUniform:
    """A stream that counts ``n`` candidates and whose every uniform is
    1 - 2**-53, the largest float below 1."""

    def __init__(self, n):
        self.n = n

    def binomial(self, trials, p):
        return self.n

    def random(self, size):
        return np.full(size, 1.0 - 2.0**-53)


class TestCandidateDraw:
    """One Binomial(trials, total) count, then each candidate's cell with
    probability mass / total, never a cell of zero mass."""

    @pytest.mark.parametrize(
        "scheme,snr_db", [("successive", 0.0), ("successive", 20.0), ("classic2", 10.0)]
    )
    def test_cell_frequencies_match_mass_over_total(self, scheme, snr_db):
        # seed 8, ~200,000 candidates.  Cells expected to hold fewer than 5
        # are pooled into one bin; the chi-square statistic over the bins
        # must have a p-value above 1e-4.  A bias spread over many cells hides
        # in the chi-square; the running count, in cell-id order, must stay
        # within 2.5 / sqrt(n) of the running mass (Kolmogorov p ~ 1e-5)
        cum, tau = outage._cells(*cell_args(scheme, snr_db))
        g = candidates(trial_rng(8, (0, 0)), int(200_000 / cum[-1]), cum, tau)
        n = g.shape[1]
        seen = np.bincount(cells_of(g), minlength=cum.size)
        want = n * outage._BASE * -np.expm1(-tau) / cum[-1]
        big = want >= 5.0
        observed = np.append(seen[big], seen[~big].sum())
        expected = np.append(want[big], want[~big].sum())
        assert expected[-1] >= 5.0 and observed.size > 50, (expected[-1], observed.size)
        stat = np.sum((observed - expected) ** 2 / expected)
        assert stats.chi2.sf(stat, observed.size - 1) > 1e-4, (stat, observed.size)
        gap = np.max(np.abs(np.cumsum(seen) - np.cumsum(want))) / n
        assert gap < 2.5 / np.sqrt(n), gap * np.sqrt(n)

    @pytest.mark.parametrize("snr_db,trials", [(0.0, 2000), (20.0, 10**6)])
    def test_count_mean_and_variance_over_seeds(self, snr_db, trials):
        # seeds 0-399: the count is Binomial(trials, total), mean trials *
        # total and variance trials * total * (1 - total).  At 0 dB (total
        # ~0.54) that variance is about half a Poisson count's, well outside
        # the bound; each bound is 4 standard errors of the 400-seed mean or
        # sample variance
        cum, tau = outage._cells(*cell_args("successive", snr_db))
        total = cum[-1]
        counts = np.array([
            candidates(trial_rng(seed, (0, 0)), trials, cum, tau).shape[1] for seed in range(400)
        ])
        mean, var = trials * total, trials * total * (1.0 - total)
        assert abs(counts.mean() - mean) < 4.0 * np.sqrt(var / counts.size), counts.mean()
        sample_var = counts.var(ddof=1)
        assert abs(sample_var - var) < 4.0 * var * np.sqrt(2.0 / (counts.size - 1)), sample_var

    @pytest.mark.parametrize("scheme", ["successive", "classic2"])
    def test_no_zero_mass_cell_is_drawn(self, scheme):
        # seeds 0 and 1, ~5,000 candidates a point, or what 2**62 trials hold
        # (~20 for classic II at 60 dB); -10 dB at 12 bits gives every cell
        # some mass, the points from 0 dB up leave cells at zero
        for snr_db in (-10.0, 0.0, 20.0, 40.0, 60.0):
            args = cell_args(scheme, snr_db, 12.0 if snr_db < 0 else 1.0)
            cum, tau = outage._cells(*args)
            mass = full_cell_table(*args)[0]
            assert np.any(mass == 0.0) == (snr_db >= 0.0), snr_db
            for seed in (0, 1):
                g = candidates(trial_rng(seed, (0, 0)), int(min(2.0**62, 5000 / cum[-1])), cum, tau)
                assert g.shape[1] > 10 and np.all(mass[cells_of(g)] > 0.0), (snr_db, seed)

    @pytest.mark.parametrize(
        "scheme,snr", [("successive", 100.0), ("classic2", 100.0), ("classic2", 1e300)]
    )
    def test_top_uniform_picks_the_last_cell_of_positive_mass(self, scheme, snr):
        # the top uniform picks the last cell whose mass the running sum
        # shows; cells of zero mass follow it, so a pick past it would fall
        # on one.  At snr 1e300 the total is subnormal, and u * total rounds
        # up to the total, past every cell
        args = cell_args(scheme, 10.0 * np.log10(snr))
        cum, tau = outage._cells(*args)
        mass, lower, span = full_cell_table(*args)
        last = np.flatnonzero(np.diff(cum, prepend=0.0))[-1]
        assert mass[last] > 0.0 and np.any(mass[last + 1 :] == 0.0)
        assert ((1.0 - 2.0**-53) * cum[-1] == cum[-1]) == (snr > 1e200)
        got = candidates(TopUniform(5), 10**6, cum, tau)
        want = lower[:, [last]] - np.log1p((1.0 - 2.0**-53) * span[:, [last]])
        assert np.array_equal(got, np.repeat(want, 5, axis=1))
        want = np.concatenate(list(table_candidate_gains(TopUniform(5), 10**6, mass, lower, span)), 1)
        assert np.array_equal(got, want)


def pivot_bound(g0, g1, g2, snr, l):
    """B = log2(1 + a0 + a1) + floor((l-1)/2) log2(1 + a1) + floor(l/2) log2(1 + a2):
    every pivot of I + snr H^H H is >= 1 + a_r(k), the first is 1 + a0 + a1."""
    a0, a1, a2 = snr * g0, snr * g1, snr * g2
    return (np.log1p(a0 + a1) + (l - 1) // 2 * np.log1p(a1) + l // 2 * np.log1p(a2)) / np.log(2.0)


def count_kernel_calls(monkeypatch) -> list:
    """Patch outage.logdet_capacity_batch to record each call's size."""
    sizes = []
    kernel = outage.logdet_capacity_batch

    def counting(g0, *args):
        sizes.append(g0.size)
        return kernel(g0, *args)

    monkeypatch.setattr(outage, "logdet_capacity_batch", counting)
    return sizes


class TestStaircaseRoot:
    """Past the cap root, each cell's staircase value is the closed-form root
    in g0 of the pivot bound B <= log-det, certified by one kernel call."""

    @settings(deadline=None)
    @given(g=screen_gains, snr=screen_snrs, l=screen_lengths)
    def test_bound_below_log_det(self, g, snr, l):
        # the kernel is exact to <= 1e-13 relative
        logdet = logdet_capacity_batch(*g, snr, l)
        assert np.all(pivot_bound(*g, snr, l) <= logdet * (1.0 + 1e-13))

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6, 7, 8, 64])
    def test_bound_below_log_det_on_grid(self, l):
        levels = np.concatenate([[0.0], 10.0 ** np.arange(-12.0, 13.0, 2.0)])
        g = np.array(np.meshgrid(levels, levels, levels)).reshape(3, -1)
        for snr_db in (0.0, 20.0, 40.0, 60.0):
            snr = 10.0 ** (snr_db / 10.0)
            logdet = logdet_capacity_batch(*g, snr, l)
            assert np.all(pivot_bound(*g, snr, l) <= logdet * (1.0 + 1e-13)), snr_db

    @settings(deadline=None)
    @given(g=screen_gains, snr=screen_snrs, l=screen_lengths)
    def test_bound_exact_for_one_codeword_or_no_direct_gain(self, g, snr, l):
        # one pivot, 1 + a0 + a1; or a0 = 0, where every pivot is 1 + a_r(k)
        for g0, length in ((g[0], 1), (np.zeros_like(g[0]), l)):
            want = logdet_capacity_batch(g0, g[1], g[2], snr, length)
            got = pivot_bound(g0, g[1], g[2], snr, length)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("l", [1, 7, 64])
    def test_two_kernel_calls_per_point(self, monkeypatch, l):
        # one call finds the corners past their cap root, one certifies their
        # roots; classic II has no log-det test
        sizes = count_kernel_calls(monkeypatch)
        for snr_db in (-10.0, 0.0, 20.0, 40.0, 60.0):
            for rbar in (0.5, 1.0, 12.0):
                snr = 10.0 ** (snr_db / 10.0)
                for scheme, calls in (("successive", 2), ("classic2", 0)):
                    r_cw = outage.SCHEMES[scheme][0](rbar, l)
                    sizes.clear()
                    outage._cells(scheme, snr, l, r_cw, (2.0**r_cw - 1.0) / snr)
                    assert len(sizes) <= calls, (scheme, snr_db, rbar, sizes)

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6, 7, 8, 16, 64])
    def test_tight_against_bisected_root(self, l):
        # the largest mass ratio to the 70-step bisection over this grid is
        # 1.087 (l = 16, 10 dB, rbar 2), and no root is inf where the
        # bisection's is finite
        i, j = (a.ravel() for a in np.indices((outage._MASS.size,) * 2))
        c1, c2, cell = outage._EDGES[i], outage._EDGES[j], outage._MASS[i] * outage._MASS[j]
        for snr_db in range(-10, 61, 10):
            snr = 10.0 ** (snr_db / 10.0)
            for rbar in (0.25, 0.5, 1.0, 2.0, 4.0, 12.0):
                r_cw = (l + 1) * rbar / l
                args = ("successive", snr, l, r_cw, (2.0**r_cw - 1.0) / snr, c1, c2)
                tau, root = outage._staircase(*args), bisected_staircase(*args)
                assert np.all(tau >= root), (snr_db, rbar)
                assert not np.any(np.isinf(tau) & np.isfinite(root)), (snr_db, rbar)
                mass, exact = (np.sum(cell * -np.expm1(-t)) for t in (tau, root))
                assert mass <= 1.10 * exact, (snr_db, rbar, mass / exact)


class TestScreenedCount:
    """The sparse count agrees with the count of every draw, within binomial error."""

    # unit-variance links: the count has no geometry-weighted path
    @pytest.mark.parametrize("links", ["unit"])
    @pytest.mark.parametrize("l", [1, 2, 3, 7, 8, 64])
    def test_matches_unscreened_count(self, l, links):
        # 20,000 trials per (SNR, rate), four standard errors apart at most
        n = 20_000
        for snr_db in (0.0, 10.0, 20.0, 30.0, 40.0):
            for rbar in (0.5, 1.0, 3.0):
                snr = 10.0 ** (snr_db / 10.0)
                got = outage._outage_events("successive", [(snr, rbar, n)], l, 40 + l)[0]
                full = full_draw_count("successive", snr, rbar, l, n, 40 + l)
                assert sigmas_apart(got, n, full, n) < 4.0, (snr_db, rbar, got, full)

    @pytest.mark.parametrize("l", [1, 2, 7])
    def test_targets_on_drawn_log_dets(self, l):
        # a draw whose log-det equals l * r_cw exactly is not in outage by it;
        # the draws next to it still lie below their cells' staircase values
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
                check_screen(g, snr, l, (l + 1) * rbar / l)
                _, caps, _ = exact_outage(g[:, i : i + 1], snr, l, (l + 1) * rbar / l)
                boundary += not caps[0]
        # some targets sit on a draw that only `<` leaves out of the count
        assert boundary >= 3

    def test_exact_test_runs_on_candidates_only(self, monkeypatch):
        # 0 dB: the cells hold ~0.54 of the mass, so most trials are candidates;
        # 20 dB: ~1.7e-4 are.  Either way the exact test sees the candidates
        # alone, about mass * trials of them, in full pieces but the last
        sizes = record_candidates(monkeypatch)
        l, r_cw = 7, 8 / 7
        for snr_db, trials, most in ((0.0, 100_000, True), (20.0, 10**6, False)):
            snr = 10.0 ** (snr_db / 10.0)
            mass = outage._cells("successive", snr, l, r_cw, (2.0**r_cw - 1.0) / snr)[0][-1]
            assert (mass > 0.5) == most
            sizes.clear()
            outage_prob_conditioned(snr, 1.0, l, trials, 5)
            assert max(sizes) <= CHUNK and all(s == CHUNK for s in sizes[:-1])
            sigma = np.sqrt(mass * (1.0 - mass) * trials)
            assert abs(sum(sizes) - mass * trials) < 4.0 * sigma, (snr_db, sum(sizes))


def block_rng(seed, block):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


class TestDistribution:
    """The sparse count against the full-draw count and the closed forms."""

    @pytest.mark.parametrize(
        "scheme,l,snr_db,rbar",
        [
            ("successive", 1, 10.0, 1.0),
            ("successive", 2, 0.0, 1.0),
            ("successive", 3, 10.0, 1.0),
            ("successive", 7, 0.0, 2.0),
            ("successive", 7, 10.0, 1.0),
            ("successive", 8, 20.0, 3.0),
            ("classic2", 7, 10.0, 1.0),
        ],
    )
    def test_mean_count_over_seeds_matches_full_draws(self, scheme, l, snr_db, rbar):
        # 40 seeds of 50,000 sparse trials against 400,000 full draws
        snr = 10.0 ** (snr_db / 10.0)
        sparse = sum(
            outage._outage_events(scheme, [(snr, rbar, 50_000)], l, seed)[0] for seed in range(40)
        )
        full = full_draw_count(scheme, snr, rbar, l, 400_000, 99)
        assert full > 500
        assert sigmas_apart(sparse, 40 * 50_000, full, 400_000) < 4.0, (sparse, full)

    @pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0])
    def test_classic_matches_gamma3_cdf(self, snr_db):
        # ~2,000 expected events at each SNR: trials up to ~4e11, drawn sparsely
        snr, rbar = 10.0 ** (snr_db / 10.0), 1.0
        p = float(stats.gamma.cdf((2.0 ** (2.0 * rbar) - 1.0) / snr, a=3))
        trials = round(2000 / p)
        got = outage._outage_events("classic2", [(snr, rbar, trials)], 7, 81)[0]
        assert abs(got - p * trials) < 4.0 * np.sqrt(p * (1.0 - p) * trials), (got, p * trials)

    @pytest.mark.parametrize("snr_db", [20.0, 30.0, 40.0])
    def test_single_codeword_matches_gamma2_cdf(self, snr_db):
        # the gain sum is Gamma(2, 1), as in miso_outage_oracle
        snr, rbar = 10.0 ** (snr_db / 10.0), 1.0
        p = float(stats.gamma.cdf((2.0 ** (2.0 * rbar) - 1.0) / snr, a=2))
        trials = round(2000 / p)
        got = outage._outage_events("successive", [(snr, rbar, trials)], 1, 82)[0]
        assert abs(got - p * trials) < 4.0 * np.sqrt(p * (1.0 - p) * trials), (got, p * trials)


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
            got = outage._outage_events("successive", [(1e6, 20.0, 20_000)], 64, 7)[0]
        assert 0 < got < 20_000
        full = full_draw_count("successive", 1e6, 20.0, 64, 20_000, 7)
        assert sigmas_apart(got, 20_000, full, 20_000) < 4.0


GRID_DB = [20.0, 30.0, 40.0]
GRID_TRIALS = [1 << 14, 3 * (1 << 14) + 5, 6 * (1 << 14)]


class TestGridPool:
    """`estimate_dmt` counts grid point i on the one (seed, (i, 0)) stream."""

    @pytest.mark.parametrize("scheme", ["successive", "classic2"])
    def test_grid_counts_match_per_point_counts(self, scheme):
        # r = 0.5 keeps events at every point: ~1e-2 at 20 dB, ~4e-4 at 40 dB
        dmt = estimate_dmt(0.5, 7, GRID_DB, GRID_TRIALS, 17, scheme=scheme)
        assert all(count > 0 for count in dmt.events)
        for i, (rbar, trials) in enumerate(zip(dmt.target_rates_per_slot, GRID_TRIALS)):
            snr = 10.0 ** (GRID_DB[i] / 10.0)
            count = outage._point_events(scheme, 7, 17, i, snr, rbar, trials)
            assert dmt.events[i] == count and dmt.outage_prob[i] == count / trials

    def test_consecutive_seeds_draw_different_streams(self, monkeypatch):
        # point 1 of seed S and point 0 of seed S + 1 once shared a stream
        keys = []
        rng = outage.trial_rng
        monkeypatch.setattr(outage, "trial_rng", lambda *key: keys.append(key) or rng(*key))
        estimate_dmt(0.5, 7, GRID_DB, 1000, 920)
        assert keys == [(920, (0, 0)), (920, (1, 0)), (920, (2, 0))]
        later, first = rng(920, (1, 0)), rng(921, (0, 0))
        assert not np.array_equal(later.random(8), first.random(8))

    def test_invalid_point_rejected_before_any_draw(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(outage, "trial_rng", lambda *key: drawn.append(key))
        good = (100.0, 1.0, 1000)
        bad_points = [
            (0.0, 1.0, 1000),
            (100.0, -1.0, 1000),
            (100.0, 1.0, 0),
            (100.0, 1.0, 2**63),
            (10**400, 1.0, 1000),  # ints past float range
            (100.0, 10**400, 1000),
        ]
        for bad in bad_points:
            with pytest.raises(ValueError):
                outage._outage_events("successive", [good, bad], 7, 2)
        assert drawn == []

    def test_each_point_draws_its_own_trials(self, monkeypatch):
        # 0 dB, where most trials are candidates, and 20 dB each count their
        # candidates among all their trials in one binomial draw; no trial is
        # drawn raw
        streams = record_streams(monkeypatch)
        outage._outage_events("successive", [(1.0, 1.0, 100_000), (100.0, 1.0, 3 * 10**6)], 7, 9)
        assert [s.key for s in streams] == [(9, (0, 0)), (9, (1, 0))]
        assert [s.raw for s in streams] == [0, 0]
        assert [s.binomials for s in streams] == [[100_000], [3 * 10**6]]

    def test_point_past_2_40_trials_counts_on_one_stream(self, monkeypatch):
        # l = 7 at 1 bit/slot: p_out ~1.5e-10 at 50 dB and ~1.5e-12 at 60 dB,
        # so the points hold ~2.6e3 and ~1.6e3 events and the binomial sigma
        # of the slope is ~0.015; 0.1 is more than six of them
        streams = record_streams(monkeypatch)
        trials = [1 << 44, 1 << 50]
        points = [(10.0 ** (db / 10.0), 1.0, n) for db, n in zip((50.0, 60.0), trials)]
        events = outage._outage_events("successive", points, 7, 31)
        assert [s.key for s in streams] == [(31, (0, 0)), (31, (1, 0))]
        assert [s.binomials for s in streams] == [[n] for n in trials]
        assert min(events) > 1000
        slope = np.log10((events[0] / trials[0]) / (events[1] / trials[1]))
        assert slope == pytest.approx(2.0, abs=0.1), events


def record_candidates(monkeypatch) -> list:
    """Patch outage._candidate_gains to record the size of each piece it yields."""
    sizes = []
    candidate_gains = outage._candidate_gains

    def recording(*args):
        for g in candidate_gains(*args):
            sizes.append(g.shape[1])
            yield g

    monkeypatch.setattr(outage, "_candidate_gains", recording)
    return sizes


def record_streams(monkeypatch) -> list:
    """Patch outage.trial_rng to record, per stream, its key, the trials it
    draws raw and the trial count of each binomial draw."""
    streams = []
    rng = outage.trial_rng

    class Recording:
        def __init__(self, *key):
            self.key, self.rng, self.raw, self.binomials = key, rng(*key), 0, []
            streams.append(self)

        def binomial(self, n, p):
            self.binomials.append(n)
            return self.rng.binomial(n, p)

        def standard_exponential(self, size):
            self.raw += size[1]
            return self.rng.standard_exponential(size)

        def random(self, size):
            return self.rng.random(size)

    monkeypatch.setattr(outage, "trial_rng", Recording)
    return streams


class TestOutageProb:
    def test_zero_target_never_in_outage(self):
        assert outage_prob_conditioned(10.0, 0.0, 7, 1000, 0) == 0.0

    def test_vanishing_snr_always_in_outage(self):
        p = outage_prob_conditioned(1e-9, 1.0, 7, 2000, 0)
        assert p == 1.0

    @pytest.mark.parametrize("scheme", ["successive", "classic2"])
    @pytest.mark.parametrize("l", [1, 7, 64])
    def test_certain_outage_counts_every_trial_as_a_candidate(self, monkeypatch, scheme, l):
        # at snr 1e-9 every cell holds events up to g0 = inf, so the cells'
        # masses sum to 1 and the one binomial count leaves no trial out
        streams = record_streams(monkeypatch)
        sizes = record_candidates(monkeypatch)
        assert outage_prob_conditioned(1e-9, 1.0, l, 20_000, 3, scheme=scheme) == 1.0
        assert [(s.raw, s.binomials) for s in streams] == [(0, [20_000])]
        assert sum(sizes) == 20_000

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

    @pytest.mark.parametrize("snr_db", [30.0, 40.0])
    def test_miso_oracle_matches_scipy_at_high_snr(self, snr_db):
        # small x: 1 - e^-x (1 + x) loses ~1e-10 relative to cancellation here
        snr = 10.0 ** (snr_db / 10.0)
        want = float(stats.gamma.cdf(3.0 / snr, a=2))
        assert miso_outage_oracle(snr, 1.0) == pytest.approx(want, rel=1e-12, abs=0.0)

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

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            outage_prob_conditioned(0.0, 1.0, 7, 100, 0)
        with pytest.raises(ValueError):
            outage_prob_conditioned(np.inf, 1.0, 7, 100, 0)
        with pytest.raises(ValueError):
            outage_prob_conditioned(1.0, 1.0, 0, 100, 0)
        with pytest.raises(ValueError):
            outage_prob_conditioned(1.0, 1.0, 7, 0, 0)
        with pytest.raises(ValueError):
            outage_prob_conditioned(1.0, 1.0, 7, 100, 0, scheme="alamouti")
        for l in (2.5, 7.0, True):
            with pytest.raises(ValueError):
                outage_prob_conditioned(1e4, 1.0, l, 100, 1)
        for trials in (2.5, 100.0, True):
            with pytest.raises(ValueError):
                outage_prob_conditioned(100.0, 1.0, 7, trials, 0)

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
            dict(r=float("inf")),
            dict(r=1e308),
            dict(snr_grid_db=[20.0, 30.0, 4000.0]),
            dict(snr_grid_db=[20.0, 30.0, float("inf")]),
            dict(snr_grid_db=[20, 30, 10**400]),
            dict(trials_per_point=1000.9),
            dict(trials_per_point=[100, 100.5, 100]),
            dict(trials_per_point=True),
            dict(r=10**400),
            dict(trials_per_point=np.array(100)),
        ],
        ids=[
            "scheme",
            "l",
            "fractional_l",
            "float_l",
            "bool_l",
            "negative_r",
            "nan_r",
            "infinite_r",
            "overflowing_r",
            "overflowing_snr",
            "infinite_snr",
            "int_snr_past_float_range",
            "fractional_trials",
            "fractional_trials_entry",
            "bool_trials",
            "int_r_past_float_range",
            "zero_dim_array_trials",
        ],
    )
    def test_invalid_arguments(self, kwargs):
        args = dict(r=0.0, l=7, snr_grid_db=[20.0, 30.0, 40.0], trials_per_point=100, seed=0)
        with pytest.raises(ValueError):
            estimate_dmt(**{**args, **kwargs})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numpy_snr_past_float_range_raises_without_a_warning(self):
        # numpy's scalar power warns on overflow; Python's float power raises
        with pytest.raises(ValueError, match="no positive finite linear value"):
            estimate_dmt(0.0, 7, np.array([20.0, 30.0, 4000.0]), 100, 0)

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
        assert point.diversity_estimate == pytest.approx(point.dmt_formula, abs=0.3)
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
                dmt_formula=2.0,
            )


# Source-relay gains ~1e12 (d = 1e-3, gamma = 4) and no shadowing: the relays
# always decode, and the unit-distance destination gains are Exp(1), so a
# sweep draw is a draw of the outage engine's conditioned model.
DECODING_RELAYS = NetworkGeometry(
    d_sd=1.0, d_sr1=1e-3, d_sr2=1e-3, d_r1d=1.0, d_r2d=1.0, d_r1r2=1.0,
    gamma=4.0, shadow_sigma_db=0.0,
)
SWEEP_DRAWS, ENGINE_TRIALS = 200_000, 10**6


@pytest.fixture(scope="module")
def decoding_relay_gains():
    v = sample_realizations(DECODING_RELAYS, trial_rng(1, 0), SWEEP_DRAWS)
    return link_gains(DECODING_RELAYS, v)


class TestSweepKernelsMatchTheEngine:
    """The sweep's rate kernels and the outage engine count the same events."""

    @pytest.mark.parametrize(
        "scheme, l, snr_db, rbar",
        [
            ("successive", 1, 10.0, 1.0),
            ("successive", 2, 10.0, 1.0),
            ("successive", 3, 10.0, 1.0),
            ("successive", 7, 10.0, 1.0),
            ("successive", 7, 15.0, 1.5),
            ("classic2", 7, 10.0, 1.0),
            ("classic2", 7, 20.0, 2.0),
            ("classic2", 7, 0.0, 0.5),
        ],
    )
    def test_outage_frequencies_agree(self, decoding_relay_gains, scheme, l, snr_db, rbar):
        g, snr = decoding_relay_gains, snr_from_db(snr_db)
        if scheme == "successive":
            # the rate clips the caps' sum by the log-det; the engine also
            # fails a frame whose weakest codeword cap is below r_cw, which
            # the sum alone can hide (at l = 7, 10 dB it read 0.0016, not 0.0129)
            rate, per_cw = successive_genie_batch(g, snr, l)[:2]
            r_cw = outage.SCHEMES["successive"][0](rbar, l)
            failed = (rate < rbar) | (per_cw.min(axis=1) < r_cw)
        else:
            failed = rate_classic_batch(g, snr, 0.5) < rbar
        p_sweep = np.mean(failed)
        p_engine = outage_prob_conditioned(snr, rbar, l, ENGINE_TRIALS, 2, scheme=scheme)
        # two independent binomial frequencies: 4 combined standard errors
        se = np.sqrt(
            p_sweep * (1 - p_sweep) / SWEEP_DRAWS + p_engine * (1 - p_engine) / ENGINE_TRIALS
        )
        assert 0.0 < p_engine < 1.0
        assert abs(p_sweep - p_engine) <= 4.0 * se, (p_sweep, p_engine)
