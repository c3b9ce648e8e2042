import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from succrelay.channel import (
    _STATE_CHUNK,
    CASE_III_RELAY_SPACING,
    LINK_NAMES,
    ChannelBatch,
    NetworkGeometry,
    pcg64_states,
    preset_geometry,
    sample_realizations,
    trial_rng,
    trial_streams,
)
from succrelay.experiments import _sample_trials


def flat_geometry(gamma=0.0, shadow=0.0, d=1.0):
    # gamma=0 with unit distances makes every link a pure unit-variance
    # complex Gaussian; convenient for moment checks.
    g = 1e-9 if gamma == 0.0 else gamma  # gamma must stay positive
    return NetworkGeometry(
        d_sd=d, d_sr1=d, d_sr2=d, d_r1d=d, d_r2d=d, d_r1r2=d,
        gamma=g, shadow_sigma_db=shadow,
    )


class TestPresets:
    def test_case1_distances(self):
        g = preset_geometry("I")
        assert g.d_sd == 1.0
        assert g.d_sr1 == g.d_sr2 == g.d_r1d == g.d_r2d == 1.0
        assert g.d_r1r2 == pytest.approx(np.sqrt(3.0), rel=1e-15)

    def test_case2_distances(self):
        g = preset_geometry("II")
        assert g.d_r1r2 == 1.0
        assert g.d_sr1 == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)
        assert g.d_sr2 == g.d_r1d == g.d_r2d == g.d_sr1

    def test_case3_distances(self):
        g = preset_geometry("III")
        assert g.d_sr1 == g.d_sr2 == g.d_r1d == g.d_r2d == 0.5
        assert g.d_r1r2 == CASE_III_RELAY_SPACING == 0.05

    def test_common_propagation_parameters(self):
        for case in ("I", "II", "III"):
            g = preset_geometry(case)
            assert g.gamma == 4.0
            assert g.shadow_sigma_db == 8.0

    def test_relay_spacing_override(self):
        g = preset_geometry("III", relay_spacing=0.08)
        assert g.d_r1r2 == 0.08

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            preset_geometry("IV")

    def test_case_insensitive(self):
        assert preset_geometry("iii") == preset_geometry("III")


class TestGeometryValidation:
    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError, match="d_sr1"):
            NetworkGeometry(1.0, 0.0, 1.0, 1.0, 1.0, 1.0)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            NetworkGeometry(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, gamma=0.0)

    def test_negative_shadowing_rejected(self):
        with pytest.raises(ValueError, match="shadow"):
            NetworkGeometry(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, shadow_sigma_db=-1.0)


class TestRealization:
    def test_nonfinite_coefficient_rejected(self):
        h = np.ones((6, 3), dtype=complex)
        h[0, 2] = complex("nan")
        with pytest.raises(ValueError, match="h_sd"):
            ChannelBatch(h).gains()

    def test_gains_are_squared_magnitudes(self):
        batch = ChannelBatch(np.array([[1 + 1j], [2.0], [0.5j], [1.0], [3.0], [1.0]]))
        g = batch.gains()
        assert len(batch) == 1 and g.shape == (6, 1) and g.dtype == np.float64
        assert g[LINK_NAMES.index("sd"), 0] == pytest.approx(2.0)
        assert g[LINK_NAMES.index("sr2"), 0] == pytest.approx(0.25)
        assert np.all(g >= 0.0)

    @pytest.mark.parametrize("case", ["I", "II", "III"])
    @pytest.mark.parametrize("n", [1, 7, 5000])
    def test_real_arithmetic_matches_complex_formula(self, case, n):
        # (v * (1/sqrt 2)) * amp per part gives the words of the complex
        # (v_re + 1j v_im) / sqrt 2 * amp, draw for draw
        geom = preset_geometry(case)
        for seed in range(30):
            got = sample_realizations(geom, np.random.default_rng(seed), n).h
            rng = np.random.default_rng(seed)
            v = rng.standard_normal((2, 6, n))
            amp = geom._amplitudes * 10.0 ** (rng.normal(0.0, 8.0, size=(6, n)) / 20.0)
            want = (v[0] + 1j * v[1]) / np.sqrt(2.0) * amp
            assert got.tobytes() == want.tobytes(), seed


class TestMoments:
    def test_unit_variance_degenerate_model(self):
        # shadowing off, pathloss off: coefficients are pure CN(0, 1)
        batch = sample_realizations(flat_geometry(), np.random.default_rng(101), 1_000_000)
        mean_gain = np.mean(np.abs(batch.h[0]) ** 2)
        assert mean_gain == pytest.approx(1.0, abs=0.01)

    def test_pathloss_only_moment(self):
        geom = flat_geometry(gamma=4.0, d=0.5)
        batch = sample_realizations(geom, np.random.default_rng(102), 1_000_000)
        mean_gain = np.mean(np.abs(batch.h[3]) ** 2)
        assert mean_gain == pytest.approx(16.0, rel=0.01)

    def test_lognormal_shadowing_moment(self):
        # oracle by direct numerical integration of the shadowing density
        sigma = 8.0
        oracle, err = integrate.quad(
            lambda z: 10.0 ** (z / 10.0) * stats.norm.pdf(z, scale=sigma), -200, 200
        )
        assert err < 1e-6
        a = sigma * np.log(10.0) / 10.0
        assert oracle == pytest.approx(np.exp(a * a / 2.0), rel=1e-9)
        assert oracle == pytest.approx(5.45541, rel=1e-5)

        geom = flat_geometry(shadow=sigma)
        batch = sample_realizations(geom, np.random.default_rng(103), 1_000_000)
        mean_gain = np.mean(np.abs(batch.h[0]) ** 2)
        assert mean_gain == pytest.approx(oracle, rel=0.03)


class TestDistributionShape:
    def test_link_magnitudes_uncorrelated(self):
        batch = sample_realizations(preset_geometry("I"), np.random.default_rng(104), 100_000)
        corr = np.corrcoef(np.abs(batch.h))
        off = corr[~np.eye(6, dtype=bool)]
        assert np.max(np.abs(off)) < 0.02

    def test_phase_uniform_chi_square(self):
        batch = sample_realizations(preset_geometry("II"), np.random.default_rng(105), 100_000)
        phases = np.angle(batch.h[0])
        counts, _ = np.histogram(phases, bins=16, range=(-np.pi, np.pi))
        _, pvalue = stats.chisquare(counts)
        assert pvalue > 0.001


def one_trial(geom, seed, trial):
    return sample_realizations(geom, trial_rng(seed, trial), 1).h


class TestDeterminism:
    def test_same_trial_key_bit_identical(self):
        geom = preset_geometry("III")
        a = one_trial(geom, 99, 7)
        b = one_trial(geom, 99, 7)
        assert a.tobytes() == b.tobytes()

    def test_different_trials_differ(self):
        geom = preset_geometry("III")
        assert not np.array_equal(one_trial(geom, 99, 7), one_trial(geom, 99, 8))

    def test_different_seeds_differ(self):
        geom = preset_geometry("I")
        assert not np.array_equal(one_trial(geom, 1, 0), one_trial(geom, 2, 0))

    def test_batch_element_matches_scalar_path(self):
        geom = preset_geometry("II")
        single = _sample_trials(geom, 5, 3, 1).h
        assert single.tobytes() == one_trial(geom, 5, 3).tobytes()


def numpy_state(seed, key):
    """The reference: numpy's own seed sequence and PCG64 seeding."""
    s = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(key,))).state
    return s["state"]["state"], s["state"]["inc"]


def stacked_trials(geom, seed, first, n):
    """Trials drawn one by one, each from a freshly seeded generator."""
    return np.concatenate([one_trial(geom, seed, first + t) for t in range(n)], axis=1)


class TestStreams:
    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
    KEYS = (0, 1, 2**31, 2**32 - 1, 2**32, 2**40)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_states_match_numpy_seeding(self, seed):
        states = pcg64_states(seed, np.array(self.KEYS, dtype=np.uint64))
        assert states == [numpy_state(seed, k) for k in self.KEYS]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), key=st.integers(0, 2**40 - 1))
    def test_states_match_numpy_property(self, seed, key):
        assert pcg64_states(seed, [key]) == [numpy_state(seed, key)]

    def test_seeds_past_the_pool_and_largest_key(self):
        # run entropy beyond four words is mixed in before the key
        for seed in (2**127 + 3, 2**128, 7**90):
            for key in (0, 2**64 - 1):
                assert pcg64_states(seed, [key]) == [numpy_state(seed, key)]

    def test_trial_rng_draws_like_numpy(self):
        for seed, trial in ((31, 0), (31, 5), (2**64 - 1, 2**33)):
            ref = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
            ours = trial_rng(seed, trial)
            assert np.array_equal(ours.standard_normal(50), ref.standard_normal(50))
            assert np.array_equal(
                ours.standard_exponential(50, dtype=np.float32),
                ref.standard_exponential(50, dtype=np.float32),
            )

    def test_children_draw_like_numpy_children(self):
        ref = np.random.default_rng(np.random.SeedSequence(entropy=3, spawn_key=(4,)))
        for ours, theirs in zip(trial_rng(3, 4).spawn(2), ref.spawn(2), strict=True):
            assert np.array_equal(ours.standard_normal(50), theirs.standard_normal(50))

    def test_restated_generator_drops_buffered_half_word(self):
        streams = trial_streams(17, 4, 2)
        rng = next(streams)
        rng.integers(0, 2**32, size=3, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        again = next(streams)
        assert again is rng
        fresh = trial_rng(17, 5)
        assert np.array_equal(
            again.integers(0, 2**32, size=5, dtype=np.uint32),
            fresh.integers(0, 2**32, size=5, dtype=np.uint32),
        )
        assert np.array_equal(again.standard_normal(20), fresh.standard_normal(20))

    def test_streams_across_state_pieces(self):
        # the states are computed in pieces of _STATE_CHUNK keys
        n = 2 * _STATE_CHUNK + 5
        first = 2**32 - _STATE_CHUNK - 2
        draws = [rng.standard_normal(3) for rng in trial_streams(9, first, n)]
        assert len(draws) == n
        for t in (0, _STATE_CHUNK - 1, _STATE_CHUNK, _STATE_CHUNK + 2, n - 1):
            assert np.array_equal(draws[t], trial_rng(9, first + t).standard_normal(3))

    @pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1), (0, 2**64)])
    def test_out_of_range_seed_or_trial_rejected(self, seed, trial):
        with pytest.raises(ValueError):
            trial_rng(seed, trial)
        if trial >= 0:
            with pytest.raises(ValueError):
                pcg64_states(seed, [trial])

    def test_negative_keys_rejected(self):
        with pytest.raises(ValueError):
            pcg64_states(3, np.array([4, -1]))


class TestSampleTrials:
    @pytest.mark.parametrize(
        "geom",
        [
            preset_geometry("I"),
            preset_geometry("II"),
            preset_geometry("III"),
            # no shadowing: 12 draws per trial, not 18
            NetworkGeometry(
                d_sd=1.0, d_sr1=0.4, d_sr2=0.6, d_r1d=0.7, d_r2d=0.5, d_r1r2=0.3,
                gamma=3.0, shadow_sigma_db=0.0,
            ),
        ],
    )
    def test_matches_one_fresh_generator_per_trial(self, geom):
        for seed, first, n in ((12345, 0, 40), (2**64 - 1, 2**32 - 3, 7)):
            got = _sample_trials(geom, seed, first, n).h
            assert got.tobytes() == stacked_trials(geom, seed, first, n).tobytes()

    def test_pathloss_amplitudes_cached_read_only(self):
        geom = NetworkGeometry(
            d_sd=1.3, d_sr1=0.37, d_sr2=0.61, d_r1d=0.83, d_r2d=0.29, d_r1r2=0.071,
            gamma=3.7, shadow_sigma_db=6.0,
        )
        amp = geom._amplitudes
        assert amp is geom._amplitudes and not amp.flags.writeable
        expected = geom.link_distances()[:, None] ** (-geom.gamma / 2.0)
        assert amp.tobytes() == expected.tobytes()


def test_sample_size_validated():
    with pytest.raises(ValueError):
        sample_realizations(preset_geometry("I"), np.random.default_rng(0), 0)
