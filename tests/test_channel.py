import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from succrelay.channel import (
    CASE_III_RELAY_SPACING,
    LINK_NAMES,
    ChannelBatch,
    NetworkGeometry,
    preset_geometry,
    sample_realizations,
    trial_rng,
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


GEOMETRIES = [
    preset_geometry("I"),
    preset_geometry("II"),
    preset_geometry("III"),
    # no shadowing: 12 draws per trial, not 18
    NetworkGeometry(
        d_sd=1.0, d_sr1=0.4, d_sr2=0.6, d_r1d=0.7, d_r2d=0.5, d_r1r2=0.3,
        gamma=3.0, shadow_sigma_db=0.0,
    ),
]


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
        # a coefficient past sqrt(float max) has no finite squared gain
        for value in (complex("nan"), complex(1e200, 0.0)):
            h = np.ones((6, 3), dtype=complex)
            h[0, 2] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
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
        # one trial-major (n, 3, 6) draw: trial t's real parts, imaginary
        # parts and shadowing.  Multiplying each part by the real amplitude
        # gives the words of the complex (v_re + 1j v_im) * amp, draw for draw
        geom = preset_geometry(case)
        for seed in range(30):
            got = sample_realizations(geom, np.random.default_rng(seed), n).h
            v = np.random.default_rng(seed).standard_normal((n, 3, 6))
            amp = np.exp(geom._log_amplitudes + v[:, 2] * (8.0 * (np.log(10.0) / 20.0)))
            want = ((v[:, 0] + 1j * v[:, 1]) * amp).T
            assert got.tobytes() == want.tobytes(), seed
            # the amplitude is the model's d**(-gamma/2) * 10**(zeta/20) / sqrt 2
            model = geom.link_distances() ** -2.0 * 10.0 ** (8.0 * v[:, 2] / 20.0) / np.sqrt(2.0)
            np.testing.assert_allclose(amp, model, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("geom", GEOMETRIES)
    @pytest.mark.parametrize("n", [1, 7, 5000])
    def test_one_block_draw_equals_consecutive_single_draws(self, geom, n):
        block = sample_realizations(geom, trial_rng(41, 2), n).h
        rng = trial_rng(41, 2)
        singles = np.concatenate([sample_realizations(geom, rng, 1).h for _ in range(n)], axis=1)
        assert block.shape == (6, n)
        assert block.tobytes() == singles.tobytes()


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
        # trial t of SNR point 3 is the (t + 1)-th one-trial draw of stream (5, 3)
        geom = preset_geometry("II")
        batch = _sample_trials(geom, 5, 3, 4).h
        rng = trial_rng(5, 3)
        for t in range(4):
            assert batch[:, t:t + 1].tobytes() == sample_realizations(geom, rng, 1).h.tobytes()


def numpy_state(seed, key):
    """The reference: numpy's own seed sequence and PCG64 seeding."""
    s = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(key,))).state
    return s["state"]["state"], s["state"]["inc"]


def stream_state(seed, key):
    s = trial_rng(seed, key).bit_generator.state
    assert s["bit_generator"] == "PCG64"
    return s["state"]["state"], s["state"]["inc"]


class TestStreams:
    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
    KEYS = (0, 1, 2**31, 2**32 - 1, 2**32, 2**40)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_states_match_numpy_seeding(self, seed):
        assert [stream_state(seed, k) for k in self.KEYS] == [
            numpy_state(seed, k) for k in self.KEYS
        ]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), key=st.integers(0, 2**40 - 1))
    def test_states_match_numpy_property(self, seed, key):
        assert stream_state(seed, key) == numpy_state(seed, key)

    def test_seeds_past_the_pool_and_largest_key(self):
        # run entropy beyond four words is mixed in before the key
        for seed in (2**127 + 3, 2**128, 7**90):
            for key in (0, 2**64 - 1):
                assert stream_state(seed, key) == numpy_state(seed, key)

    def test_trial_rng_draws_like_numpy(self):
        for seed, trial in ((31, 0), (31, 5), (2**64 - 1, 2**33)):
            ref = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
            ours = trial_rng(seed, trial)
            assert np.array_equal(ours.standard_normal(50), ref.standard_normal(50))
            assert np.array_equal(
                ours.standard_exponential(50, dtype=np.float32),
                ref.standard_exponential(50, dtype=np.float32),
            )

    def test_tuple_keys_draw_like_numpy(self):
        for seed, key in ((31, (0, 0)), (31, (1, 0)), (2**64 - 1, (3, 2**64 - 1))):
            ref = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
            assert np.array_equal(trial_rng(seed, key).random(50), ref.random(50))
        # a one-element tuple is the integer key; (point, block) keys differ
        assert np.array_equal(trial_rng(5, (7,)).random(5), trial_rng(5, 7).random(5))
        later, first = trial_rng(920, (1, 0)), trial_rng(921, (0, 0))
        assert not np.array_equal(later.random(5), first.random(5))

    @pytest.mark.parametrize("key", [(0, -1), (2**64, 0), (-1,)])
    def test_out_of_range_tuple_key_rejected(self, key):
        with pytest.raises(ValueError):
            trial_rng(3, key)

    def test_children_draw_like_numpy_children(self):
        ref = np.random.default_rng(np.random.SeedSequence(entropy=3, spawn_key=(4,)))
        for ours, theirs in zip(trial_rng(3, 4).spawn(2), ref.spawn(2), strict=True):
            assert np.array_equal(ours.standard_normal(50), theirs.standard_normal(50))

    @pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1), (0, 2**64)])
    def test_out_of_range_seed_or_trial_rejected(self, seed, trial):
        with pytest.raises(ValueError):
            trial_rng(seed, trial)

    def test_negative_keys_rejected(self):
        for key in (-1, (4, -1), (-1, 4)):
            with pytest.raises(ValueError):
                trial_rng(3, key)


class TestSampleTrials:
    @pytest.mark.parametrize("geom", GEOMETRIES)
    def test_equals_one_block_draw_of_the_stream(self, geom):
        for seed, snr_idx, n in ((12345, 0, 40), (2**64 - 1, 2**32 - 3, 7)):
            got = _sample_trials(geom, seed, snr_idx, n).h
            want = sample_realizations(geom, trial_rng(seed, snr_idx), n).h
            assert got.tobytes() == want.tobytes()

    def test_pathloss_amplitudes_cached_read_only(self):
        geom = NetworkGeometry(
            d_sd=1.3, d_sr1=0.37, d_sr2=0.61, d_r1d=0.83, d_r2d=0.29, d_r1r2=0.071,
            gamma=3.7, shadow_sigma_db=6.0,
        )
        log_amp = geom._log_amplitudes
        assert log_amp is geom._log_amplitudes and not log_amp.flags.writeable
        # the log of d**(-gamma/2) / sqrt 2, the unit-variance complex Gaussian's scale
        expected = geom.link_distances() ** (-geom.gamma / 2.0) / np.sqrt(2.0)
        assert log_amp.shape == (6,)
        np.testing.assert_allclose(np.exp(log_amp), expected, rtol=1e-14, atol=0.0)


def test_sample_size_validated():
    with pytest.raises(ValueError):
        sample_realizations(preset_geometry("I"), np.random.default_rng(0), 0)
