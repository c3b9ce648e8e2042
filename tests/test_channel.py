import re
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from succrelay.channel import (
    CASE_III_RELAY_SPACING,
    LINK_NAMES,
    NetworkGeometry,
    coefficients,
    link_gains,
    preset_geometry,
    realization_shape,
    sample_realizations,
    trial_rng,
)
from succrelay import experiments
from succrelay.experiments import _sample_trials


def draw_h(geom, rng, n):
    """The (6, n) coefficients of one n-trial draw from ``rng``."""
    return coefficients(geom, sample_realizations(geom, rng, n))


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

    def test_every_field_stored_as_float(self):
        ints = dict(d_sd=1, d_sr1=2, d_sr2=3, d_r1d=4, d_r2d=5, d_r1r2=6, gamma=np.int64(4))
        geom = NetworkGeometry(**ints, shadow_sigma_db=np.float32(8.0))
        assert all(type(getattr(geom, f.name)) is float for f in fields(geom))
        assert asdict(geom) == {**ints, "shadow_sigma_db": 8.0}


class TestRealization:
    def test_nonfinite_coefficient_rejected(self):
        # a coefficient past sqrt(float max) has no finite squared gain.  At
        # unit distances with no shadowing the amplitude is 1/sqrt 2, so the
        # normal sqrt 2 * value scales to the coefficient value
        for value in (float("nan"), 1e200):
            v = np.ones((3, 2, 6))
            v[2, 0, LINK_NAMES.index("sd")] = np.sqrt(2.0) * value
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ValueError, match="h_sd"):
                    link_gains(flat_geometry(), v)

    def test_gains_are_squared_magnitudes(self):
        # (re, im) normals of one trial; the amplitude 1/sqrt 2 scales
        # sqrt 2 * h back to h = [1 + 1j, 2, 0.5j, 1, 3, 1]
        h = np.array([1 + 1j, 2.0, 0.5j, 1.0, 3.0, 1.0])
        v = np.sqrt(2.0) * np.array([[h.real, h.imag]])
        g = link_gains(flat_geometry(), v)
        assert len(v) == 1 and g.shape == (6, 1) and g.dtype == np.float64
        assert g[LINK_NAMES.index("sd"), 0] == pytest.approx(2.0)
        assert g[LINK_NAMES.index("sr2"), 0] == pytest.approx(0.25)
        assert np.all(g >= 0.0)

    @pytest.mark.parametrize(
        "shadow, shape",
        [(8.0, (3, 2, 6)), (8.0, (3, 6)), (8.0, (3, 3, 5)), (8.0, (3, 4, 6)),
         (0.0, (3, 3, 6)), (0.0, (2, 6)), (0.0, (1, 2, 6, 1))],
    )
    def test_normals_of_another_shape_rejected(self, shadow, shape):
        # k = 3 normals per link when shadowed, else 2; the message names the
        # shape that the sampler draws for that many trials
        geom = flat_geometry(shadow=shadow)
        want = realization_shape(geom, shape[0])
        for scale in (coefficients, link_gains):
            with pytest.raises(ValueError, match=re.escape(f"v must have shape {want}, got")):
                scale(geom, np.zeros(shape))

    @pytest.mark.parametrize("case", ["I", "II", "III"])
    @pytest.mark.parametrize("n", [1, 7, 5000])
    def test_real_arithmetic_matches_complex_formula(self, case, n):
        # one trial-major (n, 3, 6) draw: trial t's real parts, imaginary
        # parts and shadowing.  Multiplying each part by the real amplitude
        # gives the words of the complex (v_re + 1j v_im) * amp, draw for draw
        geom = preset_geometry(case)
        for seed in range(30):
            got = draw_h(geom, np.random.default_rng(seed), n)
            v = np.random.default_rng(seed).standard_normal((n, 3, 6))
            log_pathloss = -0.5 * (geom.gamma * np.log(geom.link_distances()) + np.log(2.0))
            amp = np.exp(log_pathloss + v[:, 2] * (8.0 * (np.log(10.0) / 20.0)))
            want = ((v[:, 0] + 1j * v[:, 1]) * amp).T
            assert got.tobytes() == want.tobytes(), seed
            # the amplitude is the model's d**(-gamma/2) * 10**(zeta/20) / sqrt 2
            model = geom.link_distances() ** -2.0 * 10.0 ** (8.0 * v[:, 2] / 20.0) / np.sqrt(2.0)
            np.testing.assert_allclose(amp, model, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("geom", GEOMETRIES)
    @pytest.mark.parametrize("n", [1, 7, 5000])
    def test_returns_the_stream_normals(self, geom, n):
        # a plain array: k = 3 rows of normals per trial when shadowed, 2 when not
        k = 3 if geom.shadow_sigma_db > 0.0 else 2
        v = sample_realizations(geom, trial_rng(41, 2), n)
        assert type(v) is np.ndarray and v.shape == (n, k, 6)
        assert v.tobytes() == trial_rng(41, 2).standard_normal((n, k, 6)).tobytes()
        # with out, the same draw fills out and returns it
        out = np.full((n, k, 6), np.nan)
        assert sample_realizations(geom, trial_rng(41, 2), n, out=out) is out
        assert out.tobytes() == v.tobytes()

    @pytest.mark.parametrize("geom", [GEOMETRIES[0], GEOMETRIES[3]])
    @pytest.mark.parametrize("bad", [
        "wrong n", "wrong k", "float32", "non-contiguous", "Fortran order", "read-only", "list",
    ])
    def test_bad_out_rejected_before_drawing(self, geom, bad):
        n, k = 7, 3 if geom.shadow_sigma_db > 0.0 else 2
        out = {
            "wrong n": lambda: np.empty((n + 1, k, 6)),
            "wrong k": lambda: np.empty((n, 5 - k, 6)),
            "float32": lambda: np.empty((n, k, 6), dtype=np.float32),
            "non-contiguous": lambda: np.empty((n, k, 12))[..., ::2],
            "Fortran order": lambda: np.empty((n, k, 6), order="F"),
            "read-only": lambda: np.lib.stride_tricks.as_strided(np.empty((n, k, 6)), writeable=False),
            "list": lambda: np.empty((n, k, 6)).tolist(),
        }[bad]()
        rng = trial_rng(41, 2)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^out must"):
            sample_realizations(geom, rng, n, out=out)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("geom", GEOMETRIES)
    def test_link_gains_are_squared_coefficient_moduli(self, geom):
        # hypot, then square: bit for bit, not re**2 + im**2
        v = sample_realizations(geom, trial_rng(41, 2), 5000)
        h = coefficients(geom, v)
        assert h.shape == (6, 5000) and h.dtype == complex
        assert link_gains(geom, v).tobytes() == (np.abs(h) ** 2).tobytes()

    @pytest.mark.parametrize("geom", GEOMETRIES)
    @pytest.mark.parametrize("n", [1, 7, 5000])
    def test_one_block_draw_equals_consecutive_single_draws(self, geom, n):
        block = draw_h(geom, trial_rng(41, 2), n)
        rng = trial_rng(41, 2)
        singles = np.concatenate([draw_h(geom, rng, 1) for _ in range(n)], axis=1)
        assert block.shape == (6, n)
        assert block.tobytes() == singles.tobytes()


class TestMoments:
    def test_unit_variance_degenerate_model(self):
        # shadowing off, pathloss off: coefficients are pure CN(0, 1)
        h = draw_h(flat_geometry(), np.random.default_rng(101), 1_000_000)
        mean_gain = np.mean(np.abs(h[0]) ** 2)
        assert mean_gain == pytest.approx(1.0, abs=0.01)

    def test_pathloss_only_moment(self):
        geom = flat_geometry(gamma=4.0, d=0.5)
        h = draw_h(geom, np.random.default_rng(102), 1_000_000)
        mean_gain = np.mean(np.abs(h[3]) ** 2)
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
        h = draw_h(geom, np.random.default_rng(103), 1_000_000)
        mean_gain = np.mean(np.abs(h[0]) ** 2)
        assert mean_gain == pytest.approx(oracle, rel=0.03)


class TestDistributionShape:
    def test_link_magnitudes_uncorrelated(self):
        h = draw_h(preset_geometry("I"), np.random.default_rng(104), 100_000)
        corr = np.corrcoef(np.abs(h))
        off = corr[~np.eye(6, dtype=bool)]
        assert np.max(np.abs(off)) < 0.02

    def test_phase_uniform_chi_square(self):
        h = draw_h(preset_geometry("II"), np.random.default_rng(105), 100_000)
        phases = np.angle(h[0])
        counts, _ = np.histogram(phases, bins=16, range=(-np.pi, np.pi))
        _, pvalue = stats.chisquare(counts)
        assert pvalue > 0.001


def one_trial(geom, seed, trial):
    return draw_h(geom, trial_rng(seed, trial), 1)


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
        batch = coefficients(geom, _sample_trials(geom, 5, 3, 4))
        rng = trial_rng(5, 3)
        for t in range(4):
            assert batch[:, t:t + 1].tobytes() == draw_h(geom, rng, 1).tobytes()


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
        # the largest seed and key seed numpy's way; a seed is a 64-bit unsigned
        # integer, as `simulate --seed` takes it, so one past that, or past the
        # pool's four words, is refused before a generator is built
        for key in (0, 2**64 - 1):
            assert stream_state(2**64 - 1, key) == numpy_state(2**64 - 1, key)
        for seed in (2**64, 2**70, 2**127 + 3, 2**128, 7**90):
            with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
                trial_rng(seed, 0)

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

    @pytest.mark.parametrize(
        "seed, trial, name",
        [
            # None would seed numpy's SeedSequence from OS entropy
            (None, 0, "seed"), (5.0, 0, "seed"), (True, 0, "seed"), ("5", 0, "seed"),
            # a bool key would read as 0 or 1
            (5, True, "trial"), (5, 1.0, "trial"), (5, (0, 1.5), "trial"), (5, None, "trial"),
            (5, (False, 0), "trial"),
        ],
    )
    def test_non_integer_seed_or_trial_rejected(self, seed, trial, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            trial_rng(seed, trial)

    def test_numpy_integers_draw_their_python_integers_streams(self):
        top = 2**64 - 1
        pairs = [
            ((np.int64(5), np.int32(3)), (5, 3)),
            ((np.uint64(top), (np.uint64(top), np.int8(0))), (top, (top, 0))),
        ]
        for numpy_args, python_args in pairs:
            want = trial_rng(*python_args).random(5)
            assert np.array_equal(trial_rng(*numpy_args).random(5), want)

    def test_negative_keys_rejected(self):
        for key in (-1, (4, -1), (-1, 4)):
            with pytest.raises(ValueError):
                trial_rng(3, key)


class TestSampleTrials:
    @pytest.mark.parametrize("geom", GEOMETRIES)
    def test_equals_one_block_draw_of_the_stream(self, geom):
        for seed, snr_idx, n in ((12345, 0, 40), (2**64 - 1, 2**32 - 3, 7)):
            got = coefficients(geom, _sample_trials(geom, seed, snr_idx, n))
            want = draw_h(geom, trial_rng(seed, snr_idx), n)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("geom", [GEOMETRIES[0], GEOMETRIES[3]])
    @pytest.mark.parametrize("n", [1, 7])
    def test_one_sampler_call_per_trial(self, monkeypatch, geom, n):
        # the per-trial layout that the benchmark's tracer counts
        # (channel.calls = trials x SNR points); each call fills its own
        # trial's row of the one block that _sample_trials returns
        sample, seen, rows = experiments.sample_realizations, [], []

        def record(geom, rng, m, **kwargs):
            seen.append(m)
            rows.append(kwargs.get("out"))
            return sample(geom, rng, m, **kwargs)

        monkeypatch.setattr(experiments, "sample_realizations", record)
        v = _sample_trials(geom, 5, 3, n)
        assert seen == [1] * n
        k = 3 if geom.shadow_sigma_db > 0.0 else 2
        assert v.shape == (n, k, 6)
        for t, row in enumerate(rows):
            assert isinstance(row, np.ndarray) and row.shape == (1, k, 6)
            assert row.ctypes.data == v[t:].ctypes.data

    def test_pathloss_amplitude_of_unit_normals(self):
        geom = NetworkGeometry(
            d_sd=1.3, d_sr1=0.37, d_sr2=0.61, d_r1d=0.83, d_r2d=0.29, d_r1r2=0.071,
            gamma=3.7, shadow_sigma_db=6.0,
        )
        # normals (1, 0, 0): real part 1, imaginary part 0, no shadowing, so
        # h is the path-loss amplitude d**(-gamma/2) / sqrt 2 of a
        # unit-variance complex Gaussian
        h = coefficients(geom, np.array([[[1.0] * 6, [0.0] * 6, [0.0] * 6]]))
        expected = geom.link_distances() ** (-geom.gamma / 2.0) / np.sqrt(2.0)
        assert h.shape == (6, 1) and not h.imag.any()
        np.testing.assert_allclose(h.real[:, 0], expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [0, -1, True, False, 2.5, np.float64(3), "3", None])
def test_sample_size_validated(n):
    # n is an integer >= 1, not a bool, as for a frame length (check_count)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="^n must"):
        sample_realizations(preset_geometry("I"), rng, n)
    assert rng.bit_generator.state == state


def test_numpy_integer_sample_size_accepted():
    v = sample_realizations(preset_geometry("I"), trial_rng(41, 2), np.int64(3))
    assert v.tobytes() == trial_rng(41, 2).standard_normal((3, 3, 6)).tobytes()
