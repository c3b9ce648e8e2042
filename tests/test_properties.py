"""Properties of the gains kernels over arbitrary gains.

Gains are log-uniform in [1e-6, 1e6] or exactly zero, SNR 0-60 dB and
l = 1..8, so the draws cover far more than the three geometries do.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from succrelay.experiments import PROTOCOLS
from succrelay.mimolinalg import DetectionOrder, logdet_capacity_batch, mmse_sic_sinrs_batch
from succrelay.protocols import (
    interference_free_batch,
    rate_classic_batch,
    successive_genie_batch,
    successive_vblast_batch,
    theorem1_rate_batch,
)

LN2 = np.log(2.0)

gain = st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(lambda e: 10.0**e))
# (6, n) gain arrays, rows in LINK_NAMES order
gain_arrays = st.lists(st.tuples(*[gain] * 6), min_size=1, max_size=8).map(
    lambda frames: np.array(frames, dtype=float).T
)
snrs = st.floats(0.0, 60.0).map(lambda db: 10.0 ** (db / 10.0))
lengths = st.integers(1, 8)
PROPERTY = settings(deadline=None)


@PROPERTY
@given(g=gain_arrays, snr=snrs, l=lengths)
def test_every_rate_finite_and_nonnegative(g, snr, l):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, (_, kernel) in PROTOCOLS.items():
            rate = kernel(g, snr, l)[0]
            assert np.all(np.isfinite(rate)) and np.all(rate >= 0.0), name


@PROPERTY
@given(g=gain_arrays, snr=snrs, l=lengths)
def test_vblast_never_above_genie(g, snr, l):
    genie = successive_genie_batch(g, snr, l)[0]
    vblast = successive_vblast_batch(g, snr, l)[0]
    assert np.all(vblast <= genie + 1e-9)


@PROPERTY
@given(g=gain_arrays, snr=snrs, l=lengths)
def test_sic_chain_rule_sums_to_the_logdet(g, snr, l):
    logdet = logdet_capacity_batch(g[0], g[4], g[5], snr, l)
    for ordering in DetectionOrder:
        _, sinrs = mmse_sic_sinrs_batch(g[0], g[4], g[5], snr, l, ordering)
        chain = np.sum(np.log1p(sinrs), axis=1) / LN2
        assert np.all(np.abs(chain - logdet) <= 1e-9 * logdet), ordering


@PROPERTY
@given(g=gain_arrays, snr=snrs)
def test_classic2_never_below_classic1(g, snr):
    assert np.all(rate_classic_batch(g, snr, 0.5) >= rate_classic_batch(g, snr, 1.0 / 3.0))


# the outage count's staircase (`succrelay.outage`) assumes the log-det never
# falls as one gain rises; rounding lets it fall by ~5e-16 relative (measured
# at l = 64), far below the 1e-6 slack the staircase puts on its targets
MONOTONE_RTOL = 2e-15
wide_gain = st.one_of(st.just(0.0), st.floats(-12.0, 12.0).map(lambda e: 10.0**e))
wide_gains = st.lists(st.tuples(*[wide_gain] * 3), min_size=1, max_size=8).map(
    lambda draws: np.array(draws, dtype=float).T
)
rises = st.tuples(st.floats(0.0, 6.0), st.one_of(st.just(0.0), wide_gain))


@PROPERTY
@given(
    g=wide_gains,
    rise=rises,
    snr=snrs,
    l=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 16, 64]),
)
def test_logdet_never_falls_as_one_gain_rises(g, rise, snr, l):
    base = logdet_capacity_batch(*g, snr, l)
    for k in range(3):
        raised = g.copy()
        raised[k] = np.nextafter(g[k] * 10.0 ** rise[0] + rise[1], np.inf)
        assert np.all(logdet_capacity_batch(*raised, snr, l) >= base * (1.0 - MONOTONE_RTOL)), k


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="both flags set, yet g_r1r2 < g_sr2 makes the recursion treat the "
    "interference as noise: the flags do not imply the capacity equality",
)
def test_both_flags_imply_genie_equals_logdet_share():
    # gains (sd, sr1, sr2, r1r2, r1d, r2d) at l = 2 and 0 dB: genie rate
    # 0.351 bits/slot against a log-det share of 1.016
    g = np.array([[0.005], [0.12], [260.0], [250.0], [0.015], [7.1]])
    snr, l = 1.0, 2
    cancel_ok, source_ok = interference_free_batch(g, snr, l)
    if not (cancel_ok[0] and source_ok[0]):
        pytest.fail("the pinned point no longer sets both flags")
    genie = successive_genie_batch(g, snr, l)[0]
    share = theorem1_rate_batch(g, snr, l)
    assert genie[0] == pytest.approx(share[0], rel=1e-9)
