"""One rule per numeric argument.

Every public entry point checks its numbers with `mimolinalg.check_real`
(a finite real number, >= 0 or > 0), `mimolinalg.check_count` (an integer
in a stated range) or `snr_from_db`, which applies `check_real`'s type rule
to a dB value.  A str, bytes or bool, Python or numpy, NaN, inf or an int
past float range raises ValueError naming the argument; numpy scalars, and
the 0-d arrays that a real argument took before, still pass.  A sequence
with such an entry is refused the same way, also when it is ragged, which
numpy refuses to give an ndim.
`NetworkGeometry` checks each of its eight fields with `check_real`.
`ExperimentConfig` checks each numeric field with the same library call, so
a field is refused exactly when the library refuses its value.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from succrelay import experiments
from succrelay.channel import NetworkGeometry, trial_rng
from succrelay.experiments import ConfigError, ExperimentConfig
from succrelay.mimolinalg import logdet_capacity_batch, mmse_sic_sinrs_batch
from succrelay.outage import estimate_dmt, outage_prob_conditioned, snr_from_db
from succrelay.protocols import (
    capacity_gain_G,
    interference_free_batch,
    rate_classic_batch,
    rate_direct_batch,
    successive_genie_batch,
    successive_vblast_batch,
    theorem1_rate_batch,
)

G = np.full((6, 4), 0.5)  # the six gains of four draws
E = G[0]  # one link's gains of the same draws
EMPTY = np.empty(0)  # no draw: a kernel call only checks its arguments
GRID = [20.0, 30.0, 40.0]

# entry point and argument -> (the name its error starts with, a call that
# passes x as that argument, a valid numpy value of it)
ENTRY_POINTS = {
    "estimate_dmt-r": ("multiplexing gain", lambda x: estimate_dmt(x, 3, GRID, 10, 0), 0.0),
    "estimate_dmt-grid": ("snr", lambda x: estimate_dmt(0.0, 3, [20.0, 30.0, x], 10, 0), 40.0),
    "estimate_dmt-trials": ("trials", lambda x: estimate_dmt(0.0, 3, GRID, x, 0), 10),
    # one grid point's entry of a list of counts
    "estimate_dmt-trials-entry": (
        "trials", lambda x: estimate_dmt(0.0, 3, GRID, [10, 10, x], 0), 10
    ),
    "outage_prob_conditioned-snr": (
        "snr", lambda x: outage_prob_conditioned(x, 1.0, 3, 10, 0), 100.0
    ),
    "outage_prob_conditioned-rate": (
        "target rate", lambda x: outage_prob_conditioned(100.0, x, 3, 10, 0), 1.0
    ),
    "outage_prob_conditioned-trials": (
        "trials", lambda x: outage_prob_conditioned(100.0, 1.0, 3, x, 0), 10
    ),
    "capacity_gain_G-snrs": ("snrs", lambda x: capacity_gain_G(E, E, E, [10.0, x], [3]), 100.0),
    "capacity_gain_G-ls": (
        "frame length", lambda x: capacity_gain_G(E, E, E, [10.0], [3, x]), 3
    ),
    "snr_from_db": ("snr", snr_from_db, 20.0),
    "rate_direct_batch-snr": ("snr", lambda x: rate_direct_batch(G, x), 10.0),
    "rate_classic_batch-snr": ("snr", lambda x: rate_classic_batch(G, x, 0.5), 10.0),
    "successive_genie_batch-snr": ("snr", lambda x: successive_genie_batch(G, x, 3), 10.0),
    "successive_vblast_batch-snr": ("snr", lambda x: successive_vblast_batch(G, x, 3), 10.0),
    "theorem1_rate_batch-snr": ("snr", lambda x: theorem1_rate_batch(G, x, 3), 10.0),
    "interference_free_batch-snr": ("snr", lambda x: interference_free_batch(G, x, 3), 10.0),
    "logdet_capacity_batch-snr": ("snr", lambda x: logdet_capacity_batch(E, E, E, x, 3), 10.0),
    "mmse_sic_sinrs_batch-snr": ("snr", lambda x: mmse_sic_sinrs_batch(E, E, E, x, 3), 10.0),
    "logdet_capacity_batch-l": (
        "frame length", lambda x: logdet_capacity_batch(E, E, E, 10.0, x), 3
    ),
    # one entry of a sequence of lengths
    "logdet_capacity_batch-l-entry": (
        "frame length", lambda x: logdet_capacity_batch(E, E, E, 10.0, [3, x]), 3
    ),
    "mmse_sic_sinrs_batch-l": ("frame length", lambda x: mmse_sic_sinrs_batch(E, E, E, 10.0, x), 3),
    "trial_rng-seed": ("seed", lambda x: trial_rng(x, 0), 5),
    "trial_rng-key": ("trial", lambda x: trial_rng(0, x), 5),
}
# each NetworkGeometry field, replaced in a geometry of valid fields
GEOMETRY = {
    "d_sd": 0.5, "d_sr1": 0.5, "d_sr2": 0.5, "d_r1d": 0.5, "d_r2d": 0.5, "d_r1r2": 0.5,
    "gamma": 4.0, "shadow_sigma_db": 8.0,
}
for _field, _good in GEOMETRY.items():
    ENTRY_POINTS[f"NetworkGeometry-{_field}"] = (
        _field, lambda x, f=_field: NetworkGeometry(**{**GEOMETRY, f: x}), _good
    )
BAD_INPUTS = {
    "str": "1",
    "bytes": b"1",
    "bool": True,
    "false": False,
    "numpy-bool": np.True_,
    "nan": math.nan,
    "inf": math.inf,
    "int-past-float-range": 10**400,
    "list": [1.0],
    "none": None,
}
# (entry point, bad input) -> what its error starts with instead of the
# name: a one-entry list of counts is a valid form refused for its length.
# A bad input in a list is a ragged sequence, refused by its entry's name.
OTHER_PREFIX = {
    ("estimate_dmt-trials", "list"): "trials_per_point must match the grid length",
}


@pytest.mark.parametrize("bad", BAD_INPUTS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_bad_input_raises_naming_the_argument(entry, bad):
    name, call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="^" + OTHER_PREFIX.get((entry, bad), f"{name} ")):
        call(BAD_INPUTS[bad])


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_long_value_is_cut_in_the_message(entry):
    # 10**400 has a 401-character repr; reprlib keeps its first 18 and last
    # 19 digits, so the message keeps the argument's name and the int
    name, call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{name} ") as raised:
        call(10**400)
    message = str(raised.value)
    assert len(message) < 110, message
    assert " 100000000000000000...0000000000000000000" in message, message


def test_long_sequence_is_cut_in_the_message():
    # a 2-D list is no sequence of frame lengths or of SNRs; reprlib cuts
    # its 6,002- or 5,002-character repr to its first six entries
    for name, call, cut in (
        ("frame lengths", lambda: logdet_capacity_batch(E, E, E, 10.0, [[3] * 2000]), "3, "),
        ("snrs", lambda: capacity_gain_G(E, E, E, [[1.0] * 1000], [3]), "1.0, "),
    ):
        with pytest.raises(ValueError, match=f"^{name} ") as raised:
            call()
        message = str(raised.value)
        assert len(message) < 110 and message.endswith(f"got [[{cut * 6}...]]"), message


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_scalar_still_works(entry):
    _, call, good = ENTRY_POINTS[entry]
    call(good)
    if isinstance(good, int):
        call(np.int64(good))
    else:  # a real argument also took a 0-d array before
        call(np.float64(good))
        call(np.array(good))


# numeric config field -> the public call that checks its value in the library
LIBRARY = {
    "l": lambda v: logdet_capacity_batch(EMPTY, EMPTY, EMPTY, 1.0, v),
    "snr_grid_db": snr_from_db,
    "trials": lambda v: outage_prob_conditioned(10.0, 0.0, 3, v, 0),  # a 0 target draws nothing
    "seed": lambda v: trial_rng(v, 0),
    "gain_l_values": lambda v: logdet_capacity_batch(EMPTY, EMPTY, EMPTY, 1.0, [v]),
    "dmt_r": lambda v: estimate_dmt(v, 1, GRID, 1, 0),
    "dmt_trials_per_point": lambda v: outage_prob_conditioned(10.0, 0.0, 3, v, 0),
}
BOUNDARY = [0, 1, -1, 2**63 - 1, 2**63, 2**64, 1.5, True, math.inf, math.nan]
NUMERIC = [name for name, row in experiments._FIELDS.items() if row[0] is not str]


def test_every_numeric_field_has_one_library_check():
    assert sorted(LIBRARY) == sorted(NUMERIC)
    for name in NUMERIC:
        assert callable(experiments._FIELDS[name][2]), name


@pytest.mark.parametrize("value", BOUNDARY, ids=repr)
@pytest.mark.parametrize("field", NUMERIC)
def test_field_refused_iff_the_library_refuses(field, value):
    try:
        LIBRARY[field](value)
        library_refuses = False
    except ValueError:
        library_refuses = True
    listed = experiments._FIELDS[field][1]
    try:
        ExperimentConfig(**{"snr_grid_db": (20.0,), field: (value,) if listed else value})
        config_refuses = False
    except ConfigError as exc:
        assert exc.field == field
        config_refuses = True
    assert config_refuses == library_refuses
