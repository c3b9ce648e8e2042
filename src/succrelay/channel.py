"""Network geometries and fading channel realizations.

A frame sees six quasi-static links: source-destination, source to each
relay, the inter-relay link, and each relay to destination.  Every link
coefficient is drawn as

    h = v * sqrt(d**-gamma * 10**(zeta / 10))

where ``v`` is a unit-variance circularly-symmetric complex Gaussian
(Rayleigh fading), ``d`` the link distance, ``gamma`` the pathloss
exponent and ``zeta ~ Normal(0 dB, shadow_sigma_db**2)`` a lognormal
shadowing term.  Shadowing is redrawn independently per link and per
realization; the channel is block fading (one realization per frame).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

LINK_NAMES = ("sd", "sr1", "sr2", "r1r2", "r1d", "r2d")

# Case III only pins the inter-relay spacing as negligible next to the
# source-relay distance.  0.05 (a tenth of d_sr) keeps the mean inter-relay
# gain dominant (0.05**-4 = 160,000) without float-range pathologies.
CASE_III_RELAY_SPACING = 0.05

# natural log of an amplitude per dB of power: 10**(zeta / 20) = exp(zeta * this)
_LOG_AMPLITUDE_PER_DB = np.log(10.0) / 20.0


@dataclass(frozen=True)
class NetworkGeometry:
    """Node distances plus propagation parameters.

    Distances are unitless, normalized so that source-destination is 1.

    Attributes:
        d_sd: source to destination distance.
        d_sr1, d_sr2: source to relay distances.
        d_r1d, d_r2d: relay to destination distances.
        d_r1r2: inter-relay distance.
        gamma: pathloss exponent.
        shadow_sigma_db: lognormal shadowing standard deviation in dB.
    """

    d_sd: float
    d_sr1: float
    d_sr2: float
    d_r1d: float
    d_r2d: float
    d_r1r2: float
    gamma: float = 4.0
    shadow_sigma_db: float = 8.0

    def __post_init__(self) -> None:
        for field in fields(self):  # each stored as a float; a bool is not a distance
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{field.name} must be a real number, got {value!r}")
            try:
                object.__setattr__(self, field.name, float(value))
            except OverflowError as exc:
                raise ValueError(f"{field.name}: {exc}") from exc
        for name in ("d_sd", "d_sr1", "d_sr2", "d_r1d", "d_r2d", "d_r1r2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if not 0.0 <= self.shadow_sigma_db < np.inf:
            raise ValueError(f"shadow_sigma_db must be finite and >= 0, got {self.shadow_sigma_db}")

    def link_distances(self) -> np.ndarray:
        """Distances of the six links, in LINK_NAMES order."""
        return np.array(
            [self.d_sd, self.d_sr1, self.d_sr2, self.d_r1r2, self.d_r1d, self.d_r2d]
        )

    @cached_property
    def _log_amplitudes(self) -> np.ndarray:
        """Read-only (6,) log(d**(-gamma/2) / sqrt 2), in LINK_NAMES order.

        The log of each link's path-loss amplitude, with the 1/sqrt 2 that
        gives the complex Gaussian unit variance folded in.
        """
        log_amp = -0.5 * (self.gamma * np.log(self.link_distances()) + np.log(2.0))
        log_amp.flags.writeable = False
        return log_amp


# case -> (each relay's distance to the source and to the destination, inter-relay distance)
_PRESETS = {
    "I": (1.0, np.sqrt(3.0)), "II": (1.0 / np.sqrt(2.0), 1.0), "III": (0.5, CASE_III_RELAY_SPACING)
}


def preset_geometry(case_id: str) -> NetworkGeometry:
    """Return one of the three canonical network geometries.

    Case I:   relays at unit distance from both endpoints; the inter-relay
              spacing is then sqrt(3).
    Case II:  unit inter-relay distance, source/destination at 1/sqrt(2)
              from each relay.
    Case III: relays midway between the endpoints (d = 1/2) and nearly
              co-located (inter-relay spacing CASE_III_RELAY_SPACING).

    All presets use gamma = 4 and 8 dB shadowing.
    """
    case = str(case_id).strip().upper()
    if case not in _PRESETS:
        raise ValueError(f"unknown geometry case {case_id!r}; expected I, II or III")
    d, d_rr = _PRESETS[case]
    return NetworkGeometry(d_sd=1.0, d_sr1=d, d_sr2=d, d_r1d=d, d_r2d=d, d_r1r2=d_rr)


@dataclass(frozen=True)
class ChannelBatch:
    """Complex coefficients of n frames: ``h`` is (6, n), rows in LINK_NAMES order."""

    h: np.ndarray

    def __len__(self) -> int:
        return self.h.shape[1]

    def gains(self) -> np.ndarray:
        """The (6, n) squared link gains |h|**2 that every rate reads.

        Raises ValueError naming the first link with a gain that is not
        finite: a non-finite coefficient, or one whose square overflows.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.abs(self.h) ** 2
        finite = np.isfinite(g)
        if not finite.all():
            link = LINK_NAMES[int(np.argmin(finite.all(axis=1)))]
            raise ValueError(f"|h_{link}|^2 must be finite")
        return g


def trial_rng(seed: int, trial) -> np.random.Generator:
    """Independent random stream keyed by (seed, trial).

    numpy's ``default_rng(SeedSequence(entropy=seed, spawn_key=key))``, so
    a stream's draws do not depend on execution order; an integer trial is
    the key (trial,).  The experiments key their streams apart: a geometry
    sweep draws SNR point i's trials from (i,), trial-major, so more trials
    extend the stream without changing earlier ones; the outage count
    draws DMT grid point i from (i, 0), and the gain curve frame length
    i's Exp(1) gains from (i, 1).  Seed and every key must be >= 0, and
    each key below 2**64.
    """
    key = trial if isinstance(trial, tuple) else (trial,)
    for k in key:
        if not 0 <= k < 2**64:
            raise ValueError(f"trial must lie in [0, 2**64), got {k}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def sample_realizations(
    geom: NetworkGeometry, rng: np.random.Generator, n: int
) -> ChannelBatch:
    """Draw ``n`` independent channel realizations from one stream.

    One ``standard_normal((n, k, 6))`` draw, trial-major: trial t reads the
    real parts, the imaginary parts and, when shadowed (k = 3; else k = 2),
    the shadowing ``zeta / shadow_sigma_db``, each in LINK_NAMES order.  So
    one call for n trials gives the same bytes as n consecutive calls for
    one trial each on the same generator.  Both parts of a coefficient are
    multiplied by the real amplitude
    ``exp(_log_amplitudes + zeta * ln(10) / 20)``, zeta in dB.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    log_amp = geom._log_amplitudes
    if geom.shadow_sigma_db > 0.0:
        v = rng.standard_normal((n, 3, 6))
        log_amp = v[:, 2] * (geom.shadow_sigma_db * _LOG_AMPLITUDE_PER_DB)
        log_amp += geom._log_amplitudes
    else:
        v = rng.standard_normal((n, 2, 6))
    h = np.empty((6, n), dtype=complex)
    # (re, im) of h[:, t] lie in float view [:, t, 0] and [:, t, 1]
    parts = h.view(np.float64).reshape(6, n, 2).transpose(1, 2, 0)
    np.multiply(v[:, :2], np.exp(log_amp).reshape(-1, 1, 6), out=parts)
    return ChannelBatch(h)
