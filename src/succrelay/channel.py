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

`sample_realizations` returns the standard normals behind n frames as a
plain array, and `link_gains` scales them to the six |h|**2 that every rate
reads, in real arithmetic: no complex h is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .mimolinalg import check_count, check_real

LINK_NAMES = ("sd", "sr1", "sr2", "r1r2", "r1d", "r2d")

# Case III only pins the inter-relay spacing as negligible next to the
# source-relay distance.  0.05 (a tenth of d_sr) keeps the mean inter-relay
# gain dominant (0.05**-4 = 160,000) without float-range pathologies.
CASE_III_RELAY_SPACING = 0.05


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

    Each field meets `mimolinalg.check_real` and is stored as the float it
    returns: the six distances and gamma must be finite real numbers > 0,
    shadow_sigma_db one >= 0.  Otherwise ValueError starts with the field's name.
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
        for field in fields(self):  # each stored as the float check_real returns
            positive = field.name != "shadow_sigma_db"
            value = check_real(getattr(self, field.name), field.name, positive=positive)
            object.__setattr__(self, field.name, value)

    def link_distances(self) -> np.ndarray:
        """Distances of the six links, in LINK_NAMES order."""
        return np.array(
            [self.d_sd, self.d_sr1, self.d_sr2, self.d_r1r2, self.d_r1d, self.d_r2d]
        )


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


def link_gains(geom: NetworkGeometry, v: np.ndarray) -> np.ndarray:
    """The (6, n) squared link gains |h|**2 of normals ``v``, C-contiguous,
    rows in LINK_NAMES order: the one place where normals become gains.

    ``v`` is a trial-major ``(n, k, 6)`` block as `sample_realizations`
    draws it: trial t's real parts, imaginary parts and, when ``geom`` is
    shadowed (k = 3; else k = 2), its shadowing ``zeta / shadow_sigma_db``,
    each in LINK_NAMES order.  Both parts are multiplied by the real
    amplitude ``exp(log(d**(-gamma/2) / sqrt 2) + zeta * ln(10) / 20)``,
    zeta in dB, and the gain is the sum of their squares; the 1/sqrt 2 gives
    the complex Gaussian unit variance.  ``v`` of any other shape raises
    ValueError, and so does a gain that path loss or shadowing makes
    non-finite, naming its first link.
    """
    shape = realization_shape(geom, len(v))
    if v.shape != shape:
        raise ValueError(f"v must have shape {shape}, got {v.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        log_amp = -0.5 * (geom.gamma * np.log(geom.link_distances()) + np.log(2.0))
        if geom.shadow_sigma_db > 0.0:
            log_amp = log_amp + v[:, 2] * (geom.shadow_sigma_db * (np.log(10.0) / 20.0))
        amp = np.exp(log_amp)
        g = (np.square(v[:, 0] * amp) + np.square(v[:, 1] * amp)).T.copy()
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
    draws DMT grid point i from (i, 0), and the gain curve draws its Exp(1)
    gains once from (0, 1), shared by every frame length and SNR point.
    The seed and every key must pass `check_count` in [0, 2**64), as a
    64-bit unsigned integer, or ValueError names them before a generator is
    built; a seed of None would draw from OS entropy.
    """
    key = trial if isinstance(trial, tuple) else (trial,)
    check_count(seed, "seed", 0, 64)
    for k in key:
        check_count(k, "trial", 0, 64)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def realization_shape(geom: NetworkGeometry, n: int) -> tuple[int, int, int]:
    """The shape (n, k, 6) of n trials' normals: k = 3 when ``geom`` is shadowed, else 2."""
    return (n, 3 if geom.shadow_sigma_db > 0.0 else 2, 6)


def sample_realizations(
    geom: NetworkGeometry, rng: np.random.Generator, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Draw the standard normals of ``n`` independent channel realizations.

    One ``standard_normal((n, k, 6))`` draw, trial-major, returned as is
    (`realization_shape`: k = 3 when shadowed, else 2); `link_gains` scales
    it.  So one call for n trials gives the same bytes as n consecutive
    calls for one trial each on the same generator, joined in order.

    With ``out``, a writable C-contiguous float64 array of shape (n, k, 6),
    the draw fills ``out`` and returns it, with the same bytes as a fresh
    draw.  ``n`` must pass `check_count` in [1, 2**63); a bad ``n`` or
    ``out`` raises ValueError before anything is drawn.
    """
    # a plain int skips check_count's ABC test, which costs about as much as
    # the rest of a one-trial call, and a sweep makes one call per trial
    if type(n) is not int or not 0 < n < 2**63:
        n = check_count(n, "n")
    shape = realization_shape(geom, n)
    if out is None:
        return rng.standard_normal(shape)
    # the draw rejects a read-only, misaligned or non-float64 out before it
    # draws; the shape and the C order are checked here
    try:
        if out.shape != shape or not out.flags.c_contiguous:
            raise ValueError(f"shape {out.shape} or not C-contiguous")
        return rng.standard_normal(out=out)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(
            f"out must be a writable C-contiguous float64 array of shape {shape}"
        ) from exc
