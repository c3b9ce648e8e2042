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

Trial t of seed s draws from numpy's PCG64 stream of
``SeedSequence(entropy=s, spawn_key=(t,))``.  Numpy's stream-compatibility
policy freezes both that hash and PCG64's seeding, so `pcg64_states`
computes the states of many trials in one vectorised pass, and
`trial_streams` re-states one generator per trial instead of building a
seed sequence and a bit generator for each.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

LINK_NAMES = ("sd", "sr1", "sr2", "r1r2", "r1d", "r2d")

# Case III only pins the inter-relay spacing as negligible next to the
# source-relay distance.  0.05 (a tenth of d_sr) keeps the mean inter-relay
# gain dominant (0.05**-4 = 160,000) without float-range pathologies.
CASE_III_RELAY_SPACING = 0.05

_SQRT2 = np.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2
_SQRT3 = np.sqrt(3.0)

# numpy's SeedSequence hash (4-word pool) and PCG64's 128-bit multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_STATE_CHUNK = 2048


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
        for name in ("d_sd", "d_sr1", "d_sr2", "d_r1d", "d_r2d", "d_r1r2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.shadow_sigma_db < 0.0:
            raise ValueError(
                f"shadow_sigma_db must be >= 0, got {self.shadow_sigma_db}"
            )

    def link_distances(self) -> np.ndarray:
        """Distances of the six links, in LINK_NAMES order."""
        return np.array(
            [self.d_sd, self.d_sr1, self.d_sr2, self.d_r1r2, self.d_r1d, self.d_r2d]
        )

    @cached_property
    def _amplitudes(self) -> np.ndarray:
        """Read-only (6, 1) path-loss amplitudes d**(-gamma/2), in LINK_NAMES order."""
        amp = self.link_distances()[:, None] ** (-self.gamma / 2.0)
        amp.flags.writeable = False
        return amp


def preset_geometry(case_id: str, relay_spacing: float | None = None) -> NetworkGeometry:
    """Return one of the three canonical network geometries.

    Case I:   relays at unit distance from both endpoints; the inter-relay
              spacing is then sqrt(3).
    Case II:  unit inter-relay distance, source/destination at 1/sqrt(2)
              from each relay.
    Case III: relays midway between the endpoints (d = 1/2) and nearly
              co-located (inter-relay spacing CASE_III_RELAY_SPACING,
              overridable via ``relay_spacing``).

    All presets use gamma = 4 and 8 dB shadowing.
    """
    case = str(case_id).strip().upper()
    if case == "I":
        d_sr = d_rd = 1.0
        d_rr = _SQRT3
    elif case == "II":
        d_sr = d_rd = 1.0 / _SQRT2
        d_rr = 1.0
    elif case == "III":
        d_sr = d_rd = 0.5
        d_rr = CASE_III_RELAY_SPACING
    else:
        raise ValueError(f"unknown geometry case {case_id!r}; expected I, II or III")
    if relay_spacing is not None:
        d_rr = float(relay_spacing)
    return NetworkGeometry(
        d_sd=1.0, d_sr1=d_sr, d_sr2=d_sr, d_r1d=d_rd, d_r2d=d_rd, d_r1r2=d_rr
    )


@dataclass(frozen=True)
class ChannelBatch:
    """Complex coefficients of n frames: ``h`` is (6, n), rows in LINK_NAMES order."""

    h: np.ndarray

    def __len__(self) -> int:
        return self.h.shape[1]

    def gains(self) -> np.ndarray:
        """The (6, n) squared link gains |h|**2 that every rate reads.

        Raises ValueError naming the first link with a non-finite coefficient.
        """
        finite = np.isfinite(self.h)
        if not finite.all():
            link = LINK_NAMES[int(np.argmin(finite.all(axis=1)))]
            raise ValueError(f"h_{link} must be finite")
        return np.abs(self.h) ** 2


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative integer; 0 is one word."""
    if value < 0:
        raise ValueError(f"seed must be >= 0, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_constants(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """SeedSequence's hash constant before and after each multiplication."""
    while True:
        advanced = (init * mult) & _MASK32
        yield init, advanced
        init = advanced


# Both take Python ints or uint64 arrays of 32-bit values: products of two
# such values fit 64 bits, and the final mask reduces mod 2**32 either way.
def _hashmix(value, before: int, after: int):
    value = ((value ^ before) * after) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


@lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], tuple, tuple]:
    """The hash pool after the seed's words, and the constants that the
    low and the high word of a key meet next, in pool order."""
    # a spawn key pads the seed's words with zeros to the pool size
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(w, *next(constants)) for w in run[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(constants)))
    for word in run[_POOL_SIZE:]:
        pool = [_mix(p, _hashmix(word, *next(constants))) for p in pool]
    low = tuple(next(constants) for _ in range(_POOL_SIZE))
    high = tuple(next(constants) for _ in range(_POOL_SIZE))
    return tuple(pool), low, high


# generate_state(4, np.uint64): eight words cycling over the pool
_OUTPUT_CONSTANTS = tuple(
    c for c, _ in zip(_hash_constants(_INIT_B, _MULT_B), range(2 * _POOL_SIZE))
)


def pcg64_states(seed: int, keys) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of the stream keyed by (seed, key), per key.

    Entry i is the state of
    ``np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(keys[i],)))``.
    SeedSequence's pool hash takes the seed's words first, cached per
    seed, then each key's words, vectorised over the keys.  Each key then
    takes O'Neill's setseq initialisation, two LCG steps mod 2**128
    (O'Neill, HMC-CS-2014-0905).  Keys must lie in [0, 2**64).
    """
    keys = np.asarray(keys)
    if keys.ndim != 1 or keys.dtype.kind not in "iu":
        raise ValueError("keys must be a 1-D integer array")
    if keys.size and keys.min() < 0:
        raise ValueError(f"keys must be >= 0, got {keys.min()}")
    keys = keys.astype(np.uint64)
    pool, low_constants, high_constants = _seed_pool(int(seed))
    low, high = keys & _MASK32, keys >> 32
    pool = [_mix(p, _hashmix(low, *c)) for p, c in zip(pool, low_constants)]
    # keys >= 2**32 carry a second word
    mixed = [_mix(p, _hashmix(high, *c)) for p, c in zip(pool, high_constants)]
    pool = [np.where(high != 0, m, p) for m, p in zip(mixed, pool)]
    words = [_hashmix(pool[i % _POOL_SIZE], *c) for i, c in enumerate(_OUTPUT_CONSTANTS)]
    halves = [words[2 * k] | (words[2 * k + 1] << 32) for k in range(4)]
    s_hi, s_lo, i_hi, i_lo = (h.tolist() for h in halves)
    states = []
    for sh, sl, ih, il in zip(s_hi, s_lo, i_hi, i_lo):
        # from state 0: one step, add the start, one more step
        inc = ((((ih << 64) | il) << 1) | 1) & _MASK128
        start = (sh << 64) | sl
        states.append((((start + inc) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


class _Unseeded(np.random.bit_generator.ISeedSequence):
    """Zero seed words, for a bit generator whose state is set before use."""

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return np.zeros(n_words, dtype=dtype)


def trial_streams(seed: int, first_trial: int, n: int) -> Iterator[np.random.Generator]:
    """Yield the stream of trials first_trial, ..., first_trial + n - 1.

    Each yielded generator draws exactly as ``trial_rng(seed, trial)``, but
    it is one Generator, re-stated before each yield: use it before
    advancing the iterator.
    """
    if not 0 <= first_trial <= first_trial + n <= 2**64:
        raise ValueError(f"trials must lie in [0, 2**64), got {first_trial} + {n}")
    bitgen = np.random.PCG64(_Unseeded())
    gen = np.random.Generator(bitgen)
    end = first_trial + n
    # bounded pieces keep the states' Python integers off the peak memory
    for lo in range(first_trial, end, _STATE_CHUNK):
        keys = np.arange(lo, min(lo + _STATE_CHUNK, end), dtype=np.uint64)
        for state, inc in pcg64_states(seed, keys):
            # no 32-bit half of an earlier draw may carry over
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield gen


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent random stream for one trial.

    Streams are keyed by (seed, trial): numpy's
    ``default_rng(SeedSequence(entropy=seed, spawn_key=(trial,)))``, so
    trial t's draws do not depend on execution order or worker count.  Seed
    and trial must be >= 0, and the trial below 2**64, as in `trial_streams`.
    """
    if not 0 <= trial < 2**64:
        raise ValueError(f"trial must lie in [0, 2**64), got {trial}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def sample_realizations(
    geom: NetworkGeometry, rng: np.random.Generator, n: int
) -> ChannelBatch:
    """Draw ``n`` independent channel realizations from one stream.

    Draw order is fixed (Gaussian re/im parts, then shadowing) so a given
    generator state always yields the same batch.  Each part is
    ``(v * (1/sqrt 2)) * amp`` in real arithmetic, the same words as the
    complex ``(v_re + 1j v_im) / sqrt 2 * amp``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    v = rng.standard_normal((2, 6, n))
    v *= _INV_SQRT2
    amp = geom._amplitudes
    if geom.shadow_sigma_db > 0.0:
        zeta = rng.normal(0.0, geom.shadow_sigma_db, size=(6, n))
        amp = amp * 10.0 ** (zeta / 20.0)
    h = np.empty((6, n), dtype=complex)
    np.multiply(v[0], amp, out=h.real)
    np.multiply(v[1], amp, out=h.imag)
    return ChannelBatch(h)
