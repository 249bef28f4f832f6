"""Rayleigh fading realizations, complex Gaussian noise, and SNR calibration.

All randomness flows through counter-based Philox generators derived from a
seed plus an explicit branch key, so independent streams can be handed to
parallel workers and every draw is reproducible bit-exactly across runs and
platforms regardless of scheduling. ``make_rng`` defines a stream;
``philox_keys`` derives the keys of many (seed, point, trial) streams in one
pass, bit-identical to ``make_rng``'s, for a sweep chunk to load into one
generator in turn. This module owns the draw convention,
the order in which raw standard normals become coefficients and noise
samples (NORMALS_PER_CHANNEL); ``channels_from_normals`` and
``noise_from_normals`` convert a whole stack of draws the way
``sample_channel`` and ``sample_noise`` convert one.

A realization is its coefficient array h[i, j, k], shape (2, 2, 2) or a
stack (..., 2, 2, 2), indexed (transmit antenna, receive antenna, time), all
zero-based. Quasistatic realizations satisfy h[..., 0] == h[..., 1] exactly.

SNR convention: ``snr = E_s / N0`` with E_s = 2, the total transmit energy
per channel use (two antennas sending unit-average-energy symbols, codeword
Frobenius energy 4 over 2 uses). N0 is the total variance of each complex
noise sample, N0/2 per real axis.
"""

import math

import numpy as np

CHANNEL_MODELS = ("quasistatic", "rapid", "markov")
TRANSMIT_ENERGY_PER_USE = 2.0


def make_rng(seed: int, *branch: int) -> np.random.Generator:
    """Seeded, splittable generator; distinct branch keys give disjoint streams.

    The definition of every stream, and the reference ``philox_keys`` is
    tested against."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(branch)))
    )


# numpy's SeedSequence, written out for its fixed pool of four uint32 words:
# the hash and mix constants, and the shift both use.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_SHIFT = 16
_WORD = 0xFFFFFFFF


def _hash_steps(init: int, mult: int):
    """Each successive hash step's (xor, multiplier): one running constant."""
    while True:
        nxt = init * mult & _WORD
        yield init, nxt
        init = nxt


def _hash(value, step):
    """SeedSequence's hash of a word: a Python int or a uint32 array."""
    xor, mult = step
    value = (value ^ xor) * mult & _WORD
    return value ^ value >> _SHIFT


def _mix(x, y):
    """SeedSequence's mix of hashed word ``y`` into pool word ``x``."""
    value = ((_MIX_MULT_L * x & _WORD) - _MIX_MULT_R * y) & _WORD
    return value ^ value >> _SHIFT


def _next_four(steps) -> np.ndarray:
    """The next four hash steps as (4, 1) uint32 columns of xor and multiplier."""
    return np.array([next(steps) for _ in range(4)], dtype=np.uint32).T[..., None]


def philox_keys(seed: int, point: int, trials) -> np.ndarray:
    """The Philox keys of ``make_rng(seed, point, t)`` for each trial ``t``,
    shape (len(trials), 2), uint64.

    They are ``SeedSequence(seed, spawn_key=(point, t)).generate_state(2,
    uint64)``, derived in one pass: the seed and point words are mixed once,
    as Python ints, and the trial words as one uint32 array per pool word.
    So each index must be one uint32 word, as it is in the spawn key.

    Raises:
        ValueError: a negative seed, or a point or trial outside [0, 2**32).
    """
    seed, trials = int(seed), np.asarray(trials, dtype=np.int64)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if not 0 <= point <= _WORD or trials.size and not 0 <= trials.min() <= trials.max() <= _WORD:
        raise ValueError("a point or trial index must be one uint32 word, in [0, 2**32)")
    # The seed's words, least significant first, zero-padded to the pool's
    # four as SeedSequence pads them ahead of a spawn key.
    entropy = [seed >> shift & _WORD for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (4 - len(entropy)) + [point]
    steps = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hash(word, next(steps)) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], next(steps)))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(word, next(steps)))
    # The trial word, last in the entropy, mixed into each pool word: (4, n).
    pool = _mix(np.array(pool, dtype=np.uint32)[:, None],
                _hash(trials.astype(np.uint32), _next_four(steps)))
    words = _hash(pool, _next_four(_hash_steps(_INIT_B, _MULT_B))).astype(np.uint64)
    # generate_state(2, uint64): words 0 and 1, then 2 and 3, low word first
    return (words[0::2] | words[1::2] << 32).T


# Standard normals one realization takes, in blocks of four: the real parts,
# then the imaginary parts, of the first slot's coefficients h[i, j, 0]
# (row-major in (i, j)); rapid and markov add two more blocks, the same way,
# for the second slot's independent part.
NORMALS_PER_CHANNEL = {"quasistatic": 8, "rapid": 16, "markov": 16}
NORMALS_PER_NOISE = 8  # the real parts, then the imaginary parts


def _standard_complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """i.i.d. circularly symmetric complex Gaussians with unit variance."""
    return (re + 1j * im) / math.sqrt(2)


def _channel_normals(model: str) -> int:
    if model not in CHANNEL_MODELS:
        raise ValueError(f"unknown channel model: {model!r}")
    return NORMALS_PER_CHANNEL[model]


def _blocks(normals: np.ndarray, per_item: int) -> np.ndarray:
    """View (..., per_item) normals as (per_item // 4, ..., 4) blocks of four."""
    normals = np.asarray(normals, dtype=float)
    if normals.shape[-1:] != (per_item,):
        raise ValueError(f"expected {per_item} normals per item, got shape {normals.shape}")
    return np.moveaxis(normals.reshape(normals.shape[:-1] + (per_item // 4, 4)), -2, 0)


def _channels(blocks, model: str, rho: float) -> np.ndarray:
    """Fading realizations (..., 2, 2, 2) from an iterator over (..., 4)
    blocks of normals, read in order.

    quasistatic: four i.i.d. coefficients repeated across both time slots.
    rapid: eight i.i.d. coefficients (independent across slots).
    markov: second slot correlated with the first,
        h[2] = rho * h[1] + sqrt(1 - rho^2) * w.
    """
    first = _standard_complex(next(blocks), next(blocks))
    if model == "quasistatic":
        second = first
    elif model == "rapid":
        second = _standard_complex(next(blocks), next(blocks))
    else:
        if rho is None or not 0.0 <= rho <= 1.0:
            raise ValueError("markov model needs correlation rho in [0, 1]")
        w = _standard_complex(next(blocks), next(blocks))
        second = rho * first + math.sqrt(1.0 - rho * rho) * w
    h = np.stack([first, second], axis=-1)
    return h.reshape(h.shape[:-2] + (2, 2, 2))


def channels_from_normals(normals: np.ndarray, model: str, rho: float = None) -> np.ndarray:
    """Fading realizations of shape (..., 2, 2, 2) from the raw standard
    normals of one draw each, shape (..., NORMALS_PER_CHANNEL[model])."""
    return _channels(iter(_blocks(normals, _channel_normals(model))), model, rho)


def noise_from_normals(normals: np.ndarray, n0) -> np.ndarray:
    """Complex AWGN (..., 4) of per-entry variance ``n0``, a scalar or one per
    draw, from the raw standard normals of one draw each, (..., NORMALS_PER_NOISE)."""
    blocks = _blocks(normals, NORMALS_PER_NOISE)
    if not np.all(np.greater(n0, 0)):
        raise ValueError("noise variance must be positive")
    return np.sqrt(n0)[..., None] * _standard_complex(blocks[0], blocks[1])


def sample_channels(
    rng: np.random.Generator, model: str, count: int, rho: float = None
) -> np.ndarray:
    """Draw ``count`` fading realizations as an array of shape (count, 2, 2, 2).

    The draw takes each block of four normals for all ``count``
    realizations before the next block.
    """
    # Drawn one block at a time, as _channels reads them: each block is used
    # while it is still in cache (one stacked draw of 20000 rapid or markov
    # channels was 7-13% slower).
    blocks = (rng.standard_normal((count, 4)) for _ in range(_channel_normals(model) // 4))
    return _channels(blocks, model, rho)


def sample_channel(rng: np.random.Generator, model: str, rho: float = None) -> np.ndarray:
    """Draw a single fading realization, its coefficients h[i, j, k] of shape (2, 2, 2)."""
    return channels_from_normals(rng.standard_normal(_channel_normals(model)), model, rho)


def snr_to_n0(snr_db: float) -> float:
    """Total per-sample noise variance N0 for a target SNR in dB.

    Raises:
        ValueError: if N0 is not finite and positive, which happens beyond
            about +/-3080 dB.
    """
    try:
        n0 = TRANSMIT_ENERGY_PER_USE / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        n0 = math.nan
    if not (math.isfinite(n0) and n0 > 0.0):
        raise ValueError(f"snr {snr_db:.9g} dB gives no finite positive noise variance")
    return n0


def sample_noise(rng: np.random.Generator, n0: float) -> np.ndarray:
    """Complex AWGN of per-entry variance ``n0`` for one receive stack, shape (4,)."""
    return noise_from_normals(rng.standard_normal(NORMALS_PER_NOISE), n0)
