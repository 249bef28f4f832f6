"""Rayleigh fading realizations, complex Gaussian noise, and SNR calibration.

All randomness flows through counter-based Philox generators derived from a
seed plus an explicit branch key, so independent streams can be handed to
parallel workers and every draw is reproducible bit-exactly across runs and
platforms regardless of scheduling. This module owns the draw convention,
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
    """Seeded, splittable generator; distinct branch keys give disjoint streams."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(branch)))
    )


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
