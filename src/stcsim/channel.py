"""Rayleigh fading realizations, complex Gaussian noise, and SNR calibration.

All randomness flows through counter-based Philox generators derived from a
seed plus an explicit branch key, so independent streams can be handed to
parallel workers and every draw is reproducible bit-exactly across runs and
platforms regardless of scheduling.

SNR convention: ``snr = E_s / N0`` with E_s = 2, the total transmit energy
per channel use (two antennas sending unit-average-energy symbols, codeword
Frobenius energy 4 over 2 uses). N0 is the total variance of each complex
noise sample, N0/2 per real axis.
"""

import math
from dataclasses import dataclass

import numpy as np

CHANNEL_MODELS = ("quasistatic", "rapid", "markov")
TRANSMIT_ENERGY_PER_USE = 2.0


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One block's channel coefficients h[i, j, k].

    Indices are (transmit antenna, receive antenna, time), all zero-based.
    Quasistatic realizations satisfy h[..., 0] == h[..., 1] exactly.
    """

    h: np.ndarray
    model: str
    rho: float = None


def make_rng(seed: int, *branch: int) -> np.random.Generator:
    """Seeded, splittable generator; distinct branch keys give disjoint streams."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(branch)))
    )


def _standard_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. circularly symmetric complex Gaussians with unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def sample_channels(
    rng: np.random.Generator, model: str, count: int, rho: float = None
) -> np.ndarray:
    """Draw ``count`` fading realizations as an array of shape (count, 2, 2, 2).

    quasistatic: four i.i.d. coefficients repeated across both time slots.
    rapid: eight i.i.d. coefficients (independent across slots).
    markov: second slot correlated with the first,
        h[2] = rho * h[1] + sqrt(1 - rho^2) * w.
    """
    if model not in CHANNEL_MODELS:
        raise ValueError(f"unknown channel model: {model!r}")
    first = _standard_complex(rng, (count, 2, 2))
    if model == "quasistatic":
        second = first
    elif model == "rapid":
        second = _standard_complex(rng, (count, 2, 2))
    else:
        if rho is None or not 0.0 <= rho <= 1.0:
            raise ValueError("markov model needs correlation rho in [0, 1]")
        w = _standard_complex(rng, (count, 2, 2))
        second = rho * first + math.sqrt(1.0 - rho * rho) * w
    return np.stack([first, second], axis=-1)


def sample_channel(
    rng: np.random.Generator, model: str, rho: float = None
) -> ChannelRealization:
    """Draw a single fading realization."""
    h = sample_channels(rng, model, 1, rho)[0]
    return ChannelRealization(h=h, model=model, rho=rho)


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


def sample_noise(rng: np.random.Generator, n0: float, count: int = None) -> np.ndarray:
    """Complex AWGN samples with per-entry variance ``n0``.

    Returns shape (4,) for a single receive stack, or (count, 4).
    """
    if n0 <= 0:
        raise ValueError("noise variance must be positive")
    shape = (4,) if count is None else (count, 4)
    return math.sqrt(n0) * _standard_complex(rng, shape)
