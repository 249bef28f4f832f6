"""Encoders and effective-channel builders for 2x2 space-time codes.

Four codes are supported: three isomorphic golden-code variants named
``golden-dv``, ``golden-brv`` and ``golden-wimax``, and the rate-two
``overlaid-alamouti`` code. Every code induces a 4x4 effective channel
mapping the four information symbols onto a stacked vector of the four
received samples; the stacking convention (which samples are conjugated)
travels with the EffectiveChannel so that decoders never branch on code
identity. For every variant and every channel realization,

    transmit(encode(x), ch, noise) == effective.h @ x + stacked_noise

holds to machine precision; the variant encoders are defined by exactly that
coefficient matching.

Codewords are 2x2 complex arrays with entry [k, i] holding the symbol sent
from antenna i at time k.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization
from .matrixkit import QRFactors, qr_decompose


@dataclass(frozen=True, eq=False)
class GoldenConstants:
    """Defining constants of the golden code's symbol rotation."""

    theta: float
    cos_theta: float
    sin_theta: float
    phase: complex  # unit phase applied to the off-diagonal symbol pair
    rotation: np.ndarray  # 2x2 [[cos, sin], [-sin, cos]]


@dataclass(frozen=True, eq=False)
class AlamoutiConstants:
    """Mixing coefficients of the overlaid Alamouti code's second layer."""

    phi1: complex
    phi2: complex


def _golden_constants() -> GoldenConstants:
    theta = 0.5 * math.atan(2.0)
    c = math.cos(theta)
    s = math.sin(theta)
    rotation = np.array([[c, s], [-s, c]])
    rotation.setflags(write=False)
    return GoldenConstants(
        theta=theta,
        cos_theta=c,
        sin_theta=s,
        phase=complex(math.cos(math.pi / 4), math.sin(math.pi / 4)),
        rotation=rotation,
    )


GOLDEN = _golden_constants()
ALAMOUTI = AlamoutiConstants(
    phi1=(1 + 1j) / math.sqrt(7), phi2=(1 + 2j) / math.sqrt(7)
)

GOLDEN_VARIANTS = ("golden-brv", "golden-dv", "golden-wimax")
CODE_VARIANTS = GOLDEN_VARIANTS + ("overlaid-alamouti",)


@dataclass(frozen=True, eq=False)
class EffectiveChannel:
    """4x4 effective channel plus the receive-stacking map it assumes.

    ``conjugated[l]`` tells whether the l-th stacked receive sample is the
    complex conjugate of the raw sample.

    ``factors`` is the QR factorization of ``h`` for channels built by
    ``factored_channels``, else None. No constructor argument sets it, so
    attached factors always belong to this channel's own ``h``.
    """

    h: np.ndarray
    conjugated: tuple
    variant: str
    factors: QRFactors = field(default=None, init=False, repr=False)

    def stack_noise(self, noise: np.ndarray) -> np.ndarray:
        """Map raw noise samples [n1[1], n1[2], n2[1], n2[2]] to the stack."""
        noise = np.asarray(noise, dtype=complex)
        flags = np.asarray(self.conjugated)
        return np.where(flags, np.conj(noise), noise)


def conjugation_flags(variant: str) -> tuple:
    if variant == "overlaid-alamouti":
        return (False, True, False, True)
    if variant in GOLDEN_VARIANTS:
        return (False, False, False, False)
    raise ValueError(f"unknown code variant: {variant!r}")


def encode_golden_dv(x) -> np.ndarray:
    """Golden-code codeword: rotated pairs on the diagonal and off-diagonal.

    The first symbol pair is rotated by the golden rotation and placed on the
    main diagonal; the second pair is rotated the same way, multiplied by the
    unit phase, and placed on the off-diagonal.
    """
    x = np.asarray(x, dtype=complex)
    a = GOLDEN.rotation @ x[:2]
    b = GOLDEN.rotation @ x[2:]
    p = GOLDEN.phase
    return np.array([[a[0], p * b[0]], [p * b[1], a[1]]])


def encode_golden_brv(x) -> np.ndarray:
    """Variant codeword matching the rotated-coefficient effective channel."""
    x = np.asarray(x, dtype=complex)
    c = GOLDEN.cos_theta
    s = GOLDEN.sin_theta
    t = GOLDEN.rotation @ x[:2]
    u = GOLDEN.rotation @ x[2:]
    d1 = c - s * 1j
    d2 = s + c * 1j
    return np.array([[d1 * t[0], d1 * u[0]], [1j * d2 * u[1], d2 * t[1]]])


def encode_golden_wimax(x) -> np.ndarray:
    """Variant codeword matching the standard's effective channel."""
    x = np.asarray(x, dtype=complex)
    t = GOLDEN.rotation @ x[:2]
    u = GOLDEN.rotation @ x[2:]
    return np.array([[t[0], u[0]], [-u[1], -1j * t[1]]])


def encode_overlaid_alamouti(x) -> np.ndarray:
    """Sum of two Alamouti blocks, the second sign-flipped on its last row."""
    x = np.asarray(x, dtype=complex)
    p1 = ALAMOUTI.phi1
    p2 = ALAMOUTI.phi2
    u1 = p1 * x[2] + p2 * x[3]
    u2 = -np.conj(p2) * x[2] + np.conj(p1) * x[3]
    top = np.array([x[0] + u1, x[1] + u2])
    bottom = np.array([-np.conj(x[1]) + np.conj(u2), np.conj(x[0]) - np.conj(u1)])
    return np.stack([top, bottom]) / math.sqrt(2)


_ENCODERS = {
    "golden-dv": encode_golden_dv,
    "golden-brv": encode_golden_brv,
    "golden-wimax": encode_golden_wimax,
    "overlaid-alamouti": encode_overlaid_alamouti,
}


def encode(x, variant: str) -> np.ndarray:
    """Encode four information symbols into a 2x2 codeword."""
    try:
        encoder = _ENCODERS[variant]
    except KeyError:
        raise ValueError(f"unknown code variant: {variant!r}") from None
    return encoder(x)


def psi_rotation() -> np.ndarray:
    """Block-diagonal pair of golden symbol rotations (the right factor)."""
    c = GOLDEN.cos_theta
    s = GOLDEN.sin_theta
    psi = np.array(
        [
            [c, s, 0.0, 0.0],
            [-s, c, 0.0, 0.0],
            [0.0, 0.0, c, s],
            [0.0, 0.0, -s, c],
        ]
    )
    return psi


def golden_parts(h: np.ndarray, variant: str) -> tuple:
    """Split a golden effective channel into its sparse left factor and psi.

    Args:
        h: channel coefficients of shape (..., 2, 2, 2) indexed [i, j, k]
           (transmit antenna, receive antenna, time).
        variant: one of the golden variant names.

    Returns:
        (h_bar, psi) with the effective channel equal to ``h_bar @ psi``.
        h_bar carries the golden sparsity pattern for every variant; the
        variants differ from the default only by unit-magnitude rotations of
        the channel coefficients.
    """
    h = np.asarray(h, dtype=complex)
    h11_1 = h[..., 0, 0, 0]
    h21_1 = h[..., 1, 0, 0]
    h12_1 = h[..., 0, 1, 0]
    h22_1 = h[..., 1, 1, 0]
    h11_2 = h[..., 0, 0, 1]
    h21_2 = h[..., 1, 0, 1]
    h12_2 = h[..., 0, 1, 1]
    h22_2 = h[..., 1, 1, 1]
    batch = h.shape[:-3]
    h_bar = np.zeros(batch + (4, 4), dtype=complex)
    if variant == "golden-dv":
        p = GOLDEN.phase
        h_bar[..., 0, 0] = h11_1
        h_bar[..., 0, 2] = p * h21_1
        h_bar[..., 1, 1] = h21_2
        h_bar[..., 1, 3] = p * h11_2
        h_bar[..., 2, 0] = h12_1
        h_bar[..., 2, 2] = p * h22_1
        h_bar[..., 3, 1] = h22_2
        h_bar[..., 3, 3] = p * h12_2
    elif variant == "golden-brv":
        c = GOLDEN.cos_theta
        s = GOLDEN.sin_theta
        d1 = c - s * 1j
        d2 = s + c * 1j
        h_bar[..., 0, 0] = d1 * h11_1
        h_bar[..., 0, 2] = d1 * h21_1
        h_bar[..., 1, 1] = d2 * h21_2
        h_bar[..., 1, 3] = d2 * 1j * h11_2
        h_bar[..., 2, 0] = d1 * h12_1
        h_bar[..., 2, 2] = d1 * h22_1
        h_bar[..., 3, 1] = d2 * h22_2
        h_bar[..., 3, 3] = d2 * 1j * h12_2
    elif variant == "golden-wimax":
        h_bar[..., 0, 0] = h11_1
        h_bar[..., 0, 2] = h21_1
        h_bar[..., 1, 1] = -1j * h21_2
        h_bar[..., 1, 3] = -h11_2
        h_bar[..., 2, 0] = h12_1
        h_bar[..., 2, 2] = h22_1
        h_bar[..., 3, 1] = -1j * h22_2
        h_bar[..., 3, 3] = -h12_2
    else:
        raise ValueError(f"not a golden variant: {variant!r}")
    return h_bar, psi_rotation()


def _product(a, b) -> np.ndarray:
    """Complex ``a * b`` rounded as numpy's scalar product rounds it.

    numpy's array loop for complex products may fuse multiply-adds; its
    scalar product does not. A conjugated coefficient is a scalar when one
    matrix is built and an array when a stack is, so products with it are
    written out to give a stack the single-matrix values bit for bit.
    """
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def effective_matrix(h: np.ndarray, variant: str) -> np.ndarray:
    """Effective 4x4 channel matrix for stacked channel coefficients.

    Args:
        h: channel coefficients of shape (..., 2, 2, 2) indexed [i, j, k].
        variant: any supported code variant.
    """
    if variant in GOLDEN_VARIANTS:
        h_bar, psi = golden_parts(h, variant)
        return h_bar @ psi.astype(complex)
    if variant != "overlaid-alamouti":
        raise ValueError(f"unknown code variant: {variant!r}")
    h = np.asarray(h, dtype=complex)
    p1 = ALAMOUTI.phi1
    p2 = ALAMOUTI.phi2
    p1c = np.conj(p1)
    p2c = np.conj(p2)
    batch = h.shape[:-3]
    out = np.zeros(batch + (4, 4), dtype=complex)
    for block, j in ((0, 0), (2, 1)):
        ha_1 = h[..., 0, j, 0]
        hb_1 = h[..., 1, j, 0]
        ha_2c = np.conj(h[..., 0, j, 1])
        hb_2c = np.conj(h[..., 1, j, 1])
        out[..., block, 0] = ha_1
        out[..., block, 1] = hb_1
        out[..., block, 2] = p1 * ha_1 - p2c * hb_1
        out[..., block, 3] = p2 * ha_1 + p1c * hb_1
        out[..., block + 1, 0] = hb_2c
        out[..., block + 1, 1] = -ha_2c
        out[..., block + 1, 2] = _product(-p2c, ha_2c) - _product(p1, hb_2c)
        out[..., block + 1, 3] = _product(p1c, ha_2c) - _product(p2, hb_2c)
    out /= math.sqrt(2)
    return out


def effective_channel(ch: ChannelRealization, variant: str) -> EffectiveChannel:
    """Build the EffectiveChannel a decoder needs for a single realization."""
    return effective_channel_from_matrix(effective_matrix(ch.h, variant), variant)


def effective_channel_from_matrix(h4: np.ndarray, variant: str) -> EffectiveChannel:
    """Wrap an already-built 4x4 effective matrix with a variant's stacking."""
    h4 = np.asarray(h4, dtype=complex)
    if h4.shape != (4, 4):
        raise ValueError("effective matrix must be 4x4")
    return EffectiveChannel(
        h=h4,
        conjugated=conjugation_flags(variant),
        variant=variant,
    )


def factored_channels(matrices: np.ndarray, variant: str) -> list:
    """One EffectiveChannel per matrix of an (n, 4, 4) stack, each with its QR factors.

    The stack is factored by one ``qr_decompose`` call. The matrices and
    factors are copied and made read-only, so they cannot drift apart.

    Raises:
        ValueError: if any matrix is rank-deficient (see ``qr_decompose``).
    """
    matrices = np.array(matrices, dtype=complex)
    if matrices.ndim != 3 or matrices.shape[1:] != (4, 4):
        raise ValueError("effective matrices must be stacked as (n, 4, 4)")
    factors = qr_decompose(matrices)
    for array in (matrices, factors.q, factors.r):
        array.setflags(write=False)
    flags = conjugation_flags(variant)
    channels = []
    for h4, q, r in zip(matrices, factors.q, factors.r):
        eff = EffectiveChannel(h=h4, conjugated=flags, variant=variant)
        object.__setattr__(eff, "factors", QRFactors(q=q, r=r))
        channels.append(eff)
    return channels


def transmit(cw: np.ndarray, ch: ChannelRealization, noise, variant: str) -> np.ndarray:
    """Pass a codeword through the physical channel and stack the output.

    Args:
        cw: 2x2 codeword, entry [k, i] sent from antenna i at time k.
        ch: channel realization with coefficients h[i, j, k].
        noise: raw noise samples ordered [n1[1], n1[2], n2[1], n2[2]].
        variant: code variant selecting the stacking convention.

    Returns:
        The length-4 received stack, conjugated where the variant's
        convention requires (which leaves the noise statistics unchanged).
    """
    cw = np.asarray(cw, dtype=complex)
    noise = np.asarray(noise, dtype=complex)
    h = ch.h
    raw = np.empty(4, dtype=complex)
    pos = 0
    for j in range(2):
        for k in range(2):
            raw[pos] = cw[k, 0] * h[0, j, k] + cw[k, 1] * h[1, j, k] + noise[pos]
            pos += 1
    flags = np.asarray(conjugation_flags(variant))
    return np.where(flags, np.conj(raw), raw)
