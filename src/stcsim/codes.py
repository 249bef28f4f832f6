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

A golden effective channel factors as ``h_bar @ psi`` with a sparse ``h_bar``
(``golden_parts``); ``qr_golden_structured`` builds its QR from that
structure, with exactly real diagonal blocks in R.

Codewords are 2x2 complex arrays with entry [k, i] holding the symbol sent
from antenna i at time k.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelRealization
from .matrixkit import RANK_TOLERANCE, QRFactors, frobenius_norm, qr_decompose


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
    complex conjugate of the raw sample. ``h`` is kept as a read-only complex
    copy of the caller's matrix, so the cached ``factors`` and ``norm`` always
    belong to it.
    """

    h: np.ndarray
    conjugated: tuple
    variant: str

    def __post_init__(self):
        h = np.array(self.h, dtype=complex)
        if h.shape != (4, 4):
            raise ValueError("effective matrix must be 4x4")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)

    @cached_property
    def factors(self) -> QRFactors:
        """Read-only QR factors of ``h``, computed on first use.

        Raises:
            ValueError: if ``h`` is rank-deficient (see ``qr_decompose``).
        """
        return _read_only(qr_decompose(self.h))

    @cached_property
    def norm(self) -> float:
        """Frobenius norm of ``h``, computed on first use."""
        return float(frobenius_norm(self.h))

    def stack(self, samples: np.ndarray) -> np.ndarray:
        """Map raw receive samples [r1[1], r1[2], r2[1], r2[2]], signal or
        noise, to the stack: conjugated where ``conjugated`` says."""
        return stack_samples(samples, self.conjugated)


def stack_samples(samples, conjugated) -> np.ndarray:
    """``EffectiveChannel.stack`` for samples of shape (..., 4), e.g. a whole chunk's noise."""
    samples = np.asarray(samples, dtype=complex)
    return np.where(np.asarray(conjugated), np.conj(samples), samples)


def _read_only(factors: QRFactors) -> QRFactors:
    factors.q.setflags(write=False)
    factors.r.setflags(write=False)
    return factors


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


# Unit phases of the golden-brv variant: (cos - i sin) and (sin + i cos).
_BRV_D1 = complex(GOLDEN.cos_theta, -GOLDEN.sin_theta)
_BRV_D2 = complex(GOLDEN.sin_theta, GOLDEN.cos_theta)


def encode_golden_brv(x) -> np.ndarray:
    """Variant codeword matching the rotated-coefficient effective channel."""
    x = np.asarray(x, dtype=complex)
    t = GOLDEN.rotation @ x[:2]
    u = GOLDEN.rotation @ x[2:]
    d1 = _BRV_D1
    d2 = _BRV_D2
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


# Per golden variant, the unit-magnitude coefficients (a, b, c, d) of h_bar:
# row 2j holds a*h[0,j,0] in column 0 and b*h[1,j,0] in column 2, and row
# 2j+1 holds c*h[1,j,1] in column 1 and d*h[0,j,1] in column 3. The variants
# differ from golden-dv only by these unit rotations.
_GOLDEN_COEFFICIENTS = {
    "golden-dv": (1, GOLDEN.phase, 1, GOLDEN.phase),
    "golden-brv": (_BRV_D1, _BRV_D1, _BRV_D2, _BRV_D2 * 1j),
    "golden-wimax": (1, 1, -1j, -1),
}

# Positions of h_bar that every golden variant leaves zero: columns {1, 3}
# live on rows {1, 3} and columns {2, 4} on rows {2, 4}.
GOLDEN_ZERO_PATTERN = ((0, 1), (0, 3), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (3, 2))


def golden_parts(h: np.ndarray, variant: str) -> tuple:
    """Split a golden effective channel into its sparse left factor and psi.

    Args:
        h: channel coefficients of shape (..., 2, 2, 2) indexed [i, j, k]
           (transmit antenna, receive antenna, time).
        variant: one of the golden variant names.

    Returns:
        (h_bar, psi) with the effective channel equal to ``h_bar @ psi``;
        h_bar is zero on GOLDEN_ZERO_PATTERN for every variant.
    """
    try:
        a, b, c, d = _GOLDEN_COEFFICIENTS[variant]
    except KeyError:
        raise ValueError(f"not a golden variant: {variant!r}") from None
    h = np.asarray(h, dtype=complex)
    h_bar = np.zeros(h.shape[:-3] + (4, 4), dtype=complex)
    h_bar[..., 0::2, 0] = a * h[..., 0, :, 0]
    h_bar[..., 0::2, 2] = b * h[..., 1, :, 0]
    h_bar[..., 1::2, 1] = c * h[..., 1, :, 1]
    h_bar[..., 1::2, 3] = d * h[..., 0, :, 1]
    return h_bar, psi_rotation()


def _qr_2x2(block: np.ndarray, scale: np.ndarray) -> tuple:
    """Gram-Schmidt QR of stacked 2x2 complex blocks.

    Returns (q, d0, off, d1) where d0/d1 are the real nonnegative diagonal
    entries of the 2x2 R and ``off`` its complex off-diagonal entry.
    """
    col0 = block[..., :, 0]
    col1 = block[..., :, 1]
    d0 = np.sqrt(np.sum(np.abs(col0) ** 2, axis=-1))
    if np.any(d0 < RANK_TOLERANCE * scale):
        raise ValueError("degenerate channel: column pivot below rank tolerance")
    q0 = col0 / d0[..., None]
    off = np.sum(np.conj(q0) * col1, axis=-1)
    resid = col1 - q0 * off[..., None]
    d1 = np.sqrt(np.sum(np.abs(resid) ** 2, axis=-1))
    if np.any(d1 < RANK_TOLERANCE * scale):
        raise ValueError("degenerate channel: column pivot below rank tolerance")
    q1 = resid / d1[..., None]
    q = np.stack([q0, q1], axis=-1)
    return q, d0, off, d1


def qr_golden_structured(h_bar: np.ndarray) -> QRFactors:
    """Structured QR of ``h_bar @ psi_rotation()`` for golden effective channels.

    Args:
        h_bar: matrix (or stack) of shape (..., 4, 4) as ``golden_parts``
            builds it: zero on GOLDEN_ZERO_PATTERN.

    The construction runs in three steps: (i) QR of h_bar via two independent
    2x2 complex QRs on the interleaved column pairs {1,3} and {2,4}, which the
    sparsity pattern makes exactly orthogonal; (ii) the product with psi,
    whose diagonal 2x2 blocks are then real; (iii) a block-diagonal real
    Givens rotation restoring triangularity. The (1,1) and (2,2) blocks of the
    resulting R are built from real arithmetic only, so their imaginary parts
    are identically zero.

    Raises:
        ValueError: if the sparsity pattern is violated ("not a golden
            effective matrix") or a pivot is rank-deficient.
    """
    h_bar = np.asarray(h_bar, dtype=complex)
    scale = frobenius_norm(h_bar)
    if np.any(scale == 0.0):
        raise ValueError("degenerate channel: column pivot below rank tolerance")
    tol = 1e-12 * scale
    for row, col in GOLDEN_ZERO_PATTERN:
        if np.any(np.abs(h_bar[..., row, col]) > tol):
            raise ValueError("not a golden effective matrix")
    c = GOLDEN.cos_theta
    s = GOLDEN.sin_theta

    # Step (i): QR of h_bar from two interleaved 2x2 factorizations.
    q_odd, r11, r13, r33 = _qr_2x2(h_bar[..., ::2, ::2], scale)
    q_even, r22, r24, r44 = _qr_2x2(h_bar[..., 1::2, 1::2], scale)
    batch = r11.shape
    q_bar = np.zeros(batch + (4, 4), dtype=complex)
    q_bar[..., ::2, ::2] = q_odd
    q_bar[..., 1::2, 1::2] = q_even

    # Step (ii): diagonal blocks of r_bar @ psi, real by construction.
    x00 = c * r11
    x01 = s * r11
    x10 = -s * r22
    x11 = c * r22
    z00 = c * r33
    z01 = s * r33
    z10 = -s * r44
    z11 = c * r44
    # Coupling block stays complex in general.
    y00 = c * r13
    y01 = s * r13
    y10 = -s * r24
    y11 = c * r24

    # Step (iii): real Givens rotations zeroing the (2,1) entries.
    na = np.sqrt(x00 * x00 + x10 * x10)
    nd = np.sqrt(z00 * z00 + z10 * z10)
    w1 = np.empty(batch + (2, 2))
    w1[..., 0, 0] = x00 / na
    w1[..., 0, 1] = x10 / na
    w1[..., 1, 0] = -x10 / na
    w1[..., 1, 1] = x00 / na
    w2 = np.empty(batch + (2, 2))
    w2[..., 0, 0] = z00 / nd
    w2[..., 0, 1] = z10 / nd
    w2[..., 1, 0] = -z10 / nd
    w2[..., 1, 1] = z00 / nd

    r = np.zeros(batch + (4, 4), dtype=complex)
    r[..., 0, 0] = na
    r[..., 0, 1] = (x00 * x01 + x10 * x11) / na
    r[..., 1, 1] = (x00 * x11 - x10 * x01) / na
    r[..., 2, 2] = nd
    r[..., 2, 3] = (z00 * z01 + z10 * z11) / nd
    r[..., 3, 3] = (z00 * z11 - z10 * z01) / nd
    r[..., 0, 2] = w1[..., 0, 0] * y00 + w1[..., 0, 1] * y10
    r[..., 0, 3] = w1[..., 0, 0] * y01 + w1[..., 0, 1] * y11
    r[..., 1, 2] = w1[..., 1, 0] * y00 + w1[..., 1, 1] * y10
    r[..., 1, 3] = w1[..., 1, 0] * y01 + w1[..., 1, 1] * y11

    q = np.array(q_bar)
    q[..., :, 0] = q_bar[..., :, 0] * w1[..., None, 0, 0] + q_bar[..., :, 1] * w1[..., None, 0, 1]
    q[..., :, 1] = q_bar[..., :, 0] * w1[..., None, 1, 0] + q_bar[..., :, 1] * w1[..., None, 1, 1]
    q[..., :, 2] = q_bar[..., :, 2] * w2[..., None, 0, 0] + q_bar[..., :, 3] * w2[..., None, 0, 1]
    q[..., :, 3] = q_bar[..., :, 2] * w2[..., None, 1, 0] + q_bar[..., :, 3] * w2[..., None, 1, 1]
    return QRFactors(q=q, r=r)


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
    return EffectiveChannel(h=h4, conjugated=conjugation_flags(variant), variant=variant)


def factored_channels(matrices: np.ndarray, variant: str) -> list:
    """One EffectiveChannel per matrix of an (n, 4, 4) stack.

    One ``qr_decompose`` call and one ``frobenius_norm`` call on the stack
    fill every channel's ``factors`` and ``norm`` caches.

    Raises:
        ValueError: if any matrix is rank-deficient (see ``qr_decompose``).
    """
    matrices = np.asarray(matrices, dtype=complex)
    if matrices.ndim != 3 or matrices.shape[1:] != (4, 4):
        raise ValueError("effective matrices must be stacked as (n, 4, 4)")
    factors = _read_only(qr_decompose(matrices))
    norms = frobenius_norm(matrices).tolist()
    flags = conjugation_flags(variant)
    channels = []
    for h4, q, r, norm in zip(matrices, factors.q, factors.r, norms):
        eff = EffectiveChannel(h=h4, conjugated=flags, variant=variant)
        cache = vars(eff)  # the cached_properties' slots
        cache["factors"] = QRFactors(q=q, r=r)
        cache["norm"] = norm
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
    return stack_samples(raw, conjugation_flags(variant))
