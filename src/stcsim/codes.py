"""Encoders and effective-channel builders for 2x2 space-time codes.

Four codes are supported: three isomorphic golden-code variants named
``golden-dv``, ``golden-brv`` and ``golden-wimax``, and the rate-two
``overlaid-alamouti`` code. The variant name is the only key: one table
row per golden variant (four unit coefficients) fixes both its encoder and
its effective channel, and one table fixes each variant's receive stacking
(which samples are conjugated), which ``stack_samples`` applies. Decoders
get only the 4x4 effective matrix, so they never branch on code identity.
A channel realization is its coefficient array h[i, j, k] (see
``channel``). For every variant v and every realization h,

    transmit(encode(x, v), h, noise, v)
        == effective_matrix(h, v) @ x + stack_samples(noise, v)

holds to machine precision.

A golden effective channel factors as ``h_bar @ PSI`` with a sparse
``h_bar`` (``golden_parts``) and PSI the block-diagonal pair of golden
rotations; ``qr_golden_structured`` builds its QR from that structure: two
complex 2x2 QRs of h_bar's interleaved column pairs, then one real rotation
per diagonal block, so R's diagonal blocks are exactly real.

Codewords are 2x2 complex arrays with entry [k, i] holding the symbol sent
from antenna i at time k.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matrixkit import QRFactors, frobenius_norm, require_full_rank, require_zero


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

# Unit phases of the golden-brv variant: (cos - i sin) and (sin + i cos).
_BRV_D1 = complex(GOLDEN.cos_theta, -GOLDEN.sin_theta)
_BRV_D2 = complex(GOLDEN.sin_theta, GOLDEN.cos_theta)

# Per golden variant, the unit-magnitude coefficients (a, b, c, d). The
# codeword of rotated pairs t = rotation @ x[:2], u = rotation @ x[2:] is
# [[a*t0, b*u0], [d*u1, c*t1]]; matching it against the channel puts, in
# h_bar, row 2j: a*h[0,j,0] in column 0 and b*h[1,j,0] in column 2, and row
# 2j+1: c*h[1,j,1] in column 1 and d*h[0,j,1] in column 3. The variants
# differ from golden-dv only by these unit rotations.
_GOLDEN_COEFFICIENTS = {
    "golden-dv": (1, GOLDEN.phase, 1, GOLDEN.phase),
    "golden-brv": (_BRV_D1, _BRV_D1, _BRV_D2, _BRV_D2 * 1j),
    "golden-wimax": (1, 1, -1j, -1),
}

# Per code variant, which stacked receive samples [r1[1], r1[2], r2[1], r2[2]]
# are the complex conjugates of the raw samples.
_CONJUGATED = {
    **{variant: (False, False, False, False) for variant in GOLDEN_VARIANTS},
    "overlaid-alamouti": (False, True, False, True),
}

# Block-diagonal pair of golden symbol rotations: the right factor of every
# golden effective channel, h_bar @ PSI.
PSI = np.zeros((4, 4), dtype=complex)
PSI[:2, :2] = PSI[2:, 2:] = GOLDEN.rotation
PSI.setflags(write=False)


def stack_samples(samples, variant: str) -> np.ndarray:
    """Map raw receive samples [r1[1], r1[2], r2[1], r2[2]] of shape (..., 4),
    signal or noise, to the stack: conjugated where the variant says."""
    if variant not in _CONJUGATED:
        raise ValueError(f"unknown code variant: {variant!r}")
    samples = np.asarray(samples, dtype=complex)
    return np.where(np.asarray(_CONJUGATED[variant]), np.conj(samples), samples)


def _golden_coefficients(variant: str) -> tuple:
    try:
        return _GOLDEN_COEFFICIENTS[variant]
    except KeyError:
        raise ValueError(f"unknown golden code variant: {variant!r}") from None


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


def encode(x, variant: str) -> np.ndarray:
    """Encode four information symbols into a 2x2 codeword.

    A golden codeword rotates each symbol pair by the golden rotation and
    places the pairs, scaled by the variant's coefficients, on the diagonal
    and the off-diagonal: [[a*t0, b*u0], [d*u1, c*t1]].
    """
    if variant == "overlaid-alamouti":
        return encode_overlaid_alamouti(x)
    a, b, c, d = _golden_coefficients(variant)
    x = np.asarray(x, dtype=complex)
    t = GOLDEN.rotation @ x[:2]
    u = GOLDEN.rotation @ x[2:]
    return np.array([[a * t[0], b * u[0]], [d * u[1], c * t[1]]])


# Positions of h_bar that every golden variant leaves zero: columns {1, 3}
# live on rows {1, 3} and columns {2, 4} on rows {2, 4}.
GOLDEN_ZERO_PATTERN = ((0, 1), (0, 3), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (3, 2))


def golden_parts(h: np.ndarray, variant: str) -> np.ndarray:
    """Sparse left factor ``h_bar`` of a golden effective channel ``h_bar @ PSI``.

    Args:
        h: channel coefficients of shape (..., 2, 2, 2) indexed [i, j, k]
           (transmit antenna, receive antenna, time).
        variant: one of the golden variant names.

    Returns:
        h_bar of shape (..., 4, 4), zero on GOLDEN_ZERO_PATTERN for every
        variant.
    """
    a, b, c, d = _golden_coefficients(variant)
    h = np.asarray(h, dtype=complex)
    h_bar = np.zeros(h.shape[:-3] + (4, 4), dtype=complex)
    h_bar[..., 0::2, 0] = a * h[..., 0, :, 0]
    h_bar[..., 0::2, 2] = b * h[..., 1, :, 0]
    h_bar[..., 1::2, 1] = c * h[..., 1, :, 1]
    h_bar[..., 1::2, 3] = d * h[..., 0, :, 1]
    return h_bar


def _qr_2x2(block: np.ndarray, scale: np.ndarray) -> tuple:
    """Gram-Schmidt QR of stacked 2x2 complex blocks.

    Returns (q, d0, off, d1) where d0/d1 are the real nonnegative diagonal
    entries of the 2x2 R and ``off`` its complex off-diagonal entry.
    """
    col0 = block[..., :, 0]
    col1 = block[..., :, 1]
    d0 = np.sqrt(np.sum(np.abs(col0) ** 2, axis=-1))
    require_full_rank(d0, scale)
    q0 = col0 / d0[..., None]
    off = np.sum(np.conj(q0) * col1, axis=-1)
    resid = col1 - q0 * off[..., None]
    d1 = np.sqrt(np.sum(np.abs(resid) ** 2, axis=-1))
    require_full_rank(d1, scale)
    q1 = resid / d1[..., None]
    q = np.stack([q0, q1], axis=-1)
    return q, d0, off, d1


def _block_rotation(p0, p1) -> tuple:
    """Real Givens rotation [[a, b], [-b, a]] triangularizing one diagonal
    block [[c*p0, s*p0], [-s*p1, c*p1]] of ``r_bar @ PSI``, from the block's
    real pivots (r11, r22) or (r33, r44) of ``r_bar``.

    Returns ((a, b), (n, r01, r11)), the rotated block being [[n, r01], [0, r11]].
    """
    c = GOLDEN.cos_theta
    s = GOLDEN.sin_theta
    x00 = c * p0
    x01 = s * p0
    x10 = -s * p1
    x11 = c * p1
    n = np.sqrt(x00 * x00 + x10 * x10)
    return (x00 / n, x10 / n), (n, (x00 * x01 + x10 * x11) / n, (x00 * x11 - x10 * x01) / n)


def qr_golden_structured(h_bar: np.ndarray) -> QRFactors:
    """Structured QR of ``h_bar @ PSI`` for golden effective channels.

    Args:
        h_bar: matrix (or stack) of shape (..., 4, 4) as ``golden_parts``
            builds it: zero on GOLDEN_ZERO_PATTERN.

    The construction runs in three steps: (i) QR of h_bar via two independent
    2x2 complex QRs on the interleaved column pairs {1,3} and {2,4}, which the
    sparsity pattern makes exactly orthogonal; (ii) the product with PSI,
    whose diagonal 2x2 blocks are then real; (iii) one real Givens rotation
    per diagonal block (``_block_rotation``) restoring triangularity, applied
    to that block's rows of R and columns of Q. The (1,1) and (2,2) blocks of
    the resulting R are built from real arithmetic only, so their imaginary
    parts are identically zero.

    Raises:
        ValueError: if the sparsity pattern is violated ("not a golden
            effective matrix") or a pivot is rank-deficient.
    """
    h_bar = np.asarray(h_bar, dtype=complex)
    scale = frobenius_norm(h_bar)
    rows, cols = zip(*GOLDEN_ZERO_PATTERN)
    require_zero(h_bar[..., rows, cols], scale[..., None],
                 "not a golden effective matrix: max |h_bar| on GOLDEN_ZERO_PATTERN")
    c = GOLDEN.cos_theta
    s = GOLDEN.sin_theta

    # Step (i): QR of h_bar from two interleaved 2x2 factorizations.
    q_odd, r11, r13, r33 = _qr_2x2(h_bar[..., ::2, ::2], scale)
    q_even, r22, r24, r44 = _qr_2x2(h_bar[..., 1::2, 1::2], scale)
    batch = r11.shape
    q_bar = np.zeros(batch + (4, 4), dtype=complex)
    q_bar[..., ::2, ::2] = q_odd
    q_bar[..., 1::2, 1::2] = q_even

    # Steps (ii) and (iii): each diagonal block of r_bar @ PSI is real, and
    # one real rotation triangularizes it; the first block's rotation also
    # turns the rows of the coupling block, complex in general.
    r = np.zeros(batch + (4, 4), dtype=complex)
    (a1, b1), (r[..., 0, 0], r[..., 0, 1], r[..., 1, 1]) = _block_rotation(r11, r22)
    rotation2, (r[..., 2, 2], r[..., 2, 3], r[..., 3, 3]) = _block_rotation(r33, r44)
    for col, (y0, y1) in ((2, (c * r13, -s * r24)), (3, (s * r13, c * r24))):
        r[..., 0, col] = a1 * y0 + b1 * y1
        r[..., 1, col] = -b1 * y0 + a1 * y1
    q = np.array(q_bar)
    for k, (a, b) in ((0, (a1, b1)), (2, rotation2)):
        a, b = a[..., None], b[..., None]
        q[..., :, k] = q_bar[..., :, k] * a + q_bar[..., :, k + 1] * b
        q[..., :, k + 1] = q_bar[..., :, k] * -b + q_bar[..., :, k + 1] * a
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
        return golden_parts(h, variant) @ PSI
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


def transmit(cw: np.ndarray, h: np.ndarray, noise, variant: str) -> np.ndarray:
    """Pass a codeword through the physical channel and stack the output.

    Args:
        cw: 2x2 codeword, entry [k, i] sent from antenna i at time k.
        h: channel coefficients h[i, j, k] of shape (2, 2, 2).
        noise: raw noise samples ordered [n1[1], n1[2], n2[1], n2[2]].
        variant: code variant selecting the stacking convention.

    Returns:
        The length-4 received stack, conjugated where the variant's
        convention requires (which leaves the noise statistics unchanged).
    """
    cw = np.asarray(cw, dtype=complex)
    noise = np.asarray(noise, dtype=complex)
    h = np.asarray(h, dtype=complex)
    raw = np.empty(4, dtype=complex)
    pos = 0
    for j in range(2):
        for k in range(2):
            raw[pos] = cw[k, 0] * h[0, j, k] + cw[k, 1] * h[1, j, k] + noise[pos]
            pos += 1
    return stack_samples(raw, variant)


# The one-instance layer, which nothing in stcsim calls: perfbench/tracer.py
# wraps ``effective_channel`` by name, and its cost check reads ``.h`` of the
# EffectiveChannel that the one-instance decoders in ``decoders`` take.
# ROADMAP item 16 deletes both once the benchmark reads its decoder figures
# from the sweep rows (item 5).

@dataclass(frozen=True, eq=False)
class EffectiveChannel:
    """One instance's 4x4 effective channel, as the one-instance decoders
    take it: ``h``, a read-only complex copy of the caller's matrix. It holds
    nothing else: its QR is the decoders' prologue
    (``decoders.triangular_rows``), which reads ``effective_matrix``'s
    matrices directly.

    Raises:
        ValueError: ``h`` not 4x4.
    """

    h: np.ndarray

    def __post_init__(self):
        h = np.array(self.h, dtype=complex)
        if h.shape != (4, 4):
            raise ValueError("effective matrix must be 4x4")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)


def effective_channel(h: np.ndarray, variant: str) -> EffectiveChannel:
    """The EffectiveChannel of one realization's coefficients h[i, j, k]:
    ``effective_matrix(h, variant)``, bit for bit."""
    return EffectiveChannel(h=effective_matrix(h, variant))
