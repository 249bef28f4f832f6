"""Small dense complex matrix helpers for 4x4 effective channels.

Two QR routes are provided and kept deliberately independent:

* ``qr_decompose`` - a general factorization (LAPACK Householder under the
  hood) post-processed so the diagonal of R is real and nonnegative, which
  makes the factorization unique for full-rank input.
* ``qr_golden_structured`` - a constructive two-stage factorization for matrices
  with the golden-code sparsity pattern: two interleaved 2x2 complex QRs
  followed by a block-diagonal real Givens rotation. By construction the
  leading and trailing 2x2 diagonal blocks of R come out exactly real
  (imaginary parts identically zero), not merely small.

Both accept stacked input of shape (..., 4, 4) and operate batchwise.
"""

from dataclasses import dataclass

import numpy as np

RANK_TOLERANCE = 1e-12

# Positions forced to zero in a golden-code pre-rotation matrix: columns
# {1, 3} live on rows {1, 3} and columns {2, 4} on rows {2, 4}.
GOLDEN_ZERO_PATTERN = ((0, 1), (0, 3), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (3, 2))


@dataclass(frozen=True, eq=False)
class QRFactors:
    """Unitary/upper-triangular factor pair, possibly stacked.

    ``r`` is upper triangular with a real nonnegative diagonal and exact
    zeros below the diagonal; ``q @ r`` reconstructs the input.
    """

    q: np.ndarray
    r: np.ndarray


def frobenius_norm(h: np.ndarray) -> np.ndarray:
    """Frobenius norm over the trailing two axes."""
    return np.sqrt(np.sum(np.abs(h) ** 2, axis=(-2, -1)))


def qr_decompose(h: np.ndarray) -> QRFactors:
    """QR factorization with real nonnegative diagonal of R.

    Args:
        h: complex matrix (or stack of matrices) of shape (..., n, n) with
           linearly independent columns.

    Raises:
        ValueError: if any pivot falls below RANK_TOLERANCE * ||h||_F
            ("degenerate channel"); callers may resample the fading.
    """
    h = np.asarray(h, dtype=complex)
    q, r = np.linalg.qr(h)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(diag)
    scale = frobenius_norm(h)
    if np.any(scale == 0.0) or np.any(mag < RANK_TOLERANCE * scale[..., None]):
        raise ValueError("degenerate channel: column pivot below rank tolerance")
    phase = diag / mag
    q = q * phase[..., None, :]
    r = r * np.conj(phase)[..., :, None]
    n = r.shape[-1]
    idx = np.arange(n)
    r[..., idx, idx] = r[..., idx, idx].real
    return QRFactors(q=q, r=r)


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


def _check_rotation_block(c: np.ndarray, s: np.ndarray, block: np.ndarray) -> bool:
    tol = 1e-12
    return bool(
        np.all(np.abs(block[..., 0, 0] - c) <= tol)
        and np.all(np.abs(block[..., 0, 1] - s) <= tol)
        and np.all(np.abs(block[..., 1, 0] + s) <= tol)
        and np.all(np.abs(block[..., 1, 1] - c) <= tol)
        and np.all(np.abs(c * c + s * s - 1.0) <= 1e-9)
    )


def qr_golden_structured(h_bar: np.ndarray, psi: np.ndarray) -> QRFactors:
    """Structured QR of ``h_bar @ psi`` for golden-code effective channels.

    Args:
        h_bar: matrix (or stack) carrying the golden-code sparsity pattern:
            the eight positions in GOLDEN_ZERO_PATTERN must be zero.
        psi: block-diagonal 2x2 real rotation pair, broadcastable to h_bar.

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
    psi = np.asarray(psi)
    scale = frobenius_norm(h_bar)
    if np.any(scale == 0.0):
        raise ValueError("degenerate channel: column pivot below rank tolerance")
    tol = 1e-12 * scale
    for row, col in GOLDEN_ZERO_PATTERN:
        if np.any(np.abs(h_bar[..., row, col]) > tol):
            raise ValueError("not a golden effective matrix")
    if np.iscomplexobj(psi):
        if np.any(np.abs(psi.imag) > 1e-12):
            raise ValueError("psi must be a real block rotation")
        psi_r = psi.real
    else:
        psi_r = np.asarray(psi, dtype=float)
    if np.any(np.abs(psi_r[..., 0:2, 2:4]) > 1e-12) or np.any(
        np.abs(psi_r[..., 2:4, 0:2]) > 1e-12
    ):
        raise ValueError("psi must be a real block rotation")
    c1 = psi_r[..., 0, 0]
    s1 = psi_r[..., 0, 1]
    c2 = psi_r[..., 2, 2]
    s2 = psi_r[..., 2, 3]
    if not (
        _check_rotation_block(c1, s1, psi_r[..., 0:2, 0:2])
        and _check_rotation_block(c2, s2, psi_r[..., 2:4, 2:4])
    ):
        raise ValueError("psi must be a real block rotation")

    # Step (i): QR of h_bar from two interleaved 2x2 factorizations.
    q_odd, r11, r13, r33 = _qr_2x2(h_bar[..., ::2, ::2], scale)
    q_even, r22, r24, r44 = _qr_2x2(h_bar[..., 1::2, 1::2], scale)
    batch = np.broadcast_shapes(r11.shape, np.shape(c1))
    q_bar = np.zeros(batch + (4, 4), dtype=complex)
    q_bar[..., ::2, ::2] = q_odd
    q_bar[..., 1::2, 1::2] = q_even

    # Step (ii): diagonal blocks of r_bar @ psi, real by construction.
    x00 = c1 * r11
    x01 = s1 * r11
    x10 = -s1 * r22
    x11 = c1 * r22
    z00 = c2 * r33
    z01 = s2 * r33
    z10 = -s2 * r44
    z11 = c2 * r44
    # Coupling block stays complex in general.
    y00 = c2 * r13
    y01 = s2 * r13
    y10 = -s2 * r24
    y11 = c2 * r24

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
