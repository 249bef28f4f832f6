"""Small dense complex matrix helpers for 4x4 effective channels.

``qr_decompose`` is a general factorization (LAPACK Householder under the
hood) post-processed so the diagonal of R is real and nonnegative, which
makes the factorization unique for full-rank input. It accepts stacked input
of shape (..., n, n) and operates batchwise.
"""

from dataclasses import dataclass

import numpy as np

RANK_TOLERANCE = 1e-12


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
        ValueError: if any matrix has a non-finite entry, or any pivot falls
            below RANK_TOLERANCE * ||h||_F ("degenerate channel"); callers
            may resample the fading.
    """
    h = np.asarray(h, dtype=complex)
    scale = frobenius_norm(h)
    if not np.all(np.isfinite(scale)):
        raise ValueError("non-finite channel matrix")
    q, r = np.linalg.qr(h)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(diag)
    if np.any(scale == 0.0) or np.any(mag < RANK_TOLERANCE * scale[..., None]):
        raise ValueError("degenerate channel: column pivot below rank tolerance")
    phase = diag / mag
    q = q * phase[..., None, :]
    r = r * np.conj(phase)[..., :, None]
    n = r.shape[-1]
    idx = np.arange(n)
    r[..., idx, idx] = r[..., idx, idx].real
    return QRFactors(q=q, r=r)
