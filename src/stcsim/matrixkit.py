"""Small dense complex matrix helpers for 4x4 effective channels.

``qr_decompose`` is a general factorization (LAPACK Householder under the
hood) post-processed so the diagonal of R is real and nonnegative, which
makes the factorization unique for full-rank input. It accepts stacked input
of shape (..., n, n) and operates batchwise.

``ZERO_TOLERANCE``, which ``require_full_rank`` and ``require_zero`` apply, is
the one rule for what counts as zero: an entry or pivot of a factor of H below
``ZERO_TOLERANCE * ||H||_F`` is zero. A structured channel's zeros stay near 1e-15.
"""

from dataclasses import dataclass

import numpy as np

ZERO_TOLERANCE = 1e-12


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


def require_full_rank(pivots, scale) -> None:
    """Raise ValueError unless ``scale`` > 0 and every pivot >= ZERO_TOLERANCE * scale."""
    if np.any(scale == 0.0) or np.any(pivots < ZERO_TOLERANCE * scale):
        raise ValueError("degenerate channel: column pivot below rank tolerance")


def require_zero(entries, scale, message: str) -> None:
    """Raise ValueError unless every |entry| is at most ZERO_TOLERANCE * scale;
    the error is ``message`` followed by the largest |entry| / scale and the bound."""
    entries, scale = np.broadcast_arrays(np.abs(entries), scale)
    nonzero = entries > ZERO_TOLERANCE * scale
    if np.any(nonzero):
        defect = np.max(entries[nonzero] / scale[nonzero])
        raise ValueError(f"{message} is {defect:.1e} of ||H||_F, above {ZERO_TOLERANCE:g}")


def qr_decompose(h: np.ndarray) -> QRFactors:
    """QR factorization with real nonnegative diagonal of R.

    Args:
        h: complex matrix (or stack of matrices) of shape (..., n, n) with
           linearly independent columns.

    Raises:
        ValueError: if any matrix has a non-finite entry, or any pivot falls
            below ZERO_TOLERANCE * ||h||_F ("degenerate channel"); callers
            may resample the fading.
    """
    h = np.asarray(h, dtype=complex)
    scale = frobenius_norm(h)
    if not np.all(np.isfinite(scale)):
        raise ValueError("non-finite channel matrix")
    q, r = np.linalg.qr(h)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(diag)
    require_full_rank(mag, scale[..., None])
    phase = diag / mag
    q = q * phase[..., None, :]
    r = r * np.conj(phase)[..., :, None]
    n = r.shape[-1]
    idx = np.arange(n)
    r[..., idx, idx] = r[..., idx, idx].real
    return QRFactors(q=q, r=r)
