"""Square QAM and PAM alphabets, and the stable alphabet sort.

A QAM alphabet is built from its PAM alphabet alone, so it is square by
construction: the real and imaginary parts of every symbol range
independently over the same PAM grid, in a fixed row-major order. The fast
decoders rely on that separability and on that order.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

SUPPORTED_QAM_ORDERS = (4, 16, 64, 256)


@dataclass(frozen=True, eq=False)
class PamAlphabet:
    """Uniform PAM alphabet on a scaled odd-integer grid.

    ``levels`` holds the unscaled grid {-(L-1), ..., -1, 1, ..., L-1} and the
    transmitted values are ``scale * levels`` (exposed as ``values``).
    Instances are immutable and safe to share between threads.
    """

    levels: tuple
    scale: float
    values: tuple = field(init=False)

    def __post_init__(self):
        levels = tuple(float(v) for v in self.levels)
        if len(levels) < 2:
            raise ValueError("PAM alphabet needs at least two levels")
        if self.scale <= 0:
            raise ValueError("PAM scale must be positive")
        for a, b in zip(levels, levels[1:]):
            if b - a != 2.0:
                raise ValueError("PAM levels must be the odd-integer grid with spacing 2")
        if levels[0] != -levels[-1]:
            raise ValueError("PAM levels must be symmetric about zero")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "values", tuple(self.scale * v for v in levels))

    @property
    def size(self) -> int:
        return len(self.levels)


@dataclass(frozen=True, eq=False)
class QamAlphabet:
    """Square M-QAM alphabet of one PAM alphabet per axis.

    ``symbols[k] = pam.scale * (levels[k % L] + 1j * levels[k // L])`` where
    L is the PAM size: row-major ordering with the real axis running
    fastest, read-only. The decoders rely on exactly this layout.
    """

    pam: PamAlphabet
    symbols: np.ndarray = field(init=False)

    def __post_init__(self):
        width = self.pam.size
        levels = np.asarray(self.pam.levels)
        symbols = self.pam.scale * (np.tile(levels, width) + 1j * np.repeat(levels, width))
        symbols.setflags(write=False)
        object.__setattr__(self, "symbols", symbols)

    @property
    def size(self) -> int:
        return len(self.symbols)


def make_qam(m: int) -> QamAlphabet:
    """Build the unit-average-energy square M-QAM alphabet.

    Args:
        m: modulation order, an integer in ``SUPPORTED_QAM_ORDERS``; any
            other value, ``4.0`` and ``True`` included, raises ValueError.

    Returns:
        QamAlphabet with mean |symbol|^2 equal to 1 and the fixed row-major
        symbol ordering (real axis fastest).
    """
    integral = isinstance(m, numbers.Integral) and not isinstance(m, bool)
    if not integral or m not in SUPPORTED_QAM_ORDERS:
        raise ValueError(f"unsupported modulation order: {m!r}")
    width = math.isqrt(m)
    levels = tuple(float(2 * i - (width - 1)) for i in range(width))
    mean_sq = sum(v * v for v in levels) / width
    return QamAlphabet(PamAlphabet(levels=levels, scale=1.0 / math.sqrt(2.0 * mean_sq)))


def sort_alphabet_by_metric(alphabet: QamAlphabet, metric: Callable) -> tuple:
    """Stable ascending sort of the alphabet under per-symbol metrics.

    ``metric`` is vectorized: it takes the full symbol array and returns one
    value per symbol, shape (M,), or a stack of such rows, shape (..., M),
    each sorted on its own; a decoder's prologue sorts a whole stack of
    channels in one call. Both the index order and the sorted metric values
    are returned so callers can prune on partial sums.

    Returns:
        (order, sorted_values) as numpy arrays of the metric's shape.
    """
    values = np.asarray(metric(alphabet.symbols), dtype=float)
    if values.shape[-1:] != alphabet.symbols.shape:
        raise ValueError("metric must return one value per symbol")
    order = np.argsort(values, axis=-1, kind="stable")
    # Flat positions of each row's start: np.take_along_axis, without its fixed cost.
    starts = np.arange(0, values.size, values.shape[-1]).reshape(values.shape[:-1] + (1,))
    return order, values.ravel()[order + starts]
