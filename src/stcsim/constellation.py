"""Square QAM and PAM alphabets with constant-time slicing.

The QAM alphabets built here are separable: the real and imaginary parts of
every symbol range independently over the same PAM grid. The fast decoders
rely on that separability, on the fixed row-major symbol ordering, and on the
deterministic tie rule of the slicer (exact midpoints resolve to the lower
level).
"""

import math
from dataclasses import dataclass
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
    values: tuple = None

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
    """Square M-QAM alphabet.

    ``symbols[k] = scale * (levels[k % L] + 1j * levels[k // L])`` where L is
    the PAM size: row-major ordering with the real axis running fastest. The
    same ``pam`` serves both the real and the imaginary axis. The decoders
    rely on exactly this layout, so construction raises ValueError for any
    other symbol array.
    """

    pam: PamAlphabet
    symbols: np.ndarray
    scale: float

    def __post_init__(self):
        width = self.pam.size
        grid = np.asarray(self.pam.values)
        expected = np.tile(grid, width) + 1j * np.repeat(grid, width)
        if np.shape(self.symbols) != expected.shape or not np.array_equal(
            self.symbols, expected
        ):
            raise ValueError(
                "alphabet is not square QAM: symbols must be the row-major grid "
                "of pam.values, real axis fastest"
            )
        self.symbols.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index_of(self, re_index: int, im_index: int) -> int:
        """Symbol index for a pair of PAM indices."""
        return im_index * self.pam.size + re_index


def make_qam(m: int) -> QamAlphabet:
    """Build the unit-average-energy square M-QAM alphabet.

    Args:
        m: modulation order, one of ``SUPPORTED_QAM_ORDERS``.

    Returns:
        QamAlphabet with mean |symbol|^2 equal to 1 and the fixed row-major
        symbol ordering (real axis fastest).
    """
    if m not in SUPPORTED_QAM_ORDERS:
        raise ValueError(f"unsupported modulation order: {m!r}")
    width = math.isqrt(m)
    levels = tuple(float(2 * i - (width - 1)) for i in range(width))
    mean_sq = sum(v * v for v in levels) / width
    scale = 1.0 / math.sqrt(2.0 * mean_sq)
    pam = PamAlphabet(levels=levels, scale=scale)
    grid = np.asarray(levels)
    symbols = scale * (np.tile(grid, width) + 1j * np.repeat(grid, width))
    return QamAlphabet(pam=pam, symbols=symbols, scale=scale)


def slice_pam(x: float, pam: PamAlphabet) -> tuple:
    """Nearest PAM symbol to ``x``, in O(1) regardless of alphabet size.

    Implemented by rounding on the level grid plus clamping, never by a scan.
    Exact midpoints between two levels resolve to the lower (more negative)
    level. Total on the extended reals: +/-inf clamp to the extreme levels.

    Returns:
        (symbol, index) with ``symbol`` the scaled level value.
    """
    width = len(pam.levels)
    v = (x / pam.scale + (width - 1.0)) / 2.0
    if v < 0.0:
        v = 0.0
    elif v > width - 1.0:
        v = width - 1.0
    i = math.ceil(v - 0.5)
    return pam.values[i], i


def sort_alphabet_by_metric(alphabet: QamAlphabet, metric: Callable) -> tuple:
    """Stable ascending sort of the alphabet under a per-symbol metric.

    ``metric`` is vectorized: it takes the full symbol array and returns one
    value per symbol. Both the index order and the sorted metric values are
    returned so callers can prune on partial sums.

    Returns:
        (order, sorted_values) as numpy arrays.
    """
    values = np.asarray(metric(alphabet.symbols), dtype=float)
    if values.shape != alphabet.symbols.shape:
        raise ValueError("metric must return one value per symbol")
    order = np.argsort(values, kind="stable")
    return order, values[order]
