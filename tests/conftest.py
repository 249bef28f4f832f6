import numpy as np
import pytest

import stcsim as st
from stcsim.constellation import slice_pam


@pytest.fixture
def rng():
    return st.make_rng(1234)


def random_golden_instance(rng, m, variant="golden-dv", model="quasistatic", snr_db=10.0):
    """One shared decoding instance: (effective channel, y, alphabet, true indices)."""
    alphabet = st.make_qam(m)
    ch = st.sample_channel(rng, model)
    idx = rng.integers(0, alphabet.size, 4)
    eff = st.effective_channel(ch, variant)
    noise = eff.stack(st.sample_noise(rng, st.snr_to_n0(snr_db)))
    y = eff.h @ alphabet.symbols[idx] + noise
    return eff, y, alphabet, idx


def random_alamouti_instance(rng, m, model="quasistatic", snr_db=10.0):
    alphabet = st.make_qam(m)
    ch = st.sample_channel(rng, model)
    idx = rng.integers(0, alphabet.size, 4)
    eff = st.effective_channel(ch, "overlaid-alamouti")
    noise = eff.stack(st.sample_noise(rng, st.snr_to_n0(snr_db)))
    y = eff.h @ alphabet.symbols[idx] + noise
    return eff, y, alphabet, idx


def recompute_cost(eff, y, x_hat):
    return float(np.sum(np.abs(np.asarray(y) - np.asarray(eff.h) @ np.asarray(x_hat)) ** 2))


def sorted_pam_list(x, pam):
    """Reference order of the fast decoder's x2 candidates: all PAM symbols as
    (symbol, index) pairs in ascending distance to ``x``, built by zigzag
    expansion around the sliced symbol; equal distances put the lower level
    first, matching the slicer tie rule."""
    values = pam.values
    n = len(values)
    _, start = slice_pam(x, pam)
    out = [(values[start], start)]
    lo = start - 1
    hi = start + 1
    while lo >= 0 or hi < n:
        if hi >= n:
            pick = lo
            lo -= 1
        elif lo < 0:
            pick = hi
            hi += 1
        elif abs(x - values[lo]) <= abs(values[hi] - x):
            pick = lo
            lo -= 1
        else:
            pick = hi
            hi += 1
        out.append((values[pick], pick))
    return out
