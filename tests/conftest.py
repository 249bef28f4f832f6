import numpy as np
import pytest

import stcsim as st


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
