"""Property tests: reported costs are true distances, and broken structure raises.

Derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

import stcsim as st
from stcsim import decoders as dec
from stcsim.constellation import QamAlphabet

from conftest import recompute_cost

PROPERTY = settings(derandomize=True, deadline=None)

finite = hs.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
received = hs.lists(finite, min_size=8, max_size=8).map(
    lambda v: np.array(v[:4]) + 1j * np.array(v[4:])
)


def _close(a, b):
    return abs(a - b) <= 1e-9 * abs(b)


@PROPERTY
@given(
    variant=hs.sampled_from(st.GOLDEN_VARIANTS),
    model=hs.sampled_from(("quasistatic", "rapid", "markov")),
    m=hs.sampled_from((4, 16)),
    seed=hs.integers(0, 2**32 - 1),
    scale=hs.floats(1e-3, 1e3),
    y=received,
)
def test_golden_costs_are_true_distances(variant, model, m, seed, scale, y):
    ch = st.sample_channel(st.make_rng(seed), model, rho=0.9 if model == "markov" else None)
    eff = st.effective_channel_from_matrix(scale * st.effective_matrix(ch.h, variant), variant)
    alphabet = st.make_qam(m)
    results = {
        "fast": dec.decode_fast_golden(eff, y, alphabet),
        "sphere": dec.decode_sphere_conventional(eff, y, alphabet),
        "exhaustive": dec.decode_exhaustive(eff, y, alphabet),
    }
    for name, result in results.items():
        assert _close(result.cost, recompute_cost(eff, y, result.x_hat)), name
    assert _close(results["fast"].cost, results["exhaustive"].cost)


@PROPERTY
@given(
    m=hs.sampled_from((4, 16)),
    seed=hs.integers(0, 2**32 - 1),
    scale=hs.floats(1e-3, 1e3),
    y=received,
)
def test_alamouti_costs_equal_exhaustive(m, seed, scale, y):
    # Alamouti's fast path needs quasistatic fading; rapid channels raise.
    ch = st.sample_channel(st.make_rng(seed), "quasistatic")
    variant = "overlaid-alamouti"
    eff = st.effective_channel_from_matrix(scale * st.effective_matrix(ch.h, variant), variant)
    alphabet = st.make_qam(m)
    alamouti = dec.decode_alamouti_fast(eff, y, alphabet)
    assert _close(alamouti.cost, recompute_cost(eff, y, alamouti.x_hat))
    assert _close(alamouti.cost, dec.decode_exhaustive(eff, y, alphabet).cost)


@PROPERTY
@given(
    variant=hs.sampled_from(st.GOLDEN_VARIANTS),
    entries=hs.lists(hs.floats(-10, 10), min_size=32, max_size=32),
    real=hs.booleans(),
    y=received,
)
def test_fast_on_arbitrary_matrix_raises_or_is_exact(variant, entries, real, y):
    h = np.array(entries[:16]).reshape(4, 4)
    if not real:  # a real matrix has a real R: it passes the check without being golden
        h = h + 1j * np.array(entries[16:]).reshape(4, 4)
    eff = st.effective_channel_from_matrix(h, variant)
    alphabet = st.make_qam(4)
    try:
        fast = dec.decode_fast_golden(eff, y, alphabet)
    except ValueError:
        return
    assert _close(fast.cost, dec.decode_exhaustive(eff, y, alphabet).cost)


@PROPERTY
@given(m=hs.sampled_from((4, 16)), data=hs.data())
def test_non_square_alphabet_construction_raises(m, data):
    square = st.make_qam(m)
    order = data.draw(hs.permutations(range(m)))
    keep = data.draw(hs.integers(1, m))
    assume(keep < m or order != list(range(m)))
    with pytest.raises(ValueError, match="not square QAM"):
        QamAlphabet(pam=square.pam, symbols=square.symbols[order[:keep]], scale=square.scale)
