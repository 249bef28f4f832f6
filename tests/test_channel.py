import math

import numpy as np
import pytest

import stcsim as st
from stcsim.channel import (
    NORMALS_PER_CHANNEL,
    NORMALS_PER_NOISE,
    channels_from_normals,
    noise_from_normals,
)


def test_quasistatic_slots_equal_exactly():
    rng = st.make_rng(0)
    for _ in range(50):
        h = st.sample_channel(rng, "quasistatic")
        assert h.shape == (2, 2, 2)
        assert np.array_equal(h[..., 0], h[..., 1])


def test_markov_endpoints_match_other_models():
    a = st.sample_channels(st.make_rng(5), "markov", 20, rho=1.0)
    b = st.sample_channels(st.make_rng(5), "quasistatic", 20)
    assert np.allclose(a, b, atol=1e-15)
    c = st.sample_channels(st.make_rng(5), "markov", 20, rho=0.0)
    d = st.sample_channels(st.make_rng(5), "rapid", 20)
    assert np.array_equal(c, d)


def test_markov_rho_validation():
    rng = st.make_rng(1)
    with pytest.raises(ValueError):
        st.sample_channel(rng, "markov", rho=1.5)
    with pytest.raises(ValueError):
        st.sample_channel(rng, "markov")
    with pytest.raises(ValueError):
        st.sample_channel(rng, "nonsense")


def test_coefficient_variance_within_two_percent():
    h = st.sample_channels(st.make_rng(2), "rapid", 100_000)
    var = np.mean(np.abs(h) ** 2, axis=0)
    assert np.all(np.abs(var - 1.0) < 0.02)


def test_markov_correlation_matches_rho():
    for rho in (0.3, 0.9):
        h = st.sample_channels(st.make_rng(3), "markov", 100_000, rho=rho)
        a = h[..., 0].ravel()
        b = h[..., 1].ravel()
        corr = np.mean(a * np.conj(b)).real  # unit-variance coefficients
        assert abs(corr - rho) < 0.02


def test_snr_to_n0():
    assert st.snr_to_n0(0.0) == 2.0
    assert st.snr_to_n0(3.0103) == pytest.approx(1.0, abs=1e-4)
    assert st.snr_to_n0(300.0) == pytest.approx(0.0, abs=1e-12)


def test_noise_mean_square_within_one_percent():
    n = noise_from_normals(st.make_rng(4).standard_normal((250_000, NORMALS_PER_NOISE)), 1.0)
    mean_sq = float(np.mean(np.abs(n) ** 2))
    assert 0.99 <= mean_sq <= 1.01


def _noise(rng, n0, count):
    return noise_from_normals(rng.standard_normal((count, NORMALS_PER_NOISE)), n0)


def test_noise_seed_determinism_and_scaling():
    a = _noise(st.make_rng(9, 1), 1.0, 100)
    b = _noise(st.make_rng(9, 1), 1.0, 100)
    assert np.array_equal(a, b)
    c = _noise(st.make_rng(9, 1), 4.0, 100)
    assert np.array_equal(c, 2.0 * a)
    with pytest.raises(ValueError):
        st.sample_noise(st.make_rng(9), 0.0)


def test_branch_streams_disjoint():
    a = _noise(st.make_rng(7, 0), 1.0, 10)
    b = _noise(st.make_rng(7, 1), 1.0, 10)
    assert not np.allclose(a, b)


def test_channel_seed_determinism_across_calls():
    h1 = st.sample_channels(st.make_rng(11, 2, 3), "markov", 50, rho=0.5)
    h2 = st.sample_channels(st.make_rng(11, 2, 3), "markov", 50, rho=0.5)
    assert np.array_equal(h1, h2)


def _spelled_out_draws(rng, model, rho, n0):
    """The draw convention written out: each slot part takes four real parts,
    then four imaginary parts, as does the noise; the symbols come between."""

    def unit_complex(shape):
        re = rng.standard_normal(shape)
        return (re + 1j * rng.standard_normal(shape)) / math.sqrt(2)

    first = unit_complex((2, 2))
    second = first if model == "quasistatic" else unit_complex((2, 2))
    if model == "markov":
        second = rho * first + math.sqrt(1.0 - rho * rho) * second
    idx = rng.integers(0, 16, size=4)
    return np.stack([first, second], axis=-1), idx, math.sqrt(n0) * unit_complex(4)


@pytest.mark.parametrize("model, rho", (("quasistatic", None), ("rapid", None), ("markov", 0.6)))
def test_normals_helpers_reproduce_per_trial_draws(model, rho):
    trials = 300
    channel_normals = np.empty((trials, NORMALS_PER_CHANNEL[model]))
    noise_normals = np.empty((trials, NORMALS_PER_NOISE))
    want_h, want_noise = [], []
    for trial in range(trials):
        rng = st.make_rng(31, trial)
        want_h.append(st.sample_channel(rng, model, rho))
        want_idx = rng.integers(0, 16, size=4)
        want_noise.append(st.sample_noise(rng, 0.7))
        spelled_h, spelled_idx, spelled_noise = _spelled_out_draws(
            st.make_rng(31, trial), model, rho, 0.7
        )
        assert spelled_h.tobytes() == want_h[-1].tobytes()
        assert np.array_equal(spelled_idx, want_idx)
        assert spelled_noise.tobytes() == want_noise[-1].tobytes()
        # the sweep's three draws from the same stream
        rng = st.make_rng(31, trial)
        rng.standard_normal(out=channel_normals[trial])
        assert np.array_equal(rng.integers(0, 16, size=4), want_idx)
        rng.standard_normal(out=noise_normals[trial])
    h = channels_from_normals(channel_normals, model, rho)
    assert h.shape == (trials, 2, 2, 2)
    assert h.tobytes() == np.stack(want_h).tobytes()
    assert noise_from_normals(noise_normals, 0.7).tobytes() == np.stack(want_noise).tobytes()


def test_normals_helpers_reject_bad_input():
    with pytest.raises(ValueError, match="16 normals"):
        channels_from_normals(np.zeros(8), "rapid")
    with pytest.raises(ValueError, match="rho"):
        channels_from_normals(np.zeros(16), "markov")
    with pytest.raises(ValueError):
        channels_from_normals(np.zeros(8), "nonsense")
    with pytest.raises(ValueError):
        noise_from_normals(np.zeros(8), 0.0)
