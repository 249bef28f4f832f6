import numpy as np
import pytest

import stcsim as st
from stcsim.codes import GOLDEN_ZERO_PATTERN, PSI, qr_golden_structured
from stcsim.matrixkit import frobenius_norm, qr_decompose


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_qr_identity():
    f = qr_decompose(np.eye(4, dtype=complex))
    assert np.allclose(f.q, np.eye(4), atol=1e-14)
    assert np.allclose(f.r, np.eye(4), atol=1e-14)


def test_qr_positive_scaling():
    f = qr_decompose(2.0 * np.eye(4, dtype=complex))
    assert np.allclose(f.r, 2.0 * np.eye(4), atol=1e-14)


def test_qr_reconstruction_and_convention(rng):
    for _ in range(300):
        h = random_complex(np.random.default_rng(rng.integers(1 << 31)), (4, 4))
        f = qr_decompose(h)
        scale = float(frobenius_norm(h))
        assert np.linalg.norm(f.q @ f.r - h) <= 1e-10 * scale
        assert np.linalg.norm(f.q.conj().T @ f.q - np.eye(4)) <= 1e-10
        diag = np.diagonal(f.r)
        assert np.all(diag.imag == 0.0)
        assert np.all(diag.real >= 0.0)
        assert np.all(f.r[np.tril_indices(4, -1)] == 0.0)


def test_qr_batched_matches_loop(rng):
    h = random_complex(np.random.default_rng(3), (10, 4, 4))
    batch = qr_decompose(h)
    for i in range(10):
        single = qr_decompose(h[i])
        assert np.allclose(batch.q[i], single.q, atol=1e-13)
        assert np.allclose(batch.r[i], single.r, atol=1e-13)


def test_qr_degenerate_channel():
    h = np.ones((4, 4), dtype=complex)
    with pytest.raises(ValueError, match="degenerate channel"):
        qr_decompose(h)


def _random_golden_h_bar(rng, variant="golden-dv", model="rapid"):
    return st.golden_parts(st.sample_channel(rng, model), variant)


def test_structured_qr_matches_general_qr_on_golden_matrices(rng):
    for variant in st.GOLDEN_VARIANTS:
        for model in ("quasistatic", "rapid"):
            for _ in range(100):
                h_bar = _random_golden_h_bar(rng, variant, model)
                general = qr_decompose(h_bar @ PSI)
                structured = qr_golden_structured(h_bar)
                assert np.max(np.abs(general.r - structured.r)) <= 1e-9
                assert np.max(np.abs(general.q - structured.q)) <= 1e-9


def test_structured_qr_blocks_exactly_real(rng):
    for _ in range(200):
        h_bar = _random_golden_h_bar(rng)
        f = qr_golden_structured(h_bar)
        assert np.all(f.r[..., 0:2, 0:2].imag == 0.0)
        assert np.all(f.r[..., 2:4, 2:4].imag == 0.0)


def test_structured_qr_batched_matches_loop(rng):
    h = st.sample_channels(rng, "rapid", 8)
    h_bar = st.golden_parts(h, "golden-dv")
    batch = qr_golden_structured(h_bar)
    for i in range(8):
        single = qr_golden_structured(h_bar[i])
        assert np.allclose(batch.r[i], single.r, atol=1e-13)
        assert np.allclose(batch.q[i], single.q, atol=1e-13)


def test_structured_qr_identity_like_channel_agrees_entrywise():
    # channel chosen so the pre-rotation matrix has unit nonzeros
    p = st.GOLDEN.phase
    h = np.zeros((2, 2, 2), dtype=complex)
    h[0, 0, 0] = 1.0  # h11[1]
    h[1, 0, 1] = 1.0  # h21[2]
    h[1, 1, 0] = 1.0 / p  # makes the (2,2) entry of h_bar exactly 1
    h[0, 1, 1] = 1.0 / p
    h_bar = st.golden_parts(h, "golden-dv")
    general = qr_decompose(h_bar @ PSI)
    structured = qr_golden_structured(h_bar)
    assert np.max(np.abs(general.r - structured.r)) <= 1e-10
    assert np.max(np.abs(general.q - structured.q)) <= 1e-10


def test_structured_qr_rejects_pattern_violation(rng):
    h_bar = _random_golden_h_bar(rng)
    bad = np.array(h_bar)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError, match="not a golden effective matrix"):
        qr_golden_structured(bad)


def test_golden_zero_pattern_positions(rng):
    h_bar = _random_golden_h_bar(rng)
    for row, col in GOLDEN_ZERO_PATTERN:
        assert h_bar[row, col] == 0.0
