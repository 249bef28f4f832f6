import math

import numpy as np
import pytest

import stcsim as st
from stcsim import GOLDEN, min_determinant_gap
from stcsim.matrixkit import frobenius_norm, qr_decompose


def test_golden_constants():
    g = GOLDEN
    assert g.cos_theta**2 + g.sin_theta**2 == pytest.approx(1.0, abs=1e-15)
    assert abs(g.cos_theta * g.sin_theta - 1 / math.sqrt(5)) <= 1e-15
    assert abs(abs(g.phase) - 1.0) <= 1e-15
    assert np.allclose(
        g.rotation,
        [[g.cos_theta, g.sin_theta], [-g.sin_theta, g.cos_theta]],
    )


def test_alamouti_constants():
    a = st.ALAMOUTI
    assert abs(a.phi1) ** 2 + abs(a.phi2) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_encode_golden_dv_examples():
    c = GOLDEN.cos_theta
    s = GOLDEN.sin_theta
    p = GOLDEN.phase
    assert np.all(st.encode([0, 0, 0, 0], "golden-dv") == 0)
    cw = st.encode([1, 0, 0, 0], "golden-dv")
    assert np.allclose(cw, [[c, 0], [0, -s]], atol=1e-15)
    cw = st.encode([0, 0, 1, 0], "golden-dv")
    assert np.allclose(cw, [[0, p * c], [-p * s, 0]], atol=1e-15)


def test_encode_golden_brv_example():
    c = GOLDEN.cos_theta
    s = GOLDEN.sin_theta
    cw = st.encode([1, 0, 0, 0], "golden-brv")
    assert cw[0, 0] == pytest.approx((c - s * 1j) * c, abs=1e-15)
    assert cw[0, 1] == 0
    assert cw[1, 0] == 0
    # forced by the consistency identity: coefficient of h21[2] in the
    # second received row is (s + c*j) * (-s) when only x1 is sent
    assert cw[1, 1] == pytest.approx((s + c * 1j) * (-s), abs=1e-15)


def test_encode_golden_wimax_examples():
    c = GOLDEN.cos_theta
    s = GOLDEN.sin_theta
    assert np.all(st.encode([0, 0, 0, 0], "golden-wimax") == 0)
    # the diagonal pair: x1 alone gives t = (c, -s), the second slot turned by -i
    cw = st.encode([1, 0, 0, 0], "golden-wimax")
    assert np.allclose(cw, [[c, 0], [0, 1j * s]], atol=1e-15)
    # the off-diagonal pair: x3 alone gives u = (c, -s), the second slot negated
    cw = st.encode([0, 0, 1, 0], "golden-wimax")
    assert np.allclose(cw, [[0, c], [s, 0]], atol=1e-15)


def test_encode_overlaid_alamouti_examples():
    q = 1 / math.sqrt(2)
    assert np.all(st.encode_overlaid_alamouti([0, 0, 0, 0]) == 0)
    cw = st.encode_overlaid_alamouti([1, 0, 0, 0])
    assert np.allclose(cw, q * np.eye(2), atol=1e-15)
    p1 = st.ALAMOUTI.phi1
    p2 = st.ALAMOUTI.phi2
    cw = st.encode_overlaid_alamouti([0, 0, 1, 0])
    want = q * np.diag([1, -1]) @ np.array([[p1, -np.conj(p2)], [p2, np.conj(p1)]])
    assert np.allclose(cw, want, atol=1e-15)


def _golden_codeword_oracles(x):
    """Each golden variant's codeword written out by hand from the rotated
    pairs t and u, independently of the encoder's coefficient table."""
    c = GOLDEN.cos_theta
    s = GOLDEN.sin_theta
    p = GOLDEN.phase
    d1 = complex(c, -s)
    d2 = complex(s, c)
    t = GOLDEN.rotation @ np.asarray(x[:2], dtype=complex)
    u = GOLDEN.rotation @ np.asarray(x[2:], dtype=complex)
    return {
        "golden-dv": np.array([[t[0], p * u[0]], [p * u[1], t[1]]]),
        "golden-brv": np.array([[d1 * t[0], d1 * u[0]], [1j * d2 * u[1], d2 * t[1]]]),
        "golden-wimax": np.array([[t[0], u[0]], [-u[1], -1j * t[1]]]),
    }


def test_encode_variant_dispatch(rng):
    x = [1, 2j, -1, 0.5]
    for variant, want in _golden_codeword_oracles(x).items():
        assert np.array_equal(st.encode(x, variant), want)
    assert np.array_equal(st.encode(x, "overlaid-alamouti"), st.encode_overlaid_alamouti(x))
    # bit for bit wherever no rotated component is zero (a unit coefficient
    # may flip the sign of a zero)
    for x in rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4)):
        for variant, want in _golden_codeword_oracles(x).items():
            assert st.encode(x, variant).tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        st.encode(x, "nonsense")


def _physical_receive(cw, h):
    """Independent layout oracle: y_j[k] = sum_i cw[k, i] h[i, j, k]."""
    y = np.zeros((2, 2), dtype=complex)
    for j in range(2):
        for k in range(2):
            y[j, k] = cw[k, 0] * h[0, j, k] + cw[k, 1] * h[1, j, k]
    return y


@pytest.mark.parametrize("variant", st.CODE_VARIANTS)
@pytest.mark.parametrize("model", ("quasistatic", "rapid"))
def test_encoder_effective_channel_consistency(rng, variant, model):
    for _ in range(1250):
        ch = st.sample_channel(rng, model)
        x = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) * 0.7
        noise = st.sample_noise(rng, 0.3)
        eff = st.effective_channel(ch, variant)
        got = st.transmit(st.encode(x, variant), ch, noise, variant)
        want = eff.h @ x + eff.stack(noise)
        assert np.max(np.abs(got - want)) <= 1e-12

        # transmit itself against the raw-layout oracle; stack order is
        # [y1[1], y1[2], y2[1], y2[2]], i.e. y[j, k] with j major
        raw = _physical_receive(st.encode(x, variant), ch.h).reshape(-1) + noise
        flags = np.asarray(eff.conjugated)
        assert np.allclose(got, np.where(flags, np.conj(raw), raw), atol=1e-13)


def test_transmit_trivials(rng):
    ch = st.sample_channel(rng, "rapid")
    zero = np.zeros((2, 2), dtype=complex)
    assert np.all(st.transmit(zero, ch, np.zeros(4), "golden-dv") == 0)
    noise = st.sample_noise(rng, 1.0)
    assert np.allclose(st.transmit(zero, ch, noise, "golden-dv"), noise)
    flagged = st.transmit(zero, ch, noise, "overlaid-alamouti")
    assert np.allclose(flagged, np.where([False, True, False, True], np.conj(noise), noise))


def test_effective_channel_dv_identity_example():
    c = GOLDEN.cos_theta
    s = GOLDEN.sin_theta
    p = GOLDEN.phase
    h = np.zeros((2, 2, 2), dtype=complex)
    h[0, 0, :] = 1.0  # h11
    h[1, 1, :] = 1.0  # h22
    eff = st.effective_channel(st.ChannelRealization(h=h, model="quasistatic"), "golden-dv")
    want = np.column_stack(
        [
            [c, 0, 0, -s],
            [s, 0, 0, c],
            [0, -s * p, c * p, 0],
            [0, c * p, s * p, 0],
        ]
    )
    assert np.allclose(eff.h, want, atol=1e-15)
    assert np.vdot(eff.h[:, 0], eff.h[:, 1]) == pytest.approx(0.0, abs=1e-15)


def test_column_inner_product_closed_form(rng):
    # first two columns of the default golden effective channel: the closed
    # form is (1/sqrt(5)) * (|h11[1]|^2 + |h12[1]|^2 - |h21[2]|^2 - |h22[2]|^2)
    h = np.zeros((2, 2, 2), dtype=complex)
    h[0, 0, 0] = 1.0
    h[0, 1, 0] = 1.0
    h[1, 0, 1] = 2.0
    h[1, 1, 1] = 0.0
    rand = st.sample_channel(rng, "rapid").h
    h[1, 0, 0] = rand[1, 0, 0]
    h[1, 1, 0] = rand[1, 1, 0]
    h[0, 0, 1] = rand[0, 0, 1]
    h[0, 1, 1] = rand[0, 1, 1]
    eff = st.effective_matrix(h, "golden-dv")
    got = np.vdot(eff[:, 0], eff[:, 1])
    assert got == pytest.approx(-2 / math.sqrt(5), abs=1e-12)
    assert got.real == pytest.approx(-0.8944271909999159, abs=1e-12)

    for _ in range(200):
        ch = st.sample_channel(rng, "rapid")
        eff = st.effective_matrix(ch.h, "golden-dv")
        closed = (
            abs(ch.h[0, 0, 0]) ** 2
            + abs(ch.h[0, 1, 0]) ** 2
            - abs(ch.h[1, 0, 1]) ** 2
            - abs(ch.h[1, 1, 1]) ** 2
        ) / math.sqrt(5)
        got = np.vdot(eff[:, 0], eff[:, 1])
        assert abs(got - closed) <= 1e-12 * max(1.0, abs(closed))
        assert abs(got.imag) <= 1e-12


@pytest.mark.parametrize("variant", st.GOLDEN_VARIANTS)
def test_real_r_blocks_all_variants_and_models(rng, variant):
    for model, rho in (("quasistatic", None), ("rapid", None), ("markov", 0.9)):
        h = st.sample_channels(rng, model, 500, rho)
        eff = st.effective_matrix(h, variant)
        r = qr_decompose(eff).r
        scale = frobenius_norm(eff)
        assert np.max(np.abs(r[..., 0, 1].imag) / scale) <= 1e-9
        assert np.max(np.abs(r[..., 2, 3].imag) / scale) <= 1e-9


def test_alamouti_structure_dichotomy(rng):
    h = st.sample_channels(rng, "quasistatic", 2000)
    eff = st.effective_matrix(h, "overlaid-alamouti")
    r = qr_decompose(eff).r
    scale = frobenius_norm(eff)
    assert np.max(np.abs(r[..., 0, 1]) / scale) <= 1e-9
    assert np.max(np.abs(r[..., 2, 3]) / scale) <= 1e-9

    h = st.sample_channels(rng, "rapid", 2000)
    eff = st.effective_matrix(h, "overlaid-alamouti")
    r = qr_decompose(eff).r
    scale = frobenius_norm(eff)
    assert np.median(np.abs(r[..., 0, 1]) / scale) > 0.01


def test_effective_channel_metadata():
    h = np.eye(4)
    samples = np.array([1 + 1j, 2 + 2j, 3 + 3j, 4 + 4j])
    alamouti = st.EffectiveChannel(h=h, variant="overlaid-alamouti")
    assert alamouti.conjugated == (False, True, False, True)
    # stacked samples 2 and 4 are conjugated
    assert np.array_equal(alamouti.stack(samples), [1 + 1j, 2 - 2j, 3 + 3j, 4 - 4j])
    for variant in st.GOLDEN_VARIANTS:
        golden = st.EffectiveChannel(h=h, variant=variant)
        assert golden.conjugated == (False, False, False, False)
        assert np.array_equal(golden.stack(samples), samples)
    with pytest.raises(ValueError, match="unknown code variant"):
        st.EffectiveChannel(h=h, variant="bogus")
    # the stacking comes from the variant alone; it cannot be passed in
    with pytest.raises(TypeError):
        st.EffectiveChannel(h=h, conjugated=(False,) * 4, variant="overlaid-alamouti")


def test_min_determinant_alphabet_independence():
    min4 = min_determinant_gap(2)
    min16 = min_determinant_gap(4)
    assert min4 > 0
    # hand value for the smallest difference vector (single coordinate +-2):
    # |det| = 4 * cos(theta) * sin(theta) = 4 / sqrt(5)
    assert min4 == pytest.approx(4 / math.sqrt(5), rel=1e-12)
    assert abs(min4 - min16) <= 1e-9 * min4


@pytest.mark.parametrize("variant", st.CODE_VARIANTS)
def test_factored_channels_match_single_builds_bit_for_bit(rng, variant):
    """A stacked effective_matrix and a stacked qr_decompose, as a sweep chunk
    makes them, equal one channel's own build and QR bit for bit."""
    for model, rho in (("quasistatic", None), ("rapid", None), ("markov", 0.9)):
        realizations = [st.sample_channel(rng, model, rho) for _ in range(40)]
        stacked = st.effective_matrix(np.stack([ch.h for ch in realizations]), variant)
        factors = qr_decompose(stacked)
        for k, ch in enumerate(realizations):
            single = st.effective_channel(ch, variant)
            alone = qr_decompose(single.h)
            assert np.array_equal(stacked[k], single.h)
            assert np.array_equal(factors.q[k], alone.q)
            assert np.array_equal(factors.r[k], alone.r)


def test_effective_channel_copies_the_callers_matrix(rng):
    built = st.effective_matrix(st.sample_channel(rng, "rapid").h, "golden-dv")
    caller = built.copy()
    eff = st.EffectiveChannel(h=caller, variant="golden-dv")
    caller[0, 0] = 7.0
    assert np.array_equal(eff.h, built)
    with pytest.raises(ValueError):
        eff.h[0, 0] = 1.0
    with pytest.raises(ValueError, match="4x4"):
        st.EffectiveChannel(h=np.eye(3), variant="golden-dv")
