import math

import numpy as np
import pytest

from stcsim import (
    SUPPORTED_QAM_ORDERS,
    PamAlphabet,
    QamAlphabet,
    make_qam,
    slice_pam,
    sort_alphabet_by_metric,
)

from conftest import sorted_pam_list

PAM4 = PamAlphabet(levels=(-3.0, -1.0, 1.0, 3.0), scale=1.0)


def test_make_qam_4_scale_and_symbols():
    a = make_qam(4)
    assert a.scale == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    expected = {complex(r, i) / math.sqrt(2) for r in (-1, 1) for i in (-1, 1)}
    assert set(np.round(a.symbols, 12)) == set(np.round(list(expected), 12))


def test_make_qam_16_scale_matches_direct_summation():
    # mean of (a^2 + b^2) over a, b in {+-1, +-3} is 10
    levels = (-3, -1, 1, 3)
    mean_energy = np.mean([a * a + b * b for a in levels for b in levels])
    assert mean_energy == 10
    a = make_qam(16)
    assert a.scale == pytest.approx(1 / math.sqrt(10), abs=1e-15)


def test_make_qam_rejects_unsupported_order():
    with pytest.raises(ValueError, match="unsupported modulation order"):
        make_qam(5)


@pytest.mark.parametrize("m", SUPPORTED_QAM_ORDERS)
def test_unit_average_energy(m):
    a = make_qam(m)
    assert np.mean(np.abs(a.symbols) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", SUPPORTED_QAM_ORDERS)
def test_symbol_ordering_row_major_real_fastest(m):
    a = make_qam(m)
    width = a.pam.size
    values = a.pam.values
    for k, sym in enumerate(a.symbols):
        assert sym == complex(values[k % width], values[k // width])


@pytest.mark.parametrize("m", SUPPORTED_QAM_ORDERS)
def test_separability_real_imag_parts_cover_pam(m):
    a = make_qam(m)
    grid = np.asarray(a.pam.values)
    assert np.array_equal(np.unique(a.symbols.real), grid)
    assert np.array_equal(np.unique(a.symbols.imag), grid)


def test_slice_examples():
    assert slice_pam(0.2, PAM4) == (1.0, 2)
    assert slice_pam(-5.0, PAM4) == (-3.0, 0)
    # exact midpoint resolves to the lower level
    assert slice_pam(2.0, PAM4) == (1.0, 2)
    assert slice_pam(0.0, PAM4) == (-1.0, 1)


def test_slice_clamps_infinities():
    assert slice_pam(math.inf, PAM4) == (3.0, 3)
    assert slice_pam(-math.inf, PAM4) == (-3.0, 0)


@pytest.mark.parametrize("m", SUPPORTED_QAM_ORDERS)
def test_slice_matches_exhaustive_scan(m):
    pam = make_qam(m).pam
    values = np.asarray(pam.values)
    hi = 1.5 * values[-1]
    # 10007 points dodge exact midpoints; argmin keeps the lower level on ties
    for x in np.linspace(-hi, hi, 10007):
        want = int(np.argmin(np.abs(x - values)))
        sym, idx = slice_pam(float(x), pam)
        assert idx == want
        assert sym == values[want]


def test_sorted_list_examples():
    assert [s for s, _ in sorted_pam_list(0.2, PAM4)] == [1.0, -1.0, 3.0, -3.0]
    assert [s for s, _ in sorted_pam_list(100.0, PAM4)] == [3.0, 1.0, -1.0, -3.0]
    # exact midpoint: lower level first
    assert [s for s, _ in sorted_pam_list(0.0, PAM4)] == [-1.0, 1.0, -3.0, 3.0]


@pytest.mark.parametrize("m", SUPPORTED_QAM_ORDERS)
def test_sorted_list_properties(m):
    pam = make_qam(m).pam
    rng = np.random.default_rng(7)
    for x in rng.uniform(-2.0, 2.0, size=200):
        out = sorted_pam_list(float(x), pam)
        assert sorted(i for _, i in out) == list(range(pam.size))
        dists = [abs(x - s) for s, _ in out]
        assert all(a <= b + 1e-15 for a, b in zip(dists, dists[1:]))
        assert out[0] == slice_pam(float(x), pam)


def test_sorted_list_matches_brute_force_sort():
    pam = make_qam(64).pam
    rng = np.random.default_rng(8)
    for x in rng.uniform(-1.5, 1.5, size=300):
        got = [i for _, i in sorted_pam_list(float(x), pam)]
        # brute-force oracle with the same tie rule (lower level first)
        want = [i for _, _, i in sorted((abs(x - s), s, i) for i, s in enumerate(pam.values))]
        assert got == want


def test_sort_by_constant_metric_is_identity():
    a = make_qam(16)
    order, values = sort_alphabet_by_metric(a, lambda s: np.zeros_like(s, dtype=float))
    assert list(order) == list(range(16))
    assert np.all(values == 0)


def test_sort_by_distance_to_member_puts_it_first():
    a = make_qam(16)
    target = a.symbols[9]
    order, values = sort_alphabet_by_metric(a, lambda s: np.abs(s - target) ** 2)
    assert order[0] == 9
    assert values[0] == 0.0


def test_sort_matches_brute_force_and_scalar_callable():
    a = make_qam(4)
    rng = np.random.default_rng(9)
    metric_values = rng.uniform(0, 1, size=4)
    order, values = sort_alphabet_by_metric(a, lambda s: metric_values)
    want = np.argsort(metric_values, kind="stable")
    assert np.array_equal(order, want)
    assert np.array_equal(values, metric_values[want])
    # a callable that returns one number, not one per symbol, is refused
    with pytest.raises(ValueError, match="one value per symbol"):
        sort_alphabet_by_metric(a, lambda s: 0.5)


def test_pam_validation():
    with pytest.raises(ValueError):
        PamAlphabet(levels=(-1.0, 2.0), scale=1.0)
    with pytest.raises(ValueError):
        PamAlphabet(levels=(-3.0, -1.0), scale=1.0)
    with pytest.raises(ValueError):
        PamAlphabet(levels=(-1.0, 1.0), scale=0.0)


def test_index_helpers_roundtrip():
    a = make_qam(64)
    width = a.pam.size
    for k in range(64):
        re_i, im_i = k % width, k // width
        assert a.index_of(re_i, im_i) == k
        assert a.symbols[k] == complex(a.pam.values[re_i], a.pam.values[im_i])


def test_qam_alphabet_rejects_non_square():
    pam = PamAlphabet(levels=(-1.0, 1.0), scale=1.0)
    square = QamAlphabet(pam=pam, symbols=np.array([-1 - 1j, 1 - 1j, -1 + 1j, 1 + 1j]), scale=1.0)
    assert square.size == 4
    # the right symbols in the wrong order: not separable as row-major PAM pairs
    with pytest.raises(ValueError, match="not square QAM"):
        QamAlphabet(pam=pam, symbols=np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j]), scale=1.0)
    with pytest.raises(ValueError, match="not square QAM"):
        QamAlphabet(pam=pam, symbols=np.array([-1 - 1j, 1 - 1j, -1 + 1j]), scale=1.0)
