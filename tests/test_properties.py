"""Property tests: reported costs are true distances, broken structure raises,
and the sphere decoder's child order is a stable argsort.

Derandomized, so every run draws the same examples.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import stcsim as st
from stcsim import decoders as dec

from conftest import decode_one, near_tie, recompute_cost

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
    h = st.sample_channel(st.make_rng(seed), model, rho=0.9 if model == "markov" else None)
    eff = st.EffectiveChannel(h=scale * st.effective_matrix(h, variant))
    alphabet = st.make_qam(m)
    results = {
        name: decode_one(name, eff, y, alphabet) for name in ("fast", "sphere", "exhaustive")
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
    h = st.sample_channel(st.make_rng(seed), "quasistatic")
    eff = st.EffectiveChannel(h=scale * st.effective_matrix(h, "overlaid-alamouti"))
    alphabet = st.make_qam(m)
    alamouti = decode_one("alamouti", eff, y, alphabet)
    assert _close(alamouti.cost, recompute_cost(eff, y, alamouti.x_hat))
    assert _close(alamouti.cost, decode_one("exhaustive", eff, y, alphabet).cost)


@PROPERTY
@given(
    entries=hs.lists(hs.floats(-10, 10), min_size=32, max_size=32),
    real=hs.booleans(),
    # a golden channel moved by a relative size around the zero tolerance
    near_golden=hs.none() | hs.tuples(hs.integers(0, 2**32 - 1),
                                      hs.floats(-15.0, -5.0).map(lambda e: 10.0**e)),
    y=received,
)
def test_fast_on_arbitrary_matrix_raises_or_is_exact(entries, real, near_golden, y):
    h = np.array(entries[:16]).reshape(4, 4)
    if not real:  # a real matrix has a real R: it passes the check without being golden
        h = h + 1j * np.array(entries[16:]).reshape(4, 4)
    eff = st.EffectiveChannel(h=h)
    alphabet = st.make_qam(4)
    if near_golden is not None:
        seed, size = near_golden
        eff, _ = near_tie(st.make_rng(seed), "golden-dv", size, alphabet)
    try:
        fast = decode_one("fast", eff, y, alphabet)
    except ValueError:
        return
    assert _close(fast.cost, decode_one("exhaustive", eff, y, alphabet).cost)



# Few distinct values, so that per-axis values repeat and sums tie, exactly or
# by rounding (1e16 + 1 == 1e16); plus arbitrary metrics and inf.
axis_metric = hs.sampled_from((0.0, 0.1, 0.2, 0.3, 1.0, 2.0, 1e16, np.inf)) | hs.floats(
    0.0, 10.0, allow_nan=False
)
axis_pair = hs.sampled_from((2, 4, 8)).flatmap(
    lambda width: hs.tuples(
        hs.lists(axis_metric, min_size=width, max_size=width),
        hs.lists(axis_metric, min_size=width, max_size=width),
    )
)


@PROPERTY
@given(pair=axis_pair)
def test_children_in_order_is_stable_argsort_of_the_sums(pair):
    a, b = pair
    sums = np.add.outer(b, a).ravel()
    children = list(dec._children_in_order(a, b))
    assert [t for _, t in children] == np.argsort(sums, kind="stable").tolist()
    assert [metric for metric, _ in children] == sums[[t for _, t in children]].tolist()


def test_failing_property_test_reports_without_crashing_the_session(tmp_path):
    """A failing hypothesis test makes its plugin import libcst, which warns
    with a DeprecationWarning; under this repo's pytest config that must not
    end the session with an INTERNALERROR. Every other deprecation stays an
    error."""
    (tmp_path / "test_sample.py").write_text(textwrap.dedent("""
        import warnings

        from hypothesis import given, settings, strategies

        @settings(derandomize=True, database=None)
        @given(strategies.integers())
        def test_property_fails(n):
            assert n != n

        def test_deprecation_is_an_error():
            warnings.warn("old", DeprecationWarning)

        def test_passes():
            pass
    """))
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider", "-q",
         str(tmp_path / "test_sample.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "2 failed, 1 passed" in output
