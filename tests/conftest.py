import dataclasses
import math

import numpy as np
import pytest

import stcsim as st
from stcsim import decoders as dec
from stcsim.constellation import slice_pam


@pytest.fixture
def rng():
    return st.make_rng(1234)


def random_golden_instance(rng, m, variant="golden-dv", model="quasistatic", snr_db=10.0):
    """One shared decoding instance: (effective channel, y, alphabet, true indices)."""
    alphabet = st.make_qam(m)
    h = st.sample_channel(rng, model)
    idx = rng.integers(0, alphabet.size, 4)
    eff = st.effective_channel(h, variant)
    noise = st.stack_samples(st.sample_noise(rng, st.snr_to_n0(snr_db)), variant)
    y = eff.h @ alphabet.symbols[idx] + noise
    return eff, y, alphabet, idx


def random_alamouti_instance(rng, m, model="quasistatic", snr_db=10.0):
    alphabet = st.make_qam(m)
    h = st.sample_channel(rng, model)
    idx = rng.integers(0, alphabet.size, 4)
    eff = st.effective_channel(h, "overlaid-alamouti")
    noise = st.stack_samples(st.sample_noise(rng, st.snr_to_n0(snr_db)), "overlaid-alamouti")
    y = eff.h @ alphabet.symbols[idx] + noise
    return eff, y, alphabet, idx


def near_tie(rng, variant, eps, alphabet):
    """A quasistatic ``variant`` channel H moved to ``H + eps ||H|| P / ||P||``
    for a complex Gaussian P, and y just off the midpoint of two candidates
    one PAM step apart on one axis (so the midpoint is not a lattice point)."""
    h = st.effective_matrix(st.sample_channel(rng, "quasistatic"), variant)
    p = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = h + eps * np.linalg.norm(h) * p / np.linalg.norm(p)
    width = alphabet.pam.size
    a = rng.integers(0, alphabet.size, 4)
    b = a.copy()
    k = rng.integers(0, 4)
    step = int(rng.choice((1, width)))  # one step on the real or the imaginary axis
    b[k] += step if (a[k] // step) % width < width - 1 else -step
    xa, xb = alphabet.symbols[a], alphabet.symbols[b]
    return st.EffectiveChannel(h=h), h @ ((xa + xb) / 2 + 1e-9 * (xa - xb))


def recompute_cost(eff, y, x_hat):
    return float(np.sum(np.abs(np.asarray(y) - np.asarray(eff.h) @ np.asarray(x_hat)) ** 2))


def decode_one(name, eff, y, alphabet):
    """Registry decoder ``name`` on one instance, in ``eff``'s own column
    order: row 0 of a stack-of-one ``harness.decode_stack`` call."""
    received = np.asarray(y, dtype=complex)[None]
    decoded, _ = st.harness.decode_stack(eff.h[None], received, alphabet, (name,), "none")
    return decoded[name][0]


def prepared_row(eff, y, alphabet, sorts=None):
    """One instance's decoder row, for a tree decoder call that
    ``decode_stack`` does not make (``prune=False``): its ``triangular_rows``
    row followed, given the decoder's ``sorts`` function, by its sorted lists."""
    r, z, (row,) = dec.triangular_rows(eff.h[None], np.asarray(y, dtype=complex)[None])
    return row + sorts(alphabet, r, z)[0] if sorts else row


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


def reference_sphere_decode(eff, y, alphabet, prune=True):
    """Reference four-level sphere decoder: the numpy child ordering that
    ``decoders.decode_sphere_conventional`` replaced. Each expanded node
    computes all M child metrics and visits them in ``np.argsort(...,
    kind="stable")`` order; everything else is the decoder's own. It tracks
    its own best symbols too, and checks them against the derived x_hat."""
    r, z = prepared_row(eff, y, alphabet)
    syms = alphabet.symbols
    sym_list = syms.tolist()
    rdiag = [r[i][i].real for i in range(4)]
    scaled = [rdiag[i] * syms for i in range(4)]

    nodes = 0
    sorts = 0
    best = math.inf
    best_syms = None
    best_idx = None
    chosen = [0j] * 4
    chosen_idx = [0] * 4

    def expand(level, acc):
        nonlocal nodes, sorts, best, best_syms, best_idx
        w = z[level]
        for j in range(level + 1, 4):
            w -= r[level][j] * chosen[j]
        if level == 0:
            sym, idx = dec._slice_complex(w / rdiag[0], alphabet)
            nodes += 1
            total = acc + abs(w - rdiag[0] * sym) ** 2
            if total < best:
                chosen[0] = sym
                chosen_idx[0] = idx
                best = total
                best_syms = tuple(chosen)
                best_idx = tuple(chosen_idx)
            return
        diff = w - scaled[level]
        metrics = diff.real ** 2 + diff.imag ** 2
        order = np.argsort(metrics, kind="stable")
        sorts += 1
        metrics = metrics.tolist()
        for t in order.tolist():
            nodes += 1
            cum = acc + metrics[t]
            if prune and cum > best:
                break
            chosen[level] = sym_list[t]
            chosen_idx[level] = t
            expand(level - 1, cum)

    expand(3, 0.0)
    result = dec.DecodeResult(
        indices=best_idx,
        cost=best,
        nodes_visited=nodes,
        full_sorts=sorts,
        symbols=alphabet.symbols,
    )
    assert np.array(best_syms).tobytes() == result.x_hat.tobytes()
    return result


def permuted(eff, perm):
    """``eff`` with its columns in the order ``perm``."""
    return st.EffectiveChannel(h=eff.h[:, list(perm)])


def decode_alone(name, eff, y, alphabet, ordering):
    """Reference for one registry decode of one channel under ``ordering``:
    with "blast" the fast decoder takes the best of its eight column orders
    and the sphere decoder the greedy order, each picked for this channel
    alone, and the decision is mapped back to the natural column order."""
    perm = (0, 1, 2, 3)
    if ordering == "blast" and name == "fast":
        perm = dec.blast_ordering(eff.h, allowed=dec.FAST_PERMUTATIONS)
    elif ordering == "blast" and name == "sphere":
        perm = dec.blast_ordering(eff.h)
    result = decode_one(name, permuted(eff, perm), y, alphabet)
    indices = [0] * 4
    for pos, col in enumerate(perm):
        indices[col] = result.indices[pos]
    return dataclasses.replace(result, indices=tuple(indices))
