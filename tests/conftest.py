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


def reference_sphere_decode(eff, y, alphabet, prune=True):
    """Reference four-level sphere decoder: the numpy child ordering that
    ``decoders.decode_sphere_conventional`` replaced. Each expanded node
    computes all M child metrics and visits them in ``np.argsort(...,
    kind="stable")`` order; everything else is the decoder's own."""
    r, z, _, _ = dec._prepared_row(eff, y, None)
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
    return dec.DecodeResult(
        x_hat=np.array(best_syms),
        indices=best_idx,
        cost=best,
        nodes_visited=nodes,
        full_sorts=sorts,
    )


def permuted(eff, perm):
    """``eff`` with its columns in the order ``perm``."""
    return st.EffectiveChannel(h=eff.h[:, list(perm)], variant=eff.variant)


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
    result = st.harness.DECODERS[name].call(permuted(eff, perm), y, alphabet)
    x_hat = np.empty(4, dtype=complex)
    indices = [0] * 4
    for pos, col in enumerate(perm):
        x_hat[col] = result.x_hat[pos]
        indices[col] = result.indices[pos]
    return dataclasses.replace(result, x_hat=x_hat, indices=tuple(indices))
