import dataclasses
import math
from heapq import heappop, heappush

import numpy as np
import pytest

import stcsim as st
from stcsim import decoders as dec
from stcsim.matrixkit import ZERO_TOLERANCE


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
    return decoded[name].row(0)


def rows(result):
    """The one-instance views of a stacked DecodeResult, in instance order."""
    return [result.row(i) for i in range(len(result.cost))]


def slice_pam(x: float, pam) -> tuple:
    """Reference scalar PAM slicer: the nearest level to ``x``, in O(1)
    regardless of alphabet size, by rounding on the level grid plus
    clamping, never by a scan. Exact midpoints between two levels resolve
    to the lower (more negative) level. Total on the extended reals: +/-inf
    clamp to the extreme levels; a nan raises ValueError. The decoders'
    numpy slicer (``decoders._slice_planes``) repeats its float operations.

    Returns:
        (symbol, index) with ``symbol`` the scaled level value.
    """
    width = len(pam.levels)
    v = (x / pam.scale + (width - 1.0)) / 2.0
    if v < 0.0:
        v = 0.0
    elif v > width - 1.0:
        v = width - 1.0
    i = math.ceil(v - 0.5)
    return pam.values[i], i


def index_of(alphabet, re_index: int, im_index: int) -> int:
    """Symbol index of ``alphabet`` for a pair of PAM indices (real axis fastest)."""
    return im_index * alphabet.pam.size + re_index


def prepared_row(eff, y, alphabet):
    """One instance's ``triangular_rows`` R and z as Python scalars, the row
    a reference sphere search reads."""
    r, z = dec.triangular_rows(eff.h[None], np.asarray(y, dtype=complex)[None])
    return r[0].tolist(), z[0].tolist()


def slice_complex(value: complex, alphabet) -> tuple:
    """Nearest QAM symbol via one PAM slice per axis."""
    re_sym, re_idx = slice_pam(value.real, alphabet.pam)
    im_sym, im_idx = slice_pam(value.imag, alphabet.pam)
    return complex(re_sym, im_sym), index_of(alphabet, re_idx, im_idx)


def real_search(
    v1: float, v2: float, r11: float, r12: float, r22: float, pam, prune: bool, radius: float
):
    """Two-level real search over one component (real or imaginary) of the leading pair.

    Minimizes (v2 - r22*x2)^2 + (v1 - r12*x2 - r11*x1)^2 over PAM levels:
    x2 in zigzag order around c = v2/r22 with pruning on the partial metric,
    x1 by one slicer decision. The zigzag starts at the sliced level and
    steps to whichever unvisited neighbour is nearer to c, the lower one on
    equal distances (the slicer's tie rule); it is stepped inline, so a
    pruned search builds none of the levels it does not visit. One node per
    x2 candidate entered and one per slice. Only metrics below ``radius`` are
    accepted.

    Returns:
        (metric, pick, nodes) with pick = (x1_index, x2_index), or pick None
        when no metric is below ``radius``.
    """
    values = pam.values
    width = len(values)
    c = v2 / r22
    x2sym, x2idx = slice_pam(c, pam)
    lo = x2idx - 1
    hi = x2idx + 1
    best = radius
    pick = None
    nodes = 0
    while True:
        nodes += 1
        t = (v2 - r22 * x2sym) ** 2
        if prune and t > best:
            break
        u = v1 - r12 * x2sym
        x1sym, x1idx = slice_pam(u / r11, pam)
        nodes += 1
        t += (u - r11 * x1sym) ** 2
        if t < best:
            best = t
            pick = (x1idx, x2idx)
        if lo >= 0 and (hi == width or c - values[lo] <= values[hi] - c):
            x2idx = lo
            lo -= 1
        elif hi < width:
            x2idx = hi
            hi += 1
        else:
            break
        x2sym = values[x2idx]
    return best, pick, nodes


def nearest_x2_metric(v2: float, r22: float, pam) -> float:
    """(v2 - r22*x2)^2 at ``real_search``'s first x2 candidate: a lower bound on its metric."""
    x2sym, _ = slice_pam(v2 / r22, pam)
    return (v2 - r22 * x2sym) ** 2


def walk_pairs(outer_metrics, inner_metrics, leading, prune: bool):
    """Best-first exact-ML walk over the trailing symbol pair of the fast decoders.

    Pair (k, l) has trailing metric ``tail = outer_metrics[k] +
    inner_metrics[l]``. Both lists ascend, so a heap merge pops the pairs in
    nondecreasing tail order, ties by (k, l); row k + 1 joins the heap when
    row k is first popped. One node per pop and one more when a row is first
    popped (l == 0): M + M^2 walk nodes without pruning. With ``prune``, the
    first pop whose tail exceeds the best total ends the walk, since every
    later tail is at least as large.

    Args:
        leading: ``leading(k, l, tail, best)`` completes pair (k, l) by
            searching the leading pair, and returns ``(total, pick, nodes)``.
            It may drop a pair that cannot beat ``best`` by returning a total
            of inf. Without ``prune`` it is passed ``best = inf``, so it
            drops none.

    Returns:
        (best_total, best_pick, nodes).

    Raises:
        ValueError: COST_OVERFLOW, when no total is finite.
    """
    rows = len(outer_metrics)
    cols = len(inner_metrics)
    nodes = 0
    best = math.inf
    best_pick = None
    heap = [(outer_metrics[0] + inner_metrics[0], 0, 0)]
    while heap:
        tail, k, l = heappop(heap)
        nodes += 1
        if l == 0:
            nodes += 1
            if k + 1 < rows:
                heappush(heap, (outer_metrics[k + 1] + inner_metrics[0], k + 1, 0))
        if prune and tail > best:
            break
        if l + 1 < cols:
            heappush(heap, (outer_metrics[k] + inner_metrics[l + 1], k, l + 1))
        try:
            total, pick, n = leading(k, l, tail, best if prune else math.inf)
        except OverflowError:
            raise ValueError(dec.COST_OVERFLOW) from None
        nodes += n
        if total < best:
            best = total
            best_pick = pick
    if best_pick is None:
        raise ValueError(dec.COST_OVERFLOW)
    return best, best_pick, nodes


def reference_fast_stack(r, z, alphabet, prune=True):
    """Reference for ``decoders.decode_fast_stack``: the scalar decoder it
    replaced, for stacked R (n, 4, 4) and z (n, 4) with real diagonal blocks
    (unchecked here). The stack's two sorts, as numpy arrays turned into
    lists, then per instance the best-first walk ``walk_pairs`` over Python
    scalars, whose leading search drops a pair on a lower bound (each
    component's nearest x2, one node each, not counted again by the
    searches) and runs the two ``real_search`` calls inside the radius the
    best total leaves. An OverflowError there raises COST_OVERFLOW, as a
    walk with no finite total does; a nan reaching the slicer raises
    ValueError too."""
    r33, r34, r44 = (r[:, i, j, None].real for i, j in ((2, 2), (2, 3), (3, 3)))
    sorts = ()
    for component in (np.real, np.imag):
        z2, z3 = component(z[:, 2, None]), component(z[:, 3, None])
        sorts += st.sort_alphabet_by_metric(
            alphabet, lambda a: (z2 - r33 * a.real - r34 * a.imag) ** 2 + (z3 - r44 * a.imag) ** 2
        )
    sym_re = alphabet.symbols.real.tolist()
    sym_im = alphabet.symbols.imag.tolist()
    pam = alphabet.pam
    results = []
    for rows in zip(r.tolist(), z.tolist(), *(part.tolist() for part in sorts)):
        r_row, z_row, ord_re, m_re, ord_im, m_im = rows
        r11, r12, r22 = r_row[0][0].real, r_row[0][1].real, r_row[1][1].real

        def leading(k, l, tail, best, r=r_row, z=z_row, ord_re=ord_re, ord_im=ord_im,
                    r11=r11, r12=r12, r22=r22):
            sk = ord_re[k]
            sl = ord_im[l]
            x3 = complex(sym_re[sk], sym_re[sl])
            x4 = complex(sym_im[sk], sym_im[sl])
            v1 = z[0] - r[0][2] * x3 - r[0][3] * x4
            v2 = z[1] - r[1][2] * x3 - r[1][3] * x4
            lb_re = nearest_x2_metric(v2.real, r22, pam)
            if tail + lb_re > best:
                return math.inf, None, 1
            lb_im = nearest_x2_metric(v2.imag, r22, pam)
            if tail + lb_re + lb_im > best:
                return math.inf, None, 2
            best_re, pick_re, n_re = real_search(
                v1.real, v2.real, r11, r12, r22, pam, prune, best - tail - lb_im
            )
            if pick_re is None:
                return math.inf, None, 1 + n_re
            best_im, pick_im, n_im = real_search(
                v1.imag, v2.imag, r11, r12, r22, pam, prune, best - tail - best_re
            )
            if pick_im is None:
                return math.inf, None, n_re + n_im
            return best_re + best_im + tail, (pick_re, pick_im, sk, sl), n_re + n_im

        best, ((i1r, i2r), (i1i, i2i), sk, sl), nodes = walk_pairs(m_re, m_im, leading, prune)
        indices = (
            index_of(alphabet, i1r, i1i),
            index_of(alphabet, i2r, i2i),
            index_of(alphabet, sk % pam.size, sl % pam.size),
            index_of(alphabet, sk // pam.size, sl // pam.size),
        )
        results.append(dec.DecodeResult(indices=indices, cost=best, nodes_visited=nodes,
                                        full_sorts=2, symbols=alphabet.symbols))
    return results


def reference_alamouti_stack(r, z, alphabet, prune=True):
    """Reference for ``decoders.decode_alamouti_stack``: the scalar decoder
    it replaced, for stacked R (n, 4, 4) and z (n, 4) with zeros at r12 and
    r34 (unchecked here). The stack's two sorts, as numpy arrays turned into
    lists, then per instance the best-first walk ``walk_pairs``
    over Python scalars, whose leading search completes a pair by four PAM
    slices. An OverflowError there raises COST_OVERFLOW, as a walk with no
    finite total does; a nan reaching the slicer raises ValueError too."""
    sorts = ()
    for i in (3, 2):  # x4's sort, then x3's
        zi, rii = z[:, i, None], r[:, i, i, None].real
        sorts += st.sort_alphabet_by_metric(alphabet, lambda a: abs(zi - rii * a) ** 2)
    syms = alphabet.symbols.tolist()
    results = []
    for rows in zip(r.tolist(), z.tolist(), *(part.tolist() for part in sorts)):
        r_row, z_row, order4, m4, order3, m3 = rows
        r11, r22 = r_row[0][0].real, r_row[1][1].real

        def leading(k, l, tail, best, r=r_row, z=z_row, order4=order4, order3=order3):
            i3 = order3[l]
            i4 = order4[k]
            x3 = syms[i3]
            x4 = syms[i4]
            v1 = z[0] - r[0][2] * x3 - r[0][3] * x4
            v2 = z[1] - r[1][2] * x3 - r[1][3] * x4
            x1, i1 = slice_complex(v1 / r11, alphabet)
            x2, i2 = slice_complex(v2 / r22, alphabet)
            total = tail + abs(v1 - r11 * x1) ** 2 + abs(v2 - r22 * x2) ** 2
            return total, (i1, i2, i3, i4), 4  # two slices per symbol

        best, best_idx, nodes = walk_pairs(m4, m3, leading, prune)
        results.append(dec.DecodeResult(indices=best_idx, cost=best, nodes_visited=nodes,
                                        full_sorts=2, symbols=alphabet.symbols))
    return results


def children_in_order(a, b):
    """Yield ``(a[i] + b[j], j*L + i)`` over the L x L grid, in ascending
    (metric, index) order: the order of
    ``np.argsort(np.add.outer(b, a).ravel(), kind="stable")``.

    Each axis is sorted by value, and a heap merges the rows (one row per
    ``b`` entry) lazily: row ``p + 1`` joins when row ``p`` is first popped,
    so the sums leave the heap in nondecreasing order (a rounded sum is
    monotone in each term). Every entry whose sum equals the current minimum
    is popped, and its successors pushed, before that group is yielded in
    ascending index: successors can tie with their predecessor, and sums of
    different values can tie too. So the order within a group, and the tie
    order within an axis, never reach the caller.
    """
    width = len(a)
    cols = sorted(range(width), key=a.__getitem__)
    rows = sorted(range(width), key=b.__getitem__)
    heap = [(a[cols[0]] + b[rows[0]], 0, 0)]
    while heap:
        metric, p, q = heappop(heap)
        group = [rows[p] * width + cols[q]]
        while True:
            if q + 1 < width:
                heappush(heap, (a[cols[q + 1]] + b[rows[p]], p, q + 1))
            if q == 0 and p + 1 < width:
                heappush(heap, (a[cols[0]] + b[rows[p + 1]], p + 1, 0))
            if not heap or heap[0][0] != metric:
                break
            _, p, q = heappop(heap)
            group.append(rows[p] * width + cols[q])
        if len(group) > 1:
            group.sort()
        for t in group:
            yield metric, t


def sphere_search(r, z, alphabet, prune=True):
    """Reference for ``decoders.decode_sphere_stack`` on one instance: the
    scalar depth-first search it replaced, on one ``triangular_rows`` row,
    R and z as Python scalars (``r[0].tolist(), z[0].tolist()``).

    Children are visited in ascending (branch metric, symbol index) order,
    each expanded node at the first three levels ordering its children
    lazily from two per-axis orders (``children_in_order``, one full sort);
    radius updates at leaves and pruning on partial sums; the final level is
    one complex slicer decision. An OverflowError raises COST_OVERFLOW, as a
    search with no finite total does; a nan reaching the slicer raises
    ValueError too.
    """
    sym_list = alphabet.symbols.tolist()
    rdiag = [r[i][i].real for i in range(4)]
    values = alphabet.pam.values
    scale = alphabet.pam.scale
    width = len(values)
    top = width - 1.0
    # scaled[level][i] = rdiag[level] * values[i]: the real or the imaginary
    # part of rdiag[level] * symbol, per axis.
    scaled = [[d * v for v in values] for d in rdiag]

    nodes = 0
    sorts = 0
    best = math.inf
    best_idx = None
    chosen = [0j] * 4
    chosen_idx = [0] * 4

    def expand(level: int, acc: float) -> None:
        nonlocal nodes, sorts, best, best_idx
        w = z[level]
        for j in range(level + 1, 4):
            w -= r[level][j] * chosen[j]
        if level == 0:
            # One complex slicer decision: slice_pam per axis, inline.
            u = w / rdiag[0]
            vr = (u.real / scale + top) / 2.0
            vi = (u.imag / scale + top) / 2.0
            if vr < 0.0:
                vr = 0.0
            elif vr > top:
                vr = top
            if vi < 0.0:
                vi = 0.0
            elif vi > top:
                vi = top
            ir = math.ceil(vr - 0.5)
            ii = math.ceil(vi - 0.5)
            sym = complex(values[ir], values[ii])
            nodes += 1
            total = acc + abs(w - rdiag[0] * sym) ** 2
            if total < best:
                chosen_idx[0] = ii * width + ir
                best = total
                best_idx = tuple(chosen_idx)
            return
        sorts += 1
        wr = w.real
        wi = w.imag
        re_metrics = [(wr - s) * (wr - s) for s in scaled[level]]
        im_metrics = [(wi - s) * (wi - s) for s in scaled[level]]
        for metric, t in children_in_order(re_metrics, im_metrics):
            nodes += 1
            cum = acc + metric
            if prune and cum > best:
                break
            chosen[level] = sym_list[t]
            chosen_idx[level] = t
            expand(level - 1, cum)

    try:
        expand(3, 0.0)
    except OverflowError:
        raise ValueError(dec.COST_OVERFLOW) from None
    if best_idx is None:
        raise ValueError(dec.COST_OVERFLOW)
    return dec.DecodeResult(indices=best_idx, cost=best, nodes_visited=nodes, full_sorts=sorts,
                            symbols=alphabet.symbols)


def reference_sphere_stack(r, z, alphabet, prune=True):
    """Reference for ``decoders.decode_sphere_stack``: ``sphere_search`` on
    each instance of stacked R (n, 4, 4) and z (n, 4)."""
    return [sphere_search(r_row, z_row, alphabet, prune)
            for r_row, z_row in zip(r.tolist(), z.tolist())]


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
            sym, idx = slice_complex(w / rdiag[0], alphabet)
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
        perm = tuple(dec.fast_ordering(eff.h)[0].tolist())
    elif ordering == "blast" and name == "sphere":
        perm = tuple(dec.blast_ordering(eff.h).tolist())
    result = decode_one(name, permuted(eff, perm), y, alphabet)
    indices = [0] * 4
    for pos, col in enumerate(perm):
        indices[col] = result.indices[pos]
    return dataclasses.replace(result, indices=tuple(indices))


def greedy_order_alone(h) -> tuple:
    """Reference greedy BLAST order of one 4x4 matrix, the scalar loop that
    ``dec.blast_ordering`` replaced: each step recomputes every remaining
    column's residual against the orthonormal basis of the placed ones, and
    places the first (lowest index) whose residual norm lies within
    ZERO_TOLERANCE * ||H||_F of the smallest."""
    h = np.asarray(h, dtype=complex)
    scale = float(np.linalg.norm(h))
    remaining, basis, perm = [0, 1, 2, 3], [], []
    for _ in range(4):
        residuals = []
        for col in remaining:
            v = h[:, col]
            for q in basis:
                v = v - q * np.vdot(q, v)
            residuals.append(v)
        norms = [float(np.linalg.norm(v)) for v in residuals]
        pick = first_tied(norms, min(norms), scale)
        perm.append(remaining.pop(pick))
        basis.append(residuals[pick] / norms[pick])
    return tuple(perm)


def fast_scores_alone(h) -> list:
    """Each FAST_PERMUTATIONS order's score for one 4x4 matrix, the smallest
    diagonal entry of its own QR's R, one ``qr_decompose`` per order."""
    return [float(np.min(np.diagonal(st.qr_decompose(h[:, list(perm)]).r).real))
            for perm in dec.FAST_PERMUTATIONS]


def first_tied(values, best, scale) -> int:
    """The index of the first of ``values`` within ZERO_TOLERANCE * ``scale``
    of ``best``: the BLAST rules' one tie rule."""
    return next(i for i, v in enumerate(values) if abs(v - best) <= ZERO_TOLERANCE * scale)
