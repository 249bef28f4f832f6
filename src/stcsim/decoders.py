"""Exact maximum-likelihood decoders with search-effort instrumentation.

Four decoders share a common contract: given an EffectiveChannel, a received
stack y and a square QAM alphabet, return the cost-minimizing symbol vector
together with the achieved cost ||y - H x_hat||^2 and two effort counters.

Counting convention (normative for all reported numbers):

* ``nodes_visited`` increments once per candidate branch-metric evaluation
  during the tree walk - every iteration entered in an enumeration loop,
  including the one that triggers a pruning break, and every slicer decision
  at a final stage. Metric evaluations performed inside a sorting pass are
  not nodes.
* ``full_sorts`` counts full-alphabet child-ordering operations. The zigzag
  PAM order of the final stages is not a sort.

With pruning disabled the fast golden decoder therefore visits exactly
M + M^2 + 4*M^2.5 nodes and the conventional four-level decoder
M + M^2 + 2*M^3.

Every tree decoder gets R and z = Q^H y from ``_triangularize`` as Python
scalars, so its per-node arithmetic indexes plain lists. The fast golden and
fast Alamouti decoders share one best-first trailing-pair walk,
``_walk_pairs``, which owns the trailing stage's visiting order, its pruning
and its node count; each decoder supplies only the search over the leading
pair. The fast golden decoder's leading search drops a pair on a lower bound
and runs its two real searches inside the radius the best total leaves; the
imaginary search's radius depends on the real search's result, so the two
run in sequence.

Decoders are deterministic: candidate ties resolve by enumeration order
(stable sorts, zigzag lower-level-first, lexicographic scan, and trailing
pairs popped by (metric, row, column)); a later candidate replaces the best
only at a strictly lower cost. Each call owns its workspace, so instances may
decode concurrently.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .codes import GOLDEN_VARIANTS, EffectiveChannel
from .constellation import QamAlphabet, slice_pam, sort_alphabet_by_metric
from .matrixkit import frobenius_norm, qr_decompose

EXHAUSTIVE_CAP = 2 ** 24
# Complex residual entries one numpy pass of the exhaustive scan may hold.
EXHAUSTIVE_BLOCK = 2 ** 14

# Column permutations that keep the two real diagonal blocks of R real; fast
# decoding is possible only for these.
FAST_PERMUTATIONS = (
    (0, 1, 2, 3),
    (0, 1, 3, 2),
    (1, 0, 2, 3),
    (1, 0, 3, 2),
    (2, 3, 0, 1),
    (2, 3, 1, 0),
    (3, 2, 0, 1),
    (3, 2, 1, 0),
)

IDENTITY_PERMUTATION = (0, 1, 2, 3)


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """Decoder output: decision, achieved cost, and effort counters."""

    x_hat: np.ndarray
    indices: tuple
    cost: float
    nodes_visited: int
    full_sorts: int
    permutation_used: tuple


# Entries of R that a fast decoder's structure needs to vanish may be at most
# this fraction of ||H||_F; structured channels stay below 1e-15.
STRUCTURE_TOLERANCE = 1e-6


def _require_structure(eff: EffectiveChannel, a, b, message: str) -> None:
    """Raise ValueError(message) unless |a| and |b| are negligible against ||H||_F.

    A column permutation leaves ||H||_F unchanged, so the channel's own
    cached ``norm`` serves every column order.
    """
    limit = STRUCTURE_TOLERANCE * eff.norm
    if abs(a) > limit or abs(b) > limit:
        raise ValueError(message)


def _triangularize(eff: EffectiveChannel, y: np.ndarray, perm: tuple) -> tuple:
    """R and Q^H y of the column-permuted channel, for a decoder's tree search.

    The natural column order reuses the channel's own ``factors``; any other
    order is factored here.

    Returns:
        (r, z): ``eff.h[:, perm] = q @ r`` and ``z = q^H y``, with ``r``
        (nested, ``r[i][j]``) and ``z`` as lists of Python complex numbers.
    """
    if perm == IDENTITY_PERMUTATION:
        factors = eff.factors
    else:
        factors = qr_decompose(eff.h[:, perm])
    z = factors.q.conj().T @ np.asarray(y, dtype=complex)
    return factors.r.tolist(), z.tolist()


def _unpermute(perm, symbols, indices):
    x = np.empty(4, dtype=complex)
    idx = [0, 0, 0, 0]
    for pos, col in enumerate(perm):
        x[col] = symbols[pos]
        idx[col] = indices[pos]
    return x, tuple(idx)


def decode_exhaustive(
    eff: EffectiveChannel, y: np.ndarray, alphabet: QamAlphabet
) -> DecodeResult:
    """Scan all M^4 candidate vectors; the reference decoder for the others.

    Each numpy pass covers as many leading symbols x1 as keep its 4 * M^3
    residual entries per symbol within EXHAUSTIVE_BLOCK, and at least one:
    all four at 4-QAM, one at 16- and 64-QAM. Ties in cost resolve to the
    lexicographically smallest index tuple (the first flat minimum of a
    pass, and a later pass wins only at a strictly lower cost).
    """
    h = eff.h
    y = np.asarray(y, dtype=complex)
    syms = alphabet.symbols
    m = len(syms)
    if m ** 4 > EXHAUSTIVE_CAP:
        raise ValueError("exhaustive search cap exceeded (M^4 > 2^24)")
    contrib = h.T[:, :, None] * syms  # contrib[t] = np.outer(h[:, t], syms)
    tail = (
        contrib[1][:, :, None, None]
        + contrib[2][:, None, :, None]
        + contrib[3][:, None, None, :]
    )
    step = max(1, EXHAUSTIVE_BLOCK // tail.size)
    best_cost = math.inf
    best_idx = None
    for lo in range(0, m, step):
        lead = y[:, None] - contrib[0][:, lo:lo + step]
        resid = lead[:, :, None, None, None] - tail[:, None]
        costs = np.sum(resid.real ** 2 + resid.imag ** 2, axis=0)
        flat = int(np.argmin(costs))
        cost = float(costs.flat[flat])
        if cost < best_cost:
            best_cost = cost
            i1, rem = divmod(flat, m ** 3)
            i2, rem = divmod(rem, m * m)
            i3, i4 = divmod(rem, m)
            best_idx = (lo + i1, i2, i3, i4)
    x_hat = syms[list(best_idx)]
    return DecodeResult(
        x_hat=x_hat,
        indices=best_idx,
        cost=best_cost,
        nodes_visited=m ** 4,
        full_sorts=0,
        permutation_used=IDENTITY_PERMUTATION,
    )


def _real_search(
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
        (metric, pick, nodes) with pick = (x1_symbol, x1_index, x2_symbol,
        x2_index), or pick None when no metric is below ``radius``.
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
            pick = (x1sym, x1idx, x2sym, x2idx)
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


def _nearest_x2_metric(v2: float, r22: float, pam) -> float:
    """(v2 - r22*x2)^2 at ``_real_search``'s first x2 candidate: a lower bound on its metric."""
    x2sym, _ = slice_pam(v2 / r22, pam)
    return (v2 - r22 * x2sym) ** 2


def _walk_pairs(outer_metrics, inner_metrics, leading, prune: bool):
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
    """
    rows = len(outer_metrics)
    cols = len(inner_metrics)
    nodes = 0
    best = math.inf
    best_pick = None
    heap = [(outer_metrics[0] + inner_metrics[0], 0, 0)]
    while heap:
        tail, k, l = heapq.heappop(heap)
        nodes += 1
        if l == 0:
            nodes += 1
            if k + 1 < rows:
                heapq.heappush(heap, (outer_metrics[k + 1] + inner_metrics[0], k + 1, 0))
        if prune and tail > best:
            break
        if l + 1 < cols:
            heapq.heappush(heap, (outer_metrics[k] + inner_metrics[l + 1], k, l + 1))
        total, pick, n = leading(k, l, tail, best if prune else math.inf)
        nodes += n
        if total < best:
            best = total
            best_pick = pick
    return best, best_pick, nodes


def decode_fast_golden(
    eff: EffectiveChannel,
    y: np.ndarray,
    alphabet: QamAlphabet,
    perm=None,
    prune: bool = True,
) -> DecodeResult:
    """Fast exact-ML decoder for golden-variant effective channels.

    A best-first walk over the trailing symbol pair (candidates pre-ordered
    by exactly two full-alphabet sorts, one per real component), followed by
    interference cancellation and two two-level real searches over the
    leading pair's real and imaginary parts. With pruning, a pair is first
    checked against a lower bound (each component's nearest x2, one node
    each, not counted again by the searches), and each real search runs
    inside the radius that the best total leaves. Correctness rests on the
    leading and trailing diagonal blocks of R being real for golden channels
    under the allowed column permutations.

    Args:
        perm: zero-based column order, one of FAST_PERMUTATIONS.
        prune: disable to force full enumeration (worst-case instrumentation).

    Raises:
        ValueError: when |Im r12| or |Im r34| of the permuted channel's R
            exceeds STRUCTURE_TOLERANCE * ||H||_F, i.e. the matrix lacks the
            golden structure whatever its label says.
    """
    if eff.variant not in GOLDEN_VARIANTS:
        raise ValueError("fast golden decoder requires a golden-variant effective channel")
    if perm is None:
        perm = IDENTITY_PERMUTATION
    perm = tuple(perm)
    if perm not in FAST_PERMUTATIONS:
        raise ValueError(f"permutation not fast-decodable: {perm!r}")

    r, z = _triangularize(eff, y, perm)
    _require_structure(
        eff, r[0][1].imag, r[2][3].imag,
        "fast golden decoder needs real diagonal blocks in R (Im r12 = Im r34 = 0); "
        "this channel lacks golden structure",
    )
    # The trailing-pair branch metrics are functions of one real component
    # pair each, which the separable alphabet puts in bijection with the
    # complex symbols: Re(a) plays x3's component, Im(a) plays x4's.
    r33, r34, r44 = r[2][2].real, r[2][3].real, r[3][3].real
    order_re, m_re = sort_alphabet_by_metric(
        alphabet,
        lambda a: (z[2].real - r33 * a.real - r34 * a.imag) ** 2
        + (z[3].real - r44 * a.imag) ** 2,
    )
    order_im, m_im = sort_alphabet_by_metric(
        alphabet,
        lambda a: (z[2].imag - r33 * a.real - r34 * a.imag) ** 2
        + (z[3].imag - r44 * a.imag) ** 2,
    )
    sym_re = alphabet.symbols.real.tolist()
    sym_im = alphabet.symbols.imag.tolist()
    ord_re = order_re.tolist()
    ord_im = order_im.tolist()
    r11, r12, r22 = r[0][0].real, r[0][1].real, r[1][1].real
    pam = alphabet.pam

    def leading(k, l, tail, best):
        sk = ord_re[k]
        sl = ord_im[l]
        x3 = complex(sym_re[sk], sym_re[sl])
        x4 = complex(sym_im[sk], sym_im[sl])
        v1 = z[0] - r[0][2] * x3 - r[0][3] * x4
        v2 = z[1] - r[1][2] * x3 - r[1][3] * x4
        # Lower bounds, one node each. The searches below start from the same
        # first x2 candidates and count them, so a pair costs
        # 2 + (n_re - 1) + (n_im - 1) nodes: no candidate is counted twice.
        lb_re = _nearest_x2_metric(v2.real, r22, pam)
        if tail + lb_re > best:
            return math.inf, None, 1
        lb_im = _nearest_x2_metric(v2.imag, r22, pam)
        if tail + lb_re + lb_im > best:
            return math.inf, None, 2
        # Shared radius: each search only needs to beat what the best total
        # leaves after the tail and the other component's least metric.
        best_re, pick_re, n_re = _real_search(
            v1.real, v2.real, r11, r12, r22, pam, prune, best - tail - lb_im
        )
        if pick_re is None:
            return math.inf, None, 1 + n_re
        best_im, pick_im, n_im = _real_search(
            v1.imag, v2.imag, r11, r12, r22, pam, prune, best - tail - best_re
        )
        if pick_im is None:
            return math.inf, None, n_re + n_im
        return best_re + best_im + tail, (pick_re, pick_im, sk, sl), n_re + n_im

    best, best_pick, nodes = _walk_pairs(m_re.tolist(), m_im.tolist(), leading, prune)
    (x1r, i1r, x2r, i2r), (x1i, i1i, x2i, i2i), sk, sl = best_pick
    symbols = (
        complex(x1r, x1i),
        complex(x2r, x2i),
        complex(sym_re[sk], sym_re[sl]),
        complex(sym_im[sk], sym_im[sl]),
    )
    indices = (
        alphabet.index_of(i1r, i1i),
        alphabet.index_of(i2r, i2i),
        alphabet.index_of(sk % pam.size, sl % pam.size),
        alphabet.index_of(sk // pam.size, sl // pam.size),
    )
    x_hat, out_idx = _unpermute(perm, symbols, indices)
    return DecodeResult(
        x_hat=x_hat,
        indices=out_idx,
        cost=best,
        nodes_visited=nodes,
        full_sorts=2,
        permutation_used=perm,
    )


def _slice_complex(value: complex, alphabet: QamAlphabet) -> tuple:
    """Nearest QAM symbol via one PAM slice per axis."""
    re_sym, re_idx = slice_pam(value.real, alphabet.pam)
    im_sym, im_idx = slice_pam(value.imag, alphabet.pam)
    return complex(re_sym, im_sym), alphabet.index_of(re_idx, im_idx)


def decode_sphere_conventional(
    eff: EffectiveChannel,
    y: np.ndarray,
    alphabet: QamAlphabet,
    ordering: str = "none",
    prune: bool = True,
) -> DecodeResult:
    """Four-level complex sphere decoder with child ordering at every level.

    Depth-first search assigning one complex symbol per level, children
    visited in ascending branch-metric order (a full-alphabet sort per
    expanded node at the first three levels), radius updates at leaves and
    pruning on partial sums. The final level needs no enumeration: the best
    leaf under a node comes from one complex slicer decision.

    Args:
        ordering: "none" for natural column order, "blast" for the
            weakest-last successive-selection permutation.
    """
    if ordering == "none":
        perm = IDENTITY_PERMUTATION
    elif ordering == "blast":
        perm = blast_ordering(eff)
    else:
        raise ValueError(f"unknown ordering mode: {ordering!r}")
    r, z = _triangularize(eff, y, perm)
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

    def expand(level: int, acc: float) -> None:
        nonlocal nodes, sorts, best, best_syms, best_idx
        w = z[level]
        for j in range(level + 1, 4):
            w -= r[level][j] * chosen[j]
        if level == 0:
            sym, idx = _slice_complex(w / rdiag[0], alphabet)
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
    x_hat, out_idx = _unpermute(perm, best_syms, best_idx)
    return DecodeResult(
        x_hat=x_hat,
        indices=out_idx,
        cost=best,
        nodes_visited=nodes,
        full_sorts=sorts,
        permutation_used=perm,
    )


def decode_alamouti_fast(
    eff: EffectiveChannel,
    y: np.ndarray,
    alphabet: QamAlphabet,
    prune: bool = True,
) -> DecodeResult:
    """Fast exact-ML decoder for the overlaid Alamouti code, quasistatic only.

    Quasistatic fading makes columns 1-2 and 3-4 of the effective channel
    orthogonal, so R carries zeros at (1,2) and (3,4): the trailing-pair
    branch metrics separate per symbol and the leading pair falls to four
    independent PAM slices per candidate pair. Enumerates the M^2 trailing
    pairs with sorted-metric pruning.

    Raises:
        ValueError: when the zero structure is absent (time-varying channel);
            callers should fall back to decode_sphere_conventional.
    """
    if eff.variant != "overlaid-alamouti":
        raise ValueError("decoder requires an overlaid-alamouti effective channel")
    r, z = _triangularize(eff, y, IDENTITY_PERMUTATION)
    _require_structure(eff, r[0][1], r[2][3], "fast Alamouti path invalid for this channel")
    r11, r22, r33, r44 = (r[i][i].real for i in range(4))
    order4, m4 = sort_alphabet_by_metric(alphabet, lambda a: abs(z[3] - r44 * a) ** 2)
    order3, m3 = sort_alphabet_by_metric(alphabet, lambda a: abs(z[2] - r33 * a) ** 2)
    syms = alphabet.symbols.tolist()
    order4 = order4.tolist()
    order3 = order3.tolist()

    def leading(k, l, tail, best):
        i3 = order3[l]
        i4 = order4[k]
        x3 = syms[i3]
        x4 = syms[i4]
        v1 = z[0] - r[0][2] * x3 - r[0][3] * x4
        v2 = z[1] - r[1][2] * x3 - r[1][3] * x4
        x1, i1 = _slice_complex(v1 / r11, alphabet)
        x2, i2 = _slice_complex(v2 / r22, alphabet)
        total = tail + abs(v1 - r11 * x1) ** 2 + abs(v2 - r22 * x2) ** 2
        return total, ((x1, x2, x3, x4), (i1, i2, i3, i4)), 4  # two slices per symbol

    best, (best_syms, best_idx), nodes = _walk_pairs(m4.tolist(), m3.tolist(), leading, prune)

    return DecodeResult(
        x_hat=np.array(best_syms),
        indices=best_idx,
        cost=best,
        nodes_visited=nodes,
        full_sorts=2,
        permutation_used=IDENTITY_PERMUTATION,
    )


def blast_ordering(h, allowed=None) -> tuple:
    """Detection-order permutation by successive weakest-last selection.

    Working from the detected-last position forward, each step picks the
    remaining column with the smallest norm orthogonal to the columns
    already placed (ties to the lowest index), which greedily maximizes the
    minimum post-cancellation gain. The returned tuple is a column order;
    its last entry is detected first.

    Args:
        h: 4x4 effective matrix or an EffectiveChannel.
        allowed: optional collection of permutations to restrict to; the
            selection criterion (largest minimum diagonal of R) is then
            evaluated over exactly those, which is how the fast decoder's
            eight admissible permutations are handled.
    """
    h = np.asarray(getattr(h, "h", h), dtype=complex)
    if allowed is not None:
        perms = [tuple(perm) for perm in allowed]
        # h[:, perms] is (4, P, 4); one stacked QR scores every permutation.
        r = qr_decompose(np.moveaxis(h[:, perms], 1, 0)).r
        scores = np.diagonal(r, axis1=-2, axis2=-1).real.min(axis=-1)
        return perms[int(np.argmax(scores))]  # first maximum, as in allowed's order

    scale = float(frobenius_norm(h))
    remaining = [0, 1, 2, 3]
    basis = []
    perm = []
    for _ in range(4):
        best_col = None
        best_norm = math.inf
        for col in remaining:
            v = h[:, col]
            for q in basis:
                v = v - q * np.vdot(q, v)
            norm = float(np.linalg.norm(v))
            if norm < best_norm:
                best_norm = norm
                best_col = col
                best_resid = v
        if best_norm < 1e-12 * scale:
            raise ValueError("degenerate channel: column pivot below rank tolerance")
        perm.append(best_col)
        remaining.remove(best_col)
        basis.append(best_resid / best_norm)
    return tuple(perm)
