"""Exact maximum-likelihood decoders with search-effort instrumentation.

Four decoders share a common contract: given an effective channel H, a
received stack y and a square QAM alphabet, return the cost-minimizing
symbol indices, the achieved cost ||y - H x_hat||^2 and two effort counters.
A non-finite y or H raises ValueError. ``decode_exhaustive_stack`` scans a
whole stack per call, and ``decode_alamouti_stack`` walks a whole stack per
call from the stack's prologue; the fast golden and sphere decoders decode
one instance per call from its row (``prepared``) of that prologue, which
only ``harness.decode_stack`` runs, for a single instance on a stack of one.

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

Every tree decoder starts from a prologue that works on a stack of
channels: ``triangular_rows``, the one owner of a decode's QR, factors a
whole stack and forms z = Q^H y. The fast golden and sphere decoders then
search one instance at a time on its R and z as Python scalars, so the
per-node arithmetic indexes plain lists, and ``fast_golden_sorts`` makes the
fast golden decoder's two full-alphabet sorts of a stack at once; the
Alamouti decoder sorts and walks the stack in numpy. The prologue and the
sorts check, once per stack, every precondition of the searches: finite
input, and full rank and the zeros in R that a fast search needs, both by
matrixkit's ZERO_TOLERANCE. No decoder sees the code label: an
EffectiveChannel is only its 4x4 matrix ``h``, and which code a decoder may
decode is the registry's rule.

The per-instance decoders still take ``(eff, y, alphabet)`` first, though
they read only the row and the alphabet, and ``decode_exhaustive`` and
``decode_alamouti_fast`` decode one instance through their stack calls,
though no decode path calls them: the benchmark's tracer wraps these
functions by name and checks each reported cost against
``||y - eff.h x_hat||^2``. It sees no exhaustive or Alamouti decode of a
sweep; the tests check those stack calls' costs instead.

A decoder decodes the matrix it is given and reports indices in its column
order; a detection order (``blast_ordering``) is chosen before decoding, and
the caller permutes the columns and maps the decision back.

The fast golden and fast Alamouti decoders walk the trailing symbol pair
best-first, as ``_walk_pairs`` defines it: its visiting order, its pruning
and its node count. The fast golden decoder runs ``_walk_pairs`` per
instance with its search over the leading pair, which drops a pair on a
lower bound and runs its two real searches inside the radius the best
total leaves; the imaginary search's radius depends on the real search's
result, so the two run in sequence. The Alamouti decoder's leading pair
falls to four slices that read no radius, so ``decode_alamouti_stack``
walks a whole stack in numpy rounds, with the same results bit for bit.

The sphere decoder orders each expanded node's children without a numpy
sort: a child's metric is a sum of one metric per axis, so a heap merges the
two per-axis orders lazily, in (metric, symbol index) order. That ordering
still counts as one full sort per expanded node.

Decoders are deterministic: candidate ties resolve by enumeration order
(stable sorts, the sphere decoder's per-level (metric, index) order, zigzag
lower-level-first, lexicographic scan, and trailing pairs popped by (metric,
row, column)); a later candidate replaces the best only at a strictly lower
cost. Each call owns its workspace, so instances may decode concurrently.
A finite y and H whose every candidate cost overflows raises ValueError.
"""

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from .codes import EffectiveChannel
from .constellation import QamAlphabet, slice_pam, sort_alphabet_by_metric
from .matrixkit import frobenius_norm, qr_decompose, require_full_rank, require_zero

EXHAUSTIVE_CAP = 2 ** 24
# Complex residual entries one numpy pass of the exhaustive scan may hold.
EXHAUSTIVE_BLOCK = 2 ** 14
# Trailing pairs one pass of the Alamouti stack walk may complete (a pass
# holds about 12 float arrays of that size), and its first round's pops.
ALAMOUTI_BLOCK = 2 ** 11
ALAMOUTI_FIRST_ROUND = 16

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

# Raised when y and H are finite but no candidate's squared distance is.
COST_OVERFLOW = "cost overflowed: no candidate has a finite squared distance ||y - Hx||^2"


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """Decoder output: symbol indices, cost, effort counters and the alphabet's symbols."""

    indices: tuple
    cost: float
    nodes_visited: int
    full_sorts: int
    symbols: np.ndarray = field(repr=False)

    @property
    def x_hat(self) -> np.ndarray:
        """The decision as symbols, ``symbols[list(indices)]``: a new array per read."""
        return self.symbols[list(self.indices)]


def triangular_rows(matrices: np.ndarray, y: np.ndarray) -> tuple:
    """The tree decoders' shared prologue for effective ``matrices`` stacked as
    (n, 4, 4), columns already in the order to decode, and received ``y`` (n, 4).

    Returns:
        (r, z): R as (n, 4, 4) and ``z = Q^H y`` as (n, 4) from one stacked
        ``qr_decompose``.

    Raises:
        ValueError: a rank-deficient or non-finite matrix, or a non-finite z.
    """
    factors = qr_decompose(matrices)
    z = (np.conj(np.swapaxes(factors.q, -1, -2)) @ y[..., None])[..., 0]
    if not np.isfinite(z).all():
        raise ValueError("non-finite received stack y")
    return factors.r, z


def fast_golden_sorts(alphabet: QamAlphabet, r: np.ndarray, z: np.ndarray) -> list:
    """The fast golden decoder's two full-alphabet sorts for a stack of channels.

    The trailing-pair branch metrics are functions of one real component
    pair each, which the separable alphabet puts in bijection with the
    complex symbols: Re(a) plays x3's component, Im(a) plays x4's.

    Args:
        r, z: stacked R (n, 4, 4) and Q^H y (n, 4) as ``triangular_rows``
            uses them.

    Returns:
        Per trial ``(order_re, metrics_re, order_im, metrics_im)`` as lists.

    Raises:
        ValueError: when any R lacks real diagonal blocks (Im r12, Im r34).
    """
    require_zero(r[:, (0, 2), (1, 3)].imag, frobenius_norm(r)[:, None],
                 "fast golden decoder needs real diagonal blocks in R; this channel lacks "
                 "golden structure: max |Im r12|, |Im r34|")
    r33, r34, r44 = (r[:, i, j, None].real for i, j in ((2, 2), (2, 3), (3, 3)))
    sorts = ()
    for component in (np.real, np.imag):
        z2, z3 = component(z[:, 2, None]), component(z[:, 3, None])
        sorts += sort_alphabet_by_metric(
            alphabet, lambda a: (z2 - r33 * a.real - r34 * a.imag) ** 2 + (z3 - r44 * a.imag) ** 2
        )
    return list(zip(*(part.tolist() for part in sorts)))


def _scan_block(matrices, received, syms, step: int, planes) -> tuple:
    """The exhaustive scan of a block of k instances, ``matrices`` (k, 4, 4)
    and ``received`` (k, 4), in passes of ``step`` leading symbols x1 each.

    A pass holds the residuals of its k * step (instance, x1) rows against
    every trailing triple, laid out (row of y, instance, x1, trailing
    triple) as a real and an imaginary float plane in the flat buffers
    ``planes``: each plane is squared in place, the two are added, and the
    four rows of y are summed in order, which is the complex residual's
    squared modulus summed over y, bit for bit.

    Returns:
        (flat, cost) per instance: the flat index over M^4 and the cost of
        its first minimum in lexicographic order; a later pass replaces it
        only at a strictly lower cost, so a cost of inf (overflow) or nan
        never wins.
    """
    k = len(matrices)
    m = len(syms)
    cube = m ** 3
    contrib = matrices.transpose(2, 1, 0)[..., None] * syms  # [col, row, inst, s] = h * sym
    tail = (
        (contrib[1][..., :, None, None] + contrib[2][..., None, :, None])
        + contrib[3][..., None, None, :]
    ).reshape(4, k, 1, cube)
    lead = (received.T[:, :, None] - contrib[0])[..., None]  # (row, inst, x1, 1)
    best_flat = np.zeros(k, dtype=np.int64)
    best_cost = np.full(k, math.inf)
    for lo in range(0, m, step):
        width = min(step, m - lo)
        size = 4 * k * width * cube
        re, im = (buf[:size].reshape(4, k, width, cube) for buf in planes[:2])
        costs = planes[2][:size // 4].reshape(k, width * cube)
        np.subtract(lead.real[:, :, lo:lo + width], tail.real, out=re)
        np.subtract(lead.imag[:, :, lo:lo + width], tail.imag, out=im)
        np.multiply(re, re, out=re)
        np.multiply(im, im, out=im)
        np.add(re, im, out=re)
        np.sum(re.reshape(4, k, width * cube), axis=0, out=costs)
        flat = np.argmin(costs, axis=1)
        cost = costs[np.arange(k), flat]
        better = cost < best_cost
        best_cost[better] = cost[better]
        best_flat[better] = flat[better] + lo * cube
    return best_flat, best_cost


def decode_exhaustive_stack(matrices: np.ndarray, received: np.ndarray,
                            alphabet: QamAlphabet) -> list:
    """Scan all M^4 candidate vectors of every instance of a stack, ``matrices``
    (n, 4, 4) and ``received`` (n, 4); the reference decoder for the others.

    The scan walks the stack's (instance, leading symbol x1) rows in order,
    in numpy passes of at most EXHAUSTIVE_BLOCK residual entries (4 * M^3
    per row) and at least one row: 16 whole instances per pass at 4-QAM,
    one leading symbol of one instance at 16- and 64-QAM. Trailing-triple
    sums are built per block of the instances that one pass holds, never
    for the whole stack, and the pass buffers are made once per stack. Ties
    in cost resolve to the lexicographically smallest index tuple. It
    factors nothing, so it decodes a rank-deficient matrix too. Each check
    runs once per stack.

    Returns:
        One DecodeResult per instance.

    Raises:
        ValueError: M^4 above EXHAUSTIVE_CAP, a non-finite matrix or
            received stack, or COST_OVERFLOW when an instance has no
            finite candidate cost.
    """
    matrices = np.asarray(matrices, dtype=complex)
    received = np.asarray(received, dtype=complex)
    syms = alphabet.symbols
    m = len(syms)
    if m ** 4 > EXHAUSTIVE_CAP:
        raise ValueError("exhaustive search cap exceeded (M^4 > 2^24)")
    if not np.isfinite(matrices).all():
        raise ValueError("non-finite channel matrix")
    if not np.isfinite(received).all():
        raise ValueError("non-finite received stack y")
    n = len(matrices)
    rows = max(1, EXHAUSTIVE_BLOCK // (4 * m ** 3))  # (instance, x1) rows per pass
    block = max(1, min(n, rows // m))  # instances per pass
    step = min(m, rows)  # leading symbols per pass
    size = 4 * block * step * m ** 3
    planes = (np.empty(size), np.empty(size), np.empty(size // 4))
    flat = np.empty(n, dtype=np.int64)
    cost = np.empty(n)
    for lo in range(0, n, block):
        flat[lo:lo + block], cost[lo:lo + block] = _scan_block(
            matrices[lo:lo + block], received[lo:lo + block], syms, step, planes
        )
    if not np.all(cost < math.inf):
        raise ValueError(COST_OVERFLOW)
    indices = np.stack(np.unravel_index(flat, (m,) * 4), axis=-1)
    return [
        DecodeResult(indices=tuple(idx), cost=c, nodes_visited=m ** 4, full_sorts=0, symbols=syms)
        for idx, c in zip(indices.tolist(), cost.tolist())
    ]


def decode_exhaustive(
    eff: EffectiveChannel, y: np.ndarray, alphabet: QamAlphabet
) -> DecodeResult:
    """Scan all M^4 candidate vectors of one instance: ``decode_exhaustive_stack``
    on the stack of one ``eff.h`` and ``y``, with the same tie rule and checks;
    kept for the benchmark's tracer, which wraps it by name."""
    return decode_exhaustive_stack(eff.h[None], np.asarray(y, dtype=complex)[None], alphabet)[0]


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
            raise ValueError(COST_OVERFLOW) from None
        nodes += n
        if total < best:
            best = total
            best_pick = pick
    if best_pick is None:
        raise ValueError(COST_OVERFLOW)
    return best, best_pick, nodes


def decode_fast_golden(
    eff: EffectiveChannel,
    y: np.ndarray,
    alphabet: QamAlphabet,
    prune: bool = True,
    *,
    prepared,
) -> DecodeResult:
    """Fast exact-ML decoder for any channel whose R has real diagonal blocks.

    A best-first walk over the trailing symbol pair (candidates pre-ordered
    by exactly two full-alphabet sorts, one per real component), followed by
    interference cancellation and two two-level real searches over the
    leading pair's real and imaginary parts. With pruning, a pair is first
    checked against a lower bound (each component's nearest x2, one node
    each, not counted again by the searches), and each real search runs
    inside the radius that the best total leaves. Correctness rests on the
    leading and trailing diagonal blocks of R being real, which holds for a
    golden channel with its columns in any order of FAST_PERMUTATIONS, and
    for a quasistatic overlaid-Alamouti channel.

    Args:
        eff, y: the instance; unread here, kept for the tracer's cost check.
        prune: disable to force full enumeration (worst-case instrumentation).
        prepared: this trial's ``triangular_rows`` row followed by its
            ``fast_golden_sorts`` row, which checked the structure.
    """
    r, z, ord_re, m_re, ord_im, m_im = prepared
    sym_re = alphabet.symbols.real.tolist()
    sym_im = alphabet.symbols.imag.tolist()
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

    best, ((i1r, i2r), (i1i, i2i), sk, sl), nodes = _walk_pairs(m_re, m_im, leading, prune)
    indices = (
        alphabet.index_of(i1r, i1i),
        alphabet.index_of(i2r, i2i),
        alphabet.index_of(sk % pam.size, sl % pam.size),
        alphabet.index_of(sk // pam.size, sl // pam.size),
    )
    return DecodeResult(indices=indices, cost=best, nodes_visited=nodes, full_sorts=2,
                        symbols=alphabet.symbols)


def _children_in_order(a, b):
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


def decode_sphere_conventional(
    eff: EffectiveChannel,
    y: np.ndarray,
    alphabet: QamAlphabet,
    prune: bool = True,
    *,
    prepared,
) -> DecodeResult:
    """Four-level complex sphere decoder with child ordering at every level.

    Depth-first search assigning one complex symbol per level, children
    visited in ascending (branch metric, symbol index) order, radius updates
    at leaves and pruning on partial sums. The final level needs no
    enumeration: the best leaf under a node comes from one complex slicer
    decision. A child's metric is the sum of one metric per axis over the
    PAM values, so each expanded node at the first three levels orders its
    children lazily from two per-axis orders (``_children_in_order``); that
    ordering counts as one full sort.

    Args:
        eff, y: the instance; unread here, kept for the tracer's cost check.
        prepared: this trial's ``triangular_rows`` row.
    """
    r, z = prepared
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
        for metric, t in _children_in_order(re_metrics, im_metrics):
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
        raise ValueError(COST_OVERFLOW) from None
    if best_idx is None:
        raise ValueError(COST_OVERFLOW)
    return DecodeResult(indices=best_idx, cost=best, nodes_visited=nodes, full_sorts=sorts,
                        symbols=alphabet.symbols)


def _slice_planes(u: np.ndarray, pam) -> tuple:
    """``slice_pam`` of every entry of ``u``, in its float operations, as
    float arrays (symbols, indices); a nan, which it refuses, gets index 0."""
    top = pam.size - 1.0
    index = np.ceil(np.fmin(np.fmax((u / pam.scale + top) / 2.0, 0.0), top) - 0.5)
    return pam.scale * (2.0 * index - top), index


def _complete_pairs(tail, i3, i4, coef, alphabet) -> tuple:
    """Complete trailing pairs, (g, K) arrays of their ``tail`` metrics and
    symbol indices ``i3``, ``i4``; ``coef`` holds the instances' z1, z2,
    r13, r14, r23, r24 as real and imaginary parts, r11 and r22, each (g, 1).

    Four PAM slices per pair, in the scalar walk's float operations, per
    component: Python's complex multiply and subtract, ``slice_pam``, and
    ``abs(w) ** 2`` as ``float_power(hypot(re, im), 2.0)`` (``np.square``
    differs from Python's ``pow`` in the last bit of some values).

    Returns:
        (total, picks, bad): each pair's ``tail + |v1 - r11 x1|^2 + |v2 -
        r22 x2|^2``; x1's and x2's symbol indices, as floats; and where the
        scalar walk raised (False if nowhere): a non-finite v, which put a
        nan in its slicer, or a squared modulus overflowing from finite parts.
    """
    z1r, z1i, z2r, z2i, ar, ai, br, bi, cr, ci, dr, di, r11, r22 = coef
    syms = alphabet.symbols
    x3r, x3i, x4r, x4i = syms.real[i3], syms.imag[i3], syms.real[i4], syms.imag[i4]
    # v = z - p x3 - q x4, as Python evaluates it on complex scalars
    v = [((zr - (pr * x3r - pi * x3i)) - (qr * x4r - qi * x4i),
          (zi - (pr * x3i + pi * x3r)) - (qr * x4i + qi * x4r))
         for zr, zi, pr, pi, qr, qi in ((z1r, z1i, ar, ai, br, bi), (z2r, z2i, cr, ci, dr, di))]
    del x3r, x3i, x4r, x4i  # a pass's peak memory is this function's
    total = tail
    picks = []
    bad = False
    for rii in (r11, r22):
        vr, vi = v.pop(0)
        sym_r, index_r = _slice_planes(vr / rii, alphabet.pam)
        sym_i, index_i = _slice_planes(vi / rii, alphabet.pam)
        picks.append(index_i * alphabet.pam.size + index_r)
        wr = vr - rii * sym_r
        wi = vi - rii * sym_i
        del sym_r, index_r, sym_i, index_i
        term = np.float_power(np.hypot(wr, wi), 2.0)
        total = total + term
        if not np.isfinite(term).all():
            bad = (bad | ~(np.isfinite(vr) & np.isfinite(vi))
                   | (np.isfinite(wr) & np.isfinite(wi) & np.isinf(term)))
    return total, picks, bad


def _walk_pass(m4, m3, order4, order3, coef, k, l, pops: int, prune: bool, alphabet) -> tuple:
    """A pass of ``decode_alamouti_stack``'s round ``pops`` over g instances:
    their sorted metrics and orders (g, M), their ``coef`` (g, 14), and the
    round's pairs ``k``, ``l``.

    Returns:
        (done, cost, nodes, picks) per instance: whether its walk ends within
        these pops (or they are all M^2 pairs) and, if so, its cost, node
        count and symbol indices of x1 to x4.

    Raises:
        ValueError: COST_OVERFLOW, as ``decode_alamouti_stack`` raises it.
    """
    tails = m4[:, k]
    tails += m3[:, l]
    first = np.argsort(tails, axis=1, kind="stable")[:, :pops]
    tail = np.take_along_axis(tails, first, axis=1)
    k, l = k[first], l[first]
    del tails, first  # a pass's peak memory is _complete_pairs'
    i4 = np.take_along_axis(order4, k, axis=1)
    i3 = np.take_along_axis(order3, l, axis=1)
    total, slices, bad = _complete_pairs(tail, i3, i4, coef.T[:, :, None], alphabet)
    completed = np.full(len(tail), pops)
    stopped = np.zeros(len(tail), dtype=bool)
    if prune:
        # pop j ends the walk when its tail exceeds the best total of pops < j
        stop = tail[:, 1:] > np.fmin.accumulate(total, axis=1)[:, :-1]
        stopped = stop.any(axis=1)
        completed[stopped] = stop[stopped].argmax(axis=1) + 1
    walked = np.arange(pops) < completed[:, None]
    if np.any(bad & walked):
        raise ValueError(COST_OVERFLOW)
    best = np.argmin(np.where(walked, total, math.inf), axis=1)[:, None]
    cost = np.take_along_axis(total, best, axis=1)[:, 0]
    done = stopped | (pops == m4.shape[1] ** 2)
    if not np.all(cost[done] < math.inf):
        raise ValueError(COST_OVERFLOW)
    visited = completed + stopped
    rows_opened = np.sum((l == 0) & (np.arange(pops) < visited[:, None]), axis=1)
    nodes = visited + rows_opened + 4 * completed
    picks = [np.take_along_axis(plane, best, axis=1)[:, 0] for plane in (*slices, i3, i4)]
    return done, cost, nodes, np.stack(picks, axis=1)


def decode_alamouti_stack(r: np.ndarray, z: np.ndarray, alphabet: QamAlphabet,
                          prune: bool = True) -> list:
    """Fast exact-ML decoder for a stack of channels whose R has zeros at
    (1,2) and (3,4), from the prologue's stacked R (n, 4, 4) and z (n, 4).

    Quasistatic fading makes columns 1-2 and 3-4 of an overlaid Alamouti
    channel orthogonal, which puts those zeros in R: the trailing-pair
    branch metrics separate per symbol, and the leading pair falls to four
    PAM slices per trailing pair, which do not read the search radius. So
    ``_walk_pairs``' best-first walk (pops in (tail, k, l) order, one node
    per pop, one more when a row is first popped and four per completed
    pair, ending at the first pop whose tail exceeds the best total before
    it) depends on the sorted tails and the pair totals alone, and a stack
    walks it at once, in rounds. Round K (16, then times 4 up to M^2; M^2
    without ``prune``) takes each unfinished instance's pairs with
    (k+1)(l+1) <= K: they hold its first K pops, as the pairs (k', l') <=
    (k, l) all pop before (k, l). A stable argsort of their tails gives
    those pops, which are completed, and an instance whose walk ends among
    them is done. A pass completes at most ALAMOUTI_BLOCK pops, or one
    instance's, and sorts at most K (1 + ln K) tails per instance. Indices,
    costs and node counts are the scalar walk's, bit for bit.

    Returns:
        One DecodeResult per instance, indices in the columns' order.

    Raises:
        ValueError: when any R has nonzero r12 or r34 (time-varying channel;
            callers should fall back to decode_sphere_conventional), or
            COST_OVERFLOW when an instance's walk completes a pair whose
            cost overflows, or has no finite total.
    """
    require_zero(r[:, (0, 2), (1, 3)], frobenius_norm(r)[:, None],
                 "fast Alamouti path invalid for this channel: max |r12|, |r34|")
    n, m = len(z), alphabet.size
    small = np.min_scalar_type(m - 1)  # symbol indices, as a pass gathers them
    sorts = []
    for i in (3, 2):  # x4's sort, then x3's
        zi, rii = z[:, i, None], r[:, i, i, None].real
        order, metrics = sort_alphabet_by_metric(alphabet, lambda a: abs(zi - rii * a) ** 2)
        sorts += [order.astype(small), metrics]
    order4, m4, order3, m3 = sorts
    coef = np.concatenate([np.ascontiguousarray(z[:, :2]).view(float),
                           np.ascontiguousarray(r[:, :2, 2:]).reshape(n, 4).view(float),
                           r[:, 0, 0, None].real, r[:, 1, 1, None].real], axis=1)
    syms = alphabet.symbols
    cost = np.empty(n)
    nodes = np.empty(n, dtype=np.int64)
    picks = np.empty((n, 4), dtype=np.int64)  # symbol indices of x1, x2, x3, x4
    pending = np.arange(n)
    pops = ALAMOUTI_FIRST_ROUND if prune else m * m
    with np.errstate(over="ignore", invalid="ignore"):
        while len(pending):
            pops = min(pops, m * m)
            k, l = np.array(np.nonzero(np.outer(np.arange(1, m + 1), np.arange(1, m + 1)) <= pops),
                            dtype=small)
            step = max(1, ALAMOUTI_BLOCK // pops)
            unfinished = []
            for lo in range(0, len(pending), step):
                idx = pending[lo:lo + step]
                done, *outcome = _walk_pass(m4[idx], m3[idx], order4[idx], order3[idx], coef[idx],
                                            k, l, pops, prune, alphabet)
                for array, values in zip((cost, nodes, picks), outcome):
                    array[idx[done]] = values[done]
                unfinished.append(idx[~done])
            pending = np.concatenate(unfinished)
            pops *= 4
    return [
        DecodeResult(indices=tuple(idx), cost=c, nodes_visited=v, full_sorts=2, symbols=syms)
        for idx, c, v in zip(picks.tolist(), cost.tolist(), nodes.tolist())
    ]


def decode_alamouti_fast(
    eff: EffectiveChannel, y: np.ndarray, alphabet: QamAlphabet, prune: bool = True
) -> DecodeResult:
    """Fast exact-ML decode of one instance: ``decode_alamouti_stack`` on the
    prologue of the stack of one ``eff.h`` and ``y``, with the same checks;
    kept for the benchmark's tracer, which wraps it by name."""
    r, z = triangular_rows(eff.h[None], np.asarray(y, dtype=complex)[None])
    return decode_alamouti_stack(r, z, alphabet, prune)[0]


def blast_ordering(h, allowed=None):
    """Detection-order permutation by successive weakest-last selection.

    Working from the detected-last position forward, each step picks the
    remaining column with the smallest norm orthogonal to the columns
    already placed (ties to the lowest index), which greedily maximizes the
    minimum post-cancellation gain. The returned tuple is a column order
    (for a stack, a list of one per matrix); its last entry is detected first.

    Args:
        h: 4x4 effective matrix, or a stack (n, 4, 4).
        allowed: optional collection of permutations to restrict to; the
            selection criterion (largest minimum diagonal of R) is then
            evaluated over exactly those, which is how the fast decoder's
            eight admissible permutations are handled.
    """
    h = np.asarray(h, dtype=complex)
    if allowed is not None:
        perms = [tuple(perm) for perm in allowed]
        # h[..., perms] is (..., 4, P, 4); one stacked QR scores them all.
        r = qr_decompose(np.moveaxis(h[..., perms], -2, -3)).r
        scores = np.diagonal(r, axis1=-2, axis2=-1).real.min(axis=-1)
        best = np.argmax(scores, axis=-1)  # first maximum, as in allowed's order
        return perms[best] if h.ndim == 2 else [perms[i] for i in best.tolist()]
    if h.ndim == 3:
        return [blast_ordering(matrix) for matrix in h]

    scale = float(frobenius_norm(h))
    if not math.isfinite(scale):
        raise ValueError("non-finite channel matrix")
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
        require_full_rank(best_norm, scale)
        perm.append(best_col)
        remaining.remove(best_col)
        basis.append(best_resid / best_norm)
    return tuple(perm)
