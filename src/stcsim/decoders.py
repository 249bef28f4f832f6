"""Exact maximum-likelihood decoders with search-effort instrumentation.

Four decoders share a common contract: given a stack of n effective
channels H, their received stacks y and a square QAM alphabet, return one
``DecodeResult`` for the stack, whose arrays hold per instance the
cost-minimizing symbol indices, the achieved cost ||y - H x_hat||^2 and two
effort counters. A non-finite y or H raises ValueError.
``decode_exhaustive_stack`` scans a whole stack per call, and
``decode_fast_stack``, ``decode_alamouti_stack`` and ``decode_sphere_stack``
search a whole stack per call from the stack's prologue, which only
``harness.decode_stack`` runs, for a single instance on a stack of one.

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
channels: one stacked QR per column order, ``triangular_rows``'s for the
natural order or a BLAST rule's, and z = Q^H y (``factored_rows``). Each
tree decoder then searches the whole stack in numpy, with the results of a
scalar search per instance bit for bit (the tests keep those searches as
their references), as each value is computed in that search's float
operations. The prologue and the stack calls check, once per stack, every
precondition of the searches: finite input, and full rank and the zeros in
R that a fast search needs, both by matrixkit's ZERO_TOLERANCE. No decoder
sees the code label: an EffectiveChannel is only its 4x4 matrix ``h``, and
which code a decoder may decode is the registry's rule.

The three tree searches read a stack's R and z in one layout,
``_by_component``, and share two kernels on it: ``_residual`` cancels the
symbols already chosen, w = z[row] - sum of r[row][j] c_j, and
``_slice_term`` slices w on R's real diagonal d, with its term |w - d x|^2.

``decode_exhaustive``, ``decode_fast_golden``, ``decode_alamouti_fast`` and
``decode_sphere_conventional`` decode one instance ``(eff, y, alphabet)``
through their stack calls and return its ``row(0)``, though no decode path
calls them: the benchmark's tracer wraps these functions by name and checks
each reported cost against ``||y - eff.h x_hat||^2``. It sees no decode of
a sweep; the tests check the stack calls' costs instead.

A decoder decodes the matrix it is given and reports indices in its column
order; a BLAST rule (``fast_ordering``, ``greedy_ordering``) picks a stack's
column orders and its QR in them before decoding, and the caller maps the
decision back.

The fast golden and fast Alamouti decoders walk the trailing symbol pair
best-first. Pair (k, l) of two ascending lists of sorted metrics has the
tail metric ``outer[k] + inner[l]``; a heap merge would pop the pairs in
(tail, k, l) order, one node per pop and one more when a row is first
popped (l == 0), so M + M^2 walk nodes without pruning. With pruning, the
first pop whose tail exceeds the best total ends the walk, since every later
tail is at least as large; each other pop completes its pair by a search
over the leading pair, and a later total replaces the best only when
strictly lower. Both decoders walk a whole stack with one numpy walk,
``_pair_walk``: one round schedule, one pass shape, one replay of each
pop's best before it, with the results of that scalar walk bit for bit
(the tests keep it as their reference). They differ only in the leading
completion they hand it. The Alamouti decoder's leading pair falls to four
slices that read no radius. The fast golden decoder's leading search drops
a pair on a lower bound and runs two real searches inside the radius the
best total leaves.

The sphere decoder searches depth first, children in (metric, symbol index)
order, and ordering an expanded node's children counts as one full sort.
``decode_sphere_stack`` enumerates every node within a limit that bounds the
radius (the first leaf's total, then the carried best), in passes, and
replays the search on them: the running minimum of the leaf totals in walk
order is the radius at every node.

Decoders are deterministic: candidate ties resolve by enumeration order
(stable sorts, the sphere decoder's per-level (metric, index) order, zigzag
lower-level-first, lexicographic scan, and trailing pairs popped by (metric,
row, column)); a later candidate replaces the best only at a strictly lower
cost. Each call owns its workspace, so instances may decode concurrently.
A finite y and H whose every candidate cost overflows raises ValueError.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .codes import EffectiveChannel
from .constellation import QamAlphabet, sort_alphabet_by_metric
from .matrixkit import (ZERO_TOLERANCE, QRFactors, frobenius_norm, qr_decompose,
                        require_full_rank, require_zero)

EXHAUSTIVE_CAP = 2 ** 24
# Complex residual entries one numpy pass of the exhaustive scan may hold.
EXHAUSTIVE_BLOCK = 2 ** 14
# Pops one pass of the trailing-pair walk may hold, which bounds its memory:
# smaller passes cost more numpy calls per trial.
PAIR_BLOCK = 2 ** 12
# Child entries one pass of the sphere stack search may hold (a pass expands
# at most SPHERE_BLOCK // M nodes).
SPHERE_BLOCK = 2 ** 15
# Pops (trailing-pair walk) or root children (sphere search) per instance in
# a first round: larger ones cost more work on instances that end early.
FIRST_ROUND = 2

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
    """A stack call's output for n instances: symbol indices (n, 4) int64,
    costs (n,) float64, effort counters (n,) int64, and the alphabet's
    symbols. ``row(i)`` is instance i's view, whose fields are a tuple of
    ints, a float and ints."""

    indices: np.ndarray
    cost: np.ndarray
    nodes_visited: np.ndarray
    full_sorts: np.ndarray
    symbols: np.ndarray = field(repr=False)

    @property
    def x_hat(self) -> np.ndarray:
        """The decisions as symbols, ``symbols[indices]``: a new array per read."""
        return self.symbols[np.asarray(self.indices)]

    def row(self, i: int) -> "DecodeResult":
        """Instance ``i`` alone, as Python scalars."""
        return DecodeResult(tuple(self.indices[i].tolist()), self.cost[i].item(),
                            self.nodes_visited[i].item(), self.full_sorts[i].item(), self.symbols)


def triangular_rows(matrices: np.ndarray, y: np.ndarray) -> tuple:
    """The prologue in the columns' own order: ``factored_rows`` of one stacked
    ``qr_decompose`` of ``matrices`` (n, 4, 4), for received ``y`` (n, 4)."""
    return factored_rows(qr_decompose(matrices), y)


def factored_rows(factors: QRFactors, y: np.ndarray) -> tuple:
    """The tree decoders' shared prologue on a stack's QRFactors, its columns
    in the order to decode: (r, z), R (n, 4, 4) and ``z = Q^H y`` (n, 4).
    Raises ValueError on a non-finite z."""
    z = (np.conj(np.swapaxes(factors.q, -1, -2)) @ y[..., None])[..., 0]
    if not np.isfinite(z).all():
        raise ValueError("non-finite received stack y")
    return factors.r, z


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
                            alphabet: QamAlphabet) -> DecodeResult:
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
        One DecodeResult for the stack.

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
    return DecodeResult(np.stack(np.unravel_index(flat, (m,) * 4), axis=-1), cost,
                        np.full(n, m ** 4), np.zeros(n, dtype=np.int64), syms)


def decode_exhaustive(
    eff: EffectiveChannel, y: np.ndarray, alphabet: QamAlphabet
) -> DecodeResult:
    """Scan all M^4 candidate vectors of one instance: ``decode_exhaustive_stack``
    on the stack of one ``eff.h`` and ``y``, with the same tie rule and checks;
    kept for the benchmark's tracer, which wraps it by name."""
    return decode_exhaustive_stack(eff.h[None], np.asarray(y, dtype=complex)[None],
                                   alphabet).row(0)


def _slice_planes(u: np.ndarray, pam) -> tuple:
    """The nearest PAM level to every entry of ``u``, clamped to the grid,
    exact midpoints to the lower level, as float arrays (symbols, indices):
    the float operations of the tests' scalar slicer ``slice_pam``. A nan,
    which that slicer refuses, gets index 0."""
    top = pam.size - 1.0
    index = np.ceil(np.fmin(np.fmax((u / pam.scale + top) / 2.0, 0.0), top) - 0.5)
    return pam.scale * (2.0 * index - top), index


def _by_component(r: np.ndarray, z: np.ndarray) -> tuple:
    """A stack's z (n, 4) and R (n, 4, 4) in the tree decoders' one layout:
    by component, instances last, so a pass gathers each coefficient from
    one contiguous row: (zr, zi) (4, n) and (rr, ri) (4, 4, n)."""
    return tuple(np.ascontiguousarray(part) for part in (
        z.real.T, z.imag.T, r.real.transpose(1, 2, 0), r.imag.transpose(1, 2, 0)))


def _residual(row: int, inst, parts, columns) -> tuple:
    """w = z[row] - sum of r[row][j] c_j over ``columns`` (j, Re c_j, Im c_j)
    in turn, for instances ``inst`` of ``parts`` (``_by_component``), as
    Python evaluates ``w -= r[row][j] * c_j`` on complex scalars, per
    component.

    Returns:
        (wr, wi): the real and imaginary parts of w.
    """
    zr, zi, rr, ri = parts
    wr, wi = zr[row][inst], zi[row][inst]
    for j, cr, ci in columns:
        a, b = rr[row, j][inst], ri[row, j][inst]
        wr = wr - (a * cr - b * ci)
        wi = wi - (a * ci + b * cr)
    return wr, wi


def _slice_term(wr, wi, d, pam) -> tuple:
    """One complex slice of residuals (wr, wi) on real diagonal entries
    ``d``: a PAM slice of w / d per axis, and the term ``|w - d x|^2`` with
    ``abs(.) ** 2`` as ``float_power(hypot(re, im), 2.0)`` (``np.square``
    differs from Python's ``pow`` in the last bit of some values).

    Returns:
        (term, index, bad): the terms, the sliced symbol indices, and where
        the scalar search raised (False if nowhere): a non-finite w, which
        puts a nan in its slicer, or a squared modulus overflowing from
        finite parts.
    """
    xr, ir = _slice_planes(wr / d, pam)
    xi, ii = _slice_planes(wi / d, pam)
    er = wr - d * xr
    ei = wi - d * xi
    term = np.float_power(np.hypot(er, ei), 2.0)
    bad = False
    if not np.isfinite(term).all():
        bad = (~(np.isfinite(wr) & np.isfinite(wi))
               | (np.isfinite(er) & np.isfinite(ei) & np.isinf(term)))
    return term, (ii * pam.size + ir).astype(np.int64), bad


def _search_planes(v1, v2, r11, r12, r22, first, start, radius, pam, prune: bool) -> tuple:
    """Evaluate one real search per lane at ``radius``, position by
    position along its zigzag, only while the search is in its radius.

    A search minimizes (v2 - r22 x2)^2 + (v1 - r12 x2 - r11 x1)^2 over PAM
    levels: x2 in zigzag order around c = v2/r22 (the sliced level
    ``start``, then whichever unvisited neighbour is nearer to c, the lower
    one on equal distances), x1 by one slice. A position is entered (one
    node; its x2 metric t, at the first position ``first``); with ``prune``
    a t above the best so far (at first ``radius``) ends the search, else
    the position is visited (one more node; its full metric, accepted below
    the best so far). A smaller radius enters a prefix of these positions.

    Returns:
        (best, planes): the best metric per lane (``radius`` where none was
        accepted), and (4, lanes, L) planes of t, the full metric and x1's
        and x2's PAM indices at each position, 0 where not evaluated.
    """
    width = pam.size
    values = np.array(pam.values)
    planes = np.zeros((4, len(v1), width))
    planes[0, :, 0] = first
    best = radius.copy()
    row = np.arange(len(v1))
    state = np.stack([v1, v2, r11, r12, r22, radius, v2 / r22])  # per live lane
    zigzag = np.stack([start, start - 1, start + 1]).astype(np.int64)  # x2, next below, above
    t = first
    for j in range(width):
        pos, lo, hi = zigzag
        if j:
            # scalar real_search's step: the lower neighbour when it is at
            # least as near to c as the upper one, or the upper is past the grid
            c = state[6]
            down = (lo >= 0) & ((hi == width)
                                | (c - values[lo] <= values[np.minimum(hi, width - 1)] - c))
            pos = np.where(down, lo, hi)
            zigzag = np.stack([pos, lo - down, hi + ~down])
        x2 = values[pos]
        if j:
            t = np.float_power(state[1] - state[4] * x2, 2.0)
            planes[0, row, j] = t
        planes[3, row, j] = pos
        if prune:
            live = t <= state[5]
            row, state, zigzag = row[live], state[:, live], zigzag[:, live]
            t, x2 = t[live], x2[live]
        u = state[0] - state[3] * x2
        x1, planes[2, row, j] = _slice_planes(u / state[2], pam)
        planes[1, row, j] = metric = t + np.float_power(u - state[2] * x1, 2.0)
        state[5] = best[row] = np.fmin(metric, state[5])
        if not len(row):
            break
    return best, planes


def _replay_search(planes, radius, live, prune: bool) -> tuple:
    """The real searches of the lanes ``live`` at ``radius``, replayed on
    their evaluated ``planes``: each break and acceptance of the scalar
    search, elementwise. A t compared with a nan stops the replay where the
    scalar search went on; either the t or the radius is nan only where the
    walk raises, or its instance has no finite total.

    Returns:
        (best, position, entered, visited) per lane: the best metric
        (``radius`` if none was accepted), the zigzag position of the last
        accepted (-1 if none), and the positions entered and visited, one
        node each.
    """
    t_plane, m_plane = planes[0], planes[1]
    best = radius.copy()
    position = np.full(len(radius), -1)
    live = live.copy()
    entered = np.zeros(len(radius), dtype=np.int64)
    visited = np.zeros(len(radius), dtype=np.int64)
    for j in range(t_plane.shape[1]):
        entered += live
        if prune:
            live &= t_plane[:, j] <= best
            if not live.any():
                break
        visited += live
        better = live & (m_plane[:, j] < best)
        best[better] = m_plane[better, j]
        position[better] = j
    return best, position, entered, visited


def _running_best(carried, total):
    """The best total before each pop of a (g, P) round: ``carried`` (g, 1)
    and the totals of the round's earlier pops, by ``np.fmin``."""
    return np.fmin.accumulate(np.concatenate([carried, total[:, :-1]], axis=1), axis=1)


def _overflowed(planes, entered, visited) -> np.ndarray:
    """Per row of evaluated ``planes``, whether a search that entered its
    first ``entered`` positions and visited its first ``visited`` met a
    non-finite metric: where the scalar search raised."""
    at = np.arange(planes.shape[2])
    return ((~np.isfinite(planes[0]) & (at < entered[:, None]))
            | (~np.isfinite(planes[1]) & (at < visited[:, None]))).any(axis=1)


def _replay_pops(guess, led, tail, lower, search, planes, prune: bool) -> tuple:
    """The leading searches of the pops ``led``, each under ``guess``, its
    best total before it: the drops on its two ``lower`` bounds (2, lanes),
    then the real part's search inside ``guess - tail - lb_im`` and the
    imaginary part's inside ``guess - tail - best_re``, replayed on the
    ``planes`` evaluated for the lanes ``search`` (real parts, then
    imaginary parts).

    Returns:
        (total, nodes, positions, overflow): per lane its total (inf if
        dropped or without a pick) and leading-search nodes; per lane of
        ``search`` each search's picked position (2, len(search)); and
        whether a led pop entered or visited a non-finite metric, where the
        scalar walk raised.
    """
    lb_re, lb_im = lower
    first = tail + lb_re
    rest = guess - tail
    second = led & ~(first > guess)  # pops that made the second lower bound
    nodes = led.astype(np.int64) + second  # one node per lower bound
    searched = (led & ~(first + lb_im > guess))[search]
    half = len(search)
    best_re, position_re, entered_re, visited_re = _replay_search(
        planes[:, :half], (rest - lb_im)[search], searched, prune)
    live = position_re >= 0
    best_im, position_im, entered_im, visited_im = _replay_search(
        planes[:, half:], rest[search] - best_re, live, prune)
    # the searches count their first positions, which the lower bounds did
    nodes[search] += (entered_re + visited_re - searched) + (entered_im + visited_im - live)
    overflow = not (np.isfinite(lb_re[led]).all() and np.isfinite(lb_im[second]).all())
    if not overflow and not np.isfinite(planes[:2]).all():
        overflow = (_overflowed(planes[:, :half], entered_re, visited_re).any()
                    or _overflowed(planes[:, half:], entered_im, visited_im).any())
    total = np.full(len(tail), math.inf)
    found = position_im >= 0
    total[search[found]] = (best_re[found] + best_im[found]) + tail[search[found]]
    return total, nodes, np.stack([position_re, position_im]), overflow


def _pair_pass(idx, k, l, done: int, pops: int, walk, best, nodes, picks, prune: bool):
    """Pops ``done`` to ``pops`` of the walks of instances ``idx``, from
    their carried ``best``, ``nodes`` and ``picks``, which it updates; the
    round's pairs ``k``, ``l`` hold each instance's first ``pops`` pops, and
    ``walk`` is ``_pair_walk``'s sorted metrics and leading completion.

    Returns:
        Per instance, whether its walk ended.

    Raises:
        ValueError: COST_OVERFLOW where a pop the walk leads overflows.
    """
    outer, inner, leading = walk
    tails = outer[idx][:, k] + inner[idx][:, l]
    first = np.argsort(tails, axis=1, kind="stable")[:, done:pops]
    tail = np.take_along_axis(tails, first, axis=1)
    k, l = k[first], l[first]
    del tails, first
    shape = tail.shape
    carried = best[idx, None]
    limit = carried if prune else np.full_like(carried, math.inf)
    # The pops a walk may reach: none after the first whose tail exceeds the
    # carried best, which each pop's best before it cannot exceed.
    lanes = np.flatnonzero(~(tail > limit))
    inst = lanes // shape[1]
    total, replay = leading(idx[inst], k.flat[lanes], l.flat[lanes], tail.flat[lanes],
                            limit[inst, 0])
    # Replay the walk under a guess of each pop's best before it, until the
    # running best of the replayed totals confirms the guess on every pop
    # walked: by induction over the pops, the replay is then the walk.
    grid = np.full(shape, math.inf)
    grid.flat[lanes] = total
    guess = _running_best(carried, grid) if prune else np.full(shape, math.inf)
    while True:
        stop = tail > guess
        stops = np.cumsum(stop, axis=1)
        walked = stops - stop == 0
        total, lead, overflow, pick = replay(guess.flat[lanes], (stops == 0).flat[lanes])
        grid = np.full(shape, math.inf)
        grid.flat[lanes] = total
        if not prune:
            break
        check = _running_best(carried, grid)
        if np.array_equal(check[walked], guess[walked]):
            break
        guess = check
    if overflow:
        raise ValueError(COST_OVERFLOW)
    nodes[idx] += np.sum(walked, axis=1) + np.sum(walked & (l == 0), axis=1)
    np.add.at(nodes, idx[inst], lead)
    pop = np.argmin(grid, axis=1)
    cost = grid[np.arange(len(idx)), pop]
    better = np.flatnonzero(cost < carried[:, 0])
    best[idx[better]] = cost[better]
    picks[idx[better]] = pick(np.searchsorted(lanes, better * shape[1] + pop[better]))
    return stop.any(axis=1)


def _pair_walk(outer, inner, leading, prune: bool) -> tuple:
    """The best-first walk over the trailing pairs of a stack, as the module
    docstring defines it, from the two sorted metric lists ``outer`` and
    ``inner`` (n, M) per instance.

    The walk runs in rounds over the unfinished instances, each carrying its
    best total, pick and nodes from round to round: its first FIRST_ROUND
    pops, then up to four times as many (at most PAIR_BLOCK more, and M^2
    in all). A round takes each instance's next pops from a stable sort of
    the tails of its pairs with (k+1)(l+1) at most the round's pops, which
    hold its first pops, as the pairs (k', l') <= (k, l) all pop before (k,
    l). A pass holds at most PAIR_BLOCK pops, or one instance's.

    ``leading(inst, k, l, tail, bound)`` completes the pops of a pass that
    the walk may reach (instances ``inst``, pairs ``k``, ``l`` and their
    tails), each under ``bound``, its instance's carried best (inf without
    ``prune``), which each pop's best before it cannot exceed. It returns
    their totals within that bound and ``replay(guess, led)``, which
    replays them under a guess of each pop's best before it, only the pops
    ``led`` (those before the first stop) completing. ``replay`` returns
    the totals (inf where none), the leading nodes of each pop, whether a
    led pop overflowed, and ``pick(lanes)``, the symbol indices of x1 to x4
    of the chosen pops. A pass guesses each pop's best before it from the
    first totals and guesses again from the replayed ones until their
    running best confirms the guess on every pop walked (``_pair_pass``).

    Returns:
        (picks, best, nodes) per instance.

    Raises:
        ValueError: COST_OVERFLOW when a pop an instance's walk leads
            overflows, or the walk has no finite total.
    """
    n, m = outer.shape
    best = np.full(n, math.inf)
    nodes = np.zeros(n, dtype=np.int64)
    picks = np.zeros((n, 4), dtype=np.int64)  # symbol indices of x1, x2, x3, x4
    pending = np.arange(n)
    done, pops = 0, min(FIRST_ROUND, m * m)
    grid = np.outer(np.arange(1, m + 1), np.arange(1, m + 1))
    walk = (outer, inner, leading)
    with np.errstate(over="ignore", invalid="ignore"):
        while len(pending):
            k, l = np.nonzero(grid <= pops)
            step = max(1, PAIR_BLOCK // (pops - done))
            unfinished = []
            for lo in range(0, len(pending), step):
                idx = pending[lo:lo + step]
                ended = _pair_pass(idx, k, l, done, pops, walk, best, nodes, picks, prune)
                unfinished.append(idx[~ended])
            pending = np.concatenate(unfinished) if pops < m * m else pending[:0]
            done, pops = pops, min(4 * pops, pops + PAIR_BLOCK, m * m)
    if not np.all(best < math.inf):
        raise ValueError(COST_OVERFLOW)
    return picks, best, nodes


def _fast_leading(inst, k, l, tail, bound, orders, parts, alphabet, prune: bool) -> tuple:
    """The fast golden decoder's leading completion for ``_pair_walk``:
    pair (k, l) of instance ``inst`` of ``parts`` (``_by_component``) is the
    real part's symbol ``orders[0][inst, k]`` and the imaginary part's
    ``orders[1][inst, l]``.

    It evaluates the searches of every pop that ``bound`` does not drop,
    inside the radius ``bound`` leaves, position by position
    (``_search_planes``): a pop's best before it is at most ``bound``, and a
    smaller radius enters a prefix of those positions. Its replay replays
    every drop, break, pick and node count on them under a guess
    (``_replay_pops``).
    """
    pam = alphabet.pam
    width = pam.size
    sk = orders[0][inst, k]
    sl = orders[1][inst, l]
    # Re(a) plays x3's component and Im(a) x4's, with the real part's symbol
    # sk and the imaginary part's sl
    sym_re, sym_im = alphabet.symbols.real, alphabet.symbols.imag
    columns = ((2, sym_re[sk], sym_re[sl]), (3, sym_im[sk], sym_im[sl]))
    v2 = np.stack(_residual(1, inst, parts, columns))
    r22 = parts[2][1, 1][inst]
    # each search's first position: its x2 slice and the pop's lower bound
    x2, start = _slice_planes(v2 / r22, pam)
    lower = np.float_power(v2 - r22 * x2, 2.0)
    search = np.flatnonzero(~((tail + lower[0]) + lower[1] > bound))
    # only the pops the lower bounds keep read row 0
    at = inst[search]
    v1 = _residual(0, at, parts, [(j, cr[search], ci[search]) for j, cr, ci in columns])
    r11, r12 = (parts[2][0, j][at] for j in (0, 1))
    rest = (bound - tail)[search]
    both = np.concatenate
    found, planes = _search_planes(
        both(v1), both(v2[:, search]), *(np.tile(c, 2) for c in (r11, r12, r22[search])),
        both(lower[:, search]), both(start[:, search]), both([rest, rest]), pam, prune)
    found = found.reshape(2, -1)
    total = np.full(len(tail), math.inf)
    hit = np.all(found < rest, axis=0)
    total[search[hit]] = (found[0, hit] + found[1, hit]) + tail[search[hit]]

    def replay(guess, led):
        total, nodes, positions, overflow = _replay_pops(guess, led, tail, lower, search, planes,
                                                         prune)

        def pick(lanes):
            chosen = np.searchsorted(search, lanes)
            x1, x2 = planes[2:, np.stack([chosen, chosen + len(search)]), positions[:, chosen]]
            re, im = sk[lanes], sl[lanes]
            return np.stack([x1[1] * width + x1[0], x2[1] * width + x2[0],
                             (im % width) * width + re % width,
                             (im // width) * width + re // width], axis=1)

        return total, nodes, overflow, pick

    return total, replay


def decode_fast_stack(r: np.ndarray, z: np.ndarray, alphabet: QamAlphabet,
                      prune: bool = True) -> DecodeResult:
    """Fast exact-ML decoder for a stack of channels whose R has real
    diagonal blocks, from the prologue's stacked R (n, 4, 4) and z (n, 4).

    Exactly two full-alphabet sorts per instance, one per real component of
    the trailing pair (x3, x4): the separable alphabet puts each component
    pair in bijection with the symbols, Re(a) playing x3's and Im(a) x4's.
    Then the best-first walk over the pairs of the two sorted lists
    (``_pair_walk``). A pair it completes is dropped on a lower bound (each
    component's nearest x2, one node each, not counted again by the
    searches), or completed by interference cancellation and two real
    searches over the leading pair's real and imaginary parts: the real one
    inside the radius that the best total leaves after the tail and the
    imaginary part's bound, the imaginary one inside what the real one
    leaves. Correctness rests on the leading and trailing diagonal blocks
    of R being real, which holds for a golden channel with its columns in
    any order of FAST_PERMUTATIONS, and for a quasistatic overlaid-Alamouti
    channel.

    The searches read the radius, so the walk's leading completion
    (``_fast_leading``) evaluates them inside the carried best's radius and
    replays them under each guess of the best before a pop; their v is
    ``_residual``'s, on the ``_by_component`` layout. Indices, costs and
    node counts are the scalar walk's, bit for bit, as each value is
    computed in its float operations, per component: Python's complex
    multiply and subtract, the tests' scalar slicer as ``ceil(clip -
    0.5)``, and ``** 2`` as ``np.float_power(x, 2.0)`` (``x * x`` differs
    from it in the last bit of some x).

    Args:
        prune: disable to force full enumeration (worst-case instrumentation).

    Returns:
        One DecodeResult for the stack, indices in the columns' order.

    Raises:
        ValueError: when any R lacks real diagonal blocks (Im r12, Im r34),
            or COST_OVERFLOW when a search that an instance's walk runs
            meets a non-finite metric (an overflowing square, or a
            non-finite v), or the walk has no finite total.
    """
    require_zero(r[:, (0, 2), (1, 3)].imag, frobenius_norm(r)[:, None],
                 "fast golden decoder needs real diagonal blocks in R; this channel lacks "
                 "golden structure: max |Im r12|, |Im r34|")
    parts = _by_component(r, z)
    r33, r34, r44 = (parts[2][i, j][:, None] for i, j in ((2, 2), (2, 3), (3, 3)))
    sorts = []
    for component in parts[:2]:
        z2, z3 = component[2][:, None], component[3][:, None]
        sorts += sort_alphabet_by_metric(
            alphabet, lambda a: (z2 - r33 * a.real - r34 * a.imag) ** 2 + (z3 - r44 * a.imag) ** 2
        )
    order_re, m_re, order_im, m_im = sorts
    leading = functools.partial(_fast_leading, orders=(order_re, order_im), parts=parts,
                                alphabet=alphabet, prune=prune)
    picks, best, nodes = _pair_walk(m_re, m_im, leading, prune)
    return DecodeResult(picks, best, nodes, np.full(len(z), 2), alphabet.symbols)


def decode_fast_golden(
    eff: EffectiveChannel, y: np.ndarray, alphabet: QamAlphabet, prune: bool = True
) -> DecodeResult:
    """Fast exact-ML decode of one instance: ``decode_fast_stack`` on the
    prologue of the stack of one ``eff.h`` and ``y``, with the same checks;
    kept for the benchmark's tracer, which wraps it by name."""
    r, z = triangular_rows(eff.h[None], np.asarray(y, dtype=complex)[None])
    return decode_fast_stack(r, z, alphabet, prune).row(0)


def _sphere_residual(level: int, inst, path, parts, syms) -> tuple:
    """The ``_residual`` of row ``level`` over columns level + 1, ..., 3, for
    nodes of instances ``inst`` whose symbol indices at levels 3, 2, ...
    down to level + 1 are the columns of ``path``; ``syms`` holds the
    symbols' real and imaginary parts."""
    sym_re, sym_im = syms
    return _residual(level, inst, parts, [(j, sym_re[path[:, 3 - j]], sym_im[path[:, 3 - j]])
                                          for j in range(level + 1, 4)])


def _child_metrics(wr, wi, d, values) -> np.ndarray:
    """The branch metrics of every child of nodes with residual (wr, wi) and
    diagonal entry ``d``, (k, M): child t = j*L + i has ``(wr - d v_i)^2 +
    (wi - d v_j)^2``, each square as ``x * x`` and the real term first."""
    scaled = d[:, None] * values
    re = wr[:, None] - scaled
    im = wi[:, None] - scaled
    re *= re
    im *= im
    return (re[:, None, :] + im[:, :, None]).reshape(len(wr), len(values) ** 2)


def _sphere_children(level: int, nodes, limit, setup) -> tuple:
    """The children of ``nodes`` at ``level`` (2 or 1) whose partial sums
    are within their instance's ``limit``, ordered by (parent, metric,
    symbol index): the metric, not the partial sum, as rounding can make
    partial sums tie where metrics differ.

    Nodes are (inst, acc, key, path, parent) arrays: the instance, the
    partial sum, the walk-order key, the symbol indices from level 3 down,
    and (below level 2) the parent's index in its own array. A child's key
    is its parent's plus its rank times M^(level - 1), so keys ascend in
    walk order.

    One stable argsort orders the kept entries' flat indices, which ascend
    by parent, on the complex key parent + 1j * metric: complex values sort
    by real part, then imaginary part, so it moves a child only among its
    parent's. numpy sorts a nan imaginary part after every other value,
    whatever the real part, so a nan metric gets the key parent + 0.5: after
    its parent's other children and before the next parent's, in symbol
    order among its parent's nan metrics, as numpy orders a nan metric.
    """
    parts, syms, values = setup[:3]
    m = len(values) ** 2
    inst, acc, key, path = nodes[:4]
    metric = _child_metrics(*_sphere_residual(level, inst, path, parts, syms),
                            parts[2][level, level][inst], values)
    cum = acc[:, None] + metric
    keep = cum > limit[inst, None]
    flat = np.flatnonzero(np.logical_not(keep, out=keep))
    row = flat // m  # ascending
    order = np.empty(len(flat), dtype=complex)
    order.real = row
    order.imag = metric.ravel()[flat]
    nan = np.isnan(order.imag)
    order[nan] = row[nan] + 0.5
    flat = flat[np.argsort(order, kind="stable")]  # equal metrics keep ascending index
    del metric, order  # the pass's largest arrays, not needed for the gathers below
    kept = np.bincount(row, minlength=len(inst))  # each parent's kept children
    rank = np.arange(len(flat))
    rank -= (np.cumsum(kept) - kept)[row]
    rank *= m ** (level - 1)
    rank += key[row]
    cum = cum.ravel()[flat]
    flat %= m
    return inst[row], cum, rank, np.column_stack([path[row], flat]), row


def _live(nodes, limit) -> tuple:
    """The ``nodes`` whose partial sums are still within their instance's
    ``limit``, which may have fallen since they were kept."""
    keep = ~(nodes[1] > limit[nodes[0]])
    return tuple(part[keep] for part in nodes)


def _pass_radii(radius, leaves, total, queries) -> tuple:
    """The search's radius along a pass's ``leaves`` (inst, key), each
    instance's leaves contiguous and in walk order, from each instance's
    carried ``radius``, which it advances past them.

    Per instance, the exclusive running minimum of the leaf totals in walk
    order is the radius at every node: a leaf the search never reaches lies
    under a node whose partial sum exceeds the radius there, so it never
    lowers the minimum. It is taken as ``np.fmin`` takes it, a nan total
    losing to any other, by one ``np.fmin.accumulate`` over complex pairs,
    which order by real part first. A leaf in the pass's r-th run of leaves
    of one instance is (-2r, total), or (1 - 2r, 0) if its total is nan (a
    nan part would make ``np.fmin`` keep the previous run's pair). So the
    minimum restarts at each run's first leaf, a nan total loses to every
    other total of its run, and a minimum whose real part is odd is that of
    a run whose leaves so far are all nan.

    Returns:
        (before, radii): the radius before each leaf, and for each query of
        nodes (inst, key) the radius at each node's first leaf position.
    """
    inst, key = leaves
    edge = np.empty(len(inst) + 1, dtype=bool)  # where a run starts, and after it ends
    edge[0] = edge[-1] = True
    np.not_equal(inst[1:], inst[:-1], out=edge[1:-1])
    base = -2.0 * np.cumsum(edge[:-1])
    nan = np.isnan(total)
    pairs = np.empty(len(total), dtype=complex)
    pairs.real = base
    pairs.real += nan
    pairs.imag = total
    pairs.imag[nan] = 0.0
    np.fmin.accumulate(pairs, out=pairs)
    lowest = pairs.imag
    lowest[pairs.real != base] = math.nan
    # the radius after each leaf, behind a leaf of no instance
    after = np.concatenate([[math.nan], np.fmin(radius[inst], lowest)])
    owner = np.concatenate([[-1], inst])

    def at(position, query):
        """The radius of instances ``query`` before leaf ``position``."""
        return np.where(owner[position] == query, after[position], radius[query])

    before = np.where(owner[:-1] == inst, after[:-1], radius[inst])
    radii = [at(np.searchsorted(key, q[1]), q[0]) for q in queries]
    last = np.flatnonzero(edge[1:])
    radius[inst[last]] = after[last + 1]
    return before, radii


def _sphere_round(roots, state, setup) -> None:
    """Search below a round's root children ``roots`` (level-2 nodes in walk
    order per instance), updating the round's ``state`` per instance:
    radius, limit, nodes, sorts, expanded root children and picks.

    The nodes within an instance's limit are enumerated depth first, in
    passes of at most SPHERE_BLOCK child entries: a pass of level-2 nodes,
    then passes of their kept children, whose kept children's leaves are
    evaluated. Each pass of leaves lowers the limit to its lowest total,
    since every later node comes after it in walk order, and is replayed
    at once: a node is expanded when its parent is and its partial sum is
    at most the radius at its first leaf position (``_pass_radii``); an
    expanded node visits min(M, expanded children + 1) children, and an
    expanded level-1 child one leaf; the last leaf strictly below the
    radius before it is the pick.

    Raises:
        ValueError: COST_OVERFLOW where the scalar search raised at a leaf.
    """
    radius, limit, nodes, sorts, expanded, picks = state
    parts, syms, values, pam, prune = setup
    m = len(values) ** 2
    count = len(radius)
    step = max(1, SPHERE_BLOCK // m)
    for lo in range(0, len(roots[0]), step):
        top = _live(tuple(part[lo:lo + step] for part in roots), limit)
        mid = _sphere_children(2, top, limit, setup)
        pos = np.searchsorted(mid[2], top[2])  # each top node's place among the children
        hit = np.ones(len(top[0]), dtype=bool)
        kids = np.zeros(len(top[0]), dtype=np.int64)
        for lo2 in range(0, len(mid[0]), step):
            sub = _live(tuple(part[lo2:lo2 + step] for part in mid), limit)
            low = _sphere_children(1, sub, limit, setup)
            term, index, bad = _slice_term(*_sphere_residual(0, low[0], low[3], parts, syms),
                                           parts[2][0, 0][low[0]], pam)
            total = low[1] + term
            if prune:
                np.fmin.at(limit, low[0], total)
            here = np.flatnonzero((pos >= lo2) & (pos < lo2 + step))
            before, (at_top, at_sub) = _pass_radii(radius, low[:3:2], total,
                                                   [(top[0][here], top[2][here]), sub[:3:2]])
            hit2 = np.ones(len(sub[0]), dtype=bool)
            hit3 = np.ones(len(low[0]), dtype=bool)
            if prune:
                hit[here] = ~(top[1][here] > at_top)
                hit2 = hit[sub[4]] & ~(sub[1] > at_sub)
                hit3 = hit2[low[4]] & ~(low[1] > before)
            if np.any(bad & hit3):
                raise ValueError(COST_OVERFLOW)
            kids += np.bincount(sub[4][hit2], minlength=len(kids))
            visits = np.minimum(m, np.bincount(low[4][hit3], minlength=len(sub[0])) + 1)
            nodes += np.bincount(sub[0][hit2], visits[hit2], minlength=count).astype(np.int64)
            nodes += np.bincount(low[0][hit3], minlength=count)
            sorts += np.bincount(sub[0][hit2], minlength=count)
            better = np.flatnonzero(total < before)
            last = better[np.diff(low[0][better], append=count) != 0]  # each instance's last
            picks[low[0][last]] = np.column_stack([index[last], low[3][last, ::-1]])
        rest = pos >= len(mid[0])  # after every child, so after every leaf of the pass
        if prune:
            hit[rest] = ~(top[1][rest] > radius[top[0][rest]])
        visits = np.minimum(m, kids + 1)
        nodes += np.bincount(top[0][hit], visits[hit], minlength=count).astype(np.int64)
        sorts += np.bincount(top[0][hit], minlength=count)
        expanded += np.bincount(top[0][hit], minlength=count)


def decode_sphere_stack(r: np.ndarray, z: np.ndarray, alphabet: QamAlphabet,
                        prune: bool = True) -> DecodeResult:
    """Four-level complex sphere decoder with child ordering at every level,
    for a stack of channels, from the prologue's stacked R (n, 4, 4) and z
    (n, 4).

    Depth-first search assigning one complex symbol per level (x4 first),
    children visited in ascending (branch metric, symbol index) order,
    radius updates at leaves (a later leaf wins only strictly below the
    best) and pruning on partial sums: the first child whose partial sum
    exceeds the radius ends its node's loop. The final level needs no
    enumeration: the best leaf under a node comes from one complex slicer
    decision. Ordering an expanded node's M children counts as one full
    sort: the root's, and each expanded node's at the two levels below it.

    The stack is searched in numpy, with the scalar search's results bit for
    bit. One stable argsort orders the root's children, and a greedy descent
    (the first child at each level) finds the first leaf, whose total bounds
    every later radius. The root's children are then walked in rounds over
    the unfinished instances, ranks below FIRST_ROUND, then up to
    four times as many: a round enumerates the nodes below them whose
    partial sums are within a limit (the first leaf's total in the first
    round, the carried best after it) and replays the search on them, pass
    by pass (``_sphere_round``). An instance is done when a root child of
    the round is not expanded, or after all M. On the ``_by_component``
    layout, ``_residual`` gives each node's residual and ``_slice_term``
    each leaf. Each value is computed in the scalar search's float
    operations, per component: Python's complex multiply and subtract, ``(w
    - d v) * (w - d v)`` per axis and the child metric ``re + im``, the
    tests' scalar slicer as ``ceil(clip - 0.5)``, and ``abs(.) ** 2`` as
    ``float_power(hypot(re, im), 2.0)``.

    Args:
        prune: disable to force full enumeration (worst-case
            instrumentation): M + M^2 + 2 M^3 nodes and 1 + M + M^2 sorts.

    Returns:
        One DecodeResult for the stack, indices in the columns' order.

    Raises:
        ValueError: COST_OVERFLOW when a leaf that an instance's search
            reaches overflows or has a non-finite residual, or the search
            has no finite total.
    """
    n, m = len(z), alphabet.size
    pam = alphabet.pam
    values = np.array(pam.values)
    syms = (alphabet.symbols.real, alphabet.symbols.imag)
    parts = _by_component(r, z)
    zr, zi, rr, _ = parts
    every = np.arange(n)
    best = np.full(n, math.inf)
    picks = np.zeros((n, 4), dtype=np.int64)  # symbol indices of x1, x2, x3, x4
    nodes = np.zeros(n, dtype=np.int64)
    sorts = np.ones(n, dtype=np.int64)
    expanded = np.zeros(n, dtype=np.int64)  # the root's expanded children
    with np.errstate(over="ignore", invalid="ignore"):
        metric = _child_metrics(zr[3], zi[3], rr[3, 3], values)
        root_order = np.argsort(metric, axis=1, kind="stable")
        root_cum = 0.0 + np.take_along_axis(metric, root_order, axis=1)
        # the first leaf: the first child at each level
        acc, path = root_cum[:, 0], root_order[:, :1]
        for level in (2, 1):
            metric = _child_metrics(*_sphere_residual(level, every, path, parts, syms),
                                    rr[level, level], values)
            t = np.argmin(metric, axis=1)  # the lowest index among equal metrics
            acc = acc + metric[every, t]
            path = np.column_stack([path, t])
        first = acc + _slice_term(*_sphere_residual(0, every, path, parts, syms), rr[0, 0],
                                  pam)[0]
        pending = every
        done, end = 0, min(FIRST_ROUND, m)
        while len(pending):
            count = len(pending)
            limit = (first if done == 0 else best)[pending] if prune else np.full(count, math.inf)
            cum = root_cum[pending, done:end]
            row, col = np.nonzero(~(cum > limit[:, None]))
            roots = (row, cum[row, col], (row * m + done + col) * m * m,
                     root_order[pending[row], done + col][:, None])
            state = (best[pending], limit, *(np.zeros(count, dtype=np.int64) for _ in range(3)),
                     picks[pending])
            setup = (tuple(part[..., pending] for part in parts), syms, values, pam, prune)
            _sphere_round(roots, state, setup)
            best[pending], _, visits, expansions, hits, picks[pending] = state
            nodes[pending] += visits
            sorts[pending] += expansions
            expanded[pending] += hits
            pending = pending[(hits == end - done) & (end < m)]
            done, end = end, min(4 * end, m)
    nodes += np.minimum(m, expanded + 1)
    if not np.all(best < math.inf):
        raise ValueError(COST_OVERFLOW)
    return DecodeResult(picks, best, nodes, sorts, alphabet.symbols)


def decode_sphere_conventional(
    eff: EffectiveChannel, y: np.ndarray, alphabet: QamAlphabet, prune: bool = True
) -> DecodeResult:
    """Sphere decode of one instance: ``decode_sphere_stack`` on the
    prologue of the stack of one ``eff.h`` and ``y``, with the same checks;
    kept for the benchmark's tracer, which wraps it by name."""
    r, z = triangular_rows(eff.h[None], np.asarray(y, dtype=complex)[None])
    return decode_sphere_stack(r, z, alphabet, prune).row(0)


def _complete_pairs(tail, i3, i4, inst, parts, alphabet) -> tuple:
    """Complete trailing pairs, given per pair its ``tail`` metric, the
    symbol indices ``i3``, ``i4`` and its instance ``inst`` of ``parts``
    (``_by_component``): the residuals v1 and v2 of rows 0 and 1 over x3
    and x4 (``_residual``), then one complex slice each on r11 and r22
    (``_slice_term``).

    Returns:
        (total, picks, bad): each pair's ``tail + |v1 - r11 x1|^2 + |v2 -
        r22 x2|^2``; x1's and x2's symbol indices; and where the scalar walk
        raised (False if nowhere).
    """
    syms = alphabet.symbols
    columns = ((2, syms.real[i3], syms.imag[i3]), (3, syms.real[i4], syms.imag[i4]))
    total, picks, bad = tail, [], False
    for row in (0, 1):
        term, index, overflow = _slice_term(*_residual(row, inst, parts, columns),
                                            parts[2][row, row][inst], alphabet.pam)
        total = total + term
        picks.append(index)
        bad = bad | overflow
    return total, picks, bad


def _alamouti_leading(inst, k, l, tail, bound, orders, parts, alphabet) -> tuple:
    """The Alamouti decoder's leading completion for ``_pair_walk``: pair
    (k, l) of instance ``inst`` of ``parts`` (``_by_component``) is x4 =
    ``orders[0][inst, k]`` and x3 = ``orders[1][inst, l]``, completed by
    four slices (``_complete_pairs``). The slices read no radius, so
    ``bound`` goes unread, a replay only masks the pops not led (four nodes
    per pop led), and the first replay confirms the guess."""
    i4, i3 = orders[0][inst, k], orders[1][inst, l]
    total, (i1, i2), bad = _complete_pairs(tail, i3, i4, inst, parts, alphabet)

    def replay(guess, led):
        return (np.where(led, total, math.inf), 4 * led, np.any(bad & led),
                lambda lanes: np.stack([i1[lanes], i2[lanes], i3[lanes], i4[lanes]], axis=1))

    return total, replay


def decode_alamouti_stack(r: np.ndarray, z: np.ndarray, alphabet: QamAlphabet,
                          prune: bool = True) -> DecodeResult:
    """Fast exact-ML decoder for a stack of channels whose R has zeros at
    (1,2) and (3,4), from the prologue's stacked R (n, 4, 4) and z (n, 4).

    Quasistatic fading makes columns 1-2 and 3-4 of an overlaid Alamouti
    channel orthogonal, which puts those zeros in R: the trailing-pair
    branch metrics separate per symbol, one full-alphabet sort each for x4
    and x3, and the leading pair falls to four PAM slices per trailing
    pair, which do not read the search radius (``_alamouti_leading``):
    ``_residual`` and ``_slice_term`` on the ``_by_component`` layout
    (``_complete_pairs``). The stack walks the module docstring's
    best-first walk over the pairs of the two sorted lists
    (``_pair_walk``): one node per pop, one more when a row is first popped
    and four per completed pair, ending at the first pop whose tail exceeds
    the best total before it. Indices, costs and node counts are the scalar
    walk's, bit for bit.

    Returns:
        One DecodeResult for the stack, indices in the columns' order.

    Raises:
        ValueError: when any R has nonzero r12 or r34 (time-varying channel;
            callers should fall back to decode_sphere_stack), or
            COST_OVERFLOW when an instance's walk completes a pair whose
            cost overflows, or has no finite total.
    """
    require_zero(r[:, (0, 2), (1, 3)], frobenius_norm(r)[:, None],
                 "fast Alamouti path invalid for this channel: max |r12|, |r34|")
    n = len(z)
    sorts = []
    for i in (3, 2):  # x4's sort, then x3's
        zi, rii = z[:, i, None], r[:, i, i, None].real
        sorts += sort_alphabet_by_metric(alphabet, lambda a: abs(zi - rii * a) ** 2)
    order4, m4, order3, m3 = sorts
    leading = functools.partial(_alamouti_leading, orders=(order4, order3),
                                parts=_by_component(r, z), alphabet=alphabet)
    picks, best, nodes = _pair_walk(m4, m3, leading, prune)
    return DecodeResult(picks, best, nodes, np.full(n, 2), alphabet.symbols)


def decode_alamouti_fast(
    eff: EffectiveChannel, y: np.ndarray, alphabet: QamAlphabet, prune: bool = True
) -> DecodeResult:
    """Fast exact-ML decode of one instance: ``decode_alamouti_stack`` on the
    prologue of the stack of one ``eff.h`` and ``y``, with the same checks;
    kept for the benchmark's tracer, which wraps it by name."""
    r, z = triangular_rows(eff.h[None], np.asarray(y, dtype=complex)[None])
    return decode_alamouti_stack(r, z, alphabet, prune).row(0)


def blast_ordering(h) -> np.ndarray:
    """Greedy BLAST column orders (..., 4) of a stack ``h`` (..., 4, 4), the
    SQRD of Wuebben et al. (2001): each step places the remaining column of
    least norm orthogonal to those placed (the lowest index among norms
    within ZERO_TOLERANCE * ||H||_F of it) and projects it out of the rest."""
    residual = np.array(h, dtype=complex)
    scale = frobenius_norm(residual)[..., None]
    if not np.isfinite(scale).all():
        raise ValueError("non-finite channel matrix")
    order = np.zeros(residual.shape[:-1], dtype=np.int64)
    for k in range(4):
        norms = np.sqrt(np.sum(np.abs(residual) ** 2, axis=-2))
        np.put_along_axis(norms, order[..., :k], np.inf, axis=-1)  # the placed columns
        least = norms.min(axis=-1, keepdims=True)
        require_full_rank(least, scale)
        col = np.argmax(norms <= least + ZERO_TOLERANCE * scale, axis=-1, keepdims=True)
        order[..., k:k + 1] = col
        q = np.take_along_axis(residual, col[..., None, :], axis=-1) / least[..., None]
        residual -= q * (np.conj(q).swapaxes(-1, -2) @ residual)
    return order


def fast_ordering(h) -> tuple:
    """Fast's BLAST rule on a stack ``h`` (..., 4, 4): each matrix's order in
    FAST_PERMUTATIONS whose R has the largest least diagonal (the first
    among scores within ZERO_TOLERANCE * ||H||_F of it), and the stack's
    QRFactors in those orders, from one ``qr_decompose`` of all eight."""
    h = np.asarray(h, dtype=complex)
    perms = np.array(FAST_PERMUTATIONS)
    # h[..., perms] is (..., 4, 8, 4): h in each order, as (..., 8, 4, 4)
    factors = qr_decompose(np.moveaxis(h[..., perms], -2, -3))
    scores = np.diagonal(factors.r, axis1=-2, axis2=-1).real.min(axis=-1)
    bound = ZERO_TOLERANCE * frobenius_norm(h)[..., None]
    best = np.argmax(scores >= scores.max(axis=-1, keepdims=True) - bound, axis=-1)
    pick = best[..., None, None, None]
    q, r = (np.take_along_axis(f, pick, axis=-3)[..., 0, :, :] for f in (factors.q, factors.r))
    return perms[best], QRFactors(q=q, r=r)


def greedy_ordering(h) -> tuple:
    """Sphere's BLAST rule on a stack ``h`` (n, 4, 4): ``blast_ordering``'s
    orders and the stack's QRFactors in them."""
    order = blast_ordering(h)
    return order, qr_decompose(np.take_along_axis(h, order[..., None, :], axis=-1))
