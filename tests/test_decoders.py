import itertools
import math
import tracemalloc

import numpy as np
import pytest

import stcsim as st
from stcsim import decoders as dec
from stcsim.matrixkit import ZERO_TOLERANCE, frobenius_norm, qr_decompose

import conftest
from conftest import (
    children_in_order,
    decode_alone,
    decode_one,
    decode_unpruned,
    near_tie,
    permuted,
    random_alamouti_instance,
    random_golden_instance,
    real_search,
    recompute_cost,
    reference_alamouti_stack,
    reference_fast_stack,
    reference_sphere_decode,
    reference_sphere_stack,
    rows,
    slice_pam,
    sorted_pam_list,
    walk_pairs,
)


def test_exhaustive_noiseless_and_count(rng):
    eff, y, alphabet, idx = random_golden_instance(rng, 4)
    y = eff.h @ alphabet.symbols[idx]  # noiseless
    r = decode_one("exhaustive", eff, y, alphabet)
    assert r.indices == tuple(idx)
    assert r.cost <= 1e-20
    assert r.nodes_visited == 256
    assert np.array_equal(r.x_hat, alphabet.symbols[list(idx)])
    alone = dec.decode_exhaustive(eff, y, alphabet)  # the per-instance call the tracer wraps
    assert (alone.indices, alone.cost.hex(), alone.nodes_visited) == (
        r.indices, r.cost.hex(), r.nodes_visited
    )


def test_exhaustive_cap():
    eff = st.EffectiveChannel(h=np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="cap"):
        decode_one("exhaustive", eff, np.zeros(4), st.make_qam(256))


def test_exhaustive_is_global_minimum_by_full_scan(rng):
    eff, y, alphabet, _ = random_golden_instance(rng, 4, snr_db=3.0)
    r = decode_one("exhaustive", eff, y, alphabet)
    # independent scan oracle over all 256 candidates
    best = math.inf
    for i1 in range(4):
        for i2 in range(4):
            for i3 in range(4):
                for i4 in range(4):
                    x = alphabet.symbols[[i1, i2, i3, i4]]
                    best = min(best, recompute_cost(eff, y, x))
    assert r.cost == pytest.approx(best, abs=1e-12)


def test_exhaustive_tie_breaks_lexicographically():
    eff = st.EffectiveChannel(h=np.eye(4, dtype=complex))
    alphabet = st.make_qam(4)
    # y = 0 ties all 256 candidates (constant-modulus alphabet)
    r = decode_one("exhaustive", eff, np.zeros(4, dtype=complex), alphabet)
    assert r.indices == (0, 0, 0, 0)


@pytest.mark.parametrize("variant", st.GOLDEN_VARIANTS)
def test_fast_noiseless_recovery(rng, variant):
    for model in ("quasistatic", "rapid"):
        eff, _, alphabet, idx = random_golden_instance(rng, 16, variant, model)
        y = eff.h @ alphabet.symbols[idx]
        r = decode_one("fast", eff, y, alphabet)
        assert r.indices == tuple(idx)
        assert r.cost <= 1e-18
        assert r.full_sorts == 2


@pytest.mark.parametrize("m", (4, 16))
def test_fast_matches_exhaustive(rng, m):
    trials = 200 if m == 4 else 40
    for t in range(trials):
        model = ("quasistatic", "rapid", "markov")[t % 3]
        alphabet = st.make_qam(m)
        h = st.sample_channel(rng, model, rho=0.7 if model == "markov" else None)
        idx = rng.integers(0, m, 4)
        eff = st.effective_channel(h, "golden-dv")
        y = eff.h @ alphabet.symbols[idx] + st.stack_samples(
            st.sample_noise(rng, st.snr_to_n0(float(rng.integers(0, 21)))), "golden-dv"
        )
        ref = decode_one("exhaustive", eff, y, alphabet)
        fast = decode_one("fast", eff, y, alphabet)
        assert abs(fast.cost - ref.cost) <= 1e-9
        assert fast.full_sorts == 2
        assert abs(fast.cost - recompute_cost(eff, y, fast.x_hat)) <= 1e-9


def test_fast_all_allowed_permutations_are_exact(rng):
    alphabet = st.make_qam(4)
    others = set(itertools.permutations(range(4))) - set(dec.FAST_PERMUTATIONS)
    for _ in range(25):
        eff, y, _, _ = random_golden_instance(rng, 4, model="rapid", snr_db=6.0)
        ref = decode_one("exhaustive", eff, y, alphabet).cost
        for perm in dec.FAST_PERMUTATIONS:
            r = decode_one("fast", permuted(eff, perm), y, alphabet)
            assert abs(r.cost - ref) <= 1e-9
        # any other column order loses the real diagonal blocks of R
        for perm in others:
            with pytest.raises(ValueError, match="golden structure"):
                decode_one("fast", permuted(eff, perm), y, alphabet)


def _exhaustive_per_leading_symbol(eff, y, alphabet):
    """Reference scan: one numpy pass per leading symbol x1; a later pass
    wins only at a strictly lower cost."""
    h = eff.h
    syms = alphabet.symbols
    contrib = [np.outer(h[:, t], syms) for t in range(4)]
    tail = (
        contrib[1][:, :, None, None]
        + contrib[2][:, None, :, None]
        + contrib[3][:, None, None, :]
    )
    best_cost, best_idx = math.inf, None
    for i1 in range(len(syms)):
        resid = (y - contrib[0][:, i1])[:, None, None, None] - tail
        costs = np.sum(resid.real ** 2 + resid.imag ** 2, axis=0)
        flat = int(np.argmin(costs))
        if costs.flat[flat] < best_cost:
            best_cost = float(costs.flat[flat])
            best_idx = (i1, *(int(i) for i in np.unravel_index(flat, costs.shape)))
    return best_idx, best_cost


@pytest.mark.parametrize("m", (4, 16))
@pytest.mark.parametrize("variant", ("golden-dv", "overlaid-alamouti"))
def test_exhaustive_blocks_equal_per_symbol_scan(rng, m, variant):
    alphabet = st.make_qam(m)
    for trial in range(30 if m == 4 else 6):
        h = st.effective_channel(st.sample_channel(rng, "quasistatic"), variant).h
        sent = alphabet.symbols[rng.integers(0, m, 4)]
        # y = 0 ties x with -x; a zero column ties its symbol exactly M ways,
        # across passes for column 0 at 16-QAM, so the smallest index wins
        cases = [(h, h @ sent, None), (h, np.zeros(4, dtype=complex), None)]
        for col in (0, 3):
            dead = h.copy()
            dead[:, col] = 0.0
            cases.append((dead, dead @ sent, col))
        for matrix, y, tied in cases:
            eff = st.EffectiveChannel(h=matrix)
            got = decode_one("exhaustive", eff, y, alphabet)
            want_idx, want_cost = _exhaustive_per_leading_symbol(eff, y, alphabet)
            assert got.indices == want_idx
            assert got.cost.hex() == want_cost.hex()
            if tied is not None:
                assert got.indices[tied] == 0


@pytest.mark.parametrize("block", (2 ** 10, 2 ** 14, 2 ** 18))
@pytest.mark.parametrize(
    "m, count", ((4, 1), (4, 15), (4, 16), (4, 17), (4, 38), (16, 3))
)
def test_exhaustive_stack_equals_per_symbol_scan(rng, monkeypatch, m, count, block):
    """The stacked scan equals the per-symbol reference scan on each instance,
    bit for bit, for stacks that straddle pass boundaries (16 instances per
    pass at 4-QAM and the default bound) and for other pass bounds; no pass
    holds more than EXHAUSTIVE_BLOCK residual entries, or one row's."""
    monkeypatch.setattr(dec, "EXHAUSTIVE_BLOCK", block)
    passes = []
    scan_block = dec._scan_block

    def recording(matrices, received, syms, step, planes):
        passes.append(4 * len(matrices) * step * m ** 3)
        return scan_block(matrices, received, syms, step, planes)

    monkeypatch.setattr(dec, "_scan_block", recording)
    alphabet = st.make_qam(m)
    chs = [st.sample_channel(rng, "quasistatic") for _ in range(count)]
    matrices = st.effective_matrix(np.stack(chs), "golden-dv")
    received = _received(rng, matrices, alphabet, "golden-dv", [3.0 * k for k in range(count)])
    # ties in the middle of the stack: y = 0 ties x with -x, and a zero
    # column ties its symbol M ways, so the smallest index wins
    mid = count // 2
    dead = min(mid + 1, count - 1)
    received[mid] = 0.0
    matrices[dead, :, 0] = 0.0
    results = dec.decode_exhaustive_stack(matrices, received, alphabet)
    assert results.indices.shape == (count, 4)
    assert passes and max(passes) <= max(block, 4 * m ** 3)
    for h, y, got in zip(matrices, received, rows(results)):
        eff = st.EffectiveChannel(h=h)
        want_idx, want_cost = _exhaustive_per_leading_symbol(eff, y, alphabet)
        assert got.indices == want_idx
        assert got.cost.hex() == want_cost.hex()
        assert got.x_hat.tobytes() == alphabet.symbols[list(want_idx)].tobytes()
        assert (got.nodes_visited, got.full_sorts) == (m ** 4, 0)
        assert abs(got.cost - recompute_cost(eff, y, got.x_hat)) <= 1e-9
    assert results.indices[dead, 0] == 0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_one_bad_instance_makes_the_exhaustive_stack_raise(rng):
    """One bad instance in the middle of a stack makes the whole stack raise."""
    alphabet = st.make_qam(4)
    chs = [st.sample_channel(rng, "quasistatic") for _ in range(20)]
    matrices = st.effective_matrix(np.stack(chs), "golden-dv")
    received = _received(rng, matrices, alphabet, "golden-dv", [10.0] * 20)
    with pytest.raises(ValueError, match="cap"):
        dec.decode_exhaustive_stack(matrices, received, st.make_qam(256))
    for bad in (math.nan, math.inf):
        h = matrices.copy()
        h[10, 2, 1] = bad
        with pytest.raises(ValueError, match="non-finite channel matrix"):
            dec.decode_exhaustive_stack(h, received, alphabet)
        y = received.copy()
        y[10, 3] = bad
        with pytest.raises(ValueError, match="non-finite received stack y"):
            dec.decode_exhaustive_stack(matrices, y, alphabet)
    y = received.copy()
    y[17] = (1e200, 1e200, 0.0, 0.0)  # finite, but every cost of instance 17 overflows
    with pytest.raises(ValueError, match="overflowed"):
        dec.decode_exhaustive_stack(matrices, y, alphabet)


def zigzag_centres(pam) -> list:
    """Centres c for x2's zigzag: random ones, every level, every midpoint
    between levels (where two neighbours are equally near) and two beyond
    the grid."""
    midpoints = [pam.scale * 2.0 * k for k in range(-(pam.size // 2) + 1, pam.size // 2)]
    return [*np.random.default_rng(3).uniform(-1.5, 1.5, 60), *pam.values, *midpoints,
            -10.0, 10.0]


@pytest.mark.parametrize("m", st.SUPPORTED_QAM_ORDERS)
def test_real_search_visits_x2_in_zigzag_order(monkeypatch, m):
    pam = st.make_qam(m).pam
    seen = []

    def recording(x, p):
        seen.append(x)
        return slice_pam(x, p)

    monkeypatch.setattr(conftest, "slice_pam", recording)
    for c in zigzag_centres(pam):
        for r22 in (1.0, 0.5):
            v2 = float(c) * r22
            seen.clear()
            # v1 = 0 and r11 = r12 = 1: the x1 slice after candidate x2 sees -x2
            _, _, nodes = real_search(0.0, v2, 1.0, 1.0, r22, pam, False, math.inf)
            assert nodes == 2 * pam.size
            assert seen[-pam.size:] == [-s for s, _ in sorted_pam_list(v2 / r22, pam)]


@pytest.mark.parametrize("m", st.SUPPORTED_QAM_ORDERS)
def test_search_planes_step_x2_in_zigzag_order(m):
    """The stacked real searches step each lane's zigzag as the scalar
    search does, the lower level first on equal distances: unpruned, each
    lane's x2 plane is the reference zigzag of its centre."""
    pam = st.make_qam(m).pam
    centres = np.array(zigzag_centres(pam))
    n = len(centres)
    ones = np.ones(n)
    for r22 in (1.0, 0.5):
        v2 = centres * r22
        _, start = dec._slice_planes(v2 / r22, pam)
        _, planes = dec._search_planes(0 * ones, v2, ones, ones, r22 * ones, 0 * ones, start,
                                       np.full(n, math.inf), pam, False)
        for lane, c in enumerate(v2 / r22):
            assert planes[3, lane].tolist() == [i for _, i in sorted_pam_list(c, pam)]


def test_fast_rejects_bad_inputs(rng):
    eff, y, alphabet, _ = random_golden_instance(rng, 4)
    # a random matrix labelled golden lacks the real R blocks the search needs
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    fake = st.EffectiveChannel(h=h)
    with pytest.raises(ValueError, match="golden structure"):
        decode_one("fast", fake, y, alphabet)


def test_check_fast_permutation_table():
    allowed = {
        (0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 2, 3), (1, 0, 3, 2),
        (2, 3, 0, 1), (2, 3, 1, 0), (3, 2, 0, 1), (3, 2, 1, 0),
    }
    assert set(dec.FAST_PERMUTATIONS) == allowed


def _recording_walk(outer, inner, prune, totals=None):
    """Run conftest's walk_pairs with a leading callback that records every call."""
    calls = []

    def leading(k, l, tail, best):
        calls.append((k, l, tail, best))
        total = tail + (totals[k][l] if totals else 0.0)
        return total, (k, l), 0

    return walk_pairs(outer, inner, leading, prune), calls


def test_walk_pairs_unpruned_visits_every_pair_in_tail_order():
    outer = [0.0, 0.5, 0.5, 2.0]
    inner = [0.1, 0.1, 1.0, 3.0]
    (best, pick, nodes), calls = _recording_walk(outer, inner, prune=False)
    assert sorted((k, l) for k, l, _, _ in calls) == [(k, l) for k in range(4) for l in range(4)]
    tails = [tail for _, _, tail, _ in calls]
    assert tails == sorted(tails)
    assert all(tail == outer[k] + inner[l] for k, l, tail, _ in calls)
    assert all(b == math.inf for _, _, _, b in calls)  # no pruning: nothing to beat
    assert nodes == 4 + 16  # M + M^2 walk nodes
    assert (best, pick) == (0.1, (0, 0))


def test_walk_pairs_pruned_stops_at_first_tail_above_best():
    outer = [0.0, 0.5, 0.5, 2.0]
    inner = [0.1, 0.1, 1.0, 3.0]
    totals = [[5.0, 0.3, 0.0, 0.0], [0.0] * 4, [0.0] * 4, [0.0] * 4]
    (best, pick, nodes), calls = _recording_walk(outer, inner, True, totals)
    # pops (0,0) 5.1, (0,1) 0.4 best, then (1,0) 0.6 > 0.4 ends the walk
    assert [(k, l) for k, l, _, _ in calls] == [(0, 0), (0, 1)]
    assert [b for _, _, _, b in calls] == [math.inf, 5.1]
    assert (best, pick) == (0.4, (0, 1))
    assert nodes == 2 + 1 + 2  # rows 0 and 1 first popped, three pops


@pytest.mark.parametrize(
    "m,expected",
    [(4, 4 + 16 + 128), (16, 16 + 256 + 4096), (64, 64 + 4096 + 131072),
     (256, 256 + 65536 + 4194304)],
)
def test_fast_worst_case_node_formula(rng, m, expected):
    """With pruning disabled the stack call visits M + M^2 + 4 * M^2.5 nodes
    per instance exactly (4.26 million at 256-QAM); with pruning no more,
    for the same cost."""
    alphabet = st.make_qam(m)
    matrices = st.effective_matrix(st.sample_channels(rng, "quasistatic", 2), "golden-dv")
    r, z = dec.triangular_rows(matrices, _received(rng, matrices, alphabet, "golden-dv", [5.0] * 2))
    for full, pruned in zip(rows(dec.decode_fast_stack(r, z, alphabet, prune=False)),
                            rows(dec.decode_fast_stack(r, z, alphabet))):
        assert full.nodes_visited == expected
        assert pruned.nodes_visited <= expected
        assert abs(pruned.cost - full.cost) <= 1e-12


def test_fast_stack_memory_is_bounded_by_its_passes(rng):
    """A pass of the stack walk holds at most PAIR_BLOCK pops, whatever the
    stack's size: a 1024-instance 256-QAM stack peaks far below the 512 MiB
    that one (n, M, M) array of its tails would take."""
    alphabet = st.make_qam(256)
    matrices = st.effective_matrix(st.sample_channels(rng, "quasistatic", 1024), "golden-dv")
    r, z = dec.triangular_rows(matrices, _received(rng, matrices, alphabet, "golden-dv",
                                                   [20.0] * 1024))
    tracemalloc.start()
    try:
        dec.decode_fast_stack(r, z, alphabet)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_sphere_matches_exhaustive_and_ordering_invariance(rng):
    alphabet = st.make_qam(4)
    for t in range(150):
        eff, y, _, _ = random_golden_instance(
            rng, 4, model=("quasistatic", "rapid")[t % 2], snr_db=float(5 + (t % 3) * 7)
        )
        ref = decode_one("exhaustive", eff, y, alphabet)
        plain = decode_one("sphere", eff, y, alphabet)
        blast = decode_one("sphere", permuted(eff, dec.blast_ordering(eff.h)), y, alphabet)
        assert abs(plain.cost - ref.cost) <= 1e-9
        assert abs(blast.cost - ref.cost) <= 1e-9
        assert abs(plain.cost - recompute_cost(eff, y, plain.x_hat)) <= 1e-9


def test_sphere_noiseless(rng):
    eff, _, alphabet, idx = random_golden_instance(rng, 16)
    y = eff.h @ alphabet.symbols[idx]
    r = decode_one("sphere", eff, y, alphabet)
    assert r.indices == tuple(idx)
    assert r.cost <= 1e-18


def test_sphere_worst_case_counters(rng):
    """With pruning disabled the stack call visits M + M^2 + 2 M^3 nodes and
    makes 1 + M + M^2 sorts per instance; with pruning no more nodes, and
    the same decision and cost bits."""
    for m in (4, 16):
        alphabet = st.make_qam(m)
        matrices = st.effective_matrix(st.sample_channels(rng, "quasistatic", 2), "golden-dv")
        y = _received(rng, matrices, alphabet, "golden-dv", [5.0] * 2)
        r, z = dec.triangular_rows(matrices, y)
        for full, pruned in zip(rows(dec.decode_sphere_stack(r, z, alphabet, prune=False)),
                                rows(dec.decode_sphere_stack(r, z, alphabet))):
            assert full.nodes_visited == m + m**2 + 2 * m**3
            assert full.full_sorts == 1 + m + m**2
            assert pruned.nodes_visited <= full.nodes_visited
            assert (pruned.indices, pruned.cost.hex()) == (full.indices, full.cost.hex())


def _argsort_children(a, b):
    """The stable-argsort child order that ``children_in_order`` must reproduce."""
    return np.argsort(np.add.outer(b, a).ravel(), kind="stable").tolist()


@pytest.mark.parametrize("width", (2, 4, 8, 16))
def test_children_in_order_matches_stable_argsort(rng, width):
    # 1e16 + 1 rounds to 1e16, so the last pool makes sums tie by rounding
    # as well as exactly; the integer pool ties sums across different a values.
    pools = (None, (0.0, 1.0, 2.0, 3.0), (0.0, 0.1, 0.2, 0.3), (0.0, 1.0, 1e16, 2e16))
    for _ in range(40):
        for pool in pools:
            if pool is None:
                a, b = rng.random(width), rng.random(width)
            else:
                a, b = rng.choice(pool, width), rng.choice(pool, width)
            a, b = a.tolist(), b.tolist()
            children = list(children_in_order(a, b))
            assert [t for _, t in children] == _argsort_children(a, b)
            sums = np.add.outer(b, a).ravel().tolist()
            assert [metric for metric, _ in children] == [sums[t] for _, t in children]


def _tie_heavy_inputs(rng, alphabet, variant, count):
    """(eff, y) pairs that make exact metric ties: noise-free y, y = 0, and y
    at PAM midpoints, on random channels and on one with R = I."""
    pam = alphabet.pam
    midpoints = [pam.scale * (v + 1.0) for v in pam.levels[:-1]]
    cases = []
    for k in range(count):
        eff = st.effective_channel(st.sample_channel(rng, "quasistatic"), variant)
        x = alphabet.symbols[rng.integers(0, alphabet.size, 4)]
        mid = np.array([complex(*rng.choice(midpoints, 2)) for _ in range(4)])
        cases += [(eff, eff.h @ x), (eff, np.zeros(4, dtype=complex)), (eff, eff.h @ mid)]
        if k == 0:
            eye = st.EffectiveChannel(h=np.eye(4))
            cases += [(eye, mid), (eye, x), (eye, np.zeros(4, dtype=complex))]
    return cases


@pytest.mark.parametrize(
    "m, count, unpruned", ((4, 12, 36), (16, 40, 12), (64, 30, 0), (256, 8, 0))
)
@pytest.mark.parametrize("variant", ("golden-dv", "overlaid-alamouti"))
def test_sphere_reproduces_reference_argsort_decoder(rng, variant, m, count, unpruned):
    # y = 0 ties x with -x exactly, so a wrong order within tied children
    # shows as a different decision or node count on a few percent of channels.
    alphabet = st.make_qam(m)
    for n, (eff, y) in enumerate(_tie_heavy_inputs(rng, alphabet, variant, count)):
        calls = [(eff, True), (permuted(eff, dec.blast_ordering(eff.h)), True)]
        if n < unpruned:
            calls.append((eff, False))
        for channel, prune in calls:
            if prune:
                got = decode_one("sphere", channel, y, alphabet)
            else:
                got = decode_unpruned(dec.decode_sphere_stack, channel, y, alphabet)
            ref = reference_sphere_decode(channel, y, alphabet, prune=prune)
            assert got.indices == ref.indices
            assert got.cost.hex() == ref.cost.hex()
            assert (got.nodes_visited, got.full_sorts) == (ref.nodes_visited, ref.full_sorts)
            assert got.x_hat.tobytes() == ref.x_hat.tobytes()


def _stacked_rows(pairs):
    """The prologue of (eff, y) pairs decoded as one stack: R and z."""
    return dec.triangular_rows(np.stack([eff.h for eff, _ in pairs]),
                               np.stack([np.asarray(y, dtype=complex) for _, y in pairs]))


@pytest.mark.parametrize("m, prune", ((4, True), (16, True), (64, True), (256, True),
                                      (4, False), (16, False)))
def test_sphere_stack_reproduces_the_scalar_search(rng, monkeypatch, m, prune):
    """The stack call's indices, cost bits, nodes and sorts are the scalar
    search's (conftest's reference): on tie-heavy golden and Alamouti inputs
    (noise-free y, y = 0 and y at PAM midpoints, and R = I), at SNRs whose
    instances end in the first, second and later rounds, and for instances
    repeated in one stack, in passes of a few nodes each, so that passes
    split both a round's root children and a node's children."""
    alphabet = st.make_qam(m)
    ties = {4: 4, 16: 3, 64: 1, 256: 1}[m] if prune else 1
    pairs = [pair for variant in ("golden-dv", "overlaid-alamouti")
             for pair in _tie_heavy_inputs(rng, alphabet, variant, ties)]
    tie_r, tie_z = _stacked_rows(pairs if prune else pairs[:4])
    count = {4: 30, 16: 24, 64: 12, 256: 4}[m] if prune else 2
    _, r, z, _ = _prologue(rng, m, np.linspace(-6.0, 30.0, count).tolist(), "golden-dv")
    r = np.concatenate([r, tie_r, r[:2]])
    z = np.concatenate([z, tie_z, z[:2]])
    rounds, passes = [], {1: 0, 2: 0}
    sphere_round, sphere_children = dec._sphere_round, dec._sphere_children

    def recording_round(roots, state, setup):
        rounds.append(len(state[0]))
        return sphere_round(roots, state, setup)

    def recording_children(level, *args):
        passes[level] += 1
        return sphere_children(level, *args)

    monkeypatch.setattr(dec, "_sphere_round", recording_round)
    monkeypatch.setattr(dec, "_sphere_children", recording_children)
    monkeypatch.setattr(dec, "SPHERE_BLOCK", (16 if m == 256 else 2) * m)  # nodes per pass
    got = rows(dec.decode_sphere_stack(r, z, alphabet, prune))
    want = reference_sphere_stack(r, z, alphabet, prune)
    assert _summaries(got) == _summaries(want)
    assert _summaries(got[-2:]) == _summaries(got[:2])
    assert passes[2] > len(rounds) and passes[1] > passes[2]
    if not prune:
        return
    # instances end in the first, second and (above 4-QAM) a later round
    assert rounds[0] == len(z) and rounds[0] > rounds[1] > 0
    assert m == 4 or rounds[1] > rounds[2] > 0


def test_sphere_stack_raises_where_the_scalar_search_raised():
    """Hand-built R and z, 4-QAM, whose level-0 residual is 0 under x4 = s
    and about 1e200 under every other x4 (|r14| = 1e200), so a leaf under
    another x4 overflows Python's ``** 2``. The search raised at the first
    such leaf it reached, even after a finite one, and not where pruning
    dropped those leaves; a non-finite residual raised in its slicer. The
    stack call raises for a stack holding any such instance, and for no
    other."""
    alphabet = st.make_qam(4)
    s = alphabet.symbols

    def instance(first, r44, r22, z2):
        r = np.diag([1.0, r22, 1.0, r44]).astype(complex)
        r[0, 3] = 1e200
        z = np.array([1e200 * s[0], z2, 0.0, r44 * s[first]])
        return r, z

    # x4 = s[0] first; with r44 = 10 every other x4 exceeds the first leaf's total
    finite = instance(0, 10.0, 1.0, 0.0)
    # x4 = s[1] first: the first leaf overflows
    overflows_first = instance(1, 10.0, 1.0, 0.0)
    # x4 = s[0] first, but z2 far off the grid (r22 = 1e-3) keeps the first
    # total above the partial sums under the next x4 (r44 = 1e-3)
    overflows_later = instance(0, 1e-3, 1e-3, 100.0)
    # r13 x3 and r14 x4 overflow: a non-finite residual at the first leaf
    nan = instance(0, 10.0, 1.0, 0.0)
    nan[0][0, 2:] = (1.7e308 + 1.7e308j, -1.7e308 + 1.7e308j)
    stack = (finite[0][None], finite[1][None])
    assert _summaries(rows(dec.decode_sphere_stack(*stack, alphabet))) == _summaries(
        reference_sphere_stack(*stack, alphabet))
    for case, message in ((overflows_first, "overflow"), (overflows_later, "overflow"),
                          (nan, "NaN")):
        stack = (case[0][None], case[1][None])
        with pytest.raises(ValueError, match=message):
            reference_sphere_stack(*stack, alphabet)
        with pytest.raises(ValueError, match="overflow"):
            dec.decode_sphere_stack(*stack, alphabet)
    stacked = [np.stack([case[part] for case in (finite, overflows_later, finite)])
               for part in (0, 1)]
    with pytest.raises(ValueError, match="overflow"):
        dec.decode_sphere_stack(*stacked, alphabet)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_residual_and_slice_term_are_the_scalar_arithmetic():
    """``_residual`` and ``_slice_term`` on ``_by_component`` parts are, bit
    for bit, Python's ``w -= r[row][j] * c_j`` on complex scalars, then
    ``slice_complex(w / d)`` and ``abs(w - d x) ** 2``, and ``bad`` holds
    exactly where those raised. The entries mix signed zeros, +-inf, inf
    products that make nan, overflowing moduli and w on exact PAM midpoints,
    among ordinary values (``x * x`` differs from ``x ** 2`` on a few)."""
    alphabet = st.make_qam(16)
    pam = alphabet.pam
    grid = np.random.default_rng(11)
    n = 2000
    z_pool = [0.0, -0.0, 0.7, -1.3, 2.0 * pam.scale, -4.0 * pam.scale, 1.5e308, math.inf]
    r_pool = [0.0, -0.0, 0.0, -0.0, 0.25, -1.5, 1e300, -math.inf]
    z = np.empty((n, 4), dtype=complex)
    r = np.empty((n, 4, 4), dtype=complex)
    for pool, planes in ((z_pool, (z.real, z.imag)), (r_pool, (r.real, r.imag))):
        for part in planes:
            plain = grid.standard_normal(part.shape) * 10.0 ** grid.uniform(-3, 3, part.shape)
            part[...] = np.where(grid.random(part.shape) < 0.5, grid.choice(pool, part.shape),
                                 plain)
    for i in range(4):  # R's real diagonal
        r[:, i, i] = grid.choice([1.0, 0.5, 1e-3, 1e150], n)
    picks = grid.integers(0, alphabet.size, (n, 4))
    syms = alphabet.symbols
    parts = dec._by_component(r, z)
    inst = grid.permutation(n)
    seen = {"midpoint": 0, "nan": 0, "raised": 0, "signed zero": 0}
    for row in range(3):
        columns = [(j, syms.real[picks[inst, j]], syms.imag[picks[inst, j]])
                   for j in range(row + 1, 4)]
        wr, wi = dec._residual(row, inst, parts, columns)
        term, index, bad = dec._slice_term(wr, wi, parts[2][row, row][inst], pam)
        bad = np.broadcast_to(bad, (n,))
        for lane, i in enumerate(inst.tolist()):
            w = complex(z[i, row])
            for j in range(row + 1, 4):
                w -= complex(r[i, row, j]) * complex(syms[picks[i, j]])
            assert (wr[lane].hex(), wi[lane].hex()) == (w.real.hex(), w.imag.hex())
            d = float(r[i, row, row].real)
            try:
                x, want_index = conftest.slice_complex(w / d, alphabet)
                want_term = abs(w - d * x) ** 2
            except (ValueError, OverflowError):
                assert bad[lane]
                seen["raised"] += 1
            else:
                assert not bad[lane]
                assert (term[lane].hex(), index[lane]) == (want_term.hex(), want_index)
                u = (w / d).real / pam.scale
                seen["midpoint"] += u % 2.0 == 0.0 and abs(u) < pam.size - 1
            seen["nan"] += math.isnan(w.real)
            seen["signed zero"] += math.copysign(1.0, w.imag) < 0 and w.imag == 0.0
    assert all(seen.values()), seen


def _pass_radii_oracle(radius, leaves, total, queries):
    """``_pass_radii`` by a Python loop: the radius of instance q at key k is
    its carried radius folded by ``np.fmin`` with the totals of its leaves
    before k, in walk order."""
    def radius_at(q, k):
        value = radius[q]
        for inst, key, t in zip(*leaves, total):
            if inst == q and key < k:
                value = t if math.isnan(value) else value if math.isnan(t) else min(value, t)
        return value

    before = [radius_at(q, k) for q, k in zip(*leaves)]
    radii = [[radius_at(q, k) for q, k in zip(*query)] for query in queries]
    return before, radii, [radius_at(q, math.inf) for q in range(len(radius))]


def test_pass_radii_matches_a_python_loop():
    """The sort-free segmented running minimum of ``_pass_radii`` is the
    Python loop's, bit for bit: per instance, with nan and inf totals and
    carried radii, queries of instances without leaves, an empty pass, and
    an instance whose first total is nan right after a smaller total of
    another instance (a complex ``fmin`` keeps the earlier pair over a nan
    one)."""
    grid = np.random.default_rng(5)
    hex_of = lambda values: [float(v).hex() for v in values]  # noqa: E731
    for count in (0, 1, 2, 5, 40, 300):
        radius = grid.choice([math.inf, math.nan, 3.0, 0.5], 6)
        inst = np.sort(grid.choice([0, 2, 3, 5], count))  # 1 and 4 have no leaves
        key = inst * 1000 + np.arange(count)  # ascending in walk order
        total = grid.choice([0.25, 1.0, 2.0, 4.0, math.inf, math.nan], count) * grid.random(count)
        queries = [(q := grid.integers(0, 6, 30), q * 1000 + grid.integers(0, 400, 30)),
                   (np.array([1, 4, 0]), np.array([1000, 4300, 0]))]
        want = _pass_radii_oracle(radius.tolist(), (inst.tolist(), key.tolist()),
                                  total.tolist(), [(q.tolist(), k.tolist()) for q, k in queries])
        before, radii = dec._pass_radii(radius, (inst, key), total, queries)
        assert hex_of(before) == hex_of(want[0])
        assert [hex_of(r) for r in radii] == [hex_of(r) for r in want[1]]
        assert hex_of(radius) == hex_of(want[2])
    # an instance whose first leaf total is nan, right after an instance with
    # a smaller total: its running minimum restarts there, nan until a total
    radius = np.full(2, math.inf)
    before, _ = dec._pass_radii(radius, (np.array([0, 0, 1, 1]), np.arange(4)),
                                np.array([3.0, 2.0, math.nan, 5.0]), [])
    assert hex_of(before) == hex_of([math.inf, 3.0, math.inf, math.inf])
    assert hex_of(radius) == hex_of([2.0, 5.0])


def _children_by_lexsort(level, nodes, limit, metric):
    """``_sphere_children``' output for child ``metric`` (k, M), ordered by
    ``np.lexsort`` on (parent, metric), which keeps ascending symbol index
    among equal metrics and puts nan metrics last within their parent."""
    inst, acc, key, path = nodes[:4]
    cum = acc[:, None] + metric
    row, t = np.nonzero(~(cum > limit[inst, None]))
    order = np.lexsort((metric[row, t], row))
    row, t = row[order], t[order]
    rank = np.arange(len(row)) - np.searchsorted(row, row)
    return (inst[row], cum[row, t], key[row] + rank * metric.shape[1] ** (level - 1),
            np.column_stack([path[row], t]), row)


def _children_of_metrics(monkeypatch, level, nodes, limit, metric):
    """``_sphere_children`` on nodes whose children have branch ``metric``."""
    monkeypatch.setattr(dec, "_sphere_residual", lambda *args: (None, None))
    monkeypatch.setattr(dec, "_child_metrics", lambda *args: metric)
    parts = (None, None, np.zeros((3, 3, len(limit))))
    values = np.zeros(math.isqrt(metric.shape[1]))
    with np.errstate(invalid="ignore"):
        return dec._sphere_children(level, nodes, limit, (parts, None, values))


def test_sphere_children_order_matches_lexsort(monkeypatch):
    """The one complex-keyed argsort orders a pass's kept children as
    ``np.lexsort((metric, parent))`` does, bit for bit in every output: with
    many equal metrics, inf and nan metrics, nan and inf partial sums and
    limits. A nan metric stays last among its parent's children."""
    same = lambda a, b: all(x.dtype == y.dtype and x.tobytes() == y.tobytes()  # noqa: E731
                            for x, y in zip(a, b))
    # parents 0 and 1 keep two children each: lexsort gives [1, 0, 3, 2]
    metric = np.array([[math.nan, 1.0, math.inf, math.inf], [2.0, 0.5, math.inf, math.inf]])
    nodes = (np.array([0, 1]), np.zeros(2), np.array([0, 64]), np.zeros((2, 1), dtype=np.int64))
    got = _children_of_metrics(monkeypatch, 2, nodes, np.full(2, 10.0), metric)
    assert got[3][:, 1].tolist() == [1, 0, 1, 0]
    assert same(got, _children_by_lexsort(2, nodes, np.full(2, 10.0), metric))
    grid = np.random.default_rng(37)
    for trial in range(200):
        m, k, count = grid.choice([4, 16, 64]), grid.integers(0, 40), grid.integers(1, 6)
        level = grid.choice([1, 2])
        metric = grid.choice([0.0, 0.5, 1.0, 2.0, math.inf, math.nan], (k, m),
                             p=[0.2, 0.3, 0.2, 0.1, 0.1, 0.1])
        metric[:, ::2] *= grid.random((k, (m + 1) // 2)) if trial % 2 else 1.0
        inst = np.sort(grid.integers(0, count, k))
        acc = grid.choice([0.0, 0.25, 1.0, math.inf, math.nan], k, p=[0.4, 0.3, 0.2, 0.05, 0.05])
        key = np.arange(k) * m ** 3
        path = grid.integers(0, m, (k, 3 - level))
        limit = grid.choice([0.5, 1.5, 3.0, math.inf, math.nan], count)
        nodes = (inst, acc, key, path)
        got = _children_of_metrics(monkeypatch, level, nodes, limit, metric)
        assert same(got, _children_by_lexsort(level, nodes, limit, metric)), trial


@pytest.mark.parametrize("ordering", ("none", "blast"))
def test_sphere_stack_costs_are_residuals(rng, ordering):
    """Every stacked sphere cost is ||y - H x_hat||^2 within 1e-9 of it, with
    the columns in their natural and in the BLAST order: the check that the
    benchmark's tracer made on each per-instance call, made on whole stacks
    through ``decode_stack``."""
    for m in (4, 16, 64):
        alphabet = st.make_qam(m)
        for variant in ("golden-dv", "overlaid-alamouti"):
            for model in ("quasistatic", "rapid"):
                matrices = st.effective_matrix(st.sample_channels(rng, model, 64), variant)
                y = _received(rng, matrices, alphabet, variant, np.linspace(-3, 30, 64))
                decoded, _ = st.harness.decode_stack(matrices, y, alphabet, ("sphere",), ordering)
                for h, received, got in zip(matrices, y, rows(decoded["sphere"])):
                    expected = recompute_cost(st.EffectiveChannel(h=h), received, got.x_hat)
                    assert abs(got.cost - expected) <= 1e-9 * expected


def test_sphere_stack_memory_is_bounded_by_its_passes(rng):
    """A pass holds at most SPHERE_BLOCK child entries and replays its own
    leaves, carrying each instance's radius to the next, so a stack's memory
    does not grow with the nodes its rounds enumerate: a 0 dB 256-QAM stack,
    whose searches visit about 10^5 nodes each, peaks below 8 MiB under
    tracemalloc."""
    alphabet = st.make_qam(256)
    matrices = st.effective_matrix(st.sample_channels(rng, "quasistatic", 8), "golden-dv")
    r, z = dec.triangular_rows(matrices, _received(rng, matrices, alphabet, "golden-dv",
                                                   [0.0] * 8))
    tracemalloc.start()
    try:
        results = dec.decode_sphere_stack(r, z, alphabet)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert results.nodes_visited.sum() > 2 * 10 ** 5
    assert peak < 8 * 2**20


def test_alamouti_fast_matches_exhaustive(rng):
    for t in range(150):
        eff, y, alphabet, _ = random_alamouti_instance(rng, 4, snr_db=float(3 + (t % 4) * 5))
        ref = decode_one("exhaustive", eff, y, alphabet)
        fast = decode_one("alamouti", eff, y, alphabet)
        assert abs(fast.cost - ref.cost) <= 1e-9
        assert abs(fast.cost - recompute_cost(eff, y, fast.x_hat)) <= 1e-9


def test_alamouti_fast_noiseless_and_counters(rng):
    eff, _, alphabet, idx = random_alamouti_instance(rng, 16)
    y = eff.h @ alphabet.symbols[idx]
    r = decode_one("alamouti", eff, y, alphabet)
    assert r.indices == tuple(idx)
    assert r.cost <= 1e-18
    m = alphabet.size
    nop = decode_unpruned(dec.decode_alamouti_stack, eff, y, alphabet)
    assert nop.nodes_visited == m + m**2 + 4 * m**2
    assert r.nodes_visited <= nop.nodes_visited


def _prologue(rng, m, snrs_db, variant="overlaid-alamouti"):
    """The alphabet, and R and z of a quasistatic ``variant`` stack, one
    instance per SNR (None: noise-free), and the symbol indices that the
    noise-free instances sent."""
    alphabet = st.make_qam(m)
    count = len(snrs_db)
    matrices = st.effective_matrix(st.sample_channels(rng, "quasistatic", count), variant)
    y = _received(rng, matrices, alphabet, variant,
                  [0.0 if snr is None else snr for snr in snrs_db])
    sent = rng.integers(0, m, (count, 4))
    noiseless = np.array([snr is None for snr in snrs_db])
    y[noiseless] = (matrices @ alphabet.symbols[sent][..., None])[noiseless, :, 0]
    return alphabet, *dec.triangular_rows(matrices, y), sent


def _summaries(results):
    return [(a.indices, a.cost.hex(), a.nodes_visited, a.full_sorts) for a in results]


def _recorded_rounds(monkeypatch, block):
    """The round (its pops) of every ``_pair_pass`` call, in the order
    made, with passes of at most ``block`` pops: a few instances each."""
    passes = []
    pair_pass = dec._pair_pass

    def recording(idx, k, l, done, pops, *args):
        passes.append(pops)
        return pair_pass(idx, k, l, done, pops, *args)

    monkeypatch.setattr(dec, "_pair_pass", recording)
    monkeypatch.setattr(dec, "PAIR_BLOCK", block)
    return passes


def _check_rounds(passes, m, prune, block):
    """The passes follow the trailing-pair walk's one schedule: 2 pops,
    then up to 4 times as many, at most ``block`` more and M^2 in all."""
    schedule = [2]
    while schedule[-1] < m * m:
        schedule.append(min(4 * schedule[-1], schedule[-1] + block, m * m))
    rounds = sorted(set(passes))
    assert len(passes) > len(rounds)  # some round spans passes
    if prune:
        # walks end in the first, second and a later round
        assert rounds[:2] == [2, 8] and len(rounds) >= 3 and set(rounds) <= set(schedule)
    else:
        assert rounds == schedule  # every walk goes on to M^2


@pytest.mark.parametrize("prune", (True, False))
@pytest.mark.parametrize("m", (4, 16, 64, 256))
def test_alamouti_stack_reproduces_the_scalar_walk(rng, monkeypatch, m, prune):
    """The stack call's indices, cost bits, nodes and sorts are the scalar
    walk's (conftest's reference), at SNRs whose instances end in the first,
    second and later rounds, for a noise-free instance, an instance whose
    tails tie exactly (z3 = z4 = 0: every symbol of one energy ties), and
    instances repeated in one stack, in passes of a few instances each."""
    count = {4: 30, 16: 30, 64: 12, 256: 4}[m] if prune else {4: 6, 16: 3, 64: 1, 256: 1}[m]
    snrs = np.linspace(-6.0, 30.0, count).tolist()
    alphabet, r, z, sent = _prologue(rng, m, snrs + [None, 10.0])
    z[-1, 2:] = 0.0
    r = np.concatenate([r, r[:2]])
    z = np.concatenate([z, z[:2]])
    # unpruned 256-QAM walks take M^2 / PAIR_BLOCK rounds: keep them few
    block = 64 if prune or m < 256 else dec.PAIR_BLOCK
    passes = _recorded_rounds(monkeypatch, block)
    got = rows(dec.decode_alamouti_stack(r, z, alphabet, prune))
    want = reference_alamouti_stack(r, z, alphabet, prune)
    assert _summaries(got) == _summaries(want)
    assert _summaries(got[-2:]) == _summaries(got[:2])
    assert got[-4].indices == tuple(sent[-2]) and got[-4].cost <= 1e-18
    _check_rounds(passes, m, prune, block)


@pytest.mark.parametrize("m", (16, 64))
def test_alamouti_stack_completes_each_pair_once(rng, monkeypatch, m):
    """Over all its rounds, the stack walk completes each (instance,
    trailing pair) at most once: a round completes only the pops after the
    earlier rounds', from the best total they carry. A completion is keyed
    by what ``_complete_pairs`` receives: the instance and the pair's
    symbol indices (inst, i3, i4), in whatever shape a pass holds them."""
    alphabet, r, z, _ = _prologue(rng, m, np.linspace(-6.0, 30.0, 40).tolist())
    completed = []
    complete_pairs = dec._complete_pairs

    def recording(tail, i3, i4, inst, parts, alphabet):
        keys = np.stack(np.broadcast_arrays(inst, i3, i4), axis=-1)
        completed.extend(map(tuple, keys.reshape(-1, keys.shape[-1]).tolist()))
        return complete_pairs(tail, i3, i4, inst, parts, alphabet)

    monkeypatch.setattr(dec, "_complete_pairs", recording)
    got = rows(dec.decode_alamouti_stack(r, z, alphabet))
    assert _summaries(got) == _summaries(reference_alamouti_stack(r, z, alphabet))
    assert len({key[:-2] for key in completed}) == len(z)
    assert len(set(completed)) == len(completed)


@pytest.mark.parametrize("m", (4, 16))
def test_fast_stack_decodes_quasistatic_alamouti_stacks(rng, m):
    """A quasistatic overlaid-Alamouti channel has real diagonal blocks in
    R too, so the fast golden decoder decodes its stacks exactly: the
    exhaustive scan's indices at every SNR, and its costs within 1e-9."""
    alphabet = st.make_qam(m)
    matrices = st.effective_matrix(st.sample_channels(rng, "quasistatic", 100),
                                   "overlaid-alamouti")
    y = _received(rng, matrices, alphabet, "overlaid-alamouti", np.linspace(-6.0, 30.0, 100))
    got = dec.decode_fast_stack(*dec.triangular_rows(matrices, y), alphabet)
    want = dec.decode_exhaustive_stack(matrices, y, alphabet)
    assert np.array_equal(got.indices, want.indices)
    assert np.all(np.abs(got.cost - want.cost) <= 1e-9)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_alamouti_stack_raises_where_the_scalar_walk_raised():
    """Hand-built R and z, 4-QAM: x3 = s completes finitely and every other
    x3 overflows |v1 - r11 x1|^2 (|r13| = 1e200). The walk raised at the
    first overflowing pair it completed, even after a finite one; the stack
    call raises for a stack holding any such instance, and for no other."""
    alphabet = st.make_qam(4)
    s = alphabet.symbols

    def instance(first_x3, r33, z2):
        r = np.diag([1.0, 1e-3, r33, 1.0]).astype(complex)
        r[0, 2] = 1e200
        z = np.array([1e200 * s[0], z2, r33 * s[first_x3], 0.5 * s[1]])
        return r, z

    # x3's tail sort puts s[0] first: it completes finitely, and with
    # r33 = 10 every other tail exceeds its total, so the walk ends
    finite = instance(0, 10.0, 0.0)
    # s[1] first: its pair overflows at once
    overflows_first = instance(1, 10.0, 0.0)
    # s[0] first, but v2 lies far off the grid (r22 = 1e-3), so the total
    # stays above the next tails (r33 = 1e-3) and an overflowing pair completes
    overflows_later = instance(0, 1e-3, 100.0)
    cases = {"finite": finite, "first": overflows_first, "later": overflows_later}
    for name, (r, z) in cases.items():
        stack = (r[None], z[None])
        if name == "finite":
            got = rows(dec.decode_alamouti_stack(*stack, alphabet))
            assert _summaries(got) == _summaries(reference_alamouti_stack(*stack, alphabet))
            continue
        for decode in (dec.decode_alamouti_stack, reference_alamouti_stack):
            with pytest.raises(ValueError, match="overflow"):
                decode(*stack, alphabet)
    stacked = [np.stack([case[part] for case in (finite, overflows_later, finite)])
               for part in (0, 1)]
    with pytest.raises(ValueError, match="overflow"):
        dec.decode_alamouti_stack(*stacked, alphabet)
    # a non-finite v (r14 x4 overflows) reaches the scalar walk's slicer as nan
    r, z = finite
    r[0, 3] = 1.5e308
    z[0] = -1.5e308
    for decode in (dec.decode_alamouti_stack, reference_alamouti_stack):
        with pytest.raises(ValueError):
            decode(r[None], z[None], alphabet)


def test_alamouti_stack_costs_are_residuals_and_exhaustive_costs(rng):
    """Every stacked alamouti cost is ||y - H x_hat||^2 and exhaustive's cost,
    each within 1e-9 of it: the check that the benchmark's tracer made on
    each per-instance call, made on whole stacks through ``decode_stack``."""
    for m in (4, 16):
        alphabet = st.make_qam(m)
        matrices = st.effective_matrix(st.sample_channels(rng, "quasistatic", 64),
                                       "overlaid-alamouti")
        y = _received(rng, matrices, alphabet, "overlaid-alamouti", np.linspace(-3, 30, 64))
        decoded, _ = st.harness.decode_stack(matrices, y, alphabet, ("exhaustive", "alamouti"),
                                             "none")
        for h, received, got, ref in zip(matrices, y, rows(decoded["alamouti"]),
                                         rows(decoded["exhaustive"])):
            expected = recompute_cost(st.EffectiveChannel(h=h), received, got.x_hat)
            assert abs(got.cost - expected) <= 1e-9 * expected
            assert abs(got.cost - ref.cost) <= 1e-9 * ref.cost


@pytest.mark.parametrize("m, prune", ((4, True), (16, True), (64, True), (256, True),
                                      (4, False), (16, False)))
def test_fast_stack_reproduces_the_scalar_walk(rng, monkeypatch, m, prune):
    """The stack call's indices, cost bits, nodes and sorts are the scalar
    walk's (conftest's reference), at SNRs whose walks end in the first,
    second and later rounds, for a noise-free instance, an instance whose
    tails tie exactly (z3 = z4 = 0: each sort metric ties a with -a), and
    instances repeated in one stack, in passes of a few instances each."""
    count = {4: 40, 16: 30, 64: 12, 256: 4}[m] if prune else {4: 6, 16: 3}[m]
    snrs = np.linspace(-6.0, 30.0, count).tolist()
    alphabet, r, z, sent = _prologue(rng, m, snrs + [None, 10.0], "golden-dv")
    z[-1, 2:] = 0.0
    r = np.concatenate([r, r[:2]])
    z = np.concatenate([z, z[:2]])
    passes = _recorded_rounds(monkeypatch, 64)
    got = rows(dec.decode_fast_stack(r, z, alphabet, prune))
    want = reference_fast_stack(r, z, alphabet, prune)
    assert _summaries(got) == _summaries(want)
    assert _summaries(got[-2:]) == _summaries(got[:2])
    assert got[-4].indices == tuple(sent[-2]) and got[-4].cost <= 1e-18
    _check_rounds(passes, m, prune, 64)


@pytest.mark.parametrize("metric", (math.inf, 0.0))
def test_fast_stack_guesses_again_after_a_bad_guess(rng, monkeypatch, metric):
    """Each pop's best before it is first guessed from the metrics of the
    evaluated searches. With those forced to inf (no pop would improve on
    the carried best) or to 0 (every pop would), the replayed totals refute
    the guess, it is made again from them until it holds, and the result is
    still the scalar walk's."""
    alphabet, r, z, _ = _prologue(rng, 16, np.linspace(-6.0, 30.0, 24).tolist(), "golden-dv")
    search_planes, replay_pops, pair_pass = dec._search_planes, dec._replay_pops, dec._pair_pass
    calls = {"replay": 0, "pass": 0}

    def forced(*args):
        best, planes = search_planes(*args)
        return np.full_like(best, metric), planes

    def counting(name, call):
        def counted(*args):
            calls[name] += 1
            return call(*args)
        return counted

    monkeypatch.setattr(dec, "_search_planes", forced)
    monkeypatch.setattr(dec, "_replay_pops", counting("replay", replay_pops))
    monkeypatch.setattr(dec, "_pair_pass", counting("pass", pair_pass))
    got = rows(dec.decode_fast_stack(r, z, alphabet))
    assert _summaries(got) == _summaries(reference_fast_stack(r, z, alphabet))
    assert calls["replay"] > calls["pass"]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_fast_stack_raises_where_the_scalar_walk_raised():
    """Hand-built R and z, 4-QAM, whose first pop has x3 = s (tail 0) and a
    finite total, while every other x3 puts |v1| near 1e200 (|r13| =
    1e200), so a real search it enters overflows Python's ``** 2``. The
    walk raised at the first such search it ran, even after a finite pop,
    and not for a pop its lower bounds dropped; a nan in v2 raised in its
    slicer. The stack call raises for a stack holding any such instance,
    and for no other."""
    alphabet = st.make_qam(4)
    s = alphabet.symbols

    def instance(first, r33, z2, r23=0.0):
        r = np.diag([1.0, 1e-3 if z2 else 1.0, r33, 1.0]).astype(complex)
        r[0, 2] = 1e200
        r[1, 2] = r23
        z = np.array([1e200 * s[first], z2 + r23 * s[0], r33 * s[0], s[0]])
        return r, z

    # with r33 = 10 every later tail exceeds the first pop's total
    finite = instance(0, 10.0, 0.0)
    # its first pop overflows at once
    overflows_first = instance(1, 10.0, 0.0)
    # v2 far off the grid (r22 = 1e-3) keeps the first total above the next
    # tails (r33 = 1e-3), whose searches overflow
    overflows_later = instance(0, 1e-3, 100.0)
    # the next tails are walked (r33 = 0.5), but r23 = 5 moves their v2 off
    # the grid, and their lower bounds drop them before any search
    dropped = instance(0, 0.5, 0.0, r23=5.0)
    # r23 x3 and r24 x4 overflow with opposite signs: a nan in v2
    nan = instance(0, 10.0, 0.0)
    nan[0][1, 2:] = (1.7e308 + 1.7e308j, -1.7e308 + 1.7e308j)
    for case in (finite, dropped):
        stack = (case[0][None], case[1][None])
        got = rows(dec.decode_fast_stack(*stack, alphabet))
        assert _summaries(got) == _summaries(reference_fast_stack(*stack, alphabet))
    for case, message in ((overflows_first, "overflow"), (overflows_later, "overflow"),
                          (nan, "NaN")):
        stack = (case[0][None], case[1][None])
        with pytest.raises(ValueError, match=message):
            reference_fast_stack(*stack, alphabet)
        with pytest.raises(ValueError, match="overflow"):
            dec.decode_fast_stack(*stack, alphabet)
    stacked = [np.stack([case[part] for case in (finite, overflows_later, dropped)])
               for part in (0, 1)]
    with pytest.raises(ValueError, match="overflow"):
        dec.decode_fast_stack(*stacked, alphabet)


@pytest.mark.parametrize("ordering", ("none", "blast"))
def test_fast_stack_costs_are_residuals(rng, ordering):
    """Every stacked fast cost is ||y - H x_hat||^2 within 1e-9 of it, with
    the columns in their natural and in the BLAST order: the check that the
    benchmark's tracer made on each per-instance call, made on whole stacks
    through ``decode_stack``."""
    for m in (4, 16, 64):
        alphabet = st.make_qam(m)
        for model in ("quasistatic", "rapid"):
            matrices = st.effective_matrix(st.sample_channels(rng, model, 64), "golden-dv")
            y = _received(rng, matrices, alphabet, "golden-dv", np.linspace(-3, 30, 64))
            decoded, _ = st.harness.decode_stack(matrices, y, alphabet, ("fast",), ordering)
            for h, received, got in zip(matrices, y, rows(decoded["fast"])):
                expected = recompute_cost(st.EffectiveChannel(h=h), received, got.x_hat)
                assert abs(got.cost - expected) <= 1e-9 * expected


def test_alamouti_fast_rejects_time_varying(rng):
    raised = 0
    for _ in range(30):
        eff, y, alphabet, _ = random_alamouti_instance(rng, 4, model="rapid")
        try:
            decode_one("alamouti", eff, y, alphabet)
        except ValueError as exc:
            assert "invalid for this channel" in str(exc)
            raised += 1
    assert raised == 30


def test_alamouti_fast_requires_alamouti_channel(rng):
    # a golden channel's r12 is not zero, whatever the label says
    eff, y, alphabet, _ = random_golden_instance(rng, 4)
    with pytest.raises(ValueError, match="invalid for this channel"):
        decode_one("alamouti", eff, y, alphabet)


@pytest.mark.parametrize("m", (4, 16))
def test_fast_on_quasistatic_alamouti_matches_exhaustive(rng, m):
    # a quasistatic overlaid-Alamouti R has zero r12 and r34, so its diagonal
    # blocks are real and the fast golden search is exact on it as well
    for t in range(60 if m == 4 else 12):
        eff, y, alphabet, _ = random_alamouti_instance(rng, m, snr_db=float(t % 4) * 4.0)
        ref = decode_one("exhaustive", eff, y, alphabet)
        fast = decode_one("fast", eff, y, alphabet)
        assert abs(fast.cost - ref.cost) <= 1e-9
        assert fast.full_sorts == 2


@pytest.mark.parametrize("scale", (1.0, 1e3))
def test_structure_bound_is_relative_to_the_channel_norm(rng, scale):
    # fast needs Im r12 = 0, and alamouti r12 = 0 on a quasistatic channel
    for name, instance, message in (
        ("fast", random_golden_instance, "golden structure"),
        ("alamouti", random_alamouti_instance, "invalid for this channel"),
    ):
        eff, _, alphabet, idx = instance(rng, 4)
        h = eff.h * scale
        factors = qr_decompose(h)
        limit = ZERO_TOLERANCE * float(frobenius_norm(h))
        for factor in (0.5, 2.0):
            r = factors.r.copy()
            r[0, 1] = r[0, 1].real + 1j * factor * limit
            rebuilt = st.EffectiveChannel(h=factors.q @ r)
            y = rebuilt.h @ alphabet.symbols[idx]
            if factor < 1.0:
                assert decode_one(name, rebuilt, y, alphabet).indices == tuple(idx)
            else:
                with pytest.raises(ValueError, match=message):
                    decode_one(name, rebuilt, y, alphabet)


def test_fast_decoders_refuse_channels_near_their_structure(rng):
    """Structural entries of R near 5e-7 ||H||_F are refused, not searched on
    a projected R whose optimum need not be ML; near 1e-14 ||H||_F, within a
    QR's rounding, the decision is exhaustive's."""
    alphabet = st.make_qam(16)
    for name, variant, message in (
        ("fast", "golden-dv", "golden structure"),
        ("alamouti", "overlaid-alamouti", "invalid for this channel"),
    ):
        for _ in range(20):
            eff, y = near_tie(rng, variant, 5e-7, alphabet)
            with pytest.raises(ValueError, match=message + r".* is \d\.\de-\d\d of "
                               r"\|\|H\|\|_F, above 1e-12$"):
                decode_one(name, eff, y, alphabet)
            eff, y = near_tie(rng, variant, 1e-14, alphabet)
            got = decode_one(name, eff, y, alphabet)
            ref = decode_one("exhaustive", eff, y, alphabet)
            assert got.indices == ref.indices
            assert abs(got.cost - ref.cost) <= 1e-9 * ref.cost


_DECODER_CASES = {
    "exhaustive": "golden-dv",
    "fast": "golden-dv",
    "sphere": "golden-dv",
    "alamouti": "overlaid-alamouti",
}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("where", ("y", "H"))
@pytest.mark.parametrize("bad", (math.nan, math.inf))
@pytest.mark.parametrize("name", tuple(_DECODER_CASES))
def test_non_finite_input_raises(rng, name, bad, where):
    variant = _DECODER_CASES[name]
    alphabet = st.make_qam(16)
    h = st.effective_channel(st.sample_channel(rng, "quasistatic"), variant).h.copy()
    y = h @ alphabet.symbols[rng.integers(0, 16, 4)]
    if where == "y":
        y[1] = bad
    else:
        h[2, 1] = bad
    message = "non-finite received stack y" if where == "y" else "non-finite channel matrix"
    for ordering in st.harness.ORDERING_MODES:  # the column order is picked first
        with pytest.raises(ValueError, match=message):
            st.harness.decode_stack(h[None], y[None], alphabet, (name,), ordering)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("name", tuple(_DECODER_CASES))
def test_overflowing_cost_raises(rng, name):
    # y and H are finite, but every squared distance exceeds the float range.
    variant = _DECODER_CASES[name]
    eff = st.effective_channel(st.sample_channel(rng, "quasistatic"), variant)
    y = np.array([1e200, 1e200, 0, 0], dtype=complex)
    with pytest.raises(ValueError, match="overflow"):
        decode_one(name, eff, y, st.make_qam(16))


def test_blast_ordering_properties(rng):
    assert dec.blast_ordering(np.eye(4, dtype=complex)).tolist() == [0, 1, 2, 3]
    stack = st.effective_matrix(st.sample_channels(rng, "rapid", 50), "golden-dv")
    order = dec.blast_ordering(stack)
    assert (order.shape, order.dtype) == ((50, 4), np.int64)
    assert (np.sort(order, axis=-1) == np.arange(4)).all()
    h = stack[0].copy()
    h[:, 2] *= 10.0
    # the boosted column is detected first, i.e. placed last in column order
    assert dec.blast_ordering(h)[3] == 2


def test_blast_ordering_rejects_a_zero_matrix():
    # a RuntimeWarning (a division by a zero pivot) fails the test before the ValueError
    for rule in (dec.blast_ordering, dec.fast_ordering, dec.greedy_ordering):
        for zeros in (np.zeros((4, 4)), np.zeros((3, 4, 4))):
            with pytest.raises(ValueError, match="degenerate channel"):
                rule(zeros)
    with pytest.raises(ValueError, match="degenerate channel"):
        st.harness.decode_stack(np.zeros((2, 4, 4)), np.zeros((2, 4)), st.make_qam(4),
                                ("sphere",), "blast")


def test_blast_ordering_rejects_a_non_finite_matrix(rng):
    matrices = st.effective_matrix(st.sample_channels(rng, "rapid", 3), "golden-dv")
    received = np.zeros((3, 4), dtype=complex)
    for bad in (np.nan, np.inf):
        matrices[1, 2, 3] = bad
        for rule in (dec.blast_ordering, dec.fast_ordering):
            with pytest.raises(ValueError, match="non-finite channel matrix"):
                rule(matrices)
        for names in (("fast",), ("sphere",), ("exhaustive", "fast", "sphere")):
            with pytest.raises(ValueError, match="non-finite channel matrix"):
                st.harness.decode_stack(matrices, received, st.make_qam(4), names, "blast")


def test_blast_ordering_restricted_to_fast_set(rng):
    for _ in range(25):
        eff, _, _, _ = random_golden_instance(rng, 4, model="rapid")
        assert tuple(dec.fast_ordering(eff.h)[0].tolist()) in dec.FAST_PERMUTATIONS


@pytest.mark.parametrize("m", (4, 16))
def test_worst_case_dominance_over_trial_set(rng, m):
    fast_cap = m + m**2 + 4 * m**2 * math.isqrt(m)
    alam_cap = m + m**2 + 4 * m**2
    worst_fast = 0
    worst_alam = 0
    for t in range(120):
        snr = float(t % 12)  # low SNR stresses the search
        eff, y, alphabet, _ = random_golden_instance(rng, m, model="rapid", snr_db=snr)
        worst_fast = max(worst_fast, decode_one("fast", eff, y, alphabet).nodes_visited)
        effa, ya, alphabeta, _ = random_alamouti_instance(rng, m, snr_db=snr)
        worst_alam = max(worst_alam, decode_one("alamouti", effa, ya, alphabeta).nodes_visited)
    assert worst_fast <= fast_cap
    assert worst_alam <= alam_cap


@pytest.mark.parametrize("model", ("quasistatic", "rapid"))
def test_fast_and_sphere_agree_on_64qam(rng, model):
    for t in range(40):
        eff, y, alphabet, _ = random_golden_instance(rng, 64, model=model, snr_db=10.0 + t % 15)
        fast = decode_one("fast", eff, y, alphabet)
        sphere = decode_one("sphere", eff, y, alphabet)
        assert fast.indices == sphere.indices
        assert abs(fast.cost - sphere.cost) <= 1e-9 * sphere.cost


def test_radius_equals_cost_and_monotone_updates(rng):
    # final cost equals the independently recomputed distance for all decoders
    eff, y, alphabet, _ = random_golden_instance(rng, 16, snr_db=8.0)
    for name in ("fast", "sphere", "exhaustive"):
        result = decode_one(name, eff, y, alphabet)
        assert abs(result.cost - recompute_cost(eff, y, result.x_hat)) <= 1e-9

    effa, ya, alphabeta, _ = random_alamouti_instance(rng, 16, snr_db=8.0)
    ra = decode_one("alamouti", effa, ya, alphabeta)
    assert abs(ra.cost - recompute_cost(effa, ya, ra.x_hat)) <= 1e-9


def _received(rng, matrices, alphabet, variant, snrs_db):
    """Noisy received stacks for stacked matrices, one SNR per matrix."""
    idx = rng.integers(0, alphabet.size, (len(matrices), 4))
    noise = [st.codes.stack_samples(st.sample_noise(rng, st.snr_to_n0(snr)), variant)
             for snr in snrs_db]
    return (matrices @ alphabet.symbols[idx][..., None])[..., 0] + np.array(noise)


@pytest.mark.parametrize("variant", st.CODE_VARIANTS)
def test_batch_decodes_equal_decodes_made_alone(rng, variant):
    """A batch decode (one stacked build, column-order choice and prologue,
    each decode handed its row) equals every channel built, ordered and
    decoded alone, for each registry decoder of the variant under both
    orderings; and each x_hat is its indices' symbols, byte for byte."""
    alphabet = st.make_qam(16)
    names = [name for name, entry in st.harness.DECODERS.items() if variant in entry.code_variants]
    for snr_db in (0.0, 8.0, 16.0, 24.0):
        chs = [st.sample_channel(rng, "quasistatic") for _ in range(6)]
        stacked = st.effective_matrix(np.stack(chs), variant)
        y = _received(rng, stacked, alphabet, variant, [snr_db] * len(chs))
        for ordering in st.harness.ORDERING_MODES:
            decoded, _ = st.harness.decode_stack(stacked, y, alphabet, names, ordering)
            for k, h in enumerate(chs):
                plain = st.effective_channel(h, variant)
                for name in names:
                    a = decode_alone(name, plain, y[k], alphabet, ordering)
                    b = decoded[name].row(k)
                    assert (a.indices, repr(a.cost), a.nodes_visited, a.full_sorts) == (
                        b.indices, repr(b.cost), b.nodes_visited, b.full_sorts
                    )
                    assert a.x_hat.tobytes() == b.x_hat.tobytes()
                    assert b.x_hat.tobytes() == alphabet.symbols[list(b.indices)].tobytes()


@pytest.mark.parametrize("variant", st.GOLDEN_VARIANTS)
def test_blast_ordering_restricted_equals_per_permutation_loop(rng, variant):
    for model in ("quasistatic", "rapid", "markov"):
        stack = st.effective_matrix(st.sample_channels(rng, model, 20, 0.5), variant)
        for h in stack:
            scores = conftest.fast_scores_alone(h)
            best = conftest.first_tied(scores, max(scores), frobenius_norm(h))
            assert tuple(dec.fast_ordering(h)[0].tolist()) == dec.FAST_PERMUTATIONS[best]
        # a stack scores all its matrices' permutations at once, and each
        # matrix gets the order and factors it gets alone; so does the greedy rule
        order, factors = dec.fast_ordering(stack)
        alone = [dec.fast_ordering(h) for h in stack]
        assert order.tolist() == [o.tolist() for o, _ in alone]
        assert factors.q.tobytes() == np.array([f.q for _, f in alone]).tobytes()
        assert factors.r.tobytes() == np.array([f.r for _, f in alone]).tobytes()
        assert dec.blast_ordering(stack).tolist() == [dec.blast_ordering(h).tolist()
                                                      for h in stack]


@pytest.mark.parametrize("variant", st.CODE_VARIANTS)
def test_blast_ordering_matches_the_scalar_greedy_loop(rng, variant):
    for model in ("quasistatic", "rapid", "markov"):
        stack = st.effective_matrix(st.sample_channels(rng, model, 200, 0.5), variant)
        want = [list(conftest.greedy_order_alone(h)) for h in stack]
        assert dec.blast_ordering(stack).tolist() == want


@pytest.mark.parametrize("variant", st.CODE_VARIANTS)
def test_blast_rules_pick_the_first_of_tied_orders(rng, variant):
    """On quasistatic channels the effective columns' norms tie in pairs
    (golden codes: columns 0 and 3, 1 and 2) or all four (overlaid
    Alamouti), and fast's scores tie in groups: each rule takes the first of
    its tied orders, so the order does not hang on rounding."""
    stack = st.effective_matrix(st.sample_channels(rng, "quasistatic", 400), variant)
    order = dec.blast_ordering(stack)
    if variant == "overlaid-alamouti":
        assert (order[:, 0] == 0).all() and (order[:, 2] == 1).all()
        return
    assert set(order[:, 0].tolist()) == {0, 1}  # never the tied partner 3 or 2
    fast_order, _ = dec.fast_ordering(stack)
    ties = 0
    for h, got in zip(stack, fast_order.tolist()):
        scores = conftest.fast_scores_alone(h)
        tied = [i for i, score in enumerate(scores)
                if score >= max(scores) - ZERO_TOLERANCE * frobenius_norm(h)]
        ties += len(tied) > 1
        assert tuple(got) == dec.FAST_PERMUTATIONS[tied[0]]
    assert ties == len(stack)


@pytest.mark.parametrize("model", ("quasistatic", "rapid"))
@pytest.mark.parametrize("variant", st.CODE_VARIANTS)
def test_blast_orders_do_not_move_when_a_column_is_scaled(rng, variant, model):
    """Scaling a column by 1 + 1e-14, far inside the tie rule, moves neither
    rule's order: before the tie rule, the orders of about half of
    quasistatic golden channels moved so."""
    stack = st.effective_matrix(st.sample_channels(rng, model, 300), variant)
    rules = [dec.blast_ordering]
    if variant in st.GOLDEN_VARIANTS:
        rules.append(lambda h: dec.fast_ordering(h)[0])
    for rule in rules:
        want = rule(stack)
        for col in range(4):
            scaled = stack.copy()
            scaled[:, :, col] *= 1 + 1e-14
            assert (rule(scaled) == want).all()


def _chunk(rng, variant, model, m, count=8):
    """A sweep-like stack: channels, their matrices and noisy received stacks at 0 to 21 dB."""
    alphabet = st.make_qam(m)
    chs = [st.sample_channel(rng, model) for _ in range(count)]
    matrices = st.effective_matrix(np.stack(chs), variant)
    channels = [st.EffectiveChannel(h=h) for h in matrices]
    y = _received(rng, matrices, alphabet, variant, [3.0 * k for k in range(count)])
    return alphabet, channels, matrices, y


def _reference_sorts(variant, alphabet, r, z):
    """The two sorts as each decode made them alone: scalar R and z, one 1-D metric each."""
    r33, r34, r44 = r[2][2].real, r[2][3].real, r[3][3].real
    if variant == "overlaid-alamouti":
        metrics = (abs(z[3] - r44 * alphabet.symbols) ** 2,
                   abs(z[2] - r33 * alphabet.symbols) ** 2)
    else:
        a = alphabet.symbols
        metrics = ((z[2].real - r33 * a.real - r34 * a.imag) ** 2 + (z[3].real - r44 * a.imag) ** 2,
                   (z[2].imag - r33 * a.real - r34 * a.imag) ** 2 + (z[3].imag - r44 * a.imag) ** 2)
    out = ()
    for values in metrics:
        order = np.argsort(values, kind="stable")
        out += (order.tolist(), values[order].tolist())
    return out


@pytest.mark.parametrize("m", (4, 16, 64))
@pytest.mark.parametrize("model", ("quasistatic", "rapid"))
@pytest.mark.parametrize("variant", st.CODE_VARIANTS)
def test_stacked_prologue_is_exact(rng, monkeypatch, variant, model, m):
    alamouti = variant == "overlaid-alamouti"
    name = "alamouti" if alamouti else "fast"
    structured = not (alamouti and model == "rapid")
    alphabet, channels, matrices, y = _chunk(rng, variant, model, m)
    r_stack, z = dec.triangular_rows(matrices, y)
    prologue = list(zip(r_stack.tolist(), z.tolist()))
    spheres = rows(dec.decode_sphere_stack(r_stack, z, alphabet))
    stacked = sorted_rows = [None] * len(prologue)
    if not structured:
        with pytest.raises(ValueError, match="invalid for this channel"):
            dec.decode_alamouti_stack(r_stack, z, alphabet)
    else:
        # the stack call sorts inside: record its two sorts as per-trial lists
        sorts = []
        sort_alphabet_by_metric = dec.sort_alphabet_by_metric

        def recording_sort(*args):
            sorts.extend(sort_alphabet_by_metric(*args))
            return tuple(sorts[-2:])

        monkeypatch.setattr(dec, "sort_alphabet_by_metric", recording_sort)
        stack_call = dec.decode_alamouti_stack if alamouti else dec.decode_fast_stack
        stacked = rows(stack_call(r_stack, z, alphabet))
        monkeypatch.undo()
        sorted_rows = list(zip(*(part.tolist() for part in sorts)))
    for eff, received, row, sorted_row, result, sphere in zip(channels, y, prologue, sorted_rows,
                                                              stacked, spheres):
        factors = qr_decompose(eff.h)
        r = factors.r.tolist()
        z_alone = (factors.q.conj().T @ received).tolist()
        # repr tells apart every float that == does not (-0.0), so this is bit for bit.
        assert repr(row) == repr((r, z_alone))
        calls = [("sphere", sphere)]
        if structured:
            assert repr(sorted_row) == repr(_reference_sorts(variant, alphabet, r, z_alone))
            calls.append((name, result))
        else:
            with pytest.raises(ValueError, match="invalid for this channel"):
                decode_one(name, eff, received, alphabet)

        # the stacked prologue's row decodes as a stack of one does
        for call_name, a in calls:
            b = decode_one(call_name, eff, received, alphabet)
            assert (a.indices, repr(a.cost), a.nodes_visited, a.full_sorts) == (
                b.indices, repr(b.cost), b.nodes_visited, b.full_sorts
            )
            assert a.x_hat.tobytes() == b.x_hat.tobytes()
            assert a.full_sorts == 2 or call_name == "sphere"


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_prologue_checks_each_precondition_once_per_stack(rng, monkeypatch):
    alphabet, _, matrices, y = _chunk(rng, "golden-dv", "quasistatic", 16, count=3)
    nan_y = y.copy()
    nan_y[1, 2] = math.nan
    with pytest.raises(ValueError, match="non-finite received stack y"):
        dec.triangular_rows(matrices, nan_y)
    with pytest.raises(ValueError, match="degenerate"):
        dec.triangular_rows(np.zeros((3, 4, 4)), y)
    # one matrix of the stack without the real diagonal blocks of R
    unstructured = matrices.copy()
    unstructured[2] = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(ValueError, match="golden structure"):
        dec.decode_fast_stack(*dec.triangular_rows(unstructured, y), alphabet)
    # one rapid Alamouti channel among quasistatic ones
    _, _, alamouti, y_al = _chunk(rng, "overlaid-alamouti", "quasistatic", 16, count=3)
    alamouti[1] = _chunk(rng, "overlaid-alamouti", "rapid", 16, count=1)[2][0]
    with pytest.raises(ValueError, match="invalid for this channel"):
        dec.decode_alamouti_stack(*dec.triangular_rows(alamouti, y_al), alphabet)

    # The batch path raises before its first decode, for every decoder: the
    # exhaustive stack call decodes in blocks, and the alamouti, fast and
    # sphere stack calls walk in passes or rounds, after their checks.
    calls = []
    for pass_name in ("_scan_block", "_complete_pairs", "_pair_pass", "_sphere_round"):
        run_pass = getattr(dec, pass_name)
        monkeypatch.setattr(dec, pass_name,
                            lambda *args, run_pass=run_pass: calls.append(args) or run_pass(*args))
    nan_y_al = y_al.copy()
    nan_y_al[0, 0] = math.nan
    cases = [("golden-dv", matrices, nan_y, name, "non-finite received stack y")
             for name in ("exhaustive", "fast", "sphere")]
    cases += [
        ("overlaid-alamouti", alamouti, nan_y_al, "alamouti", "non-finite received stack y"),
        ("golden-dv", unstructured, y, "fast", "golden structure"),
        ("overlaid-alamouti", alamouti, y_al, "alamouti", "invalid for this channel"),
    ]
    for variant, stack, received, name, message in cases:
        for ordering in st.harness.ORDERING_MODES:
            with pytest.raises(ValueError, match=message):
                st.harness.decode_stack(stack, received, alphabet, (name,), ordering)
    assert calls == []
    # a stack that passes reaches the patched passes: at 16-QAM the
    # exhaustive scan's blocks hold one instance each, and the sphere
    # search's first round holds the first root child of every instance
    st.harness.decode_stack(matrices, y, alphabet, ("exhaustive",), "none")
    assert len(calls) == len(matrices)
    calls.clear()
    st.harness.decode_stack(matrices, y, alphabet, ("sphere",), "none")
    roots, state, _ = calls[0]
    assert len(state[0]) == len(matrices)
    assert np.unique(roots[0]).tolist() == list(range(len(matrices)))
