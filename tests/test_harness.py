import dataclasses
import math

import numpy as np
import pytest

import stcsim as st
from stcsim import harness
from stcsim.harness import (
    CSV_HEADER,
    SweepConfig,
    SweepRow,
    emit_csv,
    run_sweep,
    run_verification,
)
from stcsim.matrixkit import qr_decompose

from conftest import decode_alone, decode_one, rows


def small_config(**kw):
    base = dict(
        code="golden-dv",
        decoders=("exhaustive", "fast"),
        modulation=4,
        channel="quasistatic",
        snr_start=0.0,
        snr_stop=6.0,
        snr_step=2.0,
        trials=40,
        seed=3,
        ordering="none",
    )
    base.update(kw)
    return SweepConfig(**base)


def test_validation_rejects_bad_configs():
    with pytest.raises(ValueError):
        small_config(code="nope")
    with pytest.raises(ValueError):
        small_config(decoders=("fast",), code="overlaid-alamouti")
    with pytest.raises(ValueError):
        small_config(decoders=("alamouti",), code="golden-dv")
    with pytest.raises(ValueError):
        small_config(
            decoders=("alamouti",), code="overlaid-alamouti", channel="rapid"
        )
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError):
        small_config(snr_step=0.0)
    with pytest.raises(ValueError):
        small_config(channel="markov")
    with pytest.raises(ValueError):
        small_config(decoders=("exhaustive",), modulation=256)
    with pytest.raises(ValueError):
        small_config(ordering="sideways")
    with pytest.raises(ValueError, match="repeat"):
        small_config(decoders=("fast", "fast"))
    for field, value in (("trials", 2.5), ("modulation", 4.0), ("seed", 1.5), ("trials", True)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            small_config(**{field: value})
    for field, value in (("snr_start", "0"), ("snr_stop", None), ("snr_step", "2"),
                         ("snr_start", True), ("snr_stop", 1j)):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            small_config(**{field: value})
    for rho in ("0.5", True, False):
        with pytest.raises(ValueError, match="rho must be a real number"):
            small_config(channel="markov", rho=rho)
    for flag in ("yes", 1, None):
        with pytest.raises(ValueError, match="noise_free must be a bool"):
            small_config(noise_free=flag)


def test_replace_checks_the_new_config():
    with pytest.raises(ValueError, match="trials must be at least 1"):
        dataclasses.replace(SweepConfig(), trials=0)
    assert dataclasses.replace(SweepConfig(), trials=5).trials == 5


def test_validation_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        small_config(seed=-1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -2"):
        run_verification("mindet", seed=-2)


@pytest.mark.parametrize("channel", ("quasistatic", "rapid"))
def test_validation_rejects_rho_without_markov(channel):
    with pytest.raises(ValueError, match="rho applies only to the markov channel"):
        small_config(channel=channel, rho=0.3)


@pytest.mark.parametrize(
    "grid",
    (dict(snr_step=math.nan), dict(snr_stop=math.inf), dict(snr_start=-math.inf),
     dict(snr_start=math.nan), dict(snr_start=30.0, snr_stop=0.0),
     dict(snr_start=4000.0, snr_stop=4000.0), dict(snr_start=-4000.0, snr_stop=-4000.0),
     dict(snr_start=0.0, snr_stop=1e-291, snr_step=1e-300)),
)
def test_validation_rejects_bad_snr_grid(grid):
    with pytest.raises(ValueError, match="snr"):
        small_config(**grid)


def test_validation_rejects_snr_points_that_print_alike():
    grid = r"snr grid start=10\.0 stop=10\.000000004 step=1e-09"
    with pytest.raises(ValueError, match=f"{grid} has points that print alike"):
        small_config(snr_start=10.0, snr_stop=10.0 + 4e-9, snr_step=1e-9)
    small_config(snr_start=10.0, snr_stop=10.0 + 4e-7, snr_step=1e-7)
    # the end slack scales with the step: a fixed slack of 1e-9 would add 5e-9
    cfg = small_config(snr_start=0.0, snr_stop=4e-9, snr_step=1e-9)
    assert len(cfg.snr_points()) == 5


def test_validation_bounds_the_number_of_snr_points():
    cfg = small_config(snr_start=0.0, snr_stop=999.99, snr_step=0.01)
    assert len(cfg.snr_points()) == harness.MAX_SNR_POINTS == 100_000
    # one point more, and grids far too long to build, are refused before any label is built
    for start, stop, step in ((0.0, 1000.0, 0.01), (0.0, 30.0, 1e-300), (-30.0, 0.0, 1e-300)):
        grid = f"snr grid start={start!r} stop={stop!r} step={step!r}"
        with pytest.raises(ValueError) as info:
            small_config(snr_start=start, snr_stop=stop, snr_step=step)
        assert str(info.value) == f"{grid} has more than 100000 points"


def test_validation_bounds_the_number_of_trials():
    # a bound on a sweep's size: at most 2**32 trials per point
    assert harness.MAX_TRIALS == 2**32
    small_config(trials=2**32)
    with pytest.raises(ValueError) as info:
        small_config(trials=2**32 + 1)
    assert str(info.value) == "trials must be at most 4294967296 (2**32), got 4294967297"


def test_snr_grid_inclusive():
    cfg = small_config(snr_start=0.0, snr_stop=30.0, snr_step=2.0)
    assert len(cfg.snr_points()) == 16
    assert cfg.snr_points()[-1] == 30.0


def test_noise_free_gives_zero_ser():
    cfg = small_config(trials=8, noise_free=True, snr_stop=0.0)
    report = run_sweep(cfg)
    assert all(row.ser == 0.0 for row in report.rows)


def test_exhaustive_and_fast_identical_ser():
    report = run_sweep(small_config(trials=120, snr_stop=4.0))
    by_point = {}
    for row in report.rows:
        by_point.setdefault(row.snr_db, {})[row.decoder] = row
    for point, rows in by_point.items():
        assert rows["exhaustive"].ser == rows["fast"].ser


def test_cross_decoder_rows_share_trials_and_order():
    report = run_sweep(small_config(trials=16))
    points = small_config().snr_points()
    assert [row.snr_db for row in report.rows] == [p for p in points for _ in range(2)]
    assert [row.decoder for row in report.rows] == ["exhaustive", "fast"] * len(points)


def test_serial_parallel_identical(tmp_path, monkeypatch):
    cfg = small_config(trials=70, snr_stop=4.0)
    monkeypatch.setenv("STC_THREADS", "1")
    serial = run_sweep(cfg)
    monkeypatch.setenv("STC_THREADS", "2")
    parallel = run_sweep(cfg)
    for a, b in zip(serial.rows, parallel.rows):
        assert (a.snr_db, a.decoder, a.ser, a.nodes_mean, a.nodes_p95, a.nodes_max, a.sorts_mean) == (
            b.snr_db, b.decoder, b.ser, b.nodes_mean, b.nodes_p95, b.nodes_max, b.sorts_mean
        )


def strip_time_column(text: str) -> str:
    lines = text.strip().split("\n")
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def test_emit_csv_schema_and_determinism(tmp_path):
    cfg = small_config(trials=25, snr_stop=2.0)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    emit_csv(run_sweep(cfg), p1)
    emit_csv(run_sweep(cfg), p2)
    text = p1.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2  # 2 points x 2 decoders
    assert "\r" not in text
    assert strip_time_column(p1.read_text()) == strip_time_column(p2.read_text())


def test_emit_csv_roundtrip_parse(tmp_path):
    cfg = small_config(trials=30, snr_stop=4.0, channel="markov", rho=0.9)
    report = run_sweep(cfg)
    path = tmp_path / "r.csv"
    emit_csv(report, path)
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == len(report.rows)
    for parsed, row in zip(rows, report.rows):
        assert float(parsed["snr_db"]) == row.snr_db
        assert parsed["decoder"] == row.decoder
        assert parsed["code"] == cfg.code
        assert int(parsed["modulation"]) == cfg.modulation
        assert parsed["channel"] == "markov:0.9"
        assert int(parsed["trials"]) == row.trials
        # 9 significant digits survive the round trip
        assert float(parsed["ser"]) == pytest.approx(row.ser, rel=1e-8)
        assert float(parsed["nodes_mean"]) == pytest.approx(row.nodes_mean, rel=1e-8)
        assert int(parsed["nodes_max"]) == row.nodes_max


def test_emit_csv_empty_report(tmp_path):
    report = st.SweepReport(config=small_config(), rows=())
    path = tmp_path / "empty.csv"
    emit_csv(report, path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_ser_monotone_beyond_5db():
    cfg = small_config(
        decoders=("fast",), trials=10_000, snr_start=6.0, snr_stop=16.0, snr_step=2.0
    )
    report = run_sweep(cfg)
    sers = [row.ser for row in report.rows]
    n = 4.0 * cfg.trials
    for a, b in zip(sers, sers[1:]):
        slack = 3.0 * math.sqrt(a * (1 - a) / n + b * (1 - b) / n)
        assert b <= a + slack


def test_verification_suites_pass_at_small_scale():
    for suite, trials in (
        ("theorem1", 500),
        ("mlequiv", 60),
        ("sorts", 20),
        ("alamouti", 2000),
        ("mindet", None),
        ("qr-agree", 600),
    ):
        report = run_verification(suite, trials, seed=11)
        assert report.passed, report.format_lines()
        assert report.checks
        lines = report.format_lines()
        assert lines[-1] == "result: PASS"


@pytest.mark.parametrize("trials", (0, -4))
@pytest.mark.parametrize("suite", sorted(set(harness.VERIFICATION_SUITES) - {"mindet"}))
def test_verification_rejects_trials_below_one(suite, trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_verification(suite, trials)


def test_mindet_accepts_zero_trials_and_rejects_negative_ones():
    assert run_verification("mindet", 0).trials == 0
    assert run_verification("mindet").trials == 0
    with pytest.raises(ValueError, match="trials must be at least 0"):
        run_verification("mindet", -5)


@pytest.mark.parametrize(
    "suite, args, field",
    (
        ("mlequiv", (True,), "trials"),
        ("theorem1", (2.5,), "trials"),
        ("mindet", (0.0,), "trials"),
        ("sorts", (2, True), "seed"),
        ("qr-agree", (12, 1.5), "seed"),
        ("mindet", (None, "1"), "seed"),
    ),
)
def test_verification_rejects_non_integer_trials_and_seed(suite, args, field):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        run_verification(suite, *args)


def test_mlequiv_factors_each_decoded_channel_once(monkeypatch):
    calls = []

    def counting(h):
        calls.append(np.shape(h))
        return qr_decompose(h)

    unblocked = run_verification("mlequiv", 6, seed=5)
    monkeypatch.setattr(st.decoders, "qr_decompose", counting)
    monkeypatch.setattr(harness, "MAX_CHUNK", 4)
    report = run_verification("mlequiv", 6, seed=5)
    assert report.passed
    assert [c.measured for c in report.checks] == [c.measured for c in unblocked.checks]
    # 7 rounds (6 at 4-QAM in blocks of 4 and 2, 1 at 16-QAM), three instance
    # kinds each: one stacked QR per kind per block, 21 matrices in total
    assert calls == [(4, 4, 4)] * 3 + [(2, 4, 4)] * 3 + [(1, 4, 4)] * 3


def recording_decode_stack(monkeypatch):
    """Wrap ``harness.decode_stack``; return the list of its calls' arguments."""
    calls = []
    decode_stack = harness.decode_stack

    def recording(matrices, received, alphabet, names, ordering):
        calls.append((matrices, received, alphabet.size, names, ordering))
        return decode_stack(matrices, received, alphabet, names, ordering)

    monkeypatch.setattr(harness, "decode_stack", recording)
    return calls


def one_instance(rng, alphabet, model, variant, snr_db):
    """Reference: one instance (h, y) sampled on its own, channel, symbols and
    noise in that order (None: noise-free, no noise draw)."""
    h = st.effective_matrix(st.sample_channel(rng, model), variant)
    idx = rng.integers(0, alphabet.size, 4)
    if snr_db is None:
        return h, h @ alphabet.symbols[idx]
    noise = st.stack_samples(st.sample_noise(rng, st.snr_to_n0(snr_db)), variant)
    return h, h @ alphabet.symbols[idx] + noise


def test_suite_instances_reproduce_per_instance_sampling(monkeypatch):
    """The suites' stacked draws equal per-instance sampling from one stream,
    byte for byte: an mlequiv block (three kinds per round, SNR cycling per
    round) and the alamouti suite's noise-free rapid probes."""
    rounds = 7
    calls = recording_decode_stack(monkeypatch)
    run_verification("mlequiv", rounds, seed=2)
    alphabet = st.make_qam(4)
    rng = st.make_rng(2, 3, 4)
    want = [[] for _ in harness._MLEQUIV_KINDS]
    for t in range(rounds):
        snr = harness._MLEQUIV_SNRS[t % len(harness._MLEQUIV_SNRS)]
        for stack, (model, variant, _) in zip(want, harness._MLEQUIV_KINDS):
            stack.append(one_instance(rng, alphabet, model, variant, snr))
    for (matrices, received, m, names, _), stack, kind in zip(
        calls[:3], want, harness._MLEQUIV_KINDS
    ):
        assert (m, names) == (4, kind[2])
        assert matrices.tobytes() == np.array([h for h, _ in stack]).tobytes()
        assert received.tobytes() == np.array([y for _, y in stack]).tobytes()

    calls.clear()
    run_verification("alamouti", 10, seed=2)
    rng = st.make_rng(2, 2, 2)
    for matrices, received, *_ in calls:
        h, y = one_instance(rng, alphabet, "rapid", "overlaid-alamouti", None)
        assert matrices.tobytes() == h[None].tobytes()
        assert received.tobytes() == y[None].tobytes()
    assert len(calls) == 50


def test_alamouti_suite_counts_each_probe_refusal(monkeypatch):
    """Every rapid probe is a stack of its own, so one refusal cannot hide
    another probe's outcome."""
    calls = recording_decode_stack(monkeypatch)
    report = run_verification("alamouti", 10, seed=4)
    rate = next(c for c in report.checks if "structure-error" in c.name)
    assert rate.measured == 1.0
    assert len(calls) == 50
    for matrices, received, m, names, ordering in calls:
        assert (matrices.shape, received.shape) == ((1, 4, 4), (1, 4))
        assert (m, names, ordering) == (4, ("alamouti",), "none")


@pytest.mark.parametrize(
    "overrides, orders, qrs, sorts_per_chunk",
    (
        (dict(decoders=("fast", "sphere")), 1, 1, 2),
        (dict(decoders=("exhaustive", "fast")), 1, 1, 2),
        (dict(code="overlaid-alamouti", decoders=("alamouti", "sphere"), modulation=16), 1, 1, 2),
        # the exhaustive scan reads no R: a stack of its own makes no QR and no sort
        (dict(decoders=("exhaustive",)), 0, 0, 0),
        # one prologue, and one stacked QR, per column-order rule that a
        # decoder reads rows from: fast's best of eight (its scoring QR is
        # the prologue's), sphere's greedy one, never the exhaustive scan's
        # natural one
        (dict(decoders=("fast", "sphere"), ordering="blast"), 2, 2, 2),
        (dict(decoders=("exhaustive", "fast"), ordering="blast"), 1, 1, 2),
        (dict(code="overlaid-alamouti", decoders=("alamouti", "sphere"), modulation=16,
              ordering="blast"), 2, 2, 2),
    ),
    ids=("fast-sphere", "exhaustive-fast", "alamouti-sphere", "exhaustive",
         "fast-sphere-blast", "exhaustive-fast-blast", "alamouti-sphere-blast"),
)
def test_sweep_runs_each_prologue_once_per_trial_or_chunk(
    monkeypatch, overrides, orders, qrs, sorts_per_chunk
):
    formed = []
    sorts = []
    factored = []
    factored_rows = st.decoders.factored_rows
    sort_alphabet_by_metric = st.decoders.sort_alphabet_by_metric

    def counting_rows(factors, y):
        formed.append(len(y))
        return factored_rows(factors, y)

    def counting_sorts(alphabet, metric):
        sorts.append(alphabet.size)
        return sort_alphabet_by_metric(alphabet, metric)

    def counting_qr(h):
        factored.append(np.shape(h)[:-2])
        return qr_decompose(h)

    monkeypatch.setattr(st.decoders, "factored_rows", counting_rows)
    monkeypatch.setattr(st.decoders, "sort_alphabet_by_metric", counting_sorts)
    monkeypatch.setattr(st.decoders, "qr_decompose", counting_qr)
    monkeypatch.setenv("STC_THREADS", "1")
    monkeypatch.setattr(harness, "MAX_CHUNK", harness.STREAM_BLOCK)  # one block per chunk
    run_sweep(small_config(trials=40, snr_stop=2.0, **overrides))  # 2 points x chunks of 32 + 8
    # Q^H y once per trial and column order for every decoder of it, one
    # stacked matmul per chunk and order
    assert formed == ([32] * orders + [8] * orders) * 2
    # a fixed number of stacked QRs per chunk, none per trial
    assert len(factored) == qrs * 4
    assert all(shape[0] in (32, 8) for shape in factored)
    # two sorts per chunk for the one fast or alamouti decoder, none per trial
    assert len(sorts) == sorts_per_chunk * 4


def test_per_instance_rows_are_made_only_for_per_instance_decoders(rng, monkeypatch):
    """decode_stack would make an instance's EffectiveChannel and its R and
    z as Python lists only for a per-instance decoder, and every decoder is
    a stack call now: an alamouti-only stack (CLI ``decode`` of an alamouti
    document), an alamouti and sphere stack, and exhaustive, fast and sphere
    golden stacks make neither, under both orderings, and sphere's decisions
    are still alamouti's on noise-free Alamouti channels. Each stack makes
    one DecodeResult per decoder and none per instance, and so does every
    stack of a serial sweep."""
    shapes = []  # the cost shape of every DecodeResult made
    init = st.decoders.DecodeResult.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        shapes.append(np.shape(self.cost))

    monkeypatch.setattr(st.decoders.DecodeResult, "__init__", counted)
    listed = []

    class Listed(np.ndarray):
        def tolist(self):
            listed.append(self.shape)
            return np.asarray(self).tolist()

    built = []
    effective_channel = st.codes.EffectiveChannel
    factored_rows = st.decoders.factored_rows
    monkeypatch.setattr(st.codes, "EffectiveChannel",
                        lambda h: built.append(h) or effective_channel(h=h))
    monkeypatch.setattr(st.decoders, "factored_rows",
                        lambda *args: tuple(part.view(Listed) for part in factored_rows(*args)))
    alphabet = st.make_qam(16)
    matrices = st.effective_matrix(st.sample_channels(rng, "quasistatic", 5), "overlaid-alamouti")
    received = (matrices @ alphabet.symbols[rng.integers(0, 16, (5, 4))][..., None])[..., 0]
    for ordering in harness.ORDERING_MODES:
        decoded, _ = harness.decode_stack(matrices, received, alphabet, ("alamouti",), ordering)
        assert (built, listed) == ([], [])
        # sphere's blast order is a second prologue, which alamouti does not read
        both, _ = harness.decode_stack(matrices, received, alphabet, ("alamouti", "sphere"),
                                       ordering)
        assert (built, listed) == ([], [])
        assert both["alamouti"].indices.tolist() == decoded["alamouti"].indices.tolist() == (
            both["sphere"].indices.tolist())
    golden = st.effective_matrix(st.sample_channels(rng, "quasistatic", 5), "golden-dv")
    received = (golden @ alphabet.symbols[rng.integers(0, 16, (5, 4))][..., None])[..., 0]
    for ordering in harness.ORDERING_MODES:
        for names in (("exhaustive", "fast"), ("exhaustive", "fast", "sphere")):
            harness.decode_stack(golden, received, alphabet, names, ordering)
            assert (built, listed) == ([], [])
    assert shapes == [(5,)] * (2 * (1 + 2) + 2 * (2 + 3))
    monkeypatch.setenv("STC_THREADS", "1")
    names = ("exhaustive", "fast", "sphere")
    for ordering in harness.ORDERING_MODES:
        shapes.clear()
        run_sweep(small_config(decoders=names, ordering=ordering))
        assert (built, listed) == ([], [])
        # the 4 points of 40 trials are one stack
        assert shapes == [(160,)] * len(names)


def test_exhaustive_only_stack_decodes_rank_deficient_matrix(rng):
    """The exhaustive scan reads no R, so a stack that only it decodes makes
    no QR: a rank-deficient matrix decodes, as CLI ``decode`` decodes it alone.
    A stack that fast decodes too still raises."""
    alphabet = st.make_qam(4)
    chs = [st.sample_channel(rng, "quasistatic") for _ in range(5)]
    matrices = st.effective_matrix(np.stack(chs), "golden-dv")
    matrices[2] = np.ones((4, 4))
    received = (matrices @ alphabet.symbols[rng.integers(0, 4, (5, 4))][..., None])[..., 0]
    for ordering in harness.ORDERING_MODES:
        decoded, _ = harness.decode_stack(
            matrices, received, alphabet, ("exhaustive",), ordering
        )
        for h, y, result in zip(matrices, received, rows(decoded["exhaustive"])):
            eff = st.EffectiveChannel(h=h)
            alone = decode_one("exhaustive", eff, y, alphabet)
            assert (result.indices, result.cost.hex()) == (alone.indices, alone.cost.hex())
        with pytest.raises(ValueError, match="degenerate"):
            harness.decode_stack(
                matrices, received, alphabet, ("exhaustive", "fast"), ordering
            )


@pytest.mark.parametrize("ordering", harness.ORDERING_MODES)
@pytest.mark.parametrize("name", harness.DECODER_NAMES)
def test_decode_stack_of_no_instances_decodes_nothing(name, ordering):
    matrices = np.zeros((0, 4, 4), dtype=complex)
    received = np.zeros((0, 4), dtype=complex)
    decoded, elapsed = harness.decode_stack(matrices, received, st.make_qam(4), (name,), ordering)
    assert list(decoded) == list(elapsed) == [name]
    assert type(elapsed[name]) is int and elapsed[name] >= 0
    result = decoded[name]
    assert (result.indices.shape, result.indices.dtype) == ((0, 4), np.int64)
    for array, dtype in ((result.cost, np.float64), (result.nodes_visited, np.int64),
                         (result.full_sorts, np.int64)):
        assert (array.shape, array.dtype) == ((0,), dtype)


def test_decode_stack_rejects_unknown_ordering_and_decoder(rng):
    alphabet = st.make_qam(4)
    matrices = st.effective_matrix(st.sample_channels(rng, "quasistatic", 2), "golden-dv")
    received = matrices @ alphabet.symbols[:4]
    for stack in ((matrices, received), (matrices[:0], received[:0])):
        with pytest.raises(ValueError) as info:
            harness.decode_stack(*stack, alphabet, ("fast",), "BLAST")
        assert str(info.value) == "unknown ordering mode: 'BLAST'"
        with pytest.raises(ValueError) as info:
            harness.decode_stack(*stack, alphabet, ("fast", "Sphere"), "none")
        assert str(info.value) == "unknown decoder: 'Sphere'"


def test_decode_stack_rejects_mismatched_stacks_and_names(rng):
    """A received stack must hold one row of 4 per matrix (zip would truncate
    it, broadcasting would stretch it); names must be a sequence of distinct
    names, as SweepConfig requires."""
    alphabet = st.make_qam(4)
    matrices = st.effective_matrix(st.sample_channels(rng, "quasistatic", 5), "golden-dv")
    received = matrices @ alphabet.symbols[:4]
    for bad_matrices, bad_received in (
        (matrices, received[:1]), (matrices, received[:3]), (matrices, received[:, :3]),
        (matrices, received[..., None]), (matrices[0], received[0]), (matrices[:, :3], received),
    ):
        for name in harness.DECODER_NAMES:
            with pytest.raises(ValueError, match=r"not \(n, 4, 4\) matrices and \(n, 4\)"):
                harness.decode_stack(bad_matrices, bad_received, alphabet, (name,), "none")
    with pytest.raises(ValueError) as info:
        harness.decode_stack(matrices, received, alphabet, ("fast", "fast"), "none")
    assert str(info.value) == "decoders must not repeat a name: ('fast', 'fast')"
    with pytest.raises(ValueError, match="repeat") as config_info:
        small_config(decoders=("fast", "fast"))
    assert str(config_info.value) == str(info.value)
    for call in (
        lambda: harness.decode_stack(matrices, received, alphabet, "fast", "none"),
        lambda: small_config(decoders="fast"),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "decoders must be a sequence of names, not the string 'fast'"


class FakeClock:
    """Stands in for the ``time`` module: ``perf_counter_ns`` counts its reads
    and returns ``now``, which only calls wrapped by ``advancing`` move."""

    def __init__(self):
        self.now = 0
        self.reads = 0

    def perf_counter_ns(self):
        self.reads += 1
        return self.now

    def advancing(self, fn, ns):
        def wrapper(*args, **kwargs):
            self.now += ns
            return fn(*args, **kwargs)
        return wrapper


def test_decode_stack_times_each_decoder_once_per_stack(monkeypatch, rng):
    """Each decoder's time is its own work on the stack (one stack call),
    never the shared prologue, read by two clock reads per decoder; a
    sweep's time_ns_mean is its chunk times over its trials."""
    clock = FakeClock()
    monkeypatch.setattr(harness, "time", clock)
    dec = st.decoders
    # distinct amounts, so each sum tells which calls it holds
    for fn_name, ns in (
        # the prologue and both column-order rules: charged to no decoder
        ("triangular_rows", 10 ** 9),
        ("factored_rows", 2 * 10 ** 9),
        ("greedy_ordering", 3 * 10 ** 9),
        ("fast_ordering", 4 * 10 ** 9),
        ("decode_exhaustive_stack", 70_000),
        ("decode_fast_stack", 5_000),
        ("decode_sphere_stack", 200),
    ):
        monkeypatch.setattr(dec, fn_name, clock.advancing(getattr(dec, fn_name), ns))
    alphabet = st.make_qam(4)
    matrices = st.effective_matrix(st.sample_channels(rng, "quasistatic", 5), "golden-dv")
    received = matrices @ alphabet.symbols[:4]
    names = ("exhaustive", "fast", "sphere")
    want = {"exhaustive": 70_000, "fast": 5_000, "sphere": 200}
    for ordering in harness.ORDERING_MODES:
        clock.reads = 0
        decoded, elapsed = harness.decode_stack(matrices, received, alphabet, names, ordering)
        assert elapsed == want
        assert clock.reads == 2 * len(names)
        assert all(decoded[name].cost.shape == (5,) for name in names)

    monkeypatch.setenv("STC_THREADS", "1")
    monkeypatch.setattr(harness, "MAX_CHUNK", harness.STREAM_BLOCK)  # one block per chunk
    clock.reads = 0
    report = run_sweep(small_config(decoders=names, trials=40, snr_stop=2.0))
    # 2 points x chunks of 32 and 8 trials: 4 stacks, 2 reads per decoder each
    assert clock.reads == 4 * 2 * len(names)
    per_point = {"exhaustive": 2 * 70_000, "fast": 2 * 5_000, "sphere": 2 * 200}
    assert len(report.rows) == 2 * len(names)
    for row in report.rows:
        assert row.time_ns_mean == per_point[row.decoder] / 40


def test_verification_unknown_suite():
    with pytest.raises(ValueError):
        run_verification("bogus")


def reference_rows(cfg):
    """The sweep as a per-trial loop: each block of STREAM_BLOCK trials makes
    its three draws from its own stream, and each trial converts its own
    draws and builds, orders and factors its own channel."""
    alphabet = st.make_qam(cfg.modulation)
    per_channel = st.channel.NORMALS_PER_CHANNEL[cfg.channel]
    rows = []
    for pi, snr in enumerate(cfg.snr_points()):
        n0 = st.snr_to_n0(snr)
        acc = {name: {"errors": 0, "nodes": [], "sorts": 0} for name in cfg.decoders}
        for block, lo in enumerate(range(0, cfg.trials, harness.STREAM_BLOCK)):
            size = min(harness.STREAM_BLOCK, cfg.trials - lo)
            rng = st.make_rng(cfg.seed, pi, block)
            channel_normals = rng.standard_normal((size, per_channel))
            sent = rng.integers(0, alphabet.size, size=(size, 4))
            if not cfg.noise_free:
                noise_normals = rng.standard_normal((size, st.channel.NORMALS_PER_NOISE))
            for t, idx_true in enumerate(sent):
                h = st.channel.channels_from_normals(channel_normals[t], cfg.channel, cfg.rho)
                eff = st.effective_channel(h, cfg.code)
                if cfg.noise_free:
                    noise = np.zeros(4, dtype=complex)
                else:
                    noise = st.stack_samples(
                        st.channel.noise_from_normals(noise_normals[t], n0), cfg.code
                    )
                y = eff.h @ alphabet.symbols[idx_true] + noise
                for name in cfg.decoders:
                    result = decode_alone(name, eff, y, alphabet, cfg.ordering)
                    acc[name]["errors"] += int(np.sum(np.asarray(result.indices) != idx_true))
                    acc[name]["nodes"].append(result.nodes_visited)
                    acc[name]["sorts"] += result.full_sorts
        for name in sorted(cfg.decoders):
            nodes = np.asarray(acc[name]["nodes"], dtype=float)
            rows.append(
                SweepRow(
                    snr_db=snr,
                    decoder=name,
                    trials=cfg.trials,
                    ser=acc[name]["errors"] / (4.0 * cfg.trials),
                    nodes_mean=float(nodes.mean()),
                    nodes_p95=float(np.percentile(nodes, 95)),
                    nodes_max=int(nodes.max()),
                    sorts_mean=acc[name]["sorts"] / cfg.trials,
                    time_ns_mean=0.0,
                )
            )
    return rows


def without_time(rows):
    return [dataclasses.replace(row, time_ns_mean=0.0) for row in rows]


@pytest.mark.parametrize("threads", ("1", "2"))
@pytest.mark.parametrize(
    "overrides",
    (
        dict(decoders=("exhaustive", "fast", "sphere")),
        dict(code="golden-wimax", channel="rapid", ordering="blast", decoders=("fast", "sphere"),
             modulation=16),
        # quasistatic channels are where the BLAST rules' ties are
        dict(ordering="blast", decoders=("fast", "sphere"), modulation=16),
        dict(code="overlaid-alamouti", decoders=("alamouti", "sphere"), modulation=16),
        dict(code="golden-brv", channel="markov", rho=0.9, decoders=("exhaustive", "fast")),
        dict(decoders=("fast", "sphere"), noise_free=True),
    ),
    ids=("golden-dv", "wimax-rapid-blast", "dv-quasistatic-blast", "alamouti", "markov",
         "noise-free"),
)
def test_sweep_matches_per_trial_reference(monkeypatch, threads, overrides):
    # 40 trials: a whole block and a short last one per point
    cfg = small_config(trials=40, snr_stop=12.0, snr_step=6.0, seed=17, **overrides)
    monkeypatch.setenv("STC_THREADS", threads)
    assert without_time(run_sweep(cfg).rows) == reference_rows(cfg)


class InlinePool:
    """ProcessPoolExecutor stand-in that records its size and runs tasks inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def block_segments(trials, first, stop):
    """The sweep blocks [first, stop) as segments (point, lo, hi), one per
    point they hold: the point's trials [lo, hi)."""
    per_point = -(-trials // harness.STREAM_BLOCK)
    segments = []
    for block in range(first, stop):
        pi, lo = divmod(block, per_point)
        lo *= harness.STREAM_BLOCK
        hi = min(trials, lo + harness.STREAM_BLOCK)
        if segments and segments[-1][0] == pi:
            segments[-1] = (pi, segments[-1][1], hi)
        else:
            segments.append((pi, lo, hi))
    return segments


def recording_chunks(monkeypatch):
    """Wrap ``harness._run_chunk``; return the list of its calls' block
    ranges as segments, one list of (point, lo, hi) per chunk."""
    calls = []
    run_chunk = harness._run_chunk

    def recording(cfg, first, stop):
        calls.append(block_segments(cfg.trials, first, stop))
        return run_chunk(cfg, first, stop)

    monkeypatch.setattr(harness, "_run_chunk", recording)
    return calls


def chunk_sizes(calls):
    return [sum(hi - lo for _, lo, hi in chunk) for chunk in calls]


def per_point(*bounds):
    """A plan of one chunk per pair of consecutive ``bounds`` at points 0 and 1 in turn."""
    return [[(pi, lo, hi)] for pi in (0, 1) for lo, hi in zip(bounds, bounds[1:])]


def test_pool_size_and_chunk_capped(monkeypatch):
    cfg = small_config(trials=300, snr_stop=2.0)  # 2 points
    calls = recording_chunks(monkeypatch)
    monkeypatch.setenv("STC_THREADS", "1")
    serial = run_sweep(cfg)
    assert calls == [[(0, 0, 300), (1, 0, 300)]]  # a serial sweep that fits is one stack
    calls.clear()
    monkeypatch.setattr(harness, "MAX_CHUNK", harness.STREAM_BLOCK)  # one block per chunk
    capped = run_sweep(cfg)
    assert chunk_sizes(calls) == ([32] * 9 + [12]) * 2
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setenv("STC_THREADS", "64")
    pooled = run_sweep(cfg)
    assert InlinePool.sizes == [20]  # 2 points x 10 chunks: one worker per task, not 64
    assert without_time(capped.rows) == without_time(serial.rows)
    assert without_time(pooled.rows) == without_time(serial.rows)


def test_sweep_rows_do_not_depend_on_chunking(monkeypatch):
    """Chunks are whole blocks, so every block's stream feeds the same trials
    whatever the thread count: 1000 trials (31 blocks and one of 8) run as
    one stack at one thread, as 128-trial chunks at one thread under a cap
    of four blocks and at two threads, and as twelve chunks of two or three
    blocks at three."""
    assert harness.MAX_CHUNK % harness.STREAM_BLOCK == 0
    cfg = small_config(decoders=("fast",), trials=1000, snr_stop=0.0)
    calls = recording_chunks(monkeypatch)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    rows, sizes = {}, {}
    for threads in ("1", "2", "3"):
        calls.clear()
        monkeypatch.setenv("STC_THREADS", threads)
        rows[threads] = without_time(run_sweep(cfg).rows)
        sizes[threads] = chunk_sizes(calls)
    calls.clear()
    monkeypatch.setenv("STC_THREADS", "1")
    monkeypatch.setattr(harness, "MAX_CHUNK", 4 * harness.STREAM_BLOCK)
    rows["1, capped"] = without_time(run_sweep(cfg).rows)
    sizes["1, capped"] = chunk_sizes(calls)
    assert sizes == {"1": [1000], "1, capped": [128] * 7 + [104],
                     "2": [128] * 7 + [104], "3": [64, 96, 96] * 3 + [64, 96, 72]}
    assert rows["1"] == rows["1, capped"] == rows["2"] == rows["3"]


def test_sweep_chunk_plan(monkeypatch):
    """One rule for every sweep: the blocks, point by point, are cut into
    runs of whole blocks, as even in blocks as they divide, which may span
    points. At one thread these are the fewest runs of at most MAX_CHUNK
    trials; a pool takes about four per worker. Every row but its wall time
    is the same at one, two and three threads, at trial counts that are not
    whole blocks too."""
    cap = harness.MAX_CHUNK
    assert cap == 32 * harness.STREAM_BLOCK
    calls = recording_chunks(monkeypatch)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    plans = {  # trials -> threads -> chunks, each its (point, lo, hi) segments
        40: {"1": [[(0, 0, 40), (1, 0, 40)]], "2": per_point(0, 32, 40),
             "3": per_point(0, 32, 40)},
        cap: {"1": per_point(0, cap), "2": per_point(0, 256, 512, 768, cap),
              "3": per_point(0, 160, 320, 512, 672, 832, cap)},
        # 34 blocks per point: three runs of 22, 23 and 23 at one thread
        cap + 37: {"1": [[(0, 0, 704)], [(0, 704, cap + 37), (1, 0, 352)],
                         [(1, 352, cap + 37)]],
                   "2": per_point(0, 256, 544, 800, cap + 37),
                   "3": per_point(0, 160, 352, 544, 704, 896, cap + 37)},
    }
    for trials, plan in plans.items():
        cfg = small_config(decoders=("fast",), trials=trials, snr_stop=2.0)  # 2 points
        rows = {}
        for threads, chunks in plan.items():
            calls.clear()
            monkeypatch.setenv("STC_THREADS", threads)
            rows[threads] = without_time(run_sweep(cfg).rows)
            assert calls == chunks
        assert rows["1"] == rows["2"] == rows["3"]


@pytest.mark.parametrize("trials", (1, 31, 32, 33, 40, 300, 1024, 1061, 3000))
@pytest.mark.parametrize("points", (1, 2, 5, 9))
def test_chunk_plan_covers_each_block_once_in_order(trials, points):
    """Every plan's ranges cover the sweep's block sequence exactly once, in
    order, each range nonempty and at most MAX_CHUNK // STREAM_BLOCK blocks,
    so at most MAX_CHUNK trials, and the ranges as even as they divide. One
    run asked for gives the fewest chunks of at most that many blocks; more
    runs asked for give that many, up to one per block."""
    most = harness.MAX_CHUNK // harness.STREAM_BLOCK
    blocks = -(-trials // harness.STREAM_BLOCK) * points
    for runs in (1, 8, 12, 10_000):
        plan = harness._chunk_plan(blocks, runs)
        assert len(plan) == max(min(runs, blocks), -(-blocks // most))
        assert [first for first, _ in plan] + [blocks] == [0] + [stop for _, stop in plan]
        sizes = [stop - first for first, stop in plan]
        assert 1 <= min(sizes) and max(sizes) <= most and max(sizes) - min(sizes) <= 1


def one_point_build(cfg, pi, snr):
    """The matrices and received stack of point ``pi`` built alone, at its
    one noise variance, from its blocks' streams."""
    stack = harness._InstanceStack(cfg.trials, cfg.channel, cfg.code, st.make_qam(cfg.modulation))
    for block, lo in enumerate(range(0, cfg.trials, harness.STREAM_BLOCK)):
        stack.draw(slice(lo, lo + harness.STREAM_BLOCK), st.make_rng(cfg.seed, pi, block))
    return stack.build(st.snr_to_n0(snr))


def test_chunks_across_points_build_each_row_as_its_point_alone(monkeypatch):
    """A serial sweep that fits one chunk decodes it with one decode_stack
    call, and under a cap of three blocks its chunks span points, short
    blocks inside them; either way every matrix and received row equals the
    one-point build bit for bit, so each row carries its point's noise
    variance."""
    cfg = small_config(trials=40, snr_stop=18.0, snr_step=6.0, seed=11)  # 4 points, 8 blocks
    calls = recording_decode_stack(monkeypatch)
    monkeypatch.setenv("STC_THREADS", "1")
    run_sweep(cfg)
    assert [len(matrices) for matrices, *_ in calls] == [160]
    calls.clear()
    monkeypatch.setattr(harness, "MAX_CHUNK", 3 * harness.STREAM_BLOCK)
    run_sweep(cfg)
    # blocks 0-1, 2-4 and 5-7: point 0; point 1 and point 2's first block; the rest
    assert [len(matrices) for matrices, *_ in calls] == [40, 72, 48]
    matrices = np.concatenate([call[0] for call in calls])
    received = np.concatenate([call[1] for call in calls])
    want = [one_point_build(cfg, pi, snr) for pi, snr in enumerate(cfg.snr_points())]
    assert matrices.tobytes() == np.concatenate([h for h, _ in want]).tobytes()
    assert received.tobytes() == np.concatenate([y for _, y in want]).tobytes()


def recording_elapsed(monkeypatch):
    """Wrap ``harness.decode_stack``; return the list of its calls' elapsed
    times, one dict of ns per decoder name per call."""
    recorded = []
    decode_stack = harness.decode_stack

    def recording(*args):
        decoded, elapsed = decode_stack(*args)
        recorded.append(elapsed)
        return decoded, elapsed

    monkeypatch.setattr(harness, "decode_stack", recording)
    return recorded


def test_time_ns_mean_splits_each_chunk_time_over_its_trials(monkeypatch):
    """Each chunk's decode time per decoder is shared equally by its trials,
    so over the sweep's points ``time_ns_mean * trials`` sums to each
    decoder's summed ``decode_stack`` time, as a Python float."""
    recorded = recording_elapsed(monkeypatch)
    monkeypatch.setenv("STC_THREADS", "1")
    monkeypatch.setattr(harness, "MAX_CHUNK", 3 * harness.STREAM_BLOCK)
    cfg = small_config(trials=40, snr_stop=18.0, snr_step=6.0)  # chunks of 40, 72 and 48 trials
    report = run_sweep(cfg)
    assert len(recorded) == 3
    for name in cfg.decoders:
        rows = [row for row in report.rows if row.decoder == name]
        assert all(type(row.time_ns_mean) is float for row in rows)
        assert sum(row.time_ns_mean * row.trials for row in rows) == pytest.approx(
            sum(elapsed[name] for elapsed in recorded), rel=1e-12)


def test_sweep_rows_do_not_depend_on_the_cut(monkeypatch):
    """Any cover of the block sequence by ranges in order gives the same rows
    but their wall time: every block alone, the whole sweep as one chunk,
    and uneven ranges, one spanning three points with short blocks inside.
    Under each, ``time_ns_mean * trials`` sums over the points to each
    decoder's ``decode_stack`` time."""
    cfg = small_config(decoders=("exhaustive", "fast", "sphere"), ordering="blast",
                       trials=40, snr_stop=18.0, snr_step=6.0)  # 4 points, 8 blocks
    covers = {
        "alone": [(block, block + 1) for block in range(8)],
        "whole": [(0, 8)],
        # blocks 1-5: point 0's short block, point 1 (short block inside) and point 2
        "uneven": [(0, 1), (1, 6), (6, 8)],
    }
    recorded = recording_elapsed(monkeypatch)
    monkeypatch.setenv("STC_THREADS", "1")
    rows = {}
    for label, cover in covers.items():
        monkeypatch.setattr(harness, "_chunk_plan", lambda blocks, runs, cover=cover: cover)
        recorded.clear()
        report = run_sweep(cfg)
        rows[label] = without_time(report.rows)
        assert len(recorded) == len(cover)
        for name in cfg.decoders:
            assert sum(row.time_ns_mean * row.trials for row in report.rows
                       if row.decoder == name) == pytest.approx(
                sum(elapsed[name] for elapsed in recorded), rel=1e-12)
    assert rows["alone"] == rows["whole"] == rows["uneven"]


# Per row: (snr_db, decoder, symbol errors, node total, nodes_max, sort total),
# recorded from the nested-walk decoders on the block-keyed streams. Small
# versions of the benchmark's sweep workloads; any change to the tree
# decoders' pruning or node counting, or to the draws, moves these exact
# figures.
PINNED_EFFORT = {
    "golden-dv-64qam": (
        dict(decoders=("fast", "sphere"), modulation=64, snr_start=10.0, snr_stop=24.0,
             snr_step=7.0),
        [
            (10.0, "fast", 161, 14063, 5382, 100),
            (10.0, "sphere", 161, 17006, 9292, 3307),
            (17.0, "fast", 91, 3098, 1180, 100),
            (17.0, "sphere", 91, 3474, 1089, 1536),
            (24.0, "fast", 17, 1077, 127, 100),
            (24.0, "sphere", 17, 1066, 133, 417),
        ],
    ),
    "alamouti-16qam": (
        dict(code="overlaid-alamouti", decoders=("alamouti", "sphere"), modulation=16,
             snr_start=6.0, snr_stop=24.0, snr_step=9.0),
        [
            (6.0, "alamouti", 137, 5639, 1296, 100),
            (6.0, "sphere", 137, 4573, 950, 1544),
            (15.0, "alamouti", 32, 3129, 687, 100),
            (15.0, "sphere", 32, 1933, 381, 802),
            (24.0, "alamouti", 0, 598, 113, 100),
            (24.0, "sphere", 0, 661, 177, 280),
        ],
    ),
    "golden-dv-4qam": (
        dict(decoders=("exhaustive", "fast"), snr_start=0.0, snr_stop=24.0, snr_step=12.0),
        [
            (0.0, "exhaustive", 67, 12800, 256, 0),
            (0.0, "fast", 67, 1528, 121, 100),
            (12.0, "exhaustive", 2, 12800, 256, 0),
            (12.0, "fast", 2, 636, 42, 100),
            (24.0, "exhaustive", 0, 12800, 256, 0),
            (24.0, "fast", 0, 477, 10, 100),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_EFFORT))
def test_sweep_pins_decoder_effort(monkeypatch, case):
    overrides, expected = PINNED_EFFORT[case]
    monkeypatch.setenv("STC_THREADS", "1")
    rows = run_sweep(small_config(trials=50, seed=3, **overrides)).rows
    got = [
        (row.snr_db, row.decoder, round(row.ser * 4 * row.trials),
         round(row.nodes_mean * row.trials), row.nodes_max, round(row.sorts_mean * row.trials))
        for row in rows
    ]
    assert got == expected
