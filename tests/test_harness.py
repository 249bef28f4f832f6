import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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
from make_rows_fixture import CHECK_FIELDS, FIELDS, FIXTURE, row_record, verify_record


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
    monkeypatch.setattr(harness, "MAX_CHUNK", harness.STREAM_BLOCK)
    # 2 points x blocks of 32 and 8 trials, dealt into chunks of 32, 8 + 8 and 32
    run_sweep(small_config(trials=40, snr_stop=2.0, **overrides))
    # Q^H y once per trial and column order for every decoder of it, one
    # stacked matmul per chunk and order
    assert formed == [32] * orders + [16] * orders + [32] * orders
    # a fixed number of stacked QRs per chunk, none per trial
    assert len(factored) == qrs * 3
    assert all(shape[0] in (32, 16) for shape in factored)
    # two sorts per chunk for the one fast or alamouti decoder, none per trial
    assert len(sorts) == sorts_per_chunk * 3


def test_per_instance_rows_are_made_only_for_per_instance_decoders(rng, monkeypatch):
    """decode_stack would make an instance's R and z as Python lists only
    for a per-instance decoder, and every decoder is a stack call now: an
    alamouti-only stack (CLI ``decode`` of an alamouti document), an
    alamouti and sphere stack, and exhaustive, fast and sphere golden stacks
    make none, under both orderings, and sphere's decisions are still
    alamouti's on noise-free Alamouti channels. Each stack makes one
    DecodeResult per decoder and none per instance, and so does every stack
    of a serial sweep. (That no library module names a one-instance channel
    object is test_layering's check.)"""
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

    factored_rows = st.decoders.factored_rows
    monkeypatch.setattr(st.decoders, "factored_rows",
                        lambda *args: tuple(part.view(Listed) for part in factored_rows(*args)))
    alphabet = st.make_qam(16)
    matrices = st.effective_matrix(st.sample_channels(rng, "quasistatic", 5), "overlaid-alamouti")
    received = (matrices @ alphabet.symbols[rng.integers(0, 16, (5, 4))][..., None])[..., 0]
    for ordering in harness.ORDERING_MODES:
        decoded, _ = harness.decode_stack(matrices, received, alphabet, ("alamouti",), ordering)
        assert listed == []
        # sphere's blast order is a second prologue, which alamouti does not read
        both, _ = harness.decode_stack(matrices, received, alphabet, ("alamouti", "sphere"),
                                       ordering)
        assert listed == []
        assert both["alamouti"].indices.tolist() == decoded["alamouti"].indices.tolist() == (
            both["sphere"].indices.tolist())
    golden = st.effective_matrix(st.sample_channels(rng, "quasistatic", 5), "golden-dv")
    received = (golden @ alphabet.symbols[rng.integers(0, 16, (5, 4))][..., None])[..., 0]
    for ordering in harness.ORDERING_MODES:
        for names in (("exhaustive", "fast"), ("exhaustive", "fast", "sphere")):
            harness.decode_stack(golden, received, alphabet, names, ordering)
            assert listed == []
    assert shapes == [(5,)] * (2 * (1 + 2) + 2 * (2 + 3))
    monkeypatch.setenv("STC_THREADS", "1")
    names = ("exhaustive", "fast", "sphere")
    for ordering in harness.ORDERING_MODES:
        shapes.clear()
        run_sweep(small_config(decoders=names, ordering=ordering))
        assert listed == []
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
            alone = decode_one("exhaustive", h, y, alphabet)
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
    # distinct amounts, so each sum tells which calls it holds; the prologue
    # and both column-order rules are charged to no decoder
    for fn_name, ns in (("triangular_rows", 10 ** 9), ("factored_rows", 2 * 10 ** 9)):
        monkeypatch.setattr(dec, fn_name, clock.advancing(getattr(dec, fn_name), ns))
    for name, call, ns, blast_ns in (("exhaustive", "stack", 70_000, None),
                                     ("fast", "factored", 5_000, 4 * 10 ** 9),
                                     ("sphere", "factored", 200, 3 * 10 ** 9)):
        entry = harness.DECODERS[name]
        timed = {call: clock.advancing(getattr(entry, call), ns)}
        if blast_ns is not None:
            timed["blast"] = clock.advancing(entry.blast, blast_ns)
        monkeypatch.setitem(harness.DECODERS, name, dataclasses.replace(entry, **timed))
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
    monkeypatch.setattr(harness, "MAX_CHUNK", harness.STREAM_BLOCK)
    clock.reads = 0
    report = run_sweep(small_config(decoders=names, trials=40, snr_stop=2.0))
    # 2 points x blocks of 32 and 8 trials, dealt into chunks of 32, 8 + 8 and
    # 32: 3 stacks, 2 reads per decoder each; a point holds a whole chunk and
    # half of the 16-trial one
    assert clock.reads == 3 * 2 * len(names)
    per_point = {"exhaustive": 1.5 * 70_000, "fast": 1.5 * 5_000, "sphere": 1.5 * 200}
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
                matrix = st.effective_matrix(h, cfg.code)
                if cfg.noise_free:
                    noise = np.zeros(4, dtype=complex)
                else:
                    noise = st.stack_samples(
                        st.channel.noise_from_normals(noise_normals[t], n0), cfg.code
                    )
                y = matrix @ alphabet.symbols[idx_true] + noise
                for name in cfg.decoders:
                    result = decode_alone(name, matrix, y, alphabet, cfg.ordering)
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


def block_segments(trials, blocks):
    """The sweep ``blocks`` as segments (point, lo, hi), one per block: the
    point's trials [lo, hi)."""
    per_point = -(-trials // harness.STREAM_BLOCK)
    segments = []
    for block in blocks:
        pi, lo = divmod(block, per_point)
        lo *= harness.STREAM_BLOCK
        segments.append((pi, lo, min(trials, lo + harness.STREAM_BLOCK)))
    return segments


def block_columns(trials, blocks):
    """The table columns of the sweep ``blocks``, in their order."""
    return np.concatenate([np.arange(pi * trials + lo, pi * trials + hi)
                           for pi, lo, hi in block_segments(trials, blocks)])


def recording_chunks(monkeypatch):
    """Wrap ``harness._run_chunk``; return the list of its calls' blocks,
    one tuple per chunk."""
    calls = []
    run_chunk = harness._run_chunk

    def recording(cfg, blocks):
        calls.append(blocks)
        return run_chunk(cfg, blocks)

    monkeypatch.setattr(harness, "_run_chunk", recording)
    return calls


def chunk_sizes(trials, calls):
    return [sum(hi - lo for _, lo, hi in block_segments(trials, chunk)) for chunk in calls]


def dealt(sizes, count):
    """Deal blocks of the given trial ``sizes``, in order, into ``count``
    chunks, each to the one with the fewest trials so far (the first on ties)."""
    chunks, loads = [[] for _ in range(count)], [0] * count
    for block, size in enumerate(sizes):
        chunk = loads.index(min(loads))
        chunks[chunk].append(block)
        loads[chunk] += size
    return [tuple(chunk) for chunk in chunks]


def test_pool_size_and_chunk_capped(monkeypatch):
    cfg = small_config(trials=300, snr_stop=2.0)  # 2 points
    calls = recording_chunks(monkeypatch)
    monkeypatch.setenv("STC_THREADS", "1")
    serial = run_sweep(cfg)
    assert calls == [tuple(range(20))]  # a serial sweep that fits is one stack
    calls.clear()
    monkeypatch.setattr(harness, "MAX_CHUNK", harness.STREAM_BLOCK)
    capped = run_sweep(cfg)
    # the fewest chunks of at most 32 trials: the two 12-trial blocks share one
    assert calls == [(b,) for b in range(9)] + [(9, 19)] + [(b,) for b in range(10, 19)]
    assert chunk_sizes(300, calls) == [32] * 9 + [24] + [32] * 9
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setenv("STC_THREADS", "64")
    calls.clear()
    pooled = run_sweep(cfg)
    # 2 points x 10 blocks, one chunk each: one worker per task, not 64
    assert calls == [(b,) for b in range(20)]
    assert InlinePool.sizes == [20]
    assert without_time(capped.rows) == without_time(serial.rows)
    assert without_time(pooled.rows) == without_time(serial.rows)


def test_sweep_rows_do_not_depend_on_chunking(monkeypatch):
    """Chunks are whole blocks, so every block's stream feeds the same trials
    whatever the thread count: 1000 trials (31 blocks and one of 8) run as
    one stack at one thread, as eight dealt chunks (seven of four blocks,
    one of three and the short block) at one thread under a cap of four
    blocks, as two dealt chunks at two threads and as three at three."""
    assert harness.MAX_CHUNK % harness.STREAM_BLOCK == 0
    cfg = small_config(decoders=("fast",), trials=1000, snr_stop=0.0)
    calls = recording_chunks(monkeypatch)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    rows, sizes = {}, {}
    for threads in ("1", "2", "3"):
        calls.clear()
        monkeypatch.setenv("STC_THREADS", threads)
        rows[threads] = without_time(run_sweep(cfg).rows)
        sizes[threads] = chunk_sizes(1000, calls)
    calls.clear()
    monkeypatch.setenv("STC_THREADS", "1")
    monkeypatch.setattr(harness, "MAX_CHUNK", 4 * harness.STREAM_BLOCK)
    rows["1, capped"] = without_time(run_sweep(cfg).rows)
    sizes["1, capped"] = chunk_sizes(1000, calls)
    assert calls == [tuple(range(c, 31, 8)) for c in range(7)] + [(7, 15, 23, 31)]
    assert sizes == {"1": [1000], "1, capped": [128] * 7 + [104],
                     "2": [512, 488], "3": [352, 328, 320]}
    assert rows["1"] == rows["1, capped"] == rows["2"] == rows["3"]


def test_sweep_chunk_plan(monkeypatch):
    """One rule for every sweep: its blocks, point by point, are dealt in
    order, each to the chunk with the fewest trials so far (the first on
    ties), into as many chunks as threads (at most one per block) or the
    fewest that hold at most MAX_CHUNK trials each, whichever is more. Every
    row but its wall time is the same at one, two and three threads, at
    trial counts that are not whole blocks too."""
    cap = harness.MAX_CHUNK
    assert cap == 32 * harness.STREAM_BLOCK
    calls = recording_chunks(monkeypatch)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    plans = {  # trials -> threads -> chunks, each its blocks
        # blocks of 32, 8, 32 and 8 trials
        40: {"1": [(0, 1, 2, 3)], "2": [(0, 3), (1, 2)], "3": [(0,), (1, 3), (2,)]},
        # 32 whole blocks per point: dealt in turn, so each of the two chunks
        # holds half of each point at one thread too
        cap: {"1": [tuple(range(0, 64, 2)), tuple(range(1, 64, 2))],
              "2": [tuple(range(0, 64, 2)), tuple(range(1, 64, 2))],
              "3": [tuple(range(c, 64, 3)) for c in range(3)]},
        # 34 blocks per point, the last of 5 trials: three chunks, of 709,
        # 709 and 704 trials, at any of these thread counts
        cap + 37: {threads: [tuple(range(c, 68, 3)) for c in range(3)]
                   for threads in ("1", "2", "3")},
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
    assert chunk_sizes(cap + 37, plans[cap + 37]["1"]) == [709, 709, 704]


def test_pooled_benchmark_sweep_is_one_even_stack_per_worker(monkeypatch):
    """The 64-QAM fast,sphere sweep of 8 points x 100 trials (blocks of 32,
    32, 32 and 4) at two threads is two chunks of 400 trials, each holding
    64 and 36 trials of the points in turn, so both hold every point."""
    cfg = small_config(decoders=("fast", "sphere"), modulation=64, snr_start=10.0,
                       snr_stop=24.0, snr_step=2.0, trials=100, seed=1)
    calls = recording_chunks(monkeypatch)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setenv("STC_THREADS", "2")
    run_sweep(cfg)
    assert InlinePool.sizes == [2]
    assert chunk_sizes(100, calls) == [400, 400]
    for chunk, first in zip(calls, (64, 36)):
        held = [0] * 8
        for pi, lo, hi in block_segments(100, chunk):
            held[pi] += hi - lo
        assert held == [first, 100 - first] * 4


def fewest_fitting(sizes):
    """The fewest chunks whose dealt chunks hold at most MAX_CHUNK trials each."""
    return next(count for count in itertools.count(1)
                if max(sum(sizes[b] for b in chunk) for chunk in dealt(sizes, count))
                <= harness.MAX_CHUNK)


@pytest.mark.parametrize("trials", (1, 31, 32, 33, 40, 300, 1024, 1061, 3000))
@pytest.mark.parametrize("points", (1, 2, 5, 9))
def test_chunk_plan_covers_each_block_once_in_order(trials, points):
    """Every plan holds each block of the sweep in exactly one chunk, each
    chunk's blocks ascending, each chunk at most MAX_CHUNK trials, and chunk
    totals within STREAM_BLOCK trials of each other. It has max(min(threads,
    blocks), fewest) chunks, fewest being the least number whose dealt
    chunks fit under MAX_CHUNK, and it is that dealing."""
    sizes = [min(harness.STREAM_BLOCK, trials - lo)
             for lo in range(0, trials, harness.STREAM_BLOCK)] * points
    fewest = fewest_fitting(sizes)
    for threads in (1, 8, 12, 10_000):
        plan = harness._chunk_plan(trials, points, threads)
        assert len(plan) == max(min(threads, len(sizes)), fewest)
        assert sorted(itertools.chain(*plan)) == list(range(len(sizes)))
        assert all(list(chunk) == sorted(set(chunk)) for chunk in plan)
        totals = chunk_sizes(trials, plan)
        assert 1 <= min(totals) and max(totals) <= harness.MAX_CHUNK
        assert max(totals) - min(totals) <= harness.STREAM_BLOCK
        assert plan == dealt(sizes, len(plan))


def test_chunk_plan_adds_chunks_until_the_dealt_ones_fit(monkeypatch):
    """Dealt chunks can overflow where the trials would fit in whole: 3
    points of blocks of 32 and 8 trials (120 in all) dealt into two chunks
    give one of 72, over a cap of 64, so the plan takes three."""
    monkeypatch.setattr(harness, "MAX_CHUNK", 2 * harness.STREAM_BLOCK)
    assert chunk_sizes(40, dealt([32, 8] * 3, 2)) == [72, 48]
    plan = harness._chunk_plan(40, 3, 1)
    assert plan == [(0, 5), (1, 3, 4), (2,)]
    assert chunk_sizes(40, plan) == [40, 48, 32]


def one_point_build(cfg, pi, snr):
    """The matrices and received stack of point ``pi`` built alone, at its
    one noise variance, from its blocks' streams."""
    stack = harness._InstanceStack(cfg.trials, cfg.channel, cfg.code, st.make_qam(cfg.modulation))
    for block, lo in enumerate(range(0, cfg.trials, harness.STREAM_BLOCK)):
        stack.draw(slice(lo, lo + harness.STREAM_BLOCK), st.make_rng(cfg.seed, pi, block))
    return stack.build(st.snr_to_n0(snr))


def test_chunks_across_points_build_each_row_as_its_point_alone(monkeypatch):
    """A serial sweep that fits one chunk decodes it with one decode_stack
    call, and under a cap of three blocks its two dealt chunks each span
    every point, short blocks inside them; either way every matrix and
    received row equals the one-point build bit for bit, so each row carries
    its point's noise variance."""
    cfg = small_config(trials=40, snr_stop=18.0, snr_step=6.0, seed=11)  # 4 points, 8 blocks
    calls = recording_decode_stack(monkeypatch)
    chunks = recording_chunks(monkeypatch)
    monkeypatch.setenv("STC_THREADS", "1")
    run_sweep(cfg)
    assert [len(matrices) for matrices, *_ in calls] == [160]
    calls.clear()
    chunks.clear()
    monkeypatch.setattr(harness, "MAX_CHUNK", 3 * harness.STREAM_BLOCK)
    run_sweep(cfg)
    # blocks of 32 and 8 trials in turn, dealt: 32 + 8 + 32 + 8 trials each
    assert chunks == [(0, 3, 4, 7), (1, 2, 5, 6)]
    assert [len(matrices) for matrices, *_ in calls] == [80, 80]
    matrices = np.concatenate([call[0] for call in calls])
    received = np.concatenate([call[1] for call in calls])
    columns = np.concatenate([block_columns(40, chunk) for chunk in chunks])
    want = [one_point_build(cfg, pi, snr) for pi, snr in enumerate(cfg.snr_points())]
    assert matrices.tobytes() == np.concatenate([h for h, _ in want])[columns].tobytes()
    assert received.tobytes() == np.concatenate([y for _, y in want])[columns].tobytes()


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
    cfg = small_config(trials=40, snr_stop=18.0, snr_step=6.0)  # two chunks of 80 trials
    report = run_sweep(cfg)
    assert len(recorded) == 2
    for name in cfg.decoders:
        rows = [row for row in report.rows if row.decoder == name]
        assert all(type(row.time_ns_mean) is float for row in rows)
        assert sum(row.time_ns_mean * row.trials for row in rows) == pytest.approx(
            sum(elapsed[name] for elapsed in recorded), rel=1e-12)


def test_sweep_rows_do_not_depend_on_the_cut(monkeypatch):
    """Any cover of the block sequence by chunks gives the same rows but
    their wall time: every block alone, the whole sweep as one chunk, uneven
    ranges, one spanning three points with short blocks inside, and uneven
    chunks of blocks that are not neighbours, listed out of order. Under
    each, ``time_ns_mean * trials`` sums over the points to each decoder's
    ``decode_stack`` time."""
    cfg = small_config(decoders=("exhaustive", "fast", "sphere"), ordering="blast",
                       trials=40, snr_stop=18.0, snr_step=6.0)  # 4 points, 8 blocks
    covers = {
        "alone": [(block,) for block in range(8)],
        "whole": [tuple(range(8))],
        # blocks 1-5: point 0's short block, point 1 (short block inside) and point 2
        "uneven": [(0,), (1, 2, 3, 4, 5), (6, 7)],
        # the short blocks of points 0 and 3 with point 2's whole one, then the rest
        "scattered": [(1, 4, 7), (0, 6), (2, 3, 5)],
    }
    recorded = recording_elapsed(monkeypatch)
    monkeypatch.setenv("STC_THREADS", "1")
    rows = {}
    for label, cover in covers.items():
        monkeypatch.setattr(harness, "_chunk_plan", lambda *args, cover=cover: cover)
        recorded.clear()
        report = run_sweep(cfg)
        rows[label] = without_time(report.rows)
        assert len(recorded) == len(cover)
        for name in cfg.decoders:
            assert sum(row.time_ns_mean * row.trials for row in report.rows
                       if row.decoder == name) == pytest.approx(
                sum(elapsed[name] for elapsed in recorded), rel=1e-12)
    assert rows["alone"] == rows["whole"] == rows["uneven"] == rows["scattered"]


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


def serve_table(monkeypatch, table):
    """Make each chunk of a serial sweep return its trials' columns of
    ``table``, a (decoders, 4, points * trials) array in the sweep's order."""

    def run_chunk(cfg, blocks):
        return table[..., block_columns(cfg.trials, blocks)]

    monkeypatch.setenv("STC_THREADS", "1")
    monkeypatch.setattr(harness, "_run_chunk", run_chunk)


def test_sweep_p95_matches_numpy_percentile(monkeypatch):
    """run_sweep's written-out linear rule is float(np.percentile(x, 95)) bit
    for bit on integer-valued node counts of every length from 1 to 300 and
    of 1000 and 10000, one kind per SNR point: few distinct values, all
    equal, values up to 2**40, ties near 2**40 and a Pareto tail."""
    rng = np.random.default_rng(35)
    for n in (*range(1, 301), 1000, 10000):
        kinds = [
            rng.integers(0, 4, n),
            np.full(n, 2**40),
            rng.integers(0, 2**40, n, endpoint=True),
            rng.integers(2**40 - 3, 2**40, n, endpoint=True),
            np.floor(rng.pareto(1.2, n) * 1000),
        ]
        table = np.zeros((1, 4, len(kinds) * n))
        table[0, 1] = np.concatenate(kinds)
        serve_table(monkeypatch, table)
        cfg = small_config(decoders=("fast",), trials=n, snr_stop=4.0, snr_step=1.0)
        got = [row.nodes_p95.hex() for row in run_sweep(cfg).rows]
        assert got == [float(np.percentile(x.astype(float), 95)).hex() for x in kinds], n


@pytest.mark.parametrize("trials", (1, 45))
def test_sweep_rows_match_per_point_aggregation(monkeypatch, trials):
    """Every row equals its point's own per-trial results, decoded alone and
    aggregated with numpy (np.percentile for nodes_p95): at one trial, and at
    45 (a short last block), each time with one serial chunk that spans the
    three points. Pooled rows equal serial rows."""
    cfg = small_config(decoders=("fast", "sphere"), modulation=16, trials=trials,
                       snr_stop=12.0, snr_step=6.0, seed=11)
    per_point = -(-trials // harness.STREAM_BLOCK)
    assert harness._chunk_plan(trials, 3, 1) == [tuple(range(3 * per_point))]
    expected = []
    for pi, snr in enumerate(cfg.snr_points()):
        results = harness._run_chunk(cfg, tuple(range(pi * per_point, (pi + 1) * per_point)))
        for name in sorted(cfg.decoders):
            errors, nodes, sorts, _ = results[cfg.decoders.index(name)]
            expected.append(SweepRow(
                snr_db=snr, decoder=name, trials=trials,
                ser=float(errors.sum()) / (4.0 * trials),
                nodes_mean=float(nodes.mean()),
                nodes_p95=float(np.percentile(nodes, 95)),
                nodes_max=int(nodes.max()),
                sorts_mean=float(sorts.sum()) / trials,
                time_ns_mean=0.0,
            ))
    monkeypatch.setenv("STC_THREADS", "1")
    assert without_time(run_sweep(cfg).rows) == expected
    monkeypatch.setenv("STC_THREADS", "2")
    assert without_time(run_sweep(cfg).rows) == expected


@pytest.mark.parametrize("threads", ("1", "2"))
def test_sweep_rows_match_the_fixture(monkeypatch, threads):
    """No row moved: every field but time_ns_mean of the benchmark's three
    sweep workloads at seeds 1 and 7, a rapid BLAST sweep, a markov sweep, a
    noise-free sweep and a short 64-QAM sweep equals, floats as hex, the rows
    recorded in rows_fixture.json (tests/make_rows_fixture.py), serially and
    with a two-worker pool."""
    fixture = json.loads(FIXTURE.read_text())
    assert tuple(fixture["fields"]) == FIELDS
    monkeypatch.setenv("STC_THREADS", threads)
    for case in fixture["cases"]:
        cfg = SweepConfig(**dict(case["config"], decoders=tuple(case["config"]["decoders"])))
        assert [row_record(row) for row in run_sweep(cfg).rows] == case["rows"], case["name"]


@pytest.mark.parametrize("threads", ("1", "2"))
def test_verify_values_match_the_fixture(monkeypatch, threads):
    """No verify value moved: every check of every suite at 60 trials and
    seeds 0 and 5 (name, measured value, threshold, comparison and verdict)
    equals, floats as hex, the checks recorded in rows_fixture.json."""
    fixture = json.loads(FIXTURE.read_text())
    assert tuple(fixture["check_fields"]) == CHECK_FIELDS
    assert {case["suite"] for case in fixture["verify"]} == set(harness.VERIFICATION_SUITES)
    monkeypatch.setenv("STC_THREADS", threads)
    for case in fixture["verify"]:
        assert verify_record(case["suite"], case["seed"]) == case["checks"], case["name"]


def test_thread_count_defaults_to_the_cpus_the_process_may_run_on(monkeypatch):
    """Without STC_THREADS the pool is capped at the CPUs in the process's
    affinity mask, not at every CPU of the machine; where the platform has no
    affinity call, at the CPU count."""
    monkeypatch.delenv("STC_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
    assert harness._thread_count() == 3
    monkeypatch.setenv("STC_THREADS", "2")
    assert harness._thread_count() == 2
    monkeypatch.delenv("STC_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert harness._thread_count() == 64


def test_entry_points_never_load_numpy_ma(tmp_path):
    """numpy.ma costs a fresh process about 10 ms to import on a 2-vCPU
    Xeon, and np.percentile, np.median and np.unique load it. Neither
    ``import stcsim`` nor a sweep, ``simulate`` or the alamouti verify suite
    (a median) may."""
    script = textwrap.dedent("""
        import sys
        import stcsim
        assert "numpy.ma" not in sys.modules, "loaded by import stcsim"
        from stcsim import cli, harness
        harness.run_sweep(harness.SweepConfig(decoders=("fast", "sphere"), trials=40,
                                              snr_stop=6.0, snr_step=6.0))
        assert cli.main(["simulate", "--trials", "20", "--snr-stop", "4", "--out", sys.argv[1]]) == 0
        assert cli.main(["verify", "--suite", "alamouti", "--trials", "20"]) == 0
        assert "numpy.ma" not in sys.modules, "loaded by an entry point"
    """)
    src = str(Path(st.__file__).resolve().parents[1])
    env = dict(os.environ, STC_THREADS="1", PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path / "sweep.csv")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
