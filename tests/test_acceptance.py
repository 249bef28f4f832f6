"""End-to-end acceptance gate.

One test per acceptance criterion, each printing a single PASS/FAIL line
(visible with ``pytest -s`` or in failure output). Tolerances and trial
counts are pinned here; run times are asserted where the criterion states a
budget. Several criteria delegate to the library's verification suites so
the CLI ``verify`` command exercises exactly the same checks.
"""

import math
import time

import numpy as np

import stcsim as st
from stcsim import decoders as dec
from stcsim.cli import main
from stcsim.harness import SweepConfig, run_sweep, run_verification

SEED = 7


def _report_line(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_theorem1_suite():
    start = time.time()
    report = run_verification("theorem1", 100_000, seed=SEED)
    elapsed = time.time() - start
    worst = max(c.measured for c in report.checks)
    ok = report.passed and elapsed < 60.0
    assert _report_line(
        1, ok, f"Im r12/r34 structure over 9x1e5 channels, worst {worst:.3e}, {elapsed:.1f}s"
    ), "\n".join(report.format_lines())


def test_criterion_02_column_inner_product_identity():
    rng = st.make_rng(SEED, 20)
    h = st.sample_channels(rng, "rapid", 10_000)
    eff = st.effective_matrix(h, "golden-dv")
    direct = np.sum(np.conj(eff[..., :, 0]) * eff[..., :, 1], axis=-1)
    closed = (
        np.abs(h[..., 0, 0, 0]) ** 2
        + np.abs(h[..., 0, 1, 0]) ** 2
        - np.abs(h[..., 1, 0, 1]) ** 2
        - np.abs(h[..., 1, 1, 1]) ** 2
    ) / math.sqrt(5)
    scale = (
        np.abs(h[..., 0, 0, 0]) ** 2
        + np.abs(h[..., 0, 1, 0]) ** 2
        + np.abs(h[..., 1, 0, 1]) ** 2
        + np.abs(h[..., 1, 1, 1]) ** 2
    ) / math.sqrt(5)
    rel = float(np.max(np.abs(direct - closed) / scale))
    ok = rel <= 1e-12
    assert _report_line(
        2, ok, f"closed form vs direct inner product over 1e4 matrices, rel dev {rel:.3e}"
    )


def test_criterion_03_ml_equivalence():
    start = time.time()
    report = run_verification("mlequiv", 2_000, seed=SEED)
    elapsed = time.time() - start
    worst = max(c.measured for c in report.checks)
    ok = report.passed and elapsed < 300.0
    assert _report_line(
        3,
        ok,
        f"fast/sphere/alamouti vs exhaustive (2000@M=4 + 200@M=16, SNR 0/10/20, "
        f"fast also rapid), worst cost dev {worst:.3e}, {elapsed:.1f}s",
    ), "\n".join(report.format_lines())


def test_criterion_04_sort_counts():
    rng = st.make_rng(SEED, 40)
    snr_by_m = {4: 10.0, 16: 14.0, 64: 20.0, 256: 26.0}
    bad = 0
    total = 0
    for m, trials in ((4, 200), (16, 200), (64, 200), (256, 100)):
        alphabet = st.make_qam(m)
        for _ in range(trials):
            ch = st.sample_channel(rng, "quasistatic")
            idx = rng.integers(0, m, 4)
            eff = st.effective_channel(ch, "golden-dv")
            y = eff.h @ alphabet.symbols[idx] + eff.stack(
                st.sample_noise(rng, st.snr_to_n0(snr_by_m[m]))
            )
            total += 1
            bad += int(dec.decode_fast_golden(eff, y, alphabet).full_sorts != 2)
    alphabet = st.make_qam(64)
    above = 0
    for _ in range(200):
        ch = st.sample_channel(rng, "quasistatic")
        idx = rng.integers(0, 64, 4)
        eff = st.effective_channel(ch, "golden-dv")
        y = eff.h @ alphabet.symbols[idx] + eff.stack(
            st.sample_noise(rng, st.snr_to_n0(20.0))
        )
        above += int(dec.decode_sphere_conventional(eff, y, alphabet).full_sorts > 2)
    ok = bad == 0 and above > 0
    assert _report_line(
        4,
        ok,
        f"fast full_sorts==2 on {total}/{total} decodes across M in (4,16,64,256); "
        f"conventional 64-QAM full_sorts>2 on {above}/200",
    )


def test_criterion_05_worst_case_node_formula():
    # closed form M + M^2 + 4*M^2.5 under the normative counting convention;
    # evaluates to 148 at M=4 and 4368 at M=16
    rng = st.make_rng(SEED, 50)
    measured = {}
    for m in (4, 16):
        alphabet = st.make_qam(m)
        ch = st.sample_channel(rng, "quasistatic")
        idx = rng.integers(0, m, 4)
        eff = st.effective_channel(ch, "golden-dv")
        y = eff.h @ alphabet.symbols[idx] + eff.stack(st.sample_noise(rng, 0.2))
        result = dec.decode_fast_golden(eff, y, alphabet, prune=False)
        measured[m] = result.nodes_visited
    expected = {m: m + m * m + 4 * m * m * math.isqrt(m) for m in (4, 16)}
    ok = measured == expected
    assert _report_line(
        5, ok, f"pruning-disabled node counts {measured} == formula {expected}"
    )


def test_criterion_06_complexity_reduction_band():
    start = time.time()
    cfg = SweepConfig(
        code="golden-dv",
        decoders=("fast", "sphere"),
        modulation=64,
        channel="quasistatic",
        snr_start=10.0,
        snr_stop=24.0,
        snr_step=2.0,
        trials=10_000,
        seed=SEED,
        ordering="none",
    )
    report = run_sweep(cfg)
    elapsed = time.time() - start
    means = {}
    for row in report.rows:
        means.setdefault(row.snr_db, {})[row.decoder] = row.nodes_mean
    ratios = {snr: means[snr]["fast"] / means[snr]["sphere"] for snr in sorted(means)}
    worst = max(ratios.values())
    ok = worst <= 0.75 and elapsed < 1800.0
    detail = (
        f"64-QAM quasistatic, 1e4 trials/point: fast/conventional mean-node ratio "
        f"per SNR point {({k: round(v, 3) for k, v in ratios.items()})}, "
        f"worst {worst:.3f} (band requires <= 0.75), {elapsed:.0f}s"
    )
    assert _report_line(6, ok, detail), detail


def test_criterion_07_alamouti_structure_dichotomy():
    report = run_verification("alamouti", 100_000, seed=SEED)
    quasi = next(c for c in report.checks if "quasistatic" in c.name)
    rapid = next(c for c in report.checks if "median" in c.name)
    ok = report.passed
    assert _report_line(
        7,
        ok,
        f"quasistatic max |r12|,|r34|/||H|| {quasi.measured:.3e} <= 1e-9; rapid median "
        f"|r12|/||H|| {rapid.measured:.3f} > 0.01; structure error raised on rapid",
    ), "\n".join(report.format_lines())


def test_criterion_08_coding_gain_alphabet_independence():
    start = time.time()
    report = run_verification("mindet", seed=SEED)
    elapsed = time.time() - start
    gap = report.checks[0].measured
    ok = report.passed and elapsed < 300.0
    assert _report_line(
        8,
        ok,
        f"min |det delta C| equal for 4-QAM and 16-QAM grids, rel diff {gap:.3e}, {elapsed:.1f}s",
    ), "\n".join(report.format_lines())


def test_criterion_09_qr_route_agreement():
    report = run_verification("qr-agree", 10_000, seed=SEED)
    worst = max(c.measured for c in report.checks)
    ok = report.passed
    assert _report_line(
        9, ok, f"general vs structured QR over 1e4 golden matrices, worst entry dev {worst:.3e}"
    ), "\n".join(report.format_lines())


def test_criterion_10_simulate_determinism(tmp_path):
    args = [
        "simulate", "--code", "golden-dv", "--decoder", "fast,sphere",
        "--modulation", "4", "--channel", "quasistatic",
        "--snr-start", "0", "--snr-stop", "6", "--snr-step", "2",
        "--trials", "200", "--seed", "9", "--ordering", "none",
    ]
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0

    def strip_time(path):
        lines = path.read_bytes().decode().split("\n")
        return "\n".join(",".join(line.split(",")[:-1]) for line in lines if line)

    ok = strip_time(out1) == strip_time(out2)
    assert _report_line(
        10, ok, "two identical simulate invocations byte-identical excluding time column"
    )
