import math

import pytest

import stcsim as st
from stcsim.harness import (
    CSV_HEADER,
    SweepConfig,
    emit_csv,
    run_sweep,
    run_verification,
)


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
        small_config(code="nope").validate()
    with pytest.raises(ValueError):
        small_config(decoders=("fast",), code="overlaid-alamouti").validate()
    with pytest.raises(ValueError):
        small_config(decoders=("alamouti",), code="golden-dv").validate()
    with pytest.raises(ValueError):
        small_config(
            decoders=("alamouti",), code="overlaid-alamouti", channel="rapid"
        ).validate()
    with pytest.raises(ValueError):
        small_config(trials=0).validate()
    with pytest.raises(ValueError):
        small_config(snr_step=0.0).validate()
    with pytest.raises(ValueError):
        small_config(channel="markov").validate()
    with pytest.raises(ValueError):
        small_config(decoders=("exhaustive",), modulation=256).validate()
    with pytest.raises(ValueError):
        small_config(ordering="sideways").validate()


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


def test_verification_unknown_suite():
    with pytest.raises(ValueError):
        run_verification("bogus")
