import json

import numpy as np
import pytest

import stcsim as st
from stcsim import harness
from stcsim.cli import main


def pairs(arr):
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["simulate", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--snr-start" in out and "--ordering" in out


def test_bad_arguments_exit_2(capsys):
    assert main(["simulate", "--nope"]) == 2
    assert main([]) == 2
    assert main(["simulate", "--code", "golden-dv"]) == 2  # --out missing


def test_simulate_grid_and_rows(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(
        [
            "simulate", "--code", "golden-dv", "--decoder", "fast,sphere",
            "--modulation", "4", "--channel", "quasistatic",
            "--snr-start", "0", "--snr-stop", "30", "--snr-step", "2",
            "--trials", "3", "--seed", "1", "--ordering", "none",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 16 * 2  # 16 SNR points x 2 decoders


def test_simulate_rejects_invalid_combo(tmp_path, capsys):
    code = main(
        [
            "simulate", "--code", "overlaid-alamouti", "--decoder", "fast",
            "--trials", "2", "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_runs_and_exits_zero(capsys):
    assert main(["verify", "--suite", "mindet", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "suite mindet" in out
    assert "result: PASS" in out
    assert main(["verify", "--suite", "theorem1", "--trials", "500", "--seed", "7"]) == 0


def test_flag_order_insensitive(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["simulate", "--trials", "5", "--seed", "2", "--snr-stop", "4",
                 "--out", str(a), "--decoder", "fast", "--modulation", "16"]) == 0
    assert main(["simulate", "--decoder", "fast", "--modulation", "16", "--out", str(b),
                 "--snr-stop", "4", "--seed", "2", "--trials", "5"]) == 0

    def strip_time(path):
        return [",".join(line.split(",")[:-1]) for line in path.read_text().splitlines()]

    assert strip_time(a) == strip_time(b)


def test_decode_with_channel_coefficients(tmp_path, capsys):
    rng = st.make_rng(21)
    alphabet = st.make_qam(16)
    ch = st.sample_channel(rng, "quasistatic")
    idx = rng.integers(0, 16, 4)
    cw = st.encode(alphabet.symbols[idx], "golden-dv")
    raw = np.zeros((2, 2), dtype=complex)
    for j in range(2):
        for k in range(2):
            raw[j, k] = cw[k, 0] * ch.h[0, j, k] + cw[k, 1] * ch.h[1, j, k]
    payload = {
        "code": "golden-dv",
        "modulation": 16,
        "decoder": "fast",
        "h": pairs(ch.h),
        "y": pairs(raw.reshape(-1)),
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload))
    assert main(["decode", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"indices: {' '.join(str(i) for i in idx)}" in out
    assert "nodes_visited:" in out


def test_decode_with_effective_matrix_alamouti(tmp_path, capsys):
    rng = st.make_rng(22)
    alphabet = st.make_qam(4)
    ch = st.sample_channel(rng, "quasistatic")
    eff = st.effective_channel(ch, "overlaid-alamouti")
    idx = rng.integers(0, 4, 4)
    stacked = eff.h @ alphabet.symbols[idx]
    flags = np.asarray(eff.conjugated)
    raw = np.where(flags, np.conj(stacked), stacked)  # undo stacking for the file
    payload = {
        "code": "overlaid-alamouti",
        "modulation": 4,
        "decoder": "alamouti",
        "H": pairs(eff.h),
        "y": pairs(raw),
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload))
    assert main(["decode", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"indices: {' '.join(str(i) for i in idx)}" in out


@pytest.mark.parametrize("decoder", ("exhaustive", "sphere"))
def test_decode_remaining_decoders(tmp_path, capsys, decoder):
    rng = st.make_rng(23)
    alphabet = st.make_qam(4)
    ch = st.sample_channel(rng, "rapid")
    eff = st.effective_channel(ch, "golden-wimax")
    idx = rng.integers(0, 4, 4)
    payload = {
        "code": "golden-wimax",
        "modulation": 4,
        "decoder": decoder,
        "h": pairs(ch.h),
        "y": pairs(eff.h @ alphabet.symbols[idx]),
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload))
    assert main(["decode", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"indices: {' '.join(str(i) for i in idx)}" in out


def test_decode_error_paths(tmp_path, capsys):
    assert main(["decode", "--input", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["decode", "--input", str(bad)]) == 2

    both = tmp_path / "both.json"
    both.write_text(
        json.dumps(
            {
                "code": "golden-dv",
                "modulation": 4,
                "decoder": "fast",
                "h": pairs(np.zeros((2, 2, 2))),
                "H": pairs(np.eye(4)),
                "y": pairs(np.zeros(4)),
            }
        )
    )
    assert main(["decode", "--input", str(both)]) == 2
    err = capsys.readouterr().err
    assert "exactly one of" in err


def _decode_file(tmp_path, **fields):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(fields))
    return ["decode", "--input", str(path)]


@pytest.mark.parametrize("key", ("y", "h", "H"))
@pytest.mark.parametrize("bad", (float("nan"), float("inf"), -float("inf")))
def test_decode_rejects_non_finite(tmp_path, capsys, key, bad):
    fields = {"code": "golden-dv", "modulation": 4, "decoder": "sphere", "y": pairs(np.ones(4))}
    if key == "H":
        fields["H"] = pairs(np.eye(4))
    else:
        fields["h"] = pairs(np.ones((2, 2, 2)))
    field = np.array(fields[key], dtype=float)
    field.flat[1] = bad
    fields[key] = field.tolist()
    assert main(_decode_file(tmp_path, **fields)) == 2
    assert f"non-finite value in '{key}'" in capsys.readouterr().err


def test_decode_rank_deficient_matrix_only_exhaustive(tmp_path, capsys):
    fields = dict(code="golden-dv", modulation=4, H=pairs(np.ones((4, 4))), y=pairs(np.ones(4)))
    assert main(_decode_file(tmp_path, decoder="exhaustive", **fields)) == 0
    assert "cost:" in capsys.readouterr().out
    assert main(_decode_file(tmp_path, decoder="sphere", **fields)) == 2
    assert "degenerate channel" in capsys.readouterr().err


def test_decode_fast_refuses_matrix_without_golden_structure(tmp_path, capsys):
    rng = np.random.default_rng(3)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    args = _decode_file(
        tmp_path, code="golden-dv", modulation=4, decoder="fast", H=pairs(h), y=pairs(np.ones(4))
    )
    assert main(args) == 2
    assert "golden structure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "decoder,code", (("alamouti", "golden-dv"), ("fast", "overlaid-alamouti"))
)
def test_registry_rules_shared_by_validate_and_decode(tmp_path, capsys, decoder, code):
    with pytest.raises(ValueError) as excinfo:
        harness.SweepConfig(code=code, decoders=(decoder,)).validate()
    args = _decode_file(
        tmp_path, code=code, modulation=4, decoder=decoder,
        h=pairs(np.ones((2, 2, 2))), y=pairs(np.ones(4)),
    )
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {excinfo.value}\n"


@pytest.mark.parametrize("decoder", harness.DECODER_NAMES)
def test_simulate_accepts_every_registry_name(tmp_path, decoder):
    code = harness.DECODERS[decoder].code_variants[0]
    out = tmp_path / "run.csv"
    assert main(["simulate", "--code", code, "--decoder", decoder, "--trials", "2",
                 "--snr-stop", "0", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[1] == decoder


@pytest.mark.parametrize(
    "document,message",
    (
        (5, "must be a JSON object"),
        (None, "must be a JSON object"),
        ({"modulation": None}, "field 'modulation' must be an integer"),
        ({"modulation": 4.7}, "field 'modulation' must be an integer"),
        ({"modulation": "4"}, "field 'modulation' must be an integer"),
        ({"decoder": ["sphere"]}, "field 'decoder' must be a string"),
        ({"y": {"re": 1.0}}, "in 'y'"),
    ),
)
def test_decode_rejects_malformed_documents(tmp_path, capsys, document, message):
    if isinstance(document, dict):
        fields = {"code": "golden-dv", "modulation": 4, "decoder": "sphere",
                  "H": pairs(np.eye(4)), "y": pairs(np.ones(4))}
        fields.update(document)
        document = fields
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(document))
    assert main(["decode", "--input", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_decode_accepts_integral_float_modulation(tmp_path, capsys):
    args = _decode_file(tmp_path, code="golden-dv", modulation=4.0, decoder="sphere",
                        H=pairs(np.eye(4)), y=pairs(np.ones(4) + 1j))
    assert main(args) == 0
    assert "indices:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "grid",
    (("--snr-step", "nan"), ("--snr-stop", "inf"), ("--snr-start=-inf",),
     ("--snr-start", "30", "--snr-stop", "0"), ("--snr-start=4000", "--snr-stop=4000"),
     ("--snr-start=-4000", "--snr-stop=-4000", "--noise-free")),
)
def test_simulate_rejects_bad_snr_grid(tmp_path, capsys, grid):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--trials", "2", "--out", str(out), *grid]) == 2
    assert "error: snr" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials", ("0", "-4"))
def test_verify_rejects_trials_below_one(capsys, trials):
    assert main(["verify", "--suite", "sorts", "--trials", trials]) == 2
    assert "trials must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ("abc", "1.5"))
def test_simulate_rejects_non_integer_thread_count(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("STC_THREADS", value)
    out = tmp_path / "x.csv"
    assert main(["simulate", "--trials", "2", "--out", str(out)]) == 2
    assert f"error: STC_THREADS must be an integer, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    (("simulate", "--trials", "2", "--seed", "-1"),
     ("verify", "--suite", "sorts", "--seed", "-2")),
    ids=("simulate", "verify"),
)
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    extra = ("--out", str(out)) if argv[0] == "simulate" else ()
    assert main([*argv, *extra]) == 2
    assert f"error: seed must be a non-negative integer, got {argv[-1]}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_rho_without_markov(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--channel", "rapid", "--rho", "0.3", "--trials", "2",
                 "--out", str(out)]) == 2
    assert "error: rho applies only to the markov channel" in capsys.readouterr().err
    assert not out.exists()
