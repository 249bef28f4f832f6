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
    h = st.sample_channel(rng, "quasistatic")
    idx = rng.integers(0, 16, 4)
    cw = st.encode(alphabet.symbols[idx], "golden-dv")
    raw = np.zeros((2, 2), dtype=complex)
    for j in range(2):
        for k in range(2):
            raw[j, k] = cw[k, 0] * h[0, j, k] + cw[k, 1] * h[1, j, k]
    payload = {
        "code": "golden-dv",
        "modulation": 16,
        "decoder": "fast",
        "h": pairs(h),
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
    eff = st.effective_channel(st.sample_channel(rng, "quasistatic"), "overlaid-alamouti")
    idx = rng.integers(0, 4, 4)
    stacked = eff.h @ alphabet.symbols[idx]
    # undo stacking for the file: conjugating twice is the identity
    raw = st.stack_samples(stacked, "overlaid-alamouti")
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


# Per decoder, a code and a channel model it accepts.
_DECODE_SETUPS = {
    "exhaustive": ("golden-wimax", "rapid"),
    "sphere": ("golden-wimax", "rapid"),
    "fast": ("golden-wimax", "rapid"),
    "alamouti": ("overlaid-alamouti", "quasistatic"),
}


@pytest.mark.parametrize("decoder", tuple(_DECODE_SETUPS))
def test_decode_remaining_decoders(tmp_path, capsys, decoder):
    """CLI ``decode`` of one instance prints what the same instance decodes
    to as row k of a larger stack."""
    code, model = _DECODE_SETUPS[decoder]
    rng = st.make_rng(23)
    alphabet = st.make_qam(4)
    chs = np.stack([st.sample_channel(rng, model) for _ in range(5)])
    idx = rng.integers(0, 4, (5, 4))
    matrices = st.effective_matrix(chs, code)
    received = (matrices @ alphabet.symbols[idx][..., None])[..., 0]
    received += st.stack_samples(
        np.array([st.sample_noise(rng, st.snr_to_n0(30.0)) for _ in range(5)]), code
    )
    decoded, _ = harness.decode_stack(matrices, received, alphabet, (decoder,), "none")
    k = 3
    row = decoded[decoder].row(k)
    payload = {
        "code": code,
        "modulation": 4,
        "decoder": decoder,
        "h": pairs(chs[k]),
        # the raw samples: conjugating twice is the identity
        "y": pairs(st.codes.stack_samples(received[k], code)),
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload))
    assert main(["decode", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"indices: {' '.join(str(i) for i in idx[k])}" in out
    assert out == (
        f"indices: {' '.join(str(i) for i in row.indices)}\n"
        f"cost: {row.cost:.12g}\n"
        f"nodes_visited: {row.nodes_visited}\n"
    )


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
@pytest.mark.parametrize(
    "bad",
    # a JSON integer beyond the float range does not convert to a float at all
    (float("nan"), float("inf"), -float("inf"), pytest.param(-10 ** 400, id="huge-int")),
)
def test_decode_rejects_non_finite(tmp_path, capsys, key, bad):
    fields = {"code": "golden-dv", "modulation": 4, "decoder": "sphere", "y": pairs(np.ones(4))}
    if key == "H":
        fields["H"] = pairs(np.eye(4))
    else:
        fields["h"] = pairs(np.ones((2, 2, 2)))
    first = fields[key]
    while isinstance(first[0], list):
        first = first[0]
    first[1] = bad  # the first entry's imaginary part
    assert main(_decode_file(tmp_path, **fields)) == 2
    assert f"non-finite value in '{key}'" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("decoder", harness.DECODER_NAMES)
def test_decode_overflowing_cost_exits_2(tmp_path, capsys, decoder):
    code = harness.DECODERS[decoder].code_variants[0]
    h = st.sample_channel(st.make_rng(24), "quasistatic")
    y = [[1e200, 0.0], [1e200, 0.0], [0.0, 0.0], [0.0, 0.0]]
    args = _decode_file(tmp_path, code=code, modulation=16, decoder=decoder, h=pairs(h), y=y)
    assert main(args) == 2
    assert "overflowed" in capsys.readouterr().err


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


def test_decode_rounded_effective_matrix(tmp_path, capsys):
    """A golden H written with six decimals is about 1e-7 of ||H||_F off its
    structure: fast refuses it and says by how much, while sphere and
    exhaustive decode it. Rounding keeps an overlaid-Alamouti H's pattern of
    equal and conjugate entries, so r12 = r34 = 0 still, and alamouti decodes it."""
    h = st.sample_channel(st.make_rng(25), "quasistatic")
    for decoder, code, status in (("fast", "golden-dv", 2), ("sphere", "golden-dv", 0),
                                  ("exhaustive", "golden-dv", 0),
                                  ("alamouti", "overlaid-alamouti", 0)):
        rounded = np.round(st.effective_matrix(h, code), 6)
        fields = dict(code=code, modulation=16, H=pairs(rounded), y=pairs(np.ones(4)))
        assert main(_decode_file(tmp_path, decoder=decoder, **fields)) == status
        captured = capsys.readouterr()
        if status:
            assert "golden structure" in captured.err
            assert captured.err.rstrip().endswith("of ||H||_F, above 1e-12")
        else:
            assert "cost:" in captured.out


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


@pytest.mark.parametrize("channel", st.CHANNEL_MODELS)
def test_simulate_accepts_every_channel_model(tmp_path, channel):
    out = tmp_path / "run.csv"
    rho = ["--rho", "0.5"] if channel == "markov" else []
    assert main(["simulate", "--channel", channel, *rho, "--trials", "2",
                 "--snr-stop", "0", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[4].startswith(channel)


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
        ({"y": [[True, False]] * 4}, "expected nested [re, im] pairs of shape (4,) in 'y'"),
        ({"y": [["0.7", "0.7"]] * 4}, "expected nested [re, im] pairs of shape (4,) in 'y'"),
        ({"H": [[[1.0, False]] * 4] * 4}, "expected nested [re, im] pairs of shape (4, 4) in 'H'"),
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
     ("--snr-start=-4000", "--snr-stop=-4000", "--noise-free"),
     ("--snr-start", "0", "--snr-stop", "1e-291", "--snr-step", "1e-300")),
)
def test_simulate_rejects_bad_snr_grid(tmp_path, capsys, grid):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--trials", "2", "--out", str(out), *grid]) == 2
    assert "error: snr" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_snr_points_that_print_alike(tmp_path, capsys):
    out = tmp_path / "x.csv"
    grids = (
        (("10", "10.000000004", "1e-9"), "start=10.0 stop=10.000000004 step=1e-09",
         "has points that print alike in the CSV (9 significant digits)"),
        # grids far too long to build are refused by the bound on their length
        (("0", "30", "1e-300"), "start=0.0 stop=30.0 step=1e-300",
         "has more than 100000 points"),
        (("-30", "0", "1e-300"), "start=-30.0 stop=0.0 step=1e-300",
         "has more than 100000 points"),
    )
    for (start, stop, step), shown, reason in grids:
        grid = (f"--snr-start={start}", "--snr-stop", stop, "--snr-step", step)
        assert main(["simulate", "--trials", "2", "--out", str(out), *grid]) == 2
        assert capsys.readouterr().err == f"error: snr grid {shown} {reason}\n"
        assert not out.exists()


def test_simulate_rejects_more_trials_than_one_word_indexes(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--trials", str(2**32 + 1), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: trials must be at most 4294967296 (2**32), got 4294967297\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("trials", ("0", "-4"))
def test_verify_rejects_trials_below_one(capsys, trials):
    assert main(["verify", "--suite", "sorts", "--trials", trials]) == 2
    assert "trials must be at least 1" in capsys.readouterr().err


def test_verify_mindet_rejects_negative_trials(capsys):
    assert main(["verify", "--suite", "mindet", "--trials", "-5"]) == 2
    captured = capsys.readouterr()
    assert "error: trials must be at least 0" in captured.err
    assert captured.out == ""


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
