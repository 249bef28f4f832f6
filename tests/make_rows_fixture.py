#!/usr/bin/env python3
"""Regenerate tests/rows_fixture.json: the "no row moved" fixture.

Run from the repository root:

    PYTHONPATH=src python3 tests/make_rows_fixture.py [--check]

It records three parts, floats as ``float.hex``:

* each sweep below, run serially: every SweepRow field but ``time_ns_mean``;
* every verify suite's checks (name, measured, threshold, comparison,
  verdict) at VERIFY_TRIALS trials and each seed of VERIFY_SEEDS;
* CLI ``decode`` runs: each input, and its exit code, stdout and stderr.

``test_sweep_rows_match_the_fixture``, ``test_verify_values_match_the_fixture``
and ``test_decode_outputs_match_the_fixture`` recompute them, serially and
with STC_THREADS=2, and compare them value for value; the decode test feeds
the recorded inputs. A change that moves values on purpose reruns this
script and names each moved value in CHANGES.md.

With ``--check`` it recomputes every part without writing the fixture,
prints each moved value (old -> new, floats as hex) and exits 1 if any
moved, or if a case was added, removed or reconfigured; else it exits 0.

The sweeps: the benchmark's three sweep workloads (perfbench/workloads.py) at
seeds 1 and 7, a rapid ``--ordering blast`` 16-QAM fast,sphere sweep, a
markov exhaustive,fast,sphere sweep, a noise-free rapid 16-QAM
fast,sphere sweep and a short quasistatic 64-QAM fast,sphere sweep
over 10 to 24 dB, each with a short last block per point.

The decode runs: each registry decoder on each code it accepts, at 4- and
16-QAM, one noisy quasistatic instance each, given as channel coefficients
``h`` at one of the two orders and as the effective matrix ``H`` at the
other, then the refusals: a code or an order the registry refuses, an
unknown decoder, a matrix whose structure the prologue refuses, and an input
with both ``h`` and ``H``.
"""

import argparse
import dataclasses
import io
import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from stcsim import cli, codes
from stcsim.channel import make_rng, sample_channels, snr_to_n0
from stcsim.constellation import make_qam
from stcsim.harness import (DECODERS, VERIFICATION_SUITES, SweepConfig, SweepRow,
                            VerificationCheck, run_sweep, run_verification)

FIXTURE = Path(__file__).resolve().parent / "rows_fixture.json"
FIELDS = tuple(f.name for f in dataclasses.fields(SweepRow) if f.name != "time_ns_mean")
CHECK_FIELDS = tuple(f.name for f in dataclasses.fields(VerificationCheck))
VERIFY_TRIALS = 60
VERIFY_SEEDS = (0, 5)
DECODE_FIELDS = ("exit", "stdout", "stderr")


def sweeps() -> dict:
    """Case name -> SweepConfig keyword arguments."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import WORKLOADS

    cases = {}
    for name in ("qam4-overhead", "qam64-search", "alamouti16"):
        for seed in (1, 7):
            cases[f"{name} seed {seed}"] = dict(WORKLOADS[name].sweep, seed=seed)
    cases["rapid blast 16-QAM"] = dict(
        code="golden-dv", decoders=("fast", "sphere"), modulation=16, channel="rapid",
        snr_start=6.0, snr_stop=24.0, snr_step=6.0, trials=45, seed=5, ordering="blast")
    cases["markov 4-QAM"] = dict(
        code="golden-brv", decoders=("exhaustive", "fast", "sphere"), modulation=4,
        channel="markov", rho=0.9, snr_start=0.0, snr_stop=18.0, snr_step=6.0, trials=70,
        seed=11)
    cases["noise-free 16-QAM"] = dict(
        code="golden-dv", decoders=("fast", "sphere"), modulation=16,
        channel="rapid", snr_start=0.0, snr_stop=12.0, snr_step=12.0, trials=40, seed=3,
        noise_free=True)
    cases["short 64-QAM"] = dict(
        code="golden-dv", decoders=("fast", "sphere"), modulation=64, channel="quasistatic",
        snr_start=10.0, snr_stop=24.0, snr_step=2.0, trials=36, seed=13)
    return cases


def verifications() -> dict:
    """Case name -> (suite, seed)."""
    return {f"{suite} seed {seed}": (suite, seed)
            for suite in VERIFICATION_SUITES for seed in VERIFY_SEEDS}


def _pairs(values) -> list:
    """Complex values as the CLI's nested [re, im] pairs."""
    values = np.asarray(values, dtype=complex)
    return np.stack([values.real, values.imag], axis=-1).tolist()


def decode_inputs() -> dict:
    """Case name -> CLI ``decode`` input (a JSON object)."""
    inputs = {}
    pairs = [(name, code) for name, entry in DECODERS.items() for code in entry.code_variants]
    for p, (name, code) in enumerate(pairs):
        for m in (4, 16):
            rng = make_rng(17, p, m)
            h = sample_channels(rng, "quasistatic", 1)[0]
            matrix = codes.effective_matrix(h, code)
            x = make_qam(m).symbols[rng.integers(0, m, 4)]
            noise = np.sqrt(snr_to_n0(10.0) / 2) * (rng.standard_normal(4)
                                                    + 1j * rng.standard_normal(4))
            payload = dict(code=code, modulation=m, decoder=name,
                           y=_pairs(codes.stack_samples(matrix @ x + noise, code)))
            kind = "hH"[(p + (m == 16)) % 2]
            payload[kind] = _pairs(h if kind == "h" else matrix)
            inputs[f"{name} {code} {m}-QAM {kind}"] = payload
    rng = make_rng(17, len(pairs))
    h = sample_channels(rng, "quasistatic", 1)[0]
    golden = codes.effective_matrix(h, "golden-dv")
    dense = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    y = _pairs(golden @ make_qam(4).symbols[:4])
    refusals = {
        "fast refuses overlaid-alamouti": dict(code="overlaid-alamouti", decoder="fast", h=h),
        "alamouti refuses golden-dv": dict(code="golden-dv", decoder="alamouti", h=h),
        "exhaustive refuses 256-QAM": dict(code="golden-dv", decoder="exhaustive",
                                           modulation=256, h=h),
        "unknown decoder": dict(code="golden-dv", decoder="ml", h=h),
        "fast refuses a dense H": dict(code="golden-dv", decoder="fast", H=dense),
        "alamouti refuses a dense H": dict(code="overlaid-alamouti", decoder="alamouti",
                                           H=dense),
        "sphere refuses a singular H": dict(code="golden-dv", decoder="sphere",
                                            H=golden[:, (0, 0, 2, 3)]),
        "both h and H": dict(code="golden-dv", decoder="sphere", h=h, H=golden),
    }
    for label, fields in refusals.items():
        inputs[label] = {key: _pairs(value) if isinstance(value, np.ndarray) else value
                         for key, value in {"modulation": 4, "y": y, **fields}.items()}
    return inputs


def encode(value):
    return value.hex() if isinstance(value, float) else value


def row_record(row: SweepRow) -> list:
    """The row's fields but ``time_ns_mean``, in FIELDS order, floats as hex."""
    return [encode(getattr(row, field)) for field in FIELDS]


def verify_record(suite: str, seed: int) -> list:
    """The suite's checks at VERIFY_TRIALS trials, each in CHECK_FIELDS
    order, floats as hex."""
    report = run_verification(suite, VERIFY_TRIALS, seed)
    return [[encode(getattr(check, field)) for field in CHECK_FIELDS]
            for check in report.checks]


def decode_record(payload: dict) -> list:
    """``stcsim decode`` on ``payload``, in process: its DECODE_FIELDS."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "instance.json"
        path.write_text(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["decode", "--input", str(path)])
    return [code, out.getvalue(), err.getvalue()]


def _matched(old: list, new: list, kind: str) -> tuple:
    """Lines naming each case of ``kind`` added or removed, and the pairs
    (name, old case, new case) of the cases in both."""
    old_cases = {case["name"]: case for case in old}
    new_cases = {case["name"]: case for case in new}
    lines = [f"{name}: {kind} removed" for name in old_cases if name not in new_cases]
    lines += [f"{name}: {kind} added" for name in new_cases if name not in old_cases]
    both = [(name, old_cases[name], case) for name, case in new_cases.items()
            if name in old_cases]
    return lines, both


def moved(old: list, new: list) -> list:
    """Lines naming each difference between two fixtures' cases: a sweep
    added, removed or reconfigured, a row added or removed, and each moved
    field of a row, as ``old -> new``."""
    lines, both = _matched(old, new, "sweep")
    for name, was, now in both:
        if json.loads(json.dumps(now["config"])) != was["config"]:
            lines.append(f"{name}: config {was['config']} -> {now['config']}")
            continue
        if len(was["rows"]) != len(now["rows"]):
            lines.append(f"{name}: {len(was['rows'])} rows -> {len(now['rows'])}")
        for i, (a, b) in enumerate(zip(was["rows"], now["rows"])):
            lines += [f"{name}: row {i} ({float.fromhex(b[0])} dB, {b[1]}): {field} {x} -> {y}"
                      for field, x, y in zip(FIELDS, a, b) if x != y]
    return lines


def moved_checks(old: list, new: list) -> list:
    """Lines naming each difference between two fixtures' verify cases: a
    case added, removed or reconfigured, a check added or removed, and each
    moved value of a check, as ``old -> new``."""
    lines, both = _matched(old, new, "verify case")
    for name, was, now in both:
        setup = [(case["suite"], case["seed"], case["trials"]) for case in (was, now)]
        if setup[0] != setup[1]:
            lines.append(f"{name}: (suite, seed, trials) {setup[0]} -> {setup[1]}")
            continue
        if len(was["checks"]) != len(now["checks"]):
            lines.append(f"{name}: {len(was['checks'])} checks -> {len(now['checks'])}")
        for i, (a, b) in enumerate(zip(was["checks"], now["checks"])):
            lines += [f"{name}: check {i} ({b[0]}): {field} {x} -> {y}"
                      for field, x, y in zip(CHECK_FIELDS, a, b) if x != y]
    return lines


def moved_decodes(old: list, new: list) -> list:
    """Lines naming each difference between two fixtures' decode runs: a run
    added or removed, a changed input, and each moved output, as ``old -> new``."""
    lines, both = _matched(old, new, "decode run")
    for name, was, now in both:
        if json.loads(json.dumps(now["input"])) != was["input"]:
            lines.append(f"{name}: input changed")
            continue
        lines += [f"{name}: {field} {was[field]!r} -> {now[field]!r}"
                  for field in DECODE_FIELDS if was[field] != now[field]]
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the fixture instead of writing it; "
                             "exit 1 if a value moved")
    args = parser.parse_args()
    os.environ["STC_THREADS"] = "1"
    cases = []
    for name, config in sweeps().items():
        rows = run_sweep(SweepConfig(**config)).rows
        cases.append(dict(name=name, config=config, rows=[row_record(row) for row in rows]))
    verify = [dict(name=name, suite=suite, seed=seed, trials=VERIFY_TRIALS,
                   checks=verify_record(suite, seed))
              for name, (suite, seed) in verifications().items()]
    decode = [dict(name=name, input=payload, **dict(zip(DECODE_FIELDS, decode_record(payload))))
              for name, payload in decode_inputs().items()]
    counts = (f"{sum(len(case['rows']) for case in cases)} rows, "
              f"{sum(len(case['checks']) for case in verify)} verify checks and "
              f"{len(decode)} decode runs")
    if args.check:
        fixture = json.loads(FIXTURE.read_text())
        lines = (moved(fixture["cases"], cases) + moved_checks(fixture["verify"], verify)
                 + moved_decodes(fixture["decode"], decode))
        for key, fields in (("fields", FIELDS), ("check_fields", CHECK_FIELDS)):
            if tuple(fixture[key]) != fields:
                lines.insert(0, f"{key} {fixture[key]} -> {list(fields)}")
        print("\n".join(lines) if lines else f"nothing moved: {counts} match {FIXTURE}")
        sys.exit(1 if lines else 0)
    text = json.dumps(dict(fields=FIELDS, cases=cases, check_fields=CHECK_FIELDS,
                           verify=verify, decode=decode), indent=1)
    # one row, check or [re, im] pair per line
    text = re.sub(r"\[\n\s+((?:\"0x|\"[a-z]|-?[0-9])[^\[\]]*)\n\s+\]",
                  lambda m: "[" + re.sub(r"\n\s+", " ", m.group(1)) + "]", text)
    FIXTURE.write_text(text + "\n")
    print(f"wrote {counts} to {FIXTURE}")


if __name__ == "__main__":
    main()
