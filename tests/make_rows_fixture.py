#!/usr/bin/env python3
"""Regenerate tests/rows_fixture.json: the "no row moved" fixture.

Run from the repository root:

    PYTHONPATH=src python3 tests/make_rows_fixture.py [--check]

It runs each sweep below serially and records every SweepRow field but
``time_ns_mean``, floats as ``float.hex``. ``test_sweep_rows_match_the_fixture``
recomputes the rows, serially and with a two-worker pool, and compares them
field for field. A change that moves rows on purpose reruns this script and
names each moved row in CHANGES.md.

With ``--check`` it recomputes the rows without writing the fixture, prints
each moved row and field (old -> new, floats as hex) and exits 1 if any
moved, or if a sweep was added, removed or reconfigured; else it exits 0.

The sweeps: the benchmark's three sweep workloads (perfbench/workloads.py) at
seeds 1 and 7, a rapid ``--ordering blast`` 16-QAM fast,sphere sweep, a
markov exhaustive,fast,sphere sweep, a noise-free rapid 16-QAM
fast,sphere sweep and a short quasistatic 64-QAM fast,sphere sweep
over 10 to 24 dB, each with a short last block per point.
"""

import argparse
import dataclasses
import json
import os
import re
import sys
from pathlib import Path

from stcsim.harness import SweepConfig, SweepRow, run_sweep

FIXTURE = Path(__file__).resolve().parent / "rows_fixture.json"
FIELDS = tuple(f.name for f in dataclasses.fields(SweepRow) if f.name != "time_ns_mean")


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


def encode(value):
    return value.hex() if isinstance(value, float) else value


def row_record(row: SweepRow) -> list:
    """The row's fields but ``time_ns_mean``, in FIELDS order, floats as hex."""
    return [encode(getattr(row, field)) for field in FIELDS]


def moved(old: list, new: list) -> list:
    """Lines naming each difference between two fixtures' cases: a sweep
    added, removed or reconfigured, a row added or removed, and each moved
    field of a row, as ``old -> new``."""
    lines = []
    old_cases = {case["name"]: case for case in old}
    new_cases = {case["name"]: case for case in new}
    lines += [f"{name}: sweep removed" for name in old_cases if name not in new_cases]
    lines += [f"{name}: sweep added" for name in new_cases if name not in old_cases]
    for name in (name for name in new_cases if name in old_cases):
        was, now = old_cases[name], new_cases[name]
        if json.loads(json.dumps(now["config"])) != was["config"]:
            lines.append(f"{name}: config {was['config']} -> {now['config']}")
            continue
        if len(was["rows"]) != len(now["rows"]):
            lines.append(f"{name}: {len(was['rows'])} rows -> {len(now['rows'])}")
        for i, (a, b) in enumerate(zip(was["rows"], now["rows"])):
            lines += [f"{name}: row {i} ({float.fromhex(b[0])} dB, {b[1]}): {field} {x} -> {y}"
                      for field, x, y in zip(FIELDS, a, b) if x != y]
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the fixture instead of writing it; exit 1 if a row moved")
    args = parser.parse_args()
    os.environ["STC_THREADS"] = "1"
    cases = []
    for name, config in sweeps().items():
        rows = run_sweep(SweepConfig(**config)).rows
        cases.append(dict(name=name, config=config, rows=[row_record(row) for row in rows]))
    if args.check:
        fixture = json.loads(FIXTURE.read_text())
        lines = moved(fixture["cases"], cases)
        if tuple(fixture["fields"]) != FIELDS:
            lines.insert(0, f"fields {fixture['fields']} -> {list(FIELDS)}")
        print("\n".join(lines) if lines else
              f"no row moved: {sum(len(case['rows']) for case in cases)} rows match {FIXTURE}")
        sys.exit(1 if lines else 0)
    text = json.dumps(dict(fields=FIELDS, cases=cases), indent=1)
    # one row per line
    text = re.sub(r"\[\n\s+(\"0x[^\]]*)\n\s+\]",
                  lambda m: "[" + re.sub(r"\n\s+", " ", m.group(1)) + "]", text)
    FIXTURE.write_text(text + "\n")
    print(f"wrote {sum(len(case['rows']) for case in cases)} rows to {FIXTURE}")


if __name__ == "__main__":
    main()
