#!/usr/bin/env python3
"""Regenerate tests/rows_fixture.json: the "no row moved" fixture.

Run from the repository root:

    PYTHONPATH=src python3 tests/make_rows_fixture.py

It runs each sweep below serially and records every SweepRow field but
``time_ns_mean``, floats as ``float.hex``. ``test_sweep_rows_match_the_fixture``
recomputes the rows, serially and with a two-worker pool, and compares them
field for field. A change that moves rows on purpose reruns this script and
names each moved row in CHANGES.md.

The sweeps: the benchmark's three sweep workloads (perfbench/workloads.py) at
seeds 1 and 7, a rapid ``--ordering blast`` 16-QAM fast,sphere sweep and a
markov exhaustive,fast,sphere sweep, each with a short last block per point.
"""

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
    return cases


def encode(value):
    return value.hex() if isinstance(value, float) else value


def row_record(row: SweepRow) -> list:
    """The row's fields but ``time_ns_mean``, in FIELDS order, floats as hex."""
    return [encode(getattr(row, field)) for field in FIELDS]


def main() -> None:
    os.environ["STC_THREADS"] = "1"
    cases = []
    for name, config in sweeps().items():
        rows = run_sweep(SweepConfig(**config)).rows
        cases.append(dict(name=name, config=config, rows=[row_record(row) for row in rows]))
    text = json.dumps(dict(fields=FIELDS, cases=cases), indent=1)
    # one row per line
    text = re.sub(r"\[\n\s+(\"0x[^\]]*)\n\s+\]",
                  lambda m: "[" + re.sub(r"\n\s+", " ", m.group(1)) + "]", text)
    FIXTURE.write_text(text + "\n")
    print(f"wrote {sum(len(case['rows']) for case in cases)} rows to {FIXTURE}")


if __name__ == "__main__":
    main()
