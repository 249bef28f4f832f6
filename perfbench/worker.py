"""One benchmark process.

Usage (the driver, run.py, starts it; the argument is a JSON spec):

    python3 perfbench/worker.py '{"workload": "qam4-overhead", "mode": "measure", "seed": 1000}'
    python3 perfbench/worker.py '{"workload": "qam4-overhead", "mode": "trace", "seed": 1, "seconds": 25, "spans": "..."}'

``measure`` imports stcsim from the checkout's ``src/``, builds the config and
times one untraced entry-point call between two timings of a fixed reference
kernel. The driver's set-up time ends at ``t_call_ns``, less ``kernel_ns``.

``trace`` repeats cycles for ``seconds``, one repetition seed each: the
untraced call at the workload's thread count (if above 1), the untraced
serial call and the traced serial call. It reports the per-layer figures.

Either mode prints one JSON line.
"""

import json
import math
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import stcsim  # noqa: E402
from stcsim import harness  # noqa: E402

from workloads import WORKLOADS, more_repetitions, rep_seed  # noqa: E402

ROW_FIELDS = ("snr_db", "decoder", "trials", "ser", "nodes_mean", "nodes_p95", "nodes_max",
              "sorts_mean")


def _sweep_rows(report) -> list:
    return [{f: getattr(row, f) for f in ROW_FIELDS} for row in report.rows]


def _verify_rows(reports) -> list:
    return [
        {"suite": r.suite, "name": c.name, "measured": c.measured, "passed": c.passed}
        for r in reports
        for c in r.checks
    ]


def _call(workload, seed: int):
    """Build the config and time one untraced entry-point call.

    Returns (t_call_ns, elapsed_ns, trials, rows); the clock is the
    system-wide monotonic clock, so the driver can subtract its spawn time.
    """
    if workload.sweep:
        cfg = harness.SweepConfig(seed=seed, **workload.sweep)
        t_call = time.monotonic_ns()
        report = harness.run_sweep(cfg)
        elapsed = time.monotonic_ns() - t_call
        return t_call, elapsed, len(cfg.snr_points()) * cfg.trials, _sweep_rows(report)
    t_call = time.monotonic_ns()
    reports = [harness.run_verification(suite, trials, seed) for suite, trials in workload.verify]
    elapsed = time.monotonic_ns() - t_call
    return t_call, elapsed, workload.trials(), _verify_rows(reports)


def _peak_rss_kib() -> int:
    """Largest resident set of this process or any reaped child (pool workers)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


# A fixed kernel of the kind of work a trial does (small numpy calls and
# Python float arithmetic), timed right before and right after each measured
# call. It tracks the speed of the machine, which on shared hosts swings by
# up to 1.7x within seconds and drifts over minutes.
_REFERENCE_MATRIX = np.arange(16.0).reshape(4, 4) + 10.0 * np.eye(4)
REFERENCE_ROUNDS = 5


def reference_ns() -> int:
    """Median time of REFERENCE_ROUNDS runs of the reference kernel."""
    times = []
    for _ in range(REFERENCE_ROUNDS):
        start = time.perf_counter_ns()
        acc = 0.0
        for i in range(200):
            acc += float(np.linalg.qr(_REFERENCE_MATRIX)[1][0, 0]) + math.sqrt(i)
            np.argsort(_REFERENCE_MATRIX[0])
        times.append(time.perf_counter_ns() - start)
    return sorted(times)[REFERENCE_ROUNDS // 2]


def measure(workload, seed: int) -> dict:
    start = time.monotonic_ns()
    before = reference_ns()
    kernel_ns = time.monotonic_ns() - start
    t_call, elapsed, trials, rows = _call(workload, seed)
    after = reference_ns()
    return {
        "t_call_ns": t_call,
        "kernel_ns": kernel_ns,
        "elapsed_ns": elapsed,
        "trials": trials,
        "rows": rows,
        "rss_kib": _peak_rss_kib(),
        "reference_ns": (before + after) / 2,
    }


def trace(workload, seed: int, seconds: float, spans_path: str) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    cycles = []
    traced_trials = 0
    start = time.monotonic()
    while more_repetitions(len(cycles), start, seconds, time.monotonic()):
        cycle = {"seed": rep_seed(seed, len(cycles))}
        if workload.threads > 1:
            os.environ["STC_THREADS"] = str(workload.threads)
            _, cycle["pooled_ns"], _, cycle["pooled_rows"] = _call(workload, cycle["seed"])
        os.environ["STC_THREADS"] = "1"
        _, cycle["serial_ns"], trials, cycle["serial_rows"] = _call(workload, cycle["seed"])
        checked = tracer.check_ns()
        with tracer.installed():
            _, cycle["traced_ns"], _, cycle["traced_rows"] = _call(workload, cycle["seed"])
        # The cost check is the benchmark's work, not tracing overhead.
        cycle["traced_ns"] -= tracer.check_ns() - checked
        traced_trials += trials
        cycles.append(cycle)
    channels = tracer.channels_sampled()
    layers = tracer.layer_metrics(traced_trials, channels)
    tracer.write(spans_path)
    return {
        "cycles": cycles,
        "layers": layers,
        "trials_per_cycle": trials,
        "channels_sampled": channels,
        "raised": tracer.raised_total(),
        "spans": len(tracer.spans),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    if Path(stcsim.__file__).resolve().parent != (SRC / "stcsim").resolve():
        print(f"error: imported stcsim from {stcsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[spec["workload"]]
    if spec["mode"] == "measure":
        out = measure(workload, spec["seed"])
    else:
        out = trace(workload, spec["seed"], spec["seconds"], spec["spans"])
    out["numpy"] = np.__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
