#!/usr/bin/env python3
"""stcsim benchmark: one workload, measured untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload qam4-overhead --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

``--trace 0`` starts a fresh process per repetition (perfbench/worker.py).
Each imports stcsim from ``src/``, builds the config and times one call of
``harness.run_sweep`` or ``harness.run_verification``. The run reports medians
over repetitions of every end-to-end metric. ``--trace 1`` runs the serial
traced cycles in one process and reports every per-layer metric.

Metric names and units come from BENCHMARK.json. Every run checks the
program's outputs and exits 1 if a check fails; the last stdout line is the
JSON result. Run files go to .bench_out/.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from workloads import MIN_REPETITIONS, WORKLOADS, more_repetitions, rep_seed  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
RUN_BUDGET_S = 170.0
MAX_PROBLEMS_SHOWN = 20
# Typical time of worker.reference_ns() on the 2-vCPU Xeon the benchmark was
# defined on. Each repetition's throughput is multiplied, and its set-up time
# divided, by (its reference time / REFERENCE_NS): the figures are given at
# that machine speed, so the host's swings drop out. Raw figures are printed
# too, with the suffix ".raw".
REFERENCE_NS = 6.0e6
# Decoders whose sort count is a contract: exactly two full sorts per decode.
TWO_SORT_DECODERS = ("fast", "alamouti")
NODE_DECODERS = ("fast", "sphere", "alamouti")
COMPARED_FIELDS = ("ser", "nodes_mean", "nodes_p95", "nodes_max", "sorts_mean")


class WorkerError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a worker's process group and wait until it is gone."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_worker(spec: dict, threads: int, deadline: float) -> dict:
    """Run perfbench/worker.py in a fresh session; returns its JSON result.

    Adds ``setup_ns``: from just before the spawn to the entry-point call,
    without the reference kernel the worker runs in between.
    """
    env = dict(os.environ, STC_THREADS=str(threads))
    t_spawn = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker exceeded the run's time budget: {spec['mode']}")
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    if "t_call_ns" in result:
        result["setup_ns"] = result["t_call_ns"] - result["kernel_ns"] - t_spawn
    return result


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def check_rows(workload, rows) -> list:
    """Problems in one entry-point call's output; an empty list means correct."""
    if workload.verify:
        return [f"verification check failed: {r['suite']}: {r['name']}"
                for r in rows if not r["passed"]]
    problems = []
    by_point = {}
    for row in rows:
        by_point.setdefault(row["snr_db"], {})[row["decoder"]] = row
    for snr, cells in sorted(by_point.items()):
        if set(cells) != set(workload.decoders):
            problems.append(f"{snr} dB: decoders {sorted(cells)}")
            continue
        sers = {cells[d]["ser"] for d in cells}
        if len(sers) != 1:
            problems.append(f"{snr} dB: exact-ML decoders disagree on SER: "
                            f"{ {d: cells[d]['ser'] for d in cells} }")
        for d in TWO_SORT_DECODERS:
            if d in cells and cells[d]["sorts_mean"] != 2.0:
                problems.append(f"{snr} dB: {d} sorts_mean {cells[d]['sorts_mean']} != 2")
    return problems


def compare_rows(what: str, a, b) -> list:
    """Problems if two calls of the same config and seed differ in any counted field."""
    if workload_key(a) != workload_key(b):
        return [f"{what}: row sets differ"]
    fields = COMPARED_FIELDS if "decoder" in a[0] else ("measured", "passed")
    problems = []
    for ra, rb in zip(a, b):
        for f in fields:
            if ra[f] != rb[f]:
                problems.append(f"{what}: {workload_key([ra])[0]} {f} {ra[f]!r} != {rb[f]!r}")
    return problems


def workload_key(rows) -> list:
    return [(r.get("snr_db"), r.get("decoder"), r.get("suite"), r.get("name")) for r in rows]


def node_metrics(workload, rows) -> dict:
    """nodes_mean.<d>: mean over SNR points; nodes_p95.<d>: largest per-point p95."""
    out = {}
    for d in NODE_DECODERS:
        cells = [r for r in rows if r.get("decoder") == d]
        if cells:
            out[f"nodes_mean.{d}"] = statistics.fmean(r["nodes_mean"] for r in cells)
            out[f"nodes_p95.{d}"] = max(r["nodes_p95"] for r in cells)
    return out


def node_summary(workload, rows_per_rep) -> dict:
    """Node metrics of a run: the median over its first MIN_REPETITIONS repetitions.

    Every run has at least that many, traced or not, so the figures depend on
    the seed alone, not on --seconds or --trace.
    """
    per_rep = [node_metrics(workload, rows) for rows in rows_per_rep[:MIN_REPETITIONS]]
    return {name: statistics.median(p[name] for p in per_rep) for name in per_rep[0]}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed trials; a call that fails a check fails all its trials."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, trials: int, problems: list) -> None:
        self.attempted += trials
        if problems:
            self.failed += trials
            self.problems.extend(p for p in problems if p not in self.problems)


def measure_run(workload, seed: int, seconds: float, deadline: float, tally: Tally) -> dict:
    start = time.monotonic()
    serial = None
    if workload.threads > 1:
        # Thread independence through run_sweep itself: the serial run of the
        # first repetition's config and seed must reproduce its pooled rows.
        try:
            serial = run_worker({"workload": workload.name, "mode": "measure",
                                 "seed": rep_seed(seed, 0)}, 1, deadline)
        except WorkerError as exc:
            tally.record(workload.trials(), [str(exc)])
            return {}
    results = []
    while more_repetitions(len(results), start, seconds, time.monotonic()):
        try:
            res = run_worker({"workload": workload.name, "mode": "measure",
                              "seed": rep_seed(seed, len(results))}, workload.threads, deadline)
        except WorkerError as exc:
            tally.record(workload.trials(), [str(exc)])
            return {}
        tally.record(res["trials"], check_rows(workload, res["rows"]))
        results.append(res)
    if serial is not None:
        tally.record(serial["trials"],
                     compare_rows("serial vs pooled", results[0]["rows"], serial["rows"]))
    per_rep = []
    for i, r in enumerate(results):
        rate = r["trials"] / (r["elapsed_ns"] / 1e9)
        setup = r["setup_ns"] / 1e9
        scale = r["reference_ns"] / REFERENCE_NS
        per_rep.append({"seed": rep_seed(seed, i), "trials_per_s": rate * scale,
                        "setup_s": setup / scale, "peak_rss_mb": r["rss_kib"] / 1024,
                        "trials_per_s.raw": rate, "setup_s.raw": setup,
                        "reference_ms": r["reference_ns"] / 1e6})
    metrics = {name: statistics.median(p[name] for p in per_rep)
               for name in ("trials_per_s", "setup_s", "peak_rss_mb", "trials_per_s.raw",
                            "setup_s.raw", "reference_ms")}
    metrics.update(node_summary(workload, [r["rows"] for r in results]))
    metrics["per_rep"] = per_rep
    metrics["repetitions"] = len(results)
    metrics["numpy"] = results[0]["numpy"]
    return metrics


def trace_run(workload, seed: int, seconds: float, deadline: float, tally: Tally) -> dict:
    OUT.mkdir(exist_ok=True)
    spec = {"workload": workload.name, "mode": "trace", "seed": seed, "seconds": seconds,
            "spans": str(OUT / f"spans-{workload.name}.json")}
    try:
        res = run_worker(spec, workload.threads, deadline)
    except WorkerError as exc:
        tally.record(workload.trials(), [str(exc)])
        return {}
    layers = res["layers"]
    # Cost mismatches and raised calls are counted over all traced calls, so
    # they fail every traced call of the run.
    trace_problems = [f"{name} = {value}" for name, value in layers.items()
                      if name.endswith((".cost_mismatch", ".raised")) and value]
    if res["raised"]:
        trace_problems.append(f"{res['raised']} traced calls raised")
    if workload.verify and res["channels_sampled"] != len(res["cycles"]) * workload.trials():
        trace_problems.append(f"channels sampled {res['channels_sampled']} != "
                              f"{len(res['cycles']) * workload.trials()}")
    trials = res["trials_per_cycle"]
    serial_ns = pooled_ns = traced_ns = 0
    for cyc in res["cycles"]:
        tally.record(trials, check_rows(workload, cyc["serial_rows"]))
        tally.record(trials, check_rows(workload, cyc["traced_rows"]) + trace_problems
                     + compare_rows("traced vs untraced", cyc["serial_rows"], cyc["traced_rows"]))
        serial_ns += cyc["serial_ns"]
        traced_ns += cyc["traced_ns"]
        if "pooled_rows" in cyc:
            tally.record(trials, compare_rows("pooled vs serial", cyc["pooled_rows"],
                                              cyc["serial_rows"]))
            pooled_ns += cyc["pooled_ns"]
        else:
            pooled_ns += cyc["serial_ns"]
    metrics = dict(layers)
    metrics.update({f"{stat}.{d}": 0.0 for stat in ("nodes_mean", "nodes_p95")
                    for d in NODE_DECODERS})
    metrics.update(node_summary(workload, [cyc["serial_rows"] for cyc in res["cycles"]]))
    metrics["harness.pool_speedup"] = serial_ns / pooled_ns
    metrics["trace_overhead_frac"] = traced_ns / serial_ns - 1.0
    metrics["repetitions"] = len(res["cycles"])
    metrics["spans"] = res["spans"]
    metrics["numpy"] = res["numpy"]
    return metrics


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def environment(workload) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "STC_THREADS": workload.threads,
        "commit": commit,
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, catalogue: dict) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    tally = Tally()
    run = trace_run if trace else measure_run
    metrics = run(workload, seed, seconds, deadline, tally)
    env = environment(workload)
    env["numpy"] = metrics.pop("numpy", "unknown")
    env["repetitions"] = metrics.pop("repetitions", 0)
    per_rep = metrics.pop("per_rep", [])
    if trace:
        env["spans"] = metrics.pop("spans", 0)
    correct = not tally.problems
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    wanted = catalogue["per_layer" if trace else "end_to_end"]
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}  why: {workload.why}")
    print("env " + json.dumps(env, sort_keys=True))
    for problem in tally.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"CHECK FAILED: {problem}")
    if len(tally.problems) > MAX_PROBLEMS_SHOWN:
        print(f"CHECK FAILED: ... {len(tally.problems) - MAX_PROBLEMS_SHOWN} more in {OUT}")
    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in catalogue[kind]}
    units["reference_ms"] = "ms"
    shown = dict(metrics, failed_frac=failed_frac)
    for name, value in shown.items():
        print(f"  {name} = {value:.6g} {units.get(name.removesuffix('.raw'), '')}")
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {}}
    if correct:
        missing = [m["name"] for m in wanted if m["name"] not in shown]
        if missing:
            raise RuntimeError(f"benchmark computes no value for {missing}")
        result["metrics"] = {m["name"]: {"value": shown[m["name"]], "unit": m["unit"]}
                             for m in wanted}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}-seed{seed}-trace{int(trace)}.json", "w") as handle:
        json.dump({"env": env, "figures": shown, "per_rep": per_rep, "problems": tally.problems,
                   "result": result}, handle, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "stcsim" / "__init__.py").is_file():
        print(f"error: no stcsim source under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        catalogue = json.load(handle)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        status = max(status, run_workload(WORKLOADS[name], args.seed, args.seconds,
                                          bool(args.trace), catalogue))
    return status


if __name__ == "__main__":
    sys.exit(main())
