"""Monte Carlo sweep engine and property-verification suites.

``run_sweep`` produces symbol-error-rate and search-complexity statistics
versus SNR for any code/decoder combination, one shared instance per trial
so decoders are compared on identical inputs. A point's trials are drawn in
blocks of STREAM_BLOCK, each block from its own Philox stream
``make_rng(seed, point index, block index)``. A sweep is one sequence of
blocks, point by point in order, and a chunk is a set of its blocks. One
rule deals every sweep's blocks into chunks (``_chunk_plan``), each block
to the chunk with the fewest trials so far: as many chunks as workers, or
the fewest of at most MAX_CHUNK trials if that is more. So a serial sweep
that fits is one stack, and a pooled one is one stack per worker, each with
an even share of every point. A chunk is decoded as one stack, each row
with its own point's noise variance, and each block's per-trial results
fill its point's rows of one table, from which one vectorised pass takes
every point's statistics. Chunking cannot change the output: serial and
parallel runs emit identical CSV (wall-time columns excluded from that
contract). Sweeps and the decoding verify suites share one instance
pipeline: ``_InstanceStack`` draws instances a row or a block of rows at a
time and builds them as one stack, and ``decode_stack``, the one place that
calls a decoder or decides a column order, runs their stacked prologue once
per stack. CLI ``decode`` decodes its one instance through ``decode_stack``
too, as a stack of one.

``run_verification`` bundles the statistical and structural checks the
library's guarantees rest on (QR block realness, decoder cost equivalence,
sort and node counters, the quasistatic/time-varying structure dichotomy,
coding-gain alphabet independence, and agreement of the two QR routes).

SER is reported per symbol: four information symbols per trial.
"""

import heapq
import itertools
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import codes, decoders
from .channel import (
    CHANNEL_MODELS,
    NORMALS_PER_CHANNEL,
    NORMALS_PER_NOISE,
    channels_from_normals,
    make_rng,
    noise_from_normals,
    sample_channel,  # unused; bound here because perfbench/tracer.py patches it
    sample_channels,
    sample_noise,  # unused; bound here because perfbench/tracer.py patches it
    snr_to_n0,
)
from .codes import qr_golden_structured
from .constellation import SUPPORTED_QAM_ORDERS, make_qam
from .matrixkit import frobenius_norm, qr_decompose

ORDERING_MODES = ("none", "blast")
# Building a SweepConfig walks and labels every SNR point before anything runs.
MAX_SNR_POINTS = 100_000
# A bound on a sweep's size, far beyond any that finishes (2**32 trials take
# days per point); it keeps every block index (trial // STREAM_BLOCK) within
# one uint32 word of its stream's spawn key, as the point index is.
MAX_TRIALS = 2**32


@dataclass(frozen=True)
class DecoderEntry:
    """One decoder: its call, its BLAST column-order rule and the setups it
    can decode.

    A decoder has exactly one of two calls, which only ``decode_stack``
    makes and times; each decodes a whole stack in one call.
    ``stack(matrices, received, alphabet)`` (exhaustive) needs no prologue.
    ``factored(r, z, alphabet)`` (fast, alamouti, sphere) decodes from the
    prologue's stacked R and z, its indices in the columns' order.
    ``blast(matrices)``, when set, is its column-order rule under
    ``--ordering blast``: the orders (n, 4) and the stack's QRFactors in
    them, from one stacked QR; a decoder without one decodes in the natural
    order. All of them reach the decoders through this module's ``decoders``
    attribute at call time, so rebinding that attribute reaches every caller.
    """

    code_variants: tuple
    quasistatic_only: bool = False
    capped: bool = False  # M^4 candidates must fit decoders.EXHAUSTIVE_CAP
    blast: Callable = None
    stack: Callable = None
    factored: Callable = None


DECODERS = {
    "alamouti": DecoderEntry(
        code_variants=("overlaid-alamouti",),
        quasistatic_only=True,
        factored=lambda *args: decoders.decode_alamouti_stack(*args),
    ),
    "exhaustive": DecoderEntry(
        code_variants=codes.CODE_VARIANTS,
        capped=True,
        stack=lambda *args: decoders.decode_exhaustive_stack(*args),
    ),
    "fast": DecoderEntry(
        code_variants=codes.GOLDEN_VARIANTS,
        factored=lambda *args: decoders.decode_fast_stack(*args),
        blast=lambda matrices: decoders.fast_ordering(matrices),
    ),
    "sphere": DecoderEntry(
        code_variants=codes.CODE_VARIANTS,
        factored=lambda *args: decoders.decode_sphere_stack(*args),
        blast=lambda matrices: decoders.greedy_ordering(matrices),
    ),
}
DECODER_NAMES = tuple(DECODERS)


def decoder_entry(name: str, code: str, modulation: int, channel: str = None) -> DecoderEntry:
    """Registry entry for ``name``, checked against the setup it will decode.

    The only check of the code label: decoders never read it. ``channel``
    None (one decode of a given matrix) skips the channel-model rule; the
    decode's prologue then checks the matrix structure.

    Raises:
        ValueError: unknown decoder, or a setup the decoder cannot decode.
    """
    entry = DECODERS.get(name)
    if entry is None:
        raise ValueError(f"unknown decoder: {name!r}")
    if code not in entry.code_variants:
        raise ValueError(f"{name} decoder cannot decode code {code!r}")
    if entry.quasistatic_only and channel not in (None, "quasistatic"):
        raise ValueError(f"{name} decoder requires a quasistatic channel")
    if entry.capped and modulation ** 4 > decoders.EXHAUSTIVE_CAP:
        raise ValueError(f"{name} decoder capped at M^4 <= 2^24 candidates")
    return entry


CSV_HEADER = (
    "snr_db,decoder,code,modulation,channel,trials,ser,"
    "nodes_mean,nodes_p95,nodes_max,sorts_mean,time_ns_mean"
)


def _require_integer(field: str, value) -> None:
    """Reject a bool or non-integer count or seed (``True`` would run as 1)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{field} must be an integer, got {value!r}")


def _require_real(field: str, value) -> None:
    """Reject a bool or non-real SNR or rho (``True`` would run as 1)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{field} must be a real number, got {value!r}")


def _require_names(names) -> None:
    """Reject a string of decoder names (read as 'f', 'a', ...) or a repeated name."""
    if isinstance(names, str):
        raise ValueError(f"decoders must be a sequence of names, not the string {names!r}")
    if len(set(names)) < len(names):
        raise ValueError(f"decoders must not repeat a name: {names!r}")


def _require_seed(seed: int) -> None:
    """Reject a seed the stream derivation (numpy's SeedSequence) cannot take."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of one simulation sweep, checked when built.

    The one home of a sweep's options: their names, defaults and validity.
    ``__post_init__`` (which ``dataclasses.replace`` runs too) raises
    ValueError on any invalid field, so a SweepConfig that exists is valid;
    an unpickled copy, such as a pool worker's, is not checked again.
    """

    code: str = "golden-dv"
    decoders: tuple = ("fast",)
    modulation: int = 4
    channel: str = "quasistatic"
    rho: float = None
    snr_start: float = 0.0
    snr_stop: float = 30.0
    snr_step: float = 2.0
    trials: int = 1000
    seed: int = 0
    ordering: str = "none"
    noise_free: bool = False

    def __post_init__(self) -> None:
        for field in ("trials", "modulation", "seed"):
            _require_integer(field, getattr(self, field))
        for field in ("snr_start", "snr_stop", "snr_step"):
            _require_real(field, getattr(self, field))
        if self.rho is not None:
            _require_real("rho", self.rho)
        if not isinstance(self.noise_free, bool):
            raise ValueError(f"noise_free must be a bool, got {self.noise_free!r}")
        _require_seed(self.seed)
        if self.code not in codes.CODE_VARIANTS:
            raise ValueError(f"unknown code variant: {self.code!r}")
        if not self.decoders:
            raise ValueError("at least one decoder must be selected")
        _require_names(self.decoders)
        if self.modulation not in SUPPORTED_QAM_ORDERS:
            raise ValueError(f"unsupported modulation order: {self.modulation!r}")
        if self.channel not in CHANNEL_MODELS:
            raise ValueError(f"unknown channel model: {self.channel!r}")
        if self.channel == "markov" and (
            self.rho is None or not 0.0 <= self.rho <= 1.0
        ):
            raise ValueError("markov channel needs rho in [0, 1]")
        if self.channel != "markov" and self.rho is not None:
            raise ValueError(f"rho applies only to the markov channel, not {self.channel!r}")
        if not all(map(math.isfinite, (self.snr_start, self.snr_stop, self.snr_step))):
            raise ValueError("snr start, stop and step must be finite")
        if self.snr_step <= 0:
            raise ValueError("snr step must be positive")
        if self.snr_stop < self.snr_start:
            raise ValueError("snr stop must not be below snr start")
        for snr in (self.snr_start, self.snr_stop):
            snr_to_n0(snr)  # N0 falls with SNR, so the two ends bound the grid
        grid = f"snr grid start={self.snr_start!r} stop={self.snr_stop!r} step={self.snr_step!r}"
        points = self.snr_points()
        if len(points) > MAX_SNR_POINTS:
            raise ValueError(f"{grid} has more than {MAX_SNR_POINTS} points")
        if len(set(map(_fmt, points))) < len(points):
            raise ValueError(
                f"{grid} has points that print alike in the CSV (9 significant digits)"
            )
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be at most {MAX_TRIALS} (2**32), got {self.trials}")
        if self.ordering not in ORDERING_MODES:
            raise ValueError(f"unknown ordering mode: {self.ordering!r}")
        for name in self.decoders:
            decoder_entry(name, self.code, self.modulation, self.channel)

    def snr_point(self, k: int) -> float:
        """The grid's point k: start + k * step."""
        return self.snr_start + k * self.snr_step

    def snr_points(self) -> list:
        """The grid's points k = 0, 1, ... up to stop plus a slack of
        1e-9 * step, walked no further than MAX_SNR_POINTS + 1 points."""
        limit = self.snr_stop + 1e-9 * self.snr_step
        walk = map(self.snr_point, range(MAX_SNR_POINTS + 1))
        return list(itertools.takewhile(lambda point: point <= limit, walk))

    def channel_label(self) -> str:
        if self.channel == "markov":
            return f"markov:{self.rho:.9g}"
        return self.channel


@dataclass(frozen=True)
class SweepRow:
    """Aggregated statistics for one (SNR point, decoder) cell.

    ``nodes_p95`` is the linear interpolation at rank 0.95 * (trials - 1)
    of the point's sorted per-trial node counts: numpy's default
    ``linear`` percentile method.
    """

    snr_db: float
    decoder: str
    trials: int
    ser: float
    nodes_mean: float
    nodes_p95: float
    nodes_max: int
    sorts_mean: float
    time_ns_mean: float


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    rows: tuple


# A sweep draws each point's trials in blocks of STREAM_BLOCK, block b from
# make_rng(seed, point, b); a point's last block may be short. A chunk is a
# whole number of blocks, so no row depends on how the trials are chunked.
STREAM_BLOCK = 32
# A chunk holds its trials' draws, matrices, QR factors and decoder state
# until it is decoded. In a fresh process, one 1024-trial chunk of 16-QAM
# alamouti,sphere raises the peak RSS by about 2.0 MiB at 24 dB and 3.2 MiB
# at 6 dB more than a 32-trial one, and each trial from 1024 to 4096 adds
# about 2.3 KiB; 4-QAM exhaustive,fast adds 1.5 MiB and 2.2 KiB per trial,
# and 64-QAM fast about 4.5 KiB per trial from 32 to 1024. The cap bounds
# that for long sweeps; a stack's time per trial levels off by a few hundred.
MAX_CHUNK = 32 * STREAM_BLOCK


def _thread_count() -> int:
    env = os.environ.get("STC_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"STC_THREADS must be an integer, got {env!r}") from None
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))  # the CPUs this process may run on
    return os.cpu_count() or 1


class _InstanceStack:
    """``count`` decoding instances of one channel model, code and alphabet.

    ``draw`` makes the draws of one row, or of a slice of rows, from a
    stream, one call each: the channels' standard normals, the four symbol
    indices per row and, unless noise-free, the noise's standard normals.
    ``build`` converts all rows at once, as ``sample_channel`` and
    ``sample_noise`` convert one draw.
    """

    def __init__(self, count: int, model: str, code: str, alphabet, rho: float = None):
        self.model, self.code, self.alphabet, self.rho = model, code, alphabet, rho
        self.channel_normals = np.empty((count, NORMALS_PER_CHANNEL[model]))
        self.sent = np.empty((count, 4), dtype=np.int64)
        self.noise_normals = np.zeros((count, NORMALS_PER_NOISE))  # zero noise unless drawn

    def draw(self, rows, rng, noisy: bool = True) -> None:
        rng.standard_normal(out=self.channel_normals[rows])
        self.sent[rows] = rng.integers(0, self.alphabet.size, size=self.sent[rows].shape)
        if noisy:
            rng.standard_normal(out=self.noise_normals[rows])

    def build(self, n0) -> tuple:
        """(matrices, received), (count, 4, 4) and (count, 4), with noise of
        variance ``n0``: one for every instance or one each."""
        channels = channels_from_normals(self.channel_normals, self.model, self.rho)
        matrices = codes.effective_matrix(channels, self.code)
        noise = codes.stack_samples(noise_from_normals(self.noise_normals, n0), self.code)
        return matrices, (matrices @ self.alphabet.symbols[self.sent][..., None])[..., 0] + noise


def decode_stack(matrices, received, alphabet, names, ordering) -> tuple:
    """Decode each instance of a stack, (n, 4, 4) effective ``matrices`` and
    (n, 4) stacked ``received`` samples, with every decoder in ``names``: the
    one decode path, for a sweep chunk, a verify block or one instance
    (n = 1). It never sees the code label: the registry's setup rules
    (``decoder_entry``) are the caller's to check.

    A stack call (exhaustive) decodes the whole stack in the natural column
    order. Under ``ordering`` "blast" each other decoder with a BLAST rule
    decodes every instance in the column order that rule picks; every other
    decoder decodes the natural order. The prologue runs once per stack and
    column-order rule that a decoder reads it for: one stacked QR, the
    natural order's (``decoders.triangular_rows``) or the rule's, and Q^H y
    (``decoders.factored_rows``). A factored call (fast, alamouti, sphere)
    decodes the whole stack from that R and z.
    Indices are mapped back to the natural column order here, by one
    ``np.take_along_axis`` per stack into the result's own indices.

    Returns:
        (decoded, elapsed): per decoder name, one DecodeResult for the stack,
        and the wall time in ns, read once before and once after, of its own
        work on the stack: its stack or factored call, and mapping back.

    Raises:
        ValueError: a string of names, a repeated or unknown name, an ordering
            outside ORDERING_MODES, or shapes other than (n, 4, 4) and (n, 4).
    """
    _require_names(names)
    if ordering not in ORDERING_MODES:
        raise ValueError(f"unknown ordering mode: {ordering!r}")
    for name in names:
        if name not in DECODERS:
            raise ValueError(f"unknown decoder: {name!r}")
    if np.shape(matrices)[1:] != (4, 4) or np.shape(received) != (len(matrices), 4):
        raise ValueError(f"stacks of shapes {np.shape(matrices)} and {np.shape(received)} "
                         "are not (n, 4, 4) matrices and (n, 4) received samples")
    prologues = {}  # column-order rule (None: natural) -> r, z, inverse
    decoded, elapsed = {}, {}
    for name in names:
        entry = DECODERS[name]
        rule = entry.blast if ordering == "blast" else None
        if entry.stack is None and rule not in prologues:
            if rule is None:
                prologues[rule] = (*decoders.triangular_rows(matrices, received), None)
            else:
                order, factors = rule(matrices)
                prologues[rule] = (*decoders.factored_rows(factors, received),
                                   np.argsort(order, axis=-1))
        start = time.perf_counter_ns()
        if entry.stack is not None:
            results = entry.stack(matrices, received, alphabet)
        else:
            r, z, inverse = prologues[rule]
            results = entry.factored(r, z, alphabet)
            if inverse is not None:
                results.indices[:] = np.take_along_axis(results.indices, inverse, axis=1)
        elapsed[name] = time.perf_counter_ns() - start
        decoded[name] = results
    return decoded, elapsed


def _block_trials(trials: int, block: int) -> tuple:
    """Block ``block`` of a sweep of ``trials`` trials per point, as
    ``(point, lo, hi)``: its point's trials [lo, hi).

    The one map from a sweep block to its point: with ``per_point`` blocks
    per point (a point's last block may be short), block ``b`` is block
    ``b % per_point`` of point ``b // per_point``.
    """
    point, index = divmod(block, -(-trials // STREAM_BLOCK))
    lo = index * STREAM_BLOCK
    return point, lo, min(trials, lo + STREAM_BLOCK)


def _chunk_plan(trials: int, points: int, threads: int) -> list:
    """Deal the blocks of a sweep of ``points`` points of ``trials`` trials
    into chunks.

    The blocks are dealt in sequence order, point by point: each goes to the
    chunk with the fewest trials so far, the first chunk on ties. So chunk
    totals differ by at most STREAM_BLOCK trials, and each chunk holds an
    even share of every point. There are ``max(min(threads, blocks), n)``
    chunks, where n is the fewest whose dealt chunks hold at most MAX_CHUNK
    trials each.

    Returns:
        Per chunk, the ascending tuple of the sequence's blocks it holds.
        Every block is in exactly one chunk.
    """
    blocks = range(-(-trials // STREAM_BLOCK) * points)
    sizes = [hi - lo for _, lo, hi in (_block_trials(trials, block) for block in blocks)]
    count = max(min(threads, len(sizes)), -(-trials * points // MAX_CHUNK))
    while True:
        loads = [(0, chunk) for chunk in range(count)]  # a heap: (trials, chunk)
        chunks = [[] for _ in range(count)]
        for block, size in enumerate(sizes):
            load, chunk = loads[0]
            chunks[chunk].append(block)
            heapq.heapreplace(loads, (load + size, chunk))
        if max(loads)[0] <= MAX_CHUNK:
            return list(map(tuple, chunks))
        count += 1


def _run_chunk(cfg: SweepConfig, blocks: tuple) -> np.ndarray:
    """Decode one chunk of a sweep, the ascending ``blocks`` of its block
    sequence, as one stack.

    Each block, block ``index`` of its point (``_block_trials``), draws its
    trials' rows of the chunk's ``_InstanceStack`` from ``make_rng(cfg.seed,
    point, index)`` and gives them that point's noise variance. The chunk is
    built and decoded as one stack, so the decoders of a trial that decode
    the same column order share that trial's prologue.

    Returns:
        A (len(cfg.decoders), 4, trials) float array: per decoder, in
        ``cfg.decoders`` order, its symbol errors, nodes, sorts and equal
        share of its ``decode_stack`` time per trial, in the blocks' order.
    """
    alphabet = make_qam(cfg.modulation)
    spans = [_block_trials(cfg.trials, block) for block in blocks]
    sizes = [hi - lo for _, lo, hi in spans]
    stack = _InstanceStack(sum(sizes), cfg.channel, cfg.code, alphabet, cfg.rho)
    row = 0
    for point, lo, hi in spans:
        rng = make_rng(cfg.seed, point, lo // STREAM_BLOCK)
        stack.draw(slice(row, row + hi - lo), rng, noisy=not cfg.noise_free)
        row += hi - lo
    n0 = [snr_to_n0(cfg.snr_point(point)) for point, _, _ in spans]
    matrices, received = stack.build(np.repeat(n0, sizes))
    decoded, elapsed = decode_stack(matrices, received, alphabet, cfg.decoders, cfg.ordering)
    return np.array([
        [(result.indices != stack.sent).sum(axis=1), result.nodes_visited, result.full_sorts,
         np.full(row, elapsed[name] / row)]
        for name, result in decoded.items()
    ])


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Run the configured Monte Carlo sweep and aggregate statistics; ``cfg``
    was checked when it was built.

    Its chunks' results fill one (4, points * trials) plane per decoder,
    each block's trials at its point's rows. Every SweepRow then comes from
    one pass over that table: one vectorised reduction per statistic across
    all points and decoders at once.
    """
    points = cfg.snr_points()
    threads = _thread_count()
    # Each stack pays the decoders' fixed numpy costs per call and per walk
    # round once, so a sweep takes the fewest chunks its workers and
    # MAX_CHUNK allow: on a 2-vCPU Xeon the Alamouti walk of a 16-QAM sweep
    # of four 250-trial points took 9.0 us per trial as one stack against
    # 13.2 as four. Dealt blocks give each chunk an even share of every
    # point, so a pool's stacks cost about the same.
    plan = _chunk_plan(cfg.trials, len(points), threads)
    # The pool forks all of its workers up front; more than there are tasks would idle.
    workers = min(threads, len(plan))
    table = np.empty((len(cfg.decoders), 4, len(points) * cfg.trials))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        chunks = (pool.map if pool else map)(_run_chunk, itertools.repeat(cfg), plan)
        for blocks, chunk in zip(plan, chunks):  # each in plan order, dropped once written
            spans = (_block_trials(cfg.trials, block) for block in blocks)
            table[..., np.concatenate([
                np.arange(point * cfg.trials + lo, point * cfg.trials + hi)
                for point, lo, hi in spans])] = chunk
    # Viewed as (decoders, 4, points, trials). Every count is an integer well
    # below 2**53: its float sums are exact.
    errors, nodes, sorts, ns = table.reshape(
        len(cfg.decoders), 4, len(points), cfg.trials).swapaxes(0, 1)
    # nodes_p95 is numpy's default "linear" percentile, written out: the
    # sorted counts interpolated at rank v = 0.95 * (trials - 1).
    ranked = np.sort(nodes, axis=-1)
    v = (cfg.trials - 1) * 0.95
    lo = math.floor(v)
    if v >= cfg.trials - 1:
        p95 = ranked[..., -1]
    else:
        g = v - lo
        a, b = ranked[..., lo], ranked[..., lo + 1]
        d = b - a
        p95 = b - d * (1 - g) if g >= 0.5 else a + d * g
    stats = np.stack([
        errors.sum(axis=-1) / (4.0 * cfg.trials),
        nodes.mean(axis=-1),
        p95,
        nodes.max(axis=-1),
        sorts.sum(axis=-1) / cfg.trials,
        ns.mean(axis=-1),
    ], axis=-1).tolist()  # [decoder][point] -> the row's six statistics
    rows = []
    for pi, snr in enumerate(points):
        for name in sorted(cfg.decoders):
            ser, mean, p95, top, sorts_mean, ns_mean = stats[cfg.decoders.index(name)][pi]
            rows.append(
                SweepRow(
                    snr_db=snr,
                    decoder=name,
                    trials=cfg.trials,
                    ser=ser,
                    nodes_mean=mean,
                    nodes_p95=p95,
                    nodes_max=int(top),
                    sorts_mean=sorts_mean,
                    time_ns_mean=ns_mean,
                )
            )
    return SweepReport(config=cfg, rows=tuple(rows))


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def emit_csv(report: SweepReport, path: str) -> None:
    """Write a sweep report as CSV with a fixed schema and stable ordering."""
    cfg = report.config
    lines = [CSV_HEADER]
    for row in report.rows:
        lines.append(
            ",".join(
                (
                    _fmt(row.snr_db),
                    row.decoder,
                    cfg.code,
                    str(cfg.modulation),
                    cfg.channel_label(),
                    str(row.trials),
                    _fmt(row.ser),
                    _fmt(row.nodes_mean),
                    _fmt(row.nodes_p95),
                    str(row.nodes_max),
                    _fmt(row.sorts_mean),
                    _fmt(row.time_ns_mean),
                )
            )
        )
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationCheck:
    name: str
    measured: float
    threshold: float
    comparison: str  # one of "<=", ">", ">=", "=="
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    trials: int
    seed: int
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def format_lines(self) -> list:
        lines = [f"suite {self.suite} (trials={self.trials}, seed={self.seed})"]
        for check in self.checks:
            verdict = "PASS" if check.passed else "FAIL"
            lines.append(
                f"  [{verdict}] {check.name}: measured {check.measured:.6g} "
                f"{check.comparison} {check.threshold:.6g}"
            )
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return lines


def _check(name, measured, threshold, comparison) -> VerificationCheck:
    measured = float(measured)
    threshold = float(threshold)
    ok = {
        "<=": measured <= threshold,
        ">": measured > threshold,
        ">=": measured >= threshold,
        "==": measured == threshold,
    }[comparison]
    return VerificationCheck(
        name=name, measured=measured, threshold=threshold, comparison=comparison, passed=ok
    )


_MODEL_GRID = (("quasistatic", None), ("rapid", None), ("markov", 0.9))


def _model_name(model: str, rho) -> str:
    return f"{model}:{rho}" if model == "markov" else model


# The channels a structural suite samples and checks at a time.
CHANNEL_BATCH = 20_000


def _batched_channels(seed, branch, model, rho, trials):
    rng = make_rng(seed, *branch)
    done = 0
    while done < trials:
        n = min(CHANNEL_BATCH, trials - done)
        yield sample_channels(rng, model, n, rho)
        done += n


def _suite_theorem1(trials: int, seed: int) -> list:
    checks = []
    for vi, variant in enumerate(codes.GOLDEN_VARIANTS):
        for mi, (model, rho) in enumerate(_MODEL_GRID):
            worst_general = 0.0
            worst_exact = 0.0
            for h in _batched_channels(seed, (0, vi, mi), model, rho, trials):
                eff = codes.effective_matrix(h, variant)
                scale = frobenius_norm(eff)
                r = qr_decompose(eff).r
                ratio = np.maximum(
                    np.abs(r[..., 0, 1].imag), np.abs(r[..., 2, 3].imag)
                ) / scale
                worst_general = max(worst_general, float(ratio.max()))
                ra = qr_golden_structured(codes.golden_parts(h, variant)).r
                exact = max(
                    float(np.abs(ra[..., 0:2, 0:2].imag).max()),
                    float(np.abs(ra[..., 2:4, 2:4].imag).max()),
                )
                worst_exact = max(worst_exact, exact)
            label = f"{variant}/{_model_name(model, rho)}"
            checks.append(
                _check(f"theorem1 {label} max |Im r12|,|Im r34| / ||H||", worst_general, 1e-9, "<=")
            )
            checks.append(
                _check(f"theorem1 {label} structured-QR exact zero", worst_exact, 0.0, "==")
            )
    return checks


def _suite_qr_agree(trials: int, seed: int) -> list:
    checks = []
    per = max(1, trials // (len(codes.GOLDEN_VARIANTS) * 2))
    for vi, variant in enumerate(codes.GOLDEN_VARIANTS):
        for mi, model in enumerate(("quasistatic", "rapid")):
            worst = 0.0
            for h in _batched_channels(seed, (1, vi, mi), model, None, per):
                h_bar = codes.golden_parts(h, variant)
                general = qr_decompose(h_bar @ codes.PSI)
                structured = qr_golden_structured(h_bar)
                worst = max(
                    worst,
                    float(np.abs(general.r - structured.r).max()),
                    float(np.abs(general.q - structured.q).max()),
                )
            checks.append(
                _check(
                    f"qr-agree {variant}/{model} max entrywise |general - structured|",
                    worst,
                    1e-9,
                    "<=",
                )
            )
    return checks


def _suite_alamouti(trials: int, seed: int) -> list:
    ratios = {}  # channel model -> |r12| and |r34| over ||H||, one row per channel
    for mi, model in enumerate(("quasistatic", "rapid")):
        parts = []
        for h in _batched_channels(seed, (2, mi), model, None, trials):
            eff = codes.effective_matrix(h, "overlaid-alamouti")
            r = qr_decompose(eff).r
            parts.append(np.abs(r[..., (0, 2), (1, 3)]) / frobenius_norm(eff)[..., None])
        ratios[model] = np.concatenate(parts)

    # Each noise-free rapid probe, decoded as a stack of its own, must be
    # refused: a time-varying channel lacks the fast decoder's structure.
    probes = 50
    stack = _InstanceStack(probes, "rapid", "overlaid-alamouti", make_qam(4))
    rng = make_rng(seed, 2, 2)
    for row in range(probes):
        stack.draw(row, rng, noisy=False)
    raised = 0
    for h, y in zip(*stack.build(1.0)):  # any N0: the noise normals stay zero
        try:
            decode_stack(h[None], y[None], stack.alphabet, ("alamouti",), "none")
        except ValueError:
            raised += 1
    # np.median's rule, the mean of the two middle values (one value twice
    # for an odd count), without its import of numpy.ma.
    rapid = np.sort(ratios["rapid"][:, 0])
    median = (rapid[(len(rapid) - 1) // 2] + rapid[len(rapid) // 2]) / 2
    return [
        _check("alamouti quasistatic max |r12|,|r34| / ||H||",
               ratios["quasistatic"].max(), 1e-9, "<="),
        _check("alamouti rapid median |r12| / ||H||", median, 0.01, ">"),
        _check("alamouti rapid structure-error rate", raised / probes, 1.0, ">="),
    ]


def _decode_rounds(rng, alphabet, rounds, snrs, kinds):
    """Draw ``rounds`` rounds of instances from ``rng`` and decode them.

    Round t draws one instance of each kind ``(model, code, names)``, in
    ``kinds`` order, at ``snrs[t % len(snrs)]`` dB. The rounds are drawn and
    decoded in blocks of at most MAX_CHUNK, so memory stays bounded; each
    kind's instances of a block form one ``_InstanceStack``.

    Yields:
        ``(kind, decoded)`` per kind and block, ``decoded`` mapping each of
        the kind's decoder names to its DecodeResult for the block.
    """
    for lo in range(0, rounds, MAX_CHUNK):
        block = range(lo, min(rounds, lo + MAX_CHUNK))
        stacks = [_InstanceStack(len(block), model, code, alphabet) for model, code, _ in kinds]
        for row in range(len(block)):
            for stack in stacks:
                stack.draw(row, rng)
        n0 = [snr_to_n0(snrs[t % len(snrs)]) for t in block]
        for stack, (model, code, names) in zip(stacks, kinds):
            decoded, _ = decode_stack(*stack.build(n0), alphabet, names, "none")
            yield (model, code, names), decoded


_MLEQUIV_SNRS = (0.0, 10.0, 20.0)

# The instance kinds of an mlequiv round; each decoder after the first is
# checked against the exhaustive reference.
_MLEQUIV_KINDS = (
    ("quasistatic", "golden-dv", ("exhaustive", "fast", "sphere")),
    ("rapid", "golden-dv", ("exhaustive", "fast")),
    ("quasistatic", "overlaid-alamouti", ("exhaustive", "alamouti")),
)


def _suite_mlequiv(trials: int, seed: int) -> list:
    checks = []
    for m, count in ((4, trials), (16, max(1, trials // 10))):
        alphabet = make_qam(m)
        rng = make_rng(seed, 3, m)
        worst = {}  # check label -> max |cost - exhaustive cost|
        rounds = _decode_rounds(rng, alphabet, count, _MLEQUIV_SNRS, _MLEQUIV_KINDS)
        for (model, _, names), decoded in rounds:
            for name in names[1:]:
                label = f"{name} (rapid)" if model == "rapid" else name
                deviation = np.abs(decoded[name].cost - decoded["exhaustive"].cost).max()
                worst[label] = max(worst.get(label, 0.0), deviation)
        for label, dev in worst.items():
            checks.append(_check(f"mlequiv M={m} {label} vs exhaustive", dev, 1e-9, "<="))
    return checks


_SORTS_SNR = {4: 10.0, 16: 14.0, 64: 20.0, 256: 26.0}


def _suite_sorts(trials: int, seed: int) -> list:
    checks = []
    kinds = (("quasistatic", "golden-dv", ("fast",)),)
    for m in SUPPORTED_QAM_ORDERS:
        rounds = _decode_rounds(make_rng(seed, 4, m), make_qam(m), trials, (_SORTS_SNR[m],), kinds)
        always_two = sum((decoded["fast"].full_sorts == 2).sum() for _, decoded in rounds)
        checks.append(
            _check(f"sorts fast M={m} fraction with exactly 2", always_two / trials, 1.0, ">=")
        )
    probes = max(1, trials // 4)
    kinds = (("quasistatic", "golden-dv", ("sphere",)),)
    rounds = _decode_rounds(make_rng(seed, 4, 0), make_qam(64), probes, (20.0,), kinds)
    above = sum((decoded["sphere"].full_sorts > 2).sum() for _, decoded in rounds)
    checks.append(
        _check("sorts conventional 64-QAM fraction above 2", above / probes, 0.0, ">")
    )
    return checks


def min_determinant_gap(width: int) -> float:
    """Smallest |det(codeword difference)| on the unscaled odd-integer grid.

    Brute force over every nonzero symbol-difference vector for the default
    golden encoder. The encoder is linear, and det(encode(d)) splits into
    independent functions of the diagonal pair (d1, d2) and the off-diagonal
    pair (d3, d4), so the full (2*width - 1)^8 difference grid reduces to all
    cross pairs of one (2*width - 1)^4 product table.
    """
    diffs = 2.0 * np.arange(-(width - 1), width)  # per-axis symbol differences
    delta = (diffs[:, None] + 1j * diffs[None, :]).ravel()
    c = codes.GOLDEN.cos_theta
    s = codes.GOLDEN.sin_theta
    da = delta[:, None]
    db = delta[None, :]
    products = ((c * da + s * db) * (-s * da + c * db)).ravel()
    zero_axis = int(np.flatnonzero(delta == 0)[0])
    zero_product = zero_axis * len(delta) + zero_axis
    dets = np.abs(products[:, None] - 1j * products[None, :])
    dets[zero_product, zero_product] = math.inf  # excludes only the all-zero vector
    return float(dets.min())


def _suite_mindet(trials: int, seed: int) -> list:
    min4 = min_determinant_gap(2)
    min16 = min_determinant_gap(4)
    gap = abs(min4 - min16) / min4
    return [
        _check("mindet relative difference 4-QAM vs 16-QAM", gap, 1e-9, "<="),
        _check("mindet 4-QAM minimum positive", min4, 0.0, ">"),
    ]


# Suite name -> (runner, default trials).
_SUITES = {
    "theorem1": (_suite_theorem1, 100_000),
    "mlequiv": (_suite_mlequiv, 2_000),
    "sorts": (_suite_sorts, 200),
    "alamouti": (_suite_alamouti, 100_000),
    "mindet": (_suite_mindet, 0),
    "qr-agree": (_suite_qr_agree, 10_000),
}
VERIFICATION_SUITES = tuple(_SUITES)


def run_verification(suite: str, trials: int = None, seed: int = 0) -> VerificationReport:
    """Execute one verification suite and report per-assertion verdicts.

    Failures are report content, not exceptions.

    Raises:
        ValueError: unknown suite, a ``trials`` or ``seed`` that is a bool or
            not an integer, a negative seed, negative trials, or fewer than
            one trial for a suite that samples (every suite but mindet).
    """
    if suite not in VERIFICATION_SUITES:
        raise ValueError(f"unknown verification suite: {suite!r}")
    runner, default_trials = _SUITES[suite]
    if trials is None:
        trials = default_trials
    _require_integer("trials", trials)
    _require_integer("seed", seed)
    _require_seed(seed)
    least = 0 if suite == "mindet" else 1
    if trials < least:
        raise ValueError(f"trials must be at least {least}")
    checks = runner(trials, seed)
    return VerificationReport(suite=suite, trials=trials, seed=seed, checks=tuple(checks))
