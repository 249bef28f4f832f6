"""The benchmark's workloads: what each one runs and how large a repetition is.

This module imports nothing from stcsim, so the driver process stays free of
the package; the worker process builds the configs from these fields.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: workload name as BENCHMARK.json lists it.
        why: the one-line reason the workload exists.
        threads: STC_THREADS for the measured (untraced) runs.
        sweep: keyword arguments of ``SweepConfig`` except ``seed``, or None.
        verify: ``(suite, trials)`` pairs for ``run_verification``, or None.

    One repetition takes about a second on a 2-vCPU Xeon, so a 25 s run
    holds some twenty of them.
    """

    name: str
    why: str
    threads: int
    sweep: dict = None
    verify: tuple = None

    @property
    def decoders(self) -> tuple:
        return tuple(self.sweep["decoders"]) if self.sweep else ()

    def trials(self) -> int:
        """Trials per entry-point call: decoded instances, or channels checked."""
        if self.sweep:
            cfg = self.sweep
            points = int(round((cfg["snr_stop"] - cfg["snr_start"]) / cfg["snr_step"])) + 1
            return points * cfg["trials"]
        return sum(VERIFY_CHANNELS[suite](trials) for suite, trials in self.verify)


# Channels one run_verification call checks: theorem1 samples every trial
# for each of 3 golden variants x 3 channel models; qr-agree splits its trials
# over 3 variants x 2 models.
VERIFY_CHANNELS = {
    "theorem1": lambda trials: 9 * trials,
    "qr-agree": lambda trials: 6 * max(1, trials // 6),
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="qam4-overhead",
            why="4-QAM golden-dv, exhaustive+fast, 0-24 dB: few nodes per decode, "
            "so per-trial front-end, QR and sort costs dominate",
            threads=1,
            sweep=dict(
                code="golden-dv",
                decoders=("exhaustive", "fast"),
                modulation=4,
                channel="quasistatic",
                snr_start=0.0,
                snr_stop=24.0,
                snr_step=6.0,
                trials=300,
            ),
        ),
        Workload(
            name="qam64-search",
            why="64-QAM golden-dv, fast+sphere, 10-24 dB, 2 workers: tree search "
            "with a heavy node-count tail dominates; the only pooled run",
            threads=2,
            sweep=dict(
                code="golden-dv",
                decoders=("fast", "sphere"),
                modulation=64,
                channel="quasistatic",
                snr_start=10.0,
                snr_stop=24.0,
                snr_step=2.0,
                trials=100,
            ),
        ),
        Workload(
            name="alamouti16",
            why="16-QAM overlaid Alamouti, alamouti+sphere, 6-24 dB: the only "
            "path through decode_alamouti_fast and the conjugated stacking",
            threads=1,
            sweep=dict(
                code="overlaid-alamouti",
                decoders=("alamouti", "sphere"),
                modulation=16,
                channel="quasistatic",
                snr_start=6.0,
                snr_stop=24.0,
                snr_step=6.0,
                trials=250,
            ),
        ),
        Workload(
            name="verify-batch",
            why="run_verification theorem1 + qr-agree: stacked (n, 4, 4) channel, "
            "code and QR work with no per-trial Python and no search",
            threads=1,
            verify=(("theorem1", 10_000), ("qr-agree", 60_000)),
        ),
    )
}


def rep_seed(seed: int, rep: int) -> int:
    """Program seed of repetition ``rep`` of a run with workload seed ``seed``.

    Every repetition decodes a fresh sample, so a run covers reps x trials
    instances; the heavy node-count tail of qam64-search needs that many to
    keep its throughput steady from seed to seed.
    """
    return REP_STRIDE * seed + rep


# A run repeats until its --seconds are spent, at least MIN_REPETITIONS and
# fewer than REP_STRIDE times.
MIN_REPETITIONS = 3
REP_STRIDE = 1000


def more_repetitions(done: int, start: float, seconds: float, now: float) -> bool:
    """Whether a run that began at ``start`` should start repetition ``done``."""
    return done < MIN_REPETITIONS or (now - start < seconds and done < REP_STRIDE)
