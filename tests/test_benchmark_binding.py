"""The benchmark's traced run (perfbench/tracer.py) patches names that stcsim's
modules bind. A refactor that moves one of them must fail here, not only in
``perfbench/run.py --trace 1``."""

from pathlib import Path

from stcsim import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_binds_every_boundary(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setenv("STC_THREADS", "1")  # spans are recorded in this process only
    from tracer import Tracer

    tracer = Tracer()
    sweeps = (
        ("golden-dv", ("exhaustive", "fast", "sphere")),
        ("overlaid-alamouti", ("alamouti", "sphere")),
    )
    with tracer.installed():  # raises AttributeError if a patched name moved
        for code, names in sweeps:
            # 2 points x 40 trials: a whole block and a short one per point
            cfg = harness.SweepConfig(code=code, decoders=names, snr_start=10.0,
                                      snr_stop=12.0, trials=40, seed=1)
            harness.run_sweep(cfg)
        report = harness.run_verification("qr-agree", 12, seed=1)
    assert report.passed
    assert tracer.cost_mismatch == {} and tracer.raised == {}
    spans = {span[0] for span in tracer.spans}
    # Sweeps decode exhaustive through its stack call, which the tracer does
    # not wrap: no sweep makes a decoders.exhaustive span, and the stack
    # call's costs are checked in test_decoders instead.
    assert {f"decoders.{name}" for name in ("fast", "sphere", "alamouti")} <= spans
    # A sweep makes one make_rng call per block of trials, directly under
    # run_sweep, keyed (point, block); the verify suite makes its own.
    sweep_spans = [i for i, span in enumerate(tracer.spans) if span[0] == "harness.run_sweep"]
    assert len(sweep_spans) == len(sweeps)
    streams = [span for span in tracer.spans if span[0] == "channel.make_rng"]
    for index in sweep_spans:
        start, end = tracer.spans[index][1:3]
        inside = [span for span in streams if start <= span[1] <= end]
        assert [span[3] for span in inside] == [index] * 4
        assert [span[4] for span in inside] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        # the sweep's stacked QR is traced: one matrix per trial, directly under run_sweep
        factored = [span[5] for span in tracer.spans
                    if span[0] == "matrixkit.qr_decompose" and span[3] == index]
        assert sum(factored) == 2 * 40
    # qr-agree draws one stream per golden variant and channel model
    assert len(streams) == 4 * len(sweeps) + 6
    structured = [span for span in tracer.spans if span[0] == "matrixkit.qr_golden_structured"]
    assert sum(span[5] for span in structured) == tracer.channels_sampled() == 12


def test_tracer_cost_check_holds_for_reordered_decodes(monkeypatch):
    """Under ``--ordering blast`` the decoders get channels with permuted
    columns; the tracer's ``eff.h @ x_hat`` cost check must still agree."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setenv("STC_THREADS", "1")
    from tracer import Tracer

    tracer = Tracer()
    cfg = harness.SweepConfig(code="golden-dv", decoders=("fast", "sphere"), modulation=16,
                              channel="rapid", snr_start=6.0, snr_stop=12.0, snr_step=6.0,
                              trials=20, seed=2, ordering="blast")
    with tracer.installed():
        harness.run_sweep(cfg)
    assert tracer.cost_mismatch == {} and tracer.raised == {}
    spans = {span[0] for span in tracer.spans}
    assert {"decoders.fast", "decoders.sphere"} <= spans
