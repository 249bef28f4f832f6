"""The benchmark's traced run (perfbench/tracer.py) patches names that stcsim's
modules bind. A refactor that moves one of them must fail here, not only in
``perfbench/run.py --trace 1``."""

import json
from pathlib import Path

from stcsim import effective_matrix, harness, make_qam, make_rng, sample_channels
from stcsim.codes import EffectiveChannel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_binds_every_boundary(monkeypatch, tmp_path):
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
        # The one-instance wrappers the tracer wraps still bind, and its cost
        # check holds on each of them.
        decoded = _decode_each_wrapper(harness.decoders)
    assert report.passed
    assert tracer.cost_mismatch == {} and tracer.raised == {}
    # The wrappers' rows put Python ints into the spans' work and sorts
    # fields: a numpy scalar there would make the span file unwritable.
    metrics = tracer.layer_metrics(len(sweeps) * 2 * 40, tracer.channels_sampled())
    assert metrics["decoders.fast.sorts_mean"] == metrics["decoders.alamouti.sorts_mean"] == 2
    tracer.write(tmp_path / "spans.json")
    written = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert len(written) == len(tracer.spans)
    spans = [span[0] for span in tracer.spans]
    # Sweeps decode every decoder through its stack call, which the tracer
    # does not wrap: no sweep makes a decoders.* span, and the stack calls'
    # costs are checked in test_decoders instead (for alamouti, in
    # test_alamouti_stack_costs_are_residuals_and_exhaustive_costs; for fast,
    # in test_fast_stack_costs_are_residuals; for sphere, in
    # test_sphere_stack_costs_are_residuals). The only decoder spans are the
    # direct wrapper calls above, one each.
    assert sorted(name for name in spans if name.startswith("decoders.")) == sorted(
        f"decoders.{name}" for name in decoded)
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
    columns; the tracer's ``eff.h @ x_hat`` cost check must still agree. A
    sweep makes no decoder span (test_fast_stack_costs_are_residuals and
    test_sphere_stack_costs_are_residuals check the stack calls' costs in
    both column orders), so the check is made on the one-instance wrappers,
    each given a channel with its columns in the BLAST order."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setenv("STC_THREADS", "1")
    from tracer import Tracer

    tracer = Tracer()
    cfg = harness.SweepConfig(code="golden-dv", decoders=("fast", "sphere"), modulation=16,
                              channel="rapid", snr_start=6.0, snr_stop=12.0, snr_step=6.0,
                              trials=20, seed=2, ordering="blast")
    with tracer.installed():
        harness.run_sweep(cfg)
        decoded = _decode_each_wrapper(harness.decoders, ordering="blast")
    assert tracer.cost_mismatch == {} and tracer.raised == {}
    spans = [span[0] for span in tracer.spans if span[0].startswith("decoders.")]
    assert sorted(spans) == sorted(f"decoders.{name}" for name in decoded)


def _decode_each_wrapper(decoders, ordering="none"):
    """Decode one noisy 16-QAM instance through each one-instance wrapper
    that the tracer wraps, reached as the harness reaches its decoders: a
    quasistatic golden channel, or an overlaid-Alamouti one for alamouti,
    with its columns in the decoder's BLAST order under "blast"."""
    rng = make_rng(5)
    alphabet = make_qam(16)
    calls = {"exhaustive": "decode_exhaustive", "fast": "decode_fast_golden",
             "sphere": "decode_sphere_conventional", "alamouti": "decode_alamouti_fast"}
    for name, function in calls.items():
        variant = "overlaid-alamouti" if name == "alamouti" else "golden-dv"
        h = effective_matrix(sample_channels(rng, "quasistatic", 1), variant)[0]
        if ordering == "blast" and name == "fast":
            h = h[:, decoders.fast_ordering(h)[0]]
        elif ordering == "blast" and name == "sphere":
            h = h[:, decoders.blast_ordering(h)]
        y = h @ alphabet.symbols[rng.integers(0, 16, 4)] + 0.1 * rng.standard_normal(4)
        getattr(decoders, function)(EffectiveChannel(h=h), y, alphabet)
    return tuple(calls)
