"""Boundary tracing for the benchmark's traced run.

Each wrapper replaces one name that a calling module binds, so a span marks
one call across a layer boundary:

* ``stcsim.harness``: make_rng, sample_channel, sample_noise, sample_channels,
  qr_decompose, qr_golden_structured, run_sweep and run_verification;
* ``stcsim.harness.codes`` and ``stcsim.harness.decoders``, which the harness
  calls through the module object: the binding is replaced by a namespace
  whose effective_channel, effective_matrix, golden_parts and decode_*
  attributes are wrapped. Calls inside the codes module (effective_channel
  calling effective_matrix) stay unwrapped, so they are part of one span;
* ``stcsim.decoders``: qr_decompose and sort_alphabet_by_metric.

Per-node helpers (slice_pam, sorted_pam_list) are not wrapped; their cost is
decoder self time.

A span is ``[name, start_ns, end_ns, parent, trial_key, work, sorts]``.
``parent`` is the index of the enclosing span or -1, ``trial_key`` is the
branch key of the latest make_rng call (the sweep's (point, trial) pair), and
``work`` counts channels, matrices or decoder nodes. Spans stay in memory and
are written out once, when the run ends.
"""

import contextlib
import json
import math
import types
from time import perf_counter_ns

import numpy as np

from stcsim import decoders, harness

DECODER_SPANS = {
    "decode_exhaustive": "exhaustive",
    "decode_fast_golden": "fast",
    "decode_sphere_conventional": "sphere",
    "decode_alamouti_fast": "alamouti",
}

COST_TOLERANCE = 1e-9

# The decoder-cost recomputation is the benchmark's own work: it gets a span
# of its own so it is not charged to the harness's self time.
CHECK_SPAN = "perfbench.cost_check"


def _batch(array, core_dims: int) -> int:
    return math.prod(np.shape(array)[:-core_dims])


def _channels_arg(args, kwargs) -> int:
    return int(kwargs["count"] if "count" in kwargs else args[2])


class Tracer:
    """Span recorder plus the decoder cost check."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._key = None
        self.cost_mismatch = {}
        self.raised = {}

    def wrap(self, name, fn, work=None, sets_key=False, decoder=False):
        """Return ``fn`` wrapped so each call records one span named ``name``."""
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            if sets_key:
                self._key = args[1:]
            span = [name, 0, 0, stack[-1] if stack else -1, self._key, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] = self.raised.get(name, 0) + 1
                raise
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if work is not None:
                span[5] = work(args, kwargs)
            if decoder:
                span[5] = result.nodes_visited
                span[6] = result.full_sorts
                self._check_cost(name, args, result)
            return result

        return wrapper

    def _check_cost(self, name, args, result) -> None:
        """Compare the reported cost with ||y - H x_hat||^2 from the call's arguments."""
        span = [CHECK_SPAN, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1,
                self._key, 0, 0]
        self.spans.append(span)
        eff, y = args[0], args[1]
        resid = np.asarray(y, dtype=complex) - np.asarray(eff.h, dtype=complex) @ result.x_hat
        expected = float(np.vdot(resid, resid).real)
        if not abs(result.cost - expected) <= COST_TOLERANCE * expected:
            self.cost_mismatch[name] = self.cost_mismatch.get(name, 0) + 1
        span[2] = perf_counter_ns()

    @contextlib.contextmanager
    def installed(self):
        """Install every boundary wrapper; restore the original bindings on exit."""
        wrap = self.wrap
        codes_ns = types.SimpleNamespace(**vars(harness.codes))
        decoders_ns = types.SimpleNamespace(**vars(harness.decoders))
        patches = [
            (harness, "make_rng", wrap("channel.make_rng", harness.make_rng, sets_key=True)),
            (harness, "sample_channel", wrap("channel.sample_channel", harness.sample_channel)),
            (harness, "sample_noise", wrap("channel.sample_noise", harness.sample_noise)),
            (harness, "sample_channels",
             wrap("channel.sample_channels", harness.sample_channels, work=_channels_arg)),
            (harness, "qr_decompose",
             wrap("matrixkit.qr_decompose", harness.qr_decompose,
                  work=lambda a, k: _batch(a[0], 2))),
            (harness, "qr_golden_structured",
             wrap("matrixkit.qr_golden_structured", harness.qr_golden_structured,
                  work=lambda a, k: _batch(a[0], 2))),
            (harness, "run_sweep", wrap("harness.run_sweep", harness.run_sweep)),
            (harness, "run_verification",
             wrap("harness.run_verification", harness.run_verification)),
            (codes_ns, "effective_channel",
             wrap("codes.effective_channel", codes_ns.effective_channel)),
            (codes_ns, "effective_matrix",
             wrap("codes.effective_matrix", codes_ns.effective_matrix,
                  work=lambda a, k: _batch(a[0], 3))),
            (codes_ns, "golden_parts",
             wrap("codes.golden_parts", codes_ns.golden_parts,
                  work=lambda a, k: _batch(a[0], 3))),
            (decoders, "qr_decompose",
             wrap("matrixkit.qr_decompose", decoders.qr_decompose,
                  work=lambda a, k: _batch(a[0], 2))),
            (decoders, "sort_alphabet_by_metric",
             wrap("constellation.sort_alphabet_by_metric", decoders.sort_alphabet_by_metric)),
            (harness, "codes", codes_ns),
            (harness, "decoders", decoders_ns),
        ]
        for fn_name, short in DECODER_SPANS.items():
            patches.append(
                (decoders_ns, fn_name,
                 wrap(f"decoders.{short}", getattr(decoders_ns, fn_name), decoder=True))
            )
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, value in patches:
                setattr(obj, attr, value)
            yield self
        finally:
            for obj, attr, value in reversed(saved):
                setattr(obj, attr, value)

    def layer_metrics(self, trials: int, channels: int) -> dict:
        """Per-layer figures from the recorded spans.

        Args:
            trials: sweep trials traced (instances decoded by every decoder),
                or channels checked for verification runs.
            channels: channel realizations the verification suites checked
                (0 for sweeps).
        """
        dur = [s[2] - s[1] for s in self.spans]
        child = [0] * len(self.spans)
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
        by_name = {}
        for s, d, c in zip(self.spans, dur, child):
            agg = by_name.setdefault(s[0], {"calls": 0, "self": 0, "work": 0, "sorts": 0, "durs": []})
            agg["calls"] += 1
            agg["self"] += d - c
            agg["work"] += s[5]
            agg["sorts"] += s[6]
            agg["durs"].append(d)

        def get(name):
            return by_name.get(name, {"calls": 0, "self": 0, "work": 0, "sorts": 0, "durs": []})

        def per(total_ns, count, scale):
            return total_ns / scale / count if count else 0.0

        m = {}
        for layer in ("channel.make_rng", "channel.sample_channel", "channel.sample_noise",
                      "codes.effective_channel", "matrixkit.qr_decompose",
                      "constellation.sort_alphabet_by_metric"):
            m[f"{layer}.us"] = per(get(layer)["self"], trials, 1e3)
        for layer in ("matrixkit.qr_decompose", "constellation.sort_alphabet_by_metric"):
            m[f"{layer}.calls_per_trial"] = get(layer)["calls"] / trials
        m["harness.run_sweep.self_us"] = per(get("harness.run_sweep")["self"], trials, 1e3)
        for short in DECODER_SPANS.values():
            agg = get(f"decoders.{short}")
            durs = np.asarray(agg["durs"], dtype=float)
            m[f"decoders.{short}.self_us"] = per(agg["self"], trials, 1e3)
            m[f"decoders.{short}.us_per_node"] = per(agg["self"], agg["work"], 1e3)
            m[f"decoders.{short}.call_us_p50"] = float(np.percentile(durs, 50)) / 1e3 if durs.size else 0.0
            m[f"decoders.{short}.call_us_p99"] = float(np.percentile(durs, 99)) / 1e3 if durs.size else 0.0
            m[f"decoders.{short}.sorts_mean"] = agg["sorts"] / agg["calls"] if agg["calls"] else 0.0
            m[f"decoders.{short}.cost_mismatch"] = self.cost_mismatch.get(f"decoders.{short}", 0)
            m[f"decoders.{short}.raised"] = self.raised.get(f"decoders.{short}", 0)
        for layer in ("channel.sample_channels", "codes.effective_matrix", "codes.golden_parts"):
            agg = get(layer)
            m[f"{layer}.ns_per_channel"] = per(agg["self"], agg["work"], 1)
        for layer in ("matrixkit.qr_decompose", "matrixkit.qr_golden_structured"):
            agg = get(layer)
            m[f"{layer}.ns_per_matrix"] = per(agg["self"], agg["work"], 1)
        m["harness.run_verification.self_ns_per_channel"] = per(
            get("harness.run_verification")["self"], channels, 1
        )
        return m

    def channels_sampled(self) -> int:
        return sum(s[5] for s in self.spans if s[0] == "channel.sample_channels")

    def check_ns(self) -> int:
        """Time spent in the benchmark's own cost checks."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == CHECK_SPAN)

    def raised_total(self) -> int:
        return sum(self.raised.values())

    def write(self, path) -> None:
        """Write every span as one JSON document."""
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "trial_key", "work", "sorts"],
                 "spans": self.spans},
                handle,
                separators=(",", ":"),
            )
