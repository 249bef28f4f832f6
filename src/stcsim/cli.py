"""Command-line front end: simulate, verify, and decode subcommands."""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import codes, harness
from .channel import CHANNEL_MODELS
from .constellation import SUPPORTED_QAM_ORDERS, make_qam


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stcsim",
        description="Space-time code simulation and decoding tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate",
        help="run a Monte Carlo SNR sweep and write CSV statistics",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    cfg = harness.SweepConfig  # every simulate default is the field's own
    sim.add_argument("--code", default=cfg.code, choices=codes.CODE_VARIANTS,
                     help="space-time code variant")
    sim.add_argument("--decoder", default=",".join(cfg.decoders),
                     help="comma-separated decoders from: " + ",".join(harness.DECODER_NAMES))
    sim.add_argument("--modulation", type=int, default=cfg.modulation,
                     help="QAM order, one of: " + ", ".join(map(str, SUPPORTED_QAM_ORDERS)))
    sim.add_argument("--channel", default=cfg.channel, choices=CHANNEL_MODELS, help="fading model")
    sim.add_argument("--rho", type=float, default=cfg.rho,
                     help="slot correlation for the markov model")
    sim.add_argument("--snr-start", type=float, default=cfg.snr_start, help="first SNR point, dB")
    sim.add_argument("--snr-stop", type=float, default=cfg.snr_stop, help="last SNR point, dB")
    sim.add_argument("--snr-step", type=float, default=cfg.snr_step, help="SNR grid step, dB")
    sim.add_argument("--trials", type=int, default=cfg.trials, help="trials per SNR point")
    sim.add_argument("--seed", type=int, default=cfg.seed, help="stream seed")
    blast = ", ".join(name for name, entry in harness.DECODERS.items() if entry.blast)
    sim.add_argument("--ordering", default=cfg.ordering, choices=harness.ORDERING_MODES,
                     help=f"column ordering; blast reorders columns only for {blast}, "
                          "the other decoders ignore it")
    sim.add_argument("--noise-free", action="store_true", default=cfg.noise_free,
                     help="zero the noise (sanity runs)")
    sim.add_argument("--out", required=True, help="output CSV path")

    ver = sub.add_parser(
        "verify",
        help="run a property-verification suite",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    ver.add_argument("--suite", required=True, choices=harness.VERIFICATION_SUITES,
                     help="suite to run")
    ver.add_argument("--trials", type=int, default=None,
                     help="trial count (suite default when omitted)")
    ver.add_argument("--seed", type=int, default=0, help="stream seed")

    dec = sub.add_parser(
        "decode",
        help="decode a single instance from a JSON file",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    dec.add_argument("--input", required=True, help="JSON instance path")
    return parser


def _complex_array(data, key, shape):
    entries = np.asarray(data[key], dtype=object)  # ragged nesting shows in the shape
    # JSON numbers only: a bool (type bool, not int) or a numeric string would convert too
    if entries.shape != shape + (2,) or any(type(v) not in (int, float) for v in entries.flat):
        raise ValueError(f"expected nested [re, im] pairs of shape {shape} in {key!r}")
    try:
        arr = entries.astype(float)
    except OverflowError:  # a JSON integer beyond the float range
        arr = np.array(np.inf)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite value in {key!r}")
    return arr[..., 0] + 1j * arr[..., 1]


def _modulation(value) -> int:
    """The QAM order from a JSON number; an integral float such as 16.0 counts."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field 'modulation' must be an integer QAM order, got {value!r}")
    return value


def _decode_command(path: str) -> int:
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("decode input must be a JSON object")
    for key in ("code", "modulation", "decoder", "y"):
        if key not in data:
            raise ValueError(f"missing field {key!r} in decode input")
    for key in ("code", "decoder"):
        if not isinstance(data[key], str):
            raise ValueError(f"field {key!r} must be a string, got {data[key]!r}")
    code = data["code"]
    if code not in codes.CODE_VARIANTS:
        raise ValueError(f"unknown code variant: {code!r}")
    alphabet = make_qam(_modulation(data["modulation"]))
    name = data["decoder"]
    harness.decoder_entry(name, code, alphabet.size)
    if ("h" in data) == ("H" in data):
        raise ValueError("decode input needs exactly one of 'h' or 'H'")
    if "h" in data:
        matrix = codes.effective_matrix(_complex_array(data, "h", (2, 2, 2)), code)
    else:
        matrix = _complex_array(data, "H", (4, 4))
    y = codes.stack_samples(_complex_array(data, "y", (4,)), code)
    decoded, _ = harness.decode_stack(matrix[None], y[None], alphabet, (name,), "none")
    result = decoded[name].row(0)

    print("indices:", " ".join(str(i) for i in result.indices))
    print(f"cost: {result.cost:.12g}")
    print(f"nodes_visited: {result.nodes_visited}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        if args.command == "simulate":
            fields = {field.name for field in dataclasses.fields(harness.SweepConfig)}
            options = vars(args) | {"decoders": tuple(sorted(set(args.decoder.split(","))))}
            cfg = harness.SweepConfig(**{k: v for k, v in options.items() if k in fields})
            report = harness.run_sweep(cfg)
            harness.emit_csv(report, args.out)
            print(f"wrote {len(report.rows)} rows to {args.out}")
            return 0
        if args.command == "verify":
            report = harness.run_verification(args.suite, args.trials, args.seed)
            for line in report.format_lines():
                print(line)
            return 0 if report.passed else 1
        return _decode_command(args.input)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
