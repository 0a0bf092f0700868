"""Command-line interface.

Subcommands::

    simulate     payload -> full simulated link -> decode report
    transmit     payload -> brightness command schedule file
    render       schedule file -> simulated sensor trace file
    decode       sensor trace file -> decode report
    spectrogram  sensor trace file -> STFT magnitude table
    sweep        one-parameter Monte-Carlo sweep -> results table

Exit codes: 0 when the decode is clean (bit error rate 0, or no parity
failures when no reference payload is known), 1 on decode errors, 2 on
configuration errors.  Warnings go to stderr as ``warning: <message>`` lines.
``--config`` reads a flat ``key = value`` file; ``--set key=value`` overrides
individual entries from the command line.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import bulb, channel, codec, dsp, fileio, harness
from .config import build_from_values, parse_config_text, read_config_file
from .errors import (
    ConfigError,
    DomainError,
    LightLeakError,
    ScheduleFormatError,
    TraceFormatError,
)

EXIT_OK = 0
EXIT_DECODE_ERROR = 1
EXIT_CONFIG_ERROR = 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key=value config file")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                        dest="overrides", help="override one config entry (repeatable)")
    parser.add_argument("--seed", type=int, default=None, help="noise generator seed")
    parser.add_argument("--out", metavar="PATH", help="output file (default: stdout)")


def _gather(args, takes_hop: bool = True) -> tuple:
    values = read_config_file(args.config) if args.config else {}
    override_text = "\n".join(args.overrides)
    values.update(parse_config_text(override_text))
    if args.seed is not None:
        values["rng_seed"] = args.seed
    config, alphabet, extra = build_from_values(values)
    if "hop" in extra and not takes_hop:
        raise ConfigError(f"hop is not a {args.command} setting: every window runs "
                          "with half a window as its hop")
    window = int(extra.get("window_length", harness.DEFAULT_WINDOW_LENGTH))
    tracker = extra.get("tracker", "stft")
    hop = harness.check_receiver(window, extra.get("hop"), tracker)
    return config, alphabet, window, hop, tracker


def _payload(args) -> bytes | None:
    if args.payload_hex is None:
        return None
    try:
        payload = bytes.fromhex(args.payload_hex)
    except ValueError:
        raise ConfigError(f"--payload-hex is not valid hex: {args.payload_hex!r}")
    if len(payload) > codec.MAX_PAYLOAD:
        raise ConfigError(
            f"--payload-hex holds {len(payload)} bytes, a frame carries at most "
            f"{codec.MAX_PAYLOAD}")
    return payload


def _require_out(args) -> str:
    if not args.out:
        raise ConfigError(f"{args.command} requires --out for the output file")
    return args.out


def _write(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_exit(report, has_reference: bool) -> int:
    if has_reference:
        return EXIT_OK if report.ber == 0.0 else EXIT_DECODE_ERROR
    return EXIT_OK if report.frames_ok else EXIT_DECODE_ERROR


def cmd_simulate(args) -> int:
    config, alphabet, window, hop, tracker = _gather(args)
    payload = _payload(args)
    result = harness.run_end_to_end(config, alphabet, payload,
                                    window_length=window, hop=hop, tracker=tracker)
    rate = codec.throughput(alphabet, config.max_command_rate)
    text = fileio.format_report(result.report, throughput_bits=rate,
                                extra={"seed": config.rng_seed,
                                       "samples_processed": result.samples_processed})
    _write(text, args.out)
    return _report_exit(result.report, has_reference=True)


def cmd_transmit(args) -> int:
    config, alphabet, window, _, _ = _gather(args)
    payload = _payload(args)
    out = _require_out(args)
    harness.check_symbol_timing(config, alphabet, window)
    schedule, _ = harness.transmit(config, alphabet, payload)
    fileio.export_schedule(schedule, out)
    return EXIT_OK


def cmd_render(args) -> int:
    config, alphabet, _, _, _ = _gather(args)
    out = _require_out(args)
    schedule = fileio.import_schedule(args.schedule)
    duration = args.duration
    if duration is None:
        duration = harness.link_duration(schedule, config, alphabet)
    try:
        bulb.check_duration(schedule, config, duration)
    except DomainError as exc:
        raise ConfigError(f"--duration: {exc}") from None
    fileio.export_trace(channel.simulate_link(schedule, config, duration), out)
    return EXIT_OK


def cmd_decode(args) -> int:
    config, alphabet, window, hop, tracker = _gather(args)
    reference = _payload(args)
    trace = fileio.import_trace(args.trace)
    report = harness.receive(trace, alphabet, window, hop, tracker, reference)
    rate = codec.throughput(alphabet, config.max_command_rate)
    _write(fileio.format_report(report, throughput_bits=rate), args.out)
    return _report_exit(report, has_reference=reference is not None)


def cmd_spectrogram(args) -> int:
    _, _, window, hop, _ = _gather(args)
    out = _require_out(args)
    fileio.export_spectrogram(dsp.stft(fileio.import_trace(args.trace), window, hop), out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    config, alphabet, window, _, tracker = _gather(args, takes_hop=False)
    try:
        values = tuple(float(v) for v in args.values.split(","))
    except ValueError:
        raise ConfigError(f"--values must be a comma-separated number list: {args.values!r}")
    spec = harness.SweepSpec(
        parameter=args.parameter, values=values, trials=args.trials,
        config=config, alphabet=alphabet, payload=_payload(args),
        window_length=window, tracker=tracker, seed=config.rng_seed)
    points = harness.sweep(spec)
    _write(harness.format_sweep_table(spec, points), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightleak",
        description="Simulate and decode the smart-bulb brightness covert channel.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="end-to-end transmit and decode")
    p.add_argument("--payload-hex", required=True, help="payload bytes as hex")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("transmit", help="turn a payload into a schedule file")
    p.add_argument("--payload-hex", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_transmit)

    p = sub.add_parser("render", help="simulate a schedule into a sensor trace file")
    p.add_argument("--schedule", required=True, metavar="FILE")
    p.add_argument("--duration", type=float, default=None,
                   help="simulated seconds (default: last command + fade + tail)")
    _add_common(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("decode", help="decode a sensor trace file")
    p.add_argument("--trace", required=True, metavar="FILE")
    p.add_argument("--payload-hex", default=None,
                   help="reference payload for bit error rate")
    _add_common(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("spectrogram", help="export the STFT table of a trace file")
    p.add_argument("--trace", required=True, metavar="FILE")
    _add_common(p)
    p.set_defaults(func=cmd_spectrogram)

    p = sub.add_parser("sweep", help="Monte-Carlo sweep of one parameter")
    p.add_argument("--parameter", required=True, choices=harness.SWEEPABLE_PARAMETERS)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--payload-hex", default="a5")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # one "warning: ..." line per warning, not Python's location and source lines
        warnings.showwarning = _print_warning
        return _run(args)


def _run(args) -> int:
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (OSError, ScheduleFormatError, TraceFormatError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except LightLeakError as exc:
        stage = f" [stage: {exc.stage}]" if exc.stage else ""
        print(f"{type(exc).__name__}: {exc}{stage}", file=sys.stderr)
        return EXIT_DECODE_ERROR


if __name__ == "__main__":
    sys.exit(main())
