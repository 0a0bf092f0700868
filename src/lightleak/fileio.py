"""On-disk formats: binary traces, spectrogram tables, schedules, reports.

Traces use a small binary format because a ten-megasample capture is
impractical as text: an 8-byte magic, version, trace kind, value encoding,
sample rate, start time and sample count, followed by raw little-endian
samples.  Spectrograms, schedules, sweep tables and decode reports are plain
text so they can be inspected and plotted directly.
"""

from __future__ import annotations

import struct

import numpy as np

from .bulb import BrightnessCommand, CommandSchedule
from .codec import DecodeReport, bits_to_text
from .dsp import Spectrogram
from .errors import DomainError, ScheduleFormatError, TraceFormatError
from .traces import IntensityTrace, LevelTrace, PwmTrace, SensorTrace

MAGIC = b"LLTRACE\x00"
VERSION = 1

_HEADER = struct.Struct("<8sHBBddQ")

_KIND_BY_CLASS = {LevelTrace: 1, PwmTrace: 2, IntensityTrace: 3, SensorTrace: 4}
_CLASS_BY_KIND = {v: k for k, v in _KIND_BY_CLASS.items()}
#: value encodings: float64 or uint8 little-endian
_ENC_F64, _ENC_U8 = 0, 1
_DTYPE_BY_ENC = {_ENC_F64: np.dtype("<f8"), _ENC_U8: np.dtype("u1")}


def export_trace(trace, path) -> None:
    """Write a trace to ``path`` in the binary trace format."""
    kind = _KIND_BY_CLASS.get(type(trace))
    if kind is None:
        raise DomainError(f"cannot export object of type {type(trace).__name__}")
    values = trace.values
    encoding = _ENC_U8 if values.dtype == np.uint8 else _ENC_F64
    start_time = getattr(trace, "start_time", 0.0)
    header = _HEADER.pack(MAGIC, VERSION, kind, encoding,
                          trace.sample_rate, start_time, values.size)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values, dtype=_DTYPE_BY_ENC[encoding]).tobytes())


def import_trace(path):
    """Read a trace written by `export_trace`; the round trip is bit-exact."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise TraceFormatError("file shorter than trace header", len(raw))
    magic, version, kind, encoding, sample_rate, start_time, count = \
        _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise TraceFormatError("bad magic, not a trace file", 0)
    if version != VERSION:
        raise TraceFormatError(f"unsupported trace version {version}", 8)
    if kind not in _CLASS_BY_KIND:
        raise TraceFormatError(f"unknown trace kind {kind}", 10)
    if encoding not in _DTYPE_BY_ENC:
        raise TraceFormatError(f"unknown value encoding {encoding}", 11)
    dtype = _DTYPE_BY_ENC[encoding]
    need = _HEADER.size + count * dtype.itemsize
    if len(raw) < need:
        raise TraceFormatError(
            f"truncated payload: header promises {count} samples", len(raw))
    values = np.frombuffer(raw, dtype=dtype, count=count, offset=_HEADER.size).copy()
    cls = _CLASS_BY_KIND[kind]
    if cls is LevelTrace:
        return LevelTrace(sample_rate, values, start_time)
    return cls(sample_rate, values)


def export_spectrogram(spec: Spectrogram, path) -> None:
    """Write a spectrogram as a text table: one header line, one line per frame.

    Each frame line holds the frame time followed by the magnitude of every
    bin, suitable for external plotting.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# window_length={spec.window_length} hop={spec.hop} "
            f"sample_rate={spec.sample_rate!r} bin_width={spec.bin_width!r} "
            f"frames={spec.n_frames} bins={spec.frames.shape[1]}\n")
        for t, row in zip(spec.frame_times, spec.frames):
            fh.write(" ".join([f"{t:.9e}"] + [f"{m:.9e}" for m in row]) + "\n")


def import_spectrogram(path) -> Spectrogram:
    """Parse a spectrogram table written by `export_spectrogram`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("# "):
            raise TraceFormatError("missing spectrogram header line", 0)
        meta = dict(item.split("=", 1) for item in header[2:].split())
        rows = [np.array(line.split(), dtype=np.float64) for line in fh if line.strip()]
    window_length = int(meta["window_length"])
    hop = int(meta["hop"])
    sample_rate = float(meta["sample_rate"])
    if rows:
        table = np.vstack(rows)
        times, mags = table[:, 0], table[:, 1:]
    else:
        times = np.zeros(0)
        mags = np.zeros((0, window_length // 2 + 1))
    return Spectrogram(window_length, hop, sample_rate, mags, times)


def export_schedule(schedule: CommandSchedule, path) -> None:
    """Write a command schedule as text: header plus one ``time level`` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# initial_level={schedule.initial_level}\n")
        for cmd in schedule.commands:
            fh.write(f"{cmd.at_time!r} {cmd.level}\n")


def import_schedule(path) -> CommandSchedule:
    """Parse a schedule file written by `export_schedule`.

    A malformed line, a missing header or an out-of-order command raises
    `ScheduleFormatError` naming the line.
    """
    commands = []
    initial = header_line = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            try:
                if line.startswith("#") and "initial_level=" in line:
                    initial = int(line.split("initial_level=", 1)[1])
                    header_line = lineno
                elif line and not line.startswith("#"):
                    t_str, level_str = line.split()
                    commands.append(BrightnessCommand(float(t_str), int(level_str)))
                    if len(commands) > 1 and commands[-1].at_time <= commands[-2].at_time:
                        raise DomainError("command times must be strictly increasing")
            except ValueError as exc:
                raise ScheduleFormatError(f"{line!r}: {exc}", lineno) from None
    if initial is None:
        raise ScheduleFormatError("schedule file missing initial_level header", 1)
    try:
        return CommandSchedule(tuple(commands), initial)
    except DomainError as exc:
        raise ScheduleFormatError(str(exc), header_line) from None


def format_report(report: DecodeReport, throughput_bits: float | None = None,
                  extra: dict | None = None) -> str:
    """Deterministic text rendering of a decode report."""
    lines = ["# lightleak decode report v1"]
    for key, value in (extra or {}).items():
        lines.append(f"{key}={value}")
    payload_hex = report.payload.hex() if report.payload is not None else ""
    lines.append(f"payload_hex={payload_hex}")
    lines.append(f"frames_ok={report.frames_ok}")
    lines.append(f"parity_failures={report.parity_failures}")
    lines.append(f"ber={'' if report.ber is None else repr(report.ber)}")
    conf = report.mean_confidence
    lines.append(f"mean_confidence={'' if conf is None else f'{conf:.6g}'}")
    if throughput_bits is not None:
        lines.append(f"throughput_bits_per_s={throughput_bits!r}")
    lines.append(f"bits={bits_to_text(report.bits)}")
    return "\n".join(lines) + "\n"
