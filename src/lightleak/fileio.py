"""On-disk formats: binary traces, spectrogram tables, schedules, reports.

Traces use a small binary format because a ten-megasample capture is
impractical as text: an 8-byte magic, version, trace kind, value encoding,
sample rate, start time and sample count, followed by raw little-endian
samples.  Spectrograms, schedules, sweep tables and decode reports are plain
text so they can be inspected and plotted directly.
"""

from __future__ import annotations

import os
import stat
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
#: byte offsets of the trace kind and sample rate fields in the header
KIND_OFFSET = 10
SAMPLE_RATE_OFFSET = 12

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
        fh.write(np.ascontiguousarray(values, dtype=_DTYPE_BY_ENC[encoding]).data)


def import_trace(path):
    """Read a trace written by `export_trace`; the round trip is bit-exact.

    The header and the file size are checked first; the samples are then
    read straight into their array, so the file is never held twice.  A
    pipe has no size to check, so only the read itself can find it short.
    """
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TraceFormatError("file shorter than trace header", len(header))
        magic, version, kind, encoding, sample_rate, start_time, count = \
            _HEADER.unpack(header)
        if magic != MAGIC:
            raise TraceFormatError("bad magic, not a trace file", 0)
        if version != VERSION:
            raise TraceFormatError(f"unsupported trace version {version}", 8)
        if kind not in _CLASS_BY_KIND:
            raise TraceFormatError(f"unknown trace kind {kind}", KIND_OFFSET)
        if encoding not in _DTYPE_BY_ENC:
            raise TraceFormatError(f"unknown value encoding {encoding}", 11)
        if not sample_rate > 0:
            raise TraceFormatError(f"sample rate must be > 0, got {sample_rate}",
                                   SAMPLE_RATE_OFFSET)
        dtype = _DTYPE_BY_ENC[encoding]
        if stat.S_ISREG(st.st_mode) and st.st_size < _HEADER.size + count * dtype.itemsize:
            raise TraceFormatError(
                f"truncated payload: header promises {count} samples", st.st_size)
        values = np.empty(count, dtype=dtype)
        got = fh.readinto(values.view(np.uint8))
        if got < values.nbytes:  # a pipe, or a file that shrank after the check
            raise TraceFormatError(
                f"truncated payload: header promises {count} samples", _HEADER.size + got)
    cls = _CLASS_BY_KIND[kind]
    try:
        if cls is LevelTrace:
            return LevelTrace(sample_rate, values, start_time)
        return cls(sample_rate, values)
    except DomainError as exc:  # samples outside the kind's value range
        raise TraceFormatError(str(exc), _HEADER.size) from None


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
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # \n, \r\n and \r, as text mode splits
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise ScheduleFormatError(f"{raw!r}: not UTF-8 text", lineno) from None
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
