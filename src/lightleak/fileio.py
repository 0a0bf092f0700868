"""On-disk formats: binary traces, spectrogram tables, schedules, reports.

A trace file holds one sensor capture in a small binary format, because a
ten-megasample capture is impractical as text: an 8-byte magic, version,
trace kind (4, a sensor trace), value encoding (1, uint8), sample rate,
start time (always 0.0) and sample count, followed by one byte per sample.
Spectrograms, schedules, sweep tables and decode reports are plain text so
they can be inspected and plotted directly.
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
from .traces import SensorTrace

MAGIC = b"LLTRACE\x00"
VERSION = 1
#: the one trace kind and value encoding a trace file holds
SENSOR_KIND, UINT8_ENCODING = 4, 1

_HEADER = struct.Struct("<8sHBBddQ")
#: byte offsets of the trace kind, value encoding and sample rate fields
KIND_OFFSET, ENCODING_OFFSET, SAMPLE_RATE_OFFSET = 10, 11, 12


def export_trace(trace: SensorTrace, path) -> None:
    """Write a sensor trace to ``path`` in the binary trace format."""
    if not isinstance(trace, SensorTrace):
        raise DomainError(f"a trace file holds a SensorTrace, not a {type(trace).__name__}")
    header = _HEADER.pack(MAGIC, VERSION, SENSOR_KIND, UINT8_ENCODING,
                          trace.sample_rate, 0.0, len(trace))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(trace.values.data)


def import_trace(path) -> SensorTrace:
    """Read a sensor trace written by `export_trace`; the round trip is bit-exact.

    The header and the file size are checked first; the samples are then
    read straight into their array, so the file is never held twice.  A
    pipe has no size to check, so only the read itself can find it short.
    """
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TraceFormatError("file shorter than trace header", len(header))
        magic, version, kind, encoding, sample_rate, _, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise TraceFormatError("bad magic, not a trace file", 0)
        if version != VERSION:
            raise TraceFormatError(f"unsupported trace version {version}", 8)
        if kind != SENSOR_KIND:
            raise TraceFormatError(
                f"trace kind {kind} is not a sensor trace (kind {SENSOR_KIND})", KIND_OFFSET)
        if encoding != UINT8_ENCODING:
            raise TraceFormatError(f"value encoding {encoding} is not uint8 "
                                   f"(encoding {UINT8_ENCODING})", ENCODING_OFFSET)
        if not 0 < sample_rate < np.inf:  # NaN fails both comparisons
            raise TraceFormatError(f"sample rate must be finite and > 0, got {sample_rate}",
                                   SAMPLE_RATE_OFFSET)
        if stat.S_ISREG(st.st_mode) and st.st_size < _HEADER.size + count:
            raise TraceFormatError(
                f"truncated payload: header promises {count} samples", st.st_size)
        try:
            values = np.empty(count, dtype=np.uint8)
        except (MemoryError, ValueError):  # numpy refuses a size it cannot address
            raise TraceFormatError(f"header promises {count} samples, more than fit in "
                                   "memory", 28) from None
        got = fh.readinto(values)
        if got < values.size:  # a pipe, or a file that shrank after the check
            raise TraceFormatError(
                f"truncated payload: header promises {count} samples", _HEADER.size + got)
    try:
        return SensorTrace(sample_rate, values)
    except DomainError as exc:  # a sample that is not 0 or 1
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
