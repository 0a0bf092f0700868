"""Trace and schedule files: property-tested round trips, fuzzed input, memory."""

import math
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightleak import fileio
from lightleak.bulb import CommandSchedule
from lightleak.errors import DomainError, ScheduleFormatError, TraceFormatError
from lightleak.traces import IntensityTrace, LevelTrace, PwmTrace, SensorTrace

_rates = st.floats(min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False)
_binary = st.lists(st.integers(0, 1), max_size=200).map(lambda v: np.array(v, np.uint8))
_traces = st.builds(SensorTrace, _rates, _binary)

_schedules = st.builds(
    lambda times, levels, initial: CommandSchedule.from_pairs(zip(times, levels), initial),
    st.lists(st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
             unique=True, max_size=40).map(sorted),
    st.lists(st.integers(0, 255), min_size=40, max_size=40),
    st.integers(0, 255),
)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    """One file path that each generated example overwrites."""
    return tmp_path_factory.mktemp("files") / "file"


class TestTraceFileProperties:
    @settings(max_examples=60, deadline=None)
    @given(_traces)
    def test_round_trip_bit_exact(self, path, trace):
        fileio.export_trace(trace, path)
        back = fileio.import_trace(path)
        assert type(back) is type(trace)
        assert back.sample_rate == trace.sample_rate
        assert back.values.dtype == trace.values.dtype
        assert back.values.tobytes() == trace.values.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(_traces)
    def test_file_is_header_then_raw_samples(self, path, trace):
        fileio.export_trace(trace, path)
        raw = path.read_bytes()
        assert fileio._HEADER.unpack_from(raw) == (
            fileio.MAGIC, fileio.VERSION, fileio.SENSOR_KIND, fileio.UINT8_ENCODING,
            trace.sample_rate, 0.0, len(trace))
        assert raw[fileio._HEADER.size:] == trace.values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(_traces, st.data())
    def test_truncated_file_is_a_format_error(self, path, trace, data):
        fileio.export_trace(trace, path)
        raw = path.read_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1))
        path.write_bytes(raw[:cut])
        with pytest.raises(TraceFormatError) as exc_info:
            fileio.import_trace(path)
        assert exc_info.value.byte_offset == cut

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.binary(max_size=120),
        # a valid magic and version, so the fuzz reaches the later fields
        st.binary(min_size=26, max_size=120).map(
            lambda b: fileio.MAGIC + struct.pack("<H", fileio.VERSION) + b),
        # and a sensor kind and uint8 encoding, so it reaches the rate, count and samples
        st.binary(min_size=24, max_size=120).map(
            lambda b: fileio.MAGIC + struct.pack("<HBB", fileio.VERSION, fileio.SENSOR_KIND,
                                                 fileio.UINT8_ENCODING) + b),
    ))
    def test_fuzzed_file_parses_or_is_a_format_error(self, path, data):
        path.write_bytes(data)
        try:
            trace = fileio.import_trace(path)
        except TraceFormatError:
            return
        assert fileio._HEADER.size + trace.values.nbytes <= len(data)

    @pytest.mark.parametrize("field, value, offset", [
        ("sample_rate", 0.0, fileio.SAMPLE_RATE_OFFSET),
        ("sample_rate", float("nan"), fileio.SAMPLE_RATE_OFFSET),
        ("sample_rate", float("inf"), fileio.SAMPLE_RATE_OFFSET),
        ("sample", 7, fileio._HEADER.size),
        # level, PWM and intensity traces, and float64 samples, are not read
        ("kind", 1, fileio.KIND_OFFSET),
        ("kind", 2, fileio.KIND_OFFSET),
        ("kind", 3, fileio.KIND_OFFSET),
        ("encoding", 0, fileio.ENCODING_OFFSET),
    ])
    def test_bad_field_is_a_format_error(self, tmp_path, field, value, offset):
        path = tmp_path / "trace.bin"
        fileio.export_trace(SensorTrace(1000.0, np.array([0, 1, 1], np.uint8)), path)
        raw = bytearray(path.read_bytes())
        if field == "sample_rate":
            struct.pack_into("<d", raw, fileio.SAMPLE_RATE_OFFSET, value)
        elif field == "sample":
            raw[-1] = value
        else:
            raw[offset] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError) as exc_info:
            fileio.import_trace(path)
        assert exc_info.value.byte_offset == offset


@settings(max_examples=100, deadline=None)
@given(cls=st.sampled_from([SensorTrace, PwmTrace]),
       values=st.lists(st.one_of(st.integers(0, 1), st.integers(-300, 300),
                                 st.floats(), st.sampled_from([0.5, 1.7, 256, -0.2])),
                       max_size=20))
@example(cls=SensorTrace, values=[0.5, 1.7])
@example(cls=SensorTrace, values=np.array([256]))
@example(cls=PwmTrace, values=[0.9, -0.2])
@example(cls=SensorTrace, values=[0.0, float("nan")])
def test_binary_trace_holds_exactly_its_values_or_refuses_them(cls, values):
    """A value that is not exactly 0 or 1 is refused before the uint8 cast,
    which would read 0.5 as 0 and 256 as 0 (and warn on NaN)."""
    if all(v == 0 or v == 1 for v in values):
        assert cls(1000.0, values).values.tolist() == [int(v) for v in values]
    else:
        with pytest.raises(DomainError, match="exactly 0 or 1"):
            cls(1000.0, values)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.one_of(st.floats(), st.integers(-300, 300)), max_size=20))
@example(values=[float("nan"), 1.0])
@example(values=[float("inf")])
def test_intensity_trace_holds_finite_non_negative_values_or_refuses_them(values):
    if all(math.isfinite(v) and v >= 0 for v in values):
        assert IntensityTrace(1000.0, values).values.tolist() == [float(v) for v in values]
    else:
        with pytest.raises(DomainError, match="finite and >= 0"):
            IntensityTrace(1000.0, values)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf")])
def test_trace_refuses_a_sample_rate_that_is_not_finite_and_positive(rate):
    with pytest.raises(DomainError, match="sample_rate must be finite and > 0"):
        SensorTrace(rate, np.array([0, 1], np.uint8))


@pytest.mark.parametrize("trace", [
    LevelTrace(1000.0, np.linspace(0, 255, 50)),
    PwmTrace(2_000_000.0, np.array([0, 1, 1, 0, 1], dtype=np.uint8)),
    IntensityTrace(10_000_000.0, np.array([0.0, 0.5, 1.25])),
], ids=lambda t: type(t).__name__)
def test_only_a_sensor_trace_is_written(tmp_path, trace):
    path = tmp_path / "trace.bin"
    with pytest.raises(DomainError, match=f"not a {type(trace).__name__}"):
        fileio.export_trace(trace, path)
    assert not path.exists()


def test_trace_files_hold_the_samples_once(tmp_path):
    n = 10_000_000
    trace = SensorTrace(10_000_000.0, np.resize(np.array([0, 1], np.uint8), n))
    path = tmp_path / "sensor.bin"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fileio.export_trace(trace, path)
        exported = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        back = fileio.import_trace(path)
        imported = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert exported <= 0.1 * n, f"export took {exported / n:.2f} B/sample extra"
    assert imported <= 1.1 * n, f"import peaked at {imported / n:.2f} B/sample"
    assert np.array_equal(back.values, trace.values)


# cut: bytes held back from the end; count: samples the header promises.  A pipe
# has no size to check, so a header promising 10**16 samples (8.88 PiB) and
# sent alone must fail at the count field, not in the allocation.
@pytest.mark.parametrize("cut, count", [(0, 4), (1, 4), (4, 10 ** 16)],
                         ids=["0", "1", "huge_count"])
def test_trace_from_a_pipe(tmp_path, cut, count):
    trace = SensorTrace(1000.0, np.array([0, 1, 1, 0], np.uint8))
    fileio.export_trace(trace, tmp_path / "trace.bin")
    data = (tmp_path / "trace.bin").read_bytes()
    data = data[:28] + struct.pack("<Q", count) + data[36:]
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data[:len(data) - cut],))
    writer.start()
    try:
        if count > trace.values.size:
            with pytest.raises(TraceFormatError, match=str(count)) as exc_info:
                fileio.import_trace(fifo)
            assert exc_info.value.byte_offset == 28
        elif cut:
            with pytest.raises(TraceFormatError) as exc_info:
                fileio.import_trace(fifo)
            assert exc_info.value.byte_offset == len(data) - cut
        else:
            assert np.array_equal(fileio.import_trace(fifo).values, trace.values)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


class TestScheduleFileProperties:
    @settings(max_examples=100, deadline=None)
    @given(_schedules)
    def test_round_trip(self, path, schedule):
        fileio.export_schedule(schedule, path)
        assert fileio.import_schedule(path) == schedule

    @settings(max_examples=100, deadline=None)
    @given(_schedules, st.data())
    def test_truncated_file_parses_or_is_a_format_error(self, path, schedule, data):
        fileio.export_schedule(schedule, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw)))])
        try:
            back = fileio.import_schedule(path)
        except ScheduleFormatError:
            return
        # a cut at a line end, or inside the last level, still parses
        assert len(back) <= len(schedule)
        assert back.commands[:-1] == schedule.commands[:max(0, len(back) - 1)]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.binary(max_size=200),
        st.text(max_size=200).map(lambda t: t.encode("utf-8")),
        st.lists(st.sampled_from(["# initial_level=137", "# initial_level=", "0.5 135",
                                  "0.25 300", "nan 1", "inf 2", "1e999 3", "-1 4",
                                  "0.5", "0.5 1 2", "# note", "", "\r", "\xff",
                                  "# initial_level=" + "9" * 400, "0.5 " + "9" * 400]),
                 max_size=8).map(lambda ls: "\n".join(ls).encode("utf-8")),
    ))
    def test_fuzzed_file_parses_or_is_a_format_error(self, path, data):
        path.write_bytes(data)
        try:
            fileio.import_schedule(path)
        except ScheduleFormatError:
            pass

    def test_undecodable_line_is_named(self, tmp_path):
        path = tmp_path / "sched.txt"
        path.write_bytes(b"# initial_level=137\n0.5 135\n\xff\xfe 1\n")
        with pytest.raises(ScheduleFormatError) as exc_info:
            fileio.import_schedule(path)
        assert exc_info.value.line == 3
