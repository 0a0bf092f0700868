"""Trace and schedule files: property-tested round trips, fuzzed input, memory."""

import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightleak import fileio
from lightleak.bulb import CommandSchedule
from lightleak.errors import ScheduleFormatError, TraceFormatError
from lightleak.traces import IntensityTrace, LevelTrace, PwmTrace, SensorTrace

_rates = st.floats(min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False)
_binary = st.lists(st.integers(0, 1), max_size=200).map(lambda v: np.array(v, np.uint8))


def _floats(lo, hi):
    return st.lists(st.floats(min_value=lo, max_value=hi, allow_nan=False),
                    max_size=200).map(lambda v: np.array(v, np.float64))


_traces = st.one_of(
    st.builds(LevelTrace, _rates, _floats(0.0, 255.0),
              st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(PwmTrace, _rates, _binary),
    st.builds(IntensityTrace, _rates, _floats(0.0, 1e300)),
    st.builds(SensorTrace, _rates, _binary),
)

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
        if isinstance(trace, LevelTrace):
            assert back.start_time == trace.start_time

    @settings(max_examples=40, deadline=None)
    @given(_traces)
    def test_file_is_header_then_raw_samples(self, path, trace):
        fileio.export_trace(trace, path)
        raw = path.read_bytes()
        header = fileio._HEADER.unpack_from(raw)
        assert header[0] == fileio.MAGIC
        assert header[-1] == len(trace)
        encoding = "u1" if trace.values.dtype == np.uint8 else "<f8"
        assert raw[fileio._HEADER.size:] == trace.values.astype(encoding).tobytes()

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
        ("sample", 7, fileio._HEADER.size),
    ])
    def test_bad_field_is_a_format_error(self, tmp_path, field, value, offset):
        path = tmp_path / "trace.bin"
        fileio.export_trace(SensorTrace(1000.0, np.array([0, 1, 1], np.uint8)), path)
        raw = bytearray(path.read_bytes())
        if field == "sample_rate":
            struct.pack_into("<d", raw, fileio.SAMPLE_RATE_OFFSET, value)
        else:
            raw[-1] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError) as exc_info:
            fileio.import_trace(path)
        assert exc_info.value.byte_offset == offset


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


@pytest.mark.parametrize("cut", [0, 1])
def test_trace_from_a_pipe(tmp_path, cut):
    trace = SensorTrace(1000.0, np.array([0, 1, 1, 0], np.uint8))
    fileio.export_trace(trace, tmp_path / "trace.bin")
    data = (tmp_path / "trace.bin").read_bytes()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data[:len(data) - cut],))
    writer.start()
    try:
        if cut:
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
