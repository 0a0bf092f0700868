"""Pipeline orchestration, sweeps, and the on-disk formats."""

import numpy as np
import pytest

import lightleak as ll
from lightleak import codec, fileio, harness
from lightleak.errors import (
    CalibrationError,
    ConfigError,
    DomainError,
    ScheduleFormatError,
    TraceFormatError,
)
from lightleak.traces import IntensityTrace, LevelTrace, PwmTrace, SensorTrace


class TestRunEndToEnd:
    def test_round_trip_clean(self, fast_link):
        config, alphabet = fast_link
        result = ll.run_end_to_end(config, alphabet, b"\x41")
        assert result.report.payload == b"\x41"
        assert result.report.ber == 0.0
        assert result.report.parity_failures == 0
        assert result.samples_processed == pytest.approx(
            result.simulated_duration * config.sample_rate, abs=1)

    @pytest.mark.parametrize("payload", [b"", b"\x00", b"\xff\x00\x55"])
    def test_round_trip_payload_shapes(self, fast_link, payload):
        config, alphabet = fast_link
        result = ll.run_end_to_end(config, alphabet, payload)
        assert result.report.payload == payload
        assert result.report.ber == 0.0
        assert result.report.parity_failures == 0

    def test_heavy_noise_fails_calibration_not_garbage(self, fast_link):
        config, alphabet = fast_link
        # push noise up until the channel is unusable; the pipeline must say
        # so via a calibration error instead of returning bits
        noisy = config.replace(noise_sigma=1.0, distance=0.4, ambient_intensity=0.01)
        with pytest.raises(CalibrationError) as exc_info:
            ll.run_end_to_end(noisy, alphabet, b"\x41")
        assert exc_info.value.stage == "calibrate"

    def test_same_seed_identical(self, fast_link):
        config, alphabet = fast_link
        config = config.replace(noise_sigma=0.003, rng_seed=5)
        a = ll.run_end_to_end(config, alphabet, b"\x42\x43")
        b = ll.run_end_to_end(config, alphabet, b"\x42\x43")
        assert a.report.payload == b.report.payload
        assert a.report.ber == b.report.ber
        assert np.array_equal(a.report.bits, b.report.bits)
        assert a.config == b.config
        assert a.samples_processed == b.samples_processed

    def test_zero_crossing_tracker(self, fast_link):
        config, alphabet = fast_link
        result = ll.run_end_to_end(config, alphabet, b"\x7e", tracker="zero_crossing")
        assert result.report.payload == b"\x7e"
        assert result.report.ber == 0.0

    def test_symbol_period_vs_rate_limit(self, fast_link):
        config, alphabet = fast_link
        bad = config.replace(max_command_rate=10.0)  # needs >= 0.1 s symbols
        with pytest.raises(ConfigError):
            ll.run_end_to_end(bad, alphabet, b"\x41")

    def test_timing_precondition_warns(self, fast_link):
        config, alphabet = fast_link
        crowded = config.replace(fade_duration=0.0029)
        with pytest.warns(UserWarning, match="slots may not settle"):
            ll.run_end_to_end(crowded, alphabet, b"\x41")

    def test_unknown_tracker(self, fast_link):
        config, alphabet = fast_link
        with pytest.raises(ConfigError):
            ll.run_end_to_end(config, alphabet, b"\x41", tracker="wavelet")

    def test_segments_track_once(self, fast_link, monkeypatch):
        config, alphabet = fast_link
        calls = []
        segment = codec.symbol_slots

        def counted(*args, **kwargs):
            calls.append(1)
            return segment(*args, **kwargs)

        monkeypatch.setattr(codec, "symbol_slots", counted)
        result = ll.run_end_to_end(config, alphabet, b"\x41")
        assert result.report.ber == 0.0
        assert len(calls) == 1


class TestSweep:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            harness.SweepSpec(parameter="gamma", values=(1,), trials=1)
        with pytest.raises(ConfigError):
            harness.SweepSpec(parameter="noise_sigma", values=(), trials=1)
        with pytest.raises(ConfigError):
            harness.SweepSpec(parameter="noise_sigma", values=(0.1,), trials=0)

    def test_noiseless_sweep_all_zero_ber(self, fast_link):
        config, alphabet = fast_link
        spec = harness.SweepSpec(
            parameter="noise_sigma", values=(0.0, 0.0005, 0.001), trials=2,
            config=config, alphabet=alphabet, payload=b"\x41", seed=9)
        points = harness.sweep(spec)
        assert [p.value for p in points] == [0.0, 0.0005, 0.001]
        assert all(p.mean_ber == 0.0 for p in points)
        assert all(p.calibration_failure_rate == 0.0 for p in points)

    def test_distance_sweep_monotone(self, fast_link):
        config, alphabet = fast_link
        config = config.replace(noise_sigma=0.004, ambient_intensity=0.01)
        spec = harness.SweepSpec(
            parameter="distance", values=(0.1, 0.3, 0.6), trials=4,
            config=config, alphabet=alphabet, payload=b"\xa5", seed=3)
        points = harness.sweep(spec)
        bers = [p.mean_ber for p in points]
        assert bers == sorted(bers)

    def test_rows_sorted_by_value(self, fast_link):
        config, alphabet = fast_link
        spec = harness.SweepSpec(
            parameter="symbol_period", values=(0.004, 0.002), trials=1,
            config=config, alphabet=alphabet, payload=b"\x41", seed=1)
        points = harness.sweep(spec)
        assert [p.value for p in points] == [0.002, 0.004]

    def test_command_rate_sweep(self, fast_link):
        config, alphabet = fast_link
        spec = harness.SweepSpec(
            parameter="max_command_rate", values=(500.0, 1000.0), trials=1,
            config=config, alphabet=alphabet, payload=b"\x41", seed=2)
        points = harness.sweep(spec)
        assert all(p.mean_ber == 0.0 for p in points)
        # a rate the symbol period cannot satisfy counts as a failed run
        tight = harness.SweepSpec(
            parameter="max_command_rate", values=(10.0,), trials=1,
            config=config, alphabet=alphabet, payload=b"\x41", seed=2)
        assert harness.sweep(tight)[0].decode_errors == 1

    def test_table_format(self, fast_link):
        config, alphabet = fast_link
        spec = harness.SweepSpec(
            parameter="noise_sigma", values=(0.0,), trials=1,
            config=config, alphabet=alphabet, payload=b"\x41")
        table = harness.format_sweep_table(spec, harness.sweep(spec))
        lines = table.strip().split("\n")
        assert lines[0].startswith("# lightleak sweep parameter=noise_sigma")
        assert len(lines) == 3


class TestTraceFiles:
    CASES = [
        LevelTrace(1000.0, np.linspace(0, 255, 50), start_time=0.25),
        PwmTrace(2_000_000.0, np.array([0, 1, 1, 0, 1], dtype=np.uint8)),
        IntensityTrace(10_000_000.0, np.array([0.0, 0.5, 1.25])),
        SensorTrace(10_000_000.0, np.array([0, 1] * 40, dtype=np.uint8)),
    ]

    @pytest.mark.parametrize("trace", CASES, ids=lambda t: type(t).__name__)
    def test_round_trip_bit_exact(self, trace, tmp_path):
        path = tmp_path / "trace.bin"
        fileio.export_trace(trace, path)
        back = fileio.import_trace(path)
        assert type(back) is type(trace)
        assert back.sample_rate == trace.sample_rate
        assert back.values.dtype == trace.values.dtype
        assert np.array_equal(back.values, trace.values)
        if isinstance(trace, LevelTrace):
            assert back.start_time == trace.start_time

    def test_header_only_empty_trace(self, tmp_path):
        path = tmp_path / "empty.bin"
        fileio.export_trace(SensorTrace(500.0, np.zeros(0, dtype=np.uint8)), path)
        back = fileio.import_trace(path)
        assert len(back) == 0
        assert back.sample_rate == 500.0

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trace.bin"
        fileio.export_trace(IntensityTrace(1000.0, np.arange(10.0)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(TraceFormatError) as exc_info:
            fileio.import_trace(path)
        assert exc_info.value.byte_offset == len(raw) - 7

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTATRACE" + bytes(64))
        with pytest.raises(TraceFormatError) as exc_info:
            fileio.import_trace(path)
        assert exc_info.value.byte_offset == 0

    def test_short_file(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"LL")
        with pytest.raises(TraceFormatError):
            fileio.import_trace(path)

    def test_unknown_kind_byte(self, tmp_path):
        path = tmp_path / "trace.bin"
        fileio.export_trace(IntensityTrace(1000.0, np.arange(4.0)), path)
        raw = bytearray(path.read_bytes())
        raw[10] = 99  # trace kind field
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="kind"):
            fileio.import_trace(path)


class TestSpectrogramFiles:
    def test_line_count_and_header(self, tmp_path):
        spec = ll.stft(np.sin(np.arange(40_960) * 0.2), 4096, 2048,
                       sample_rate=10_000_000.0)
        assert spec.n_frames == 19
        path = tmp_path / "spec.txt"
        fileio.export_spectrogram(spec, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 20
        assert f"bin_width={spec.bin_width!r}" in lines[0]

    def test_reparse_matches(self, tmp_path):
        rng = np.random.default_rng(0)
        spec = ll.stft(rng.random(8192), 1024, 512, sample_rate=1_000_000.0)
        path = tmp_path / "spec.txt"
        fileio.export_spectrogram(spec, path)
        back = fileio.import_spectrogram(path)
        assert back.window_length == spec.window_length
        assert back.hop == spec.hop
        assert back.sample_rate == spec.sample_rate
        assert np.allclose(back.frames, spec.frames, rtol=1e-7, atol=1e-12)
        assert np.allclose(back.frame_times, spec.frame_times, rtol=1e-7)


class TestScheduleFiles:
    def test_round_trip(self, tmp_path):
        sched = ll.CommandSchedule.from_pairs(
            [(0.5, 135), (1.0, 137), (1.5, 140)], 137)
        path = tmp_path / "sched.txt"
        fileio.export_schedule(sched, path)
        assert fileio.import_schedule(path) == sched

    def test_missing_header(self, tmp_path):
        path = tmp_path / "sched.txt"
        path.write_text("0.5 135\n")
        with pytest.raises(DomainError):
            fileio.import_schedule(path)

    @pytest.mark.parametrize("text, line", [
        ("# initial_level=137\n0.5 135 junk\n", 2),
        ("# initial_level=x\n", 1),
        ("# initial_level=137\n\n0.5 300\n", 3),
        ("# initial_level=137\n0.5 135\n0.5 140\n", 3),
        ("0.5 135\n# initial_level=999\n", 2),
    ])
    def test_malformed_names_line(self, tmp_path, text, line):
        path = tmp_path / "sched.txt"
        path.write_text(text)
        with pytest.raises(ScheduleFormatError) as exc_info:
            fileio.import_schedule(path)
        assert exc_info.value.line == line
        assert f"line {line}" in str(exc_info.value)


class TestFilePipelineTransparency:
    def test_file_decode_equals_memory_decode(self, fast_link, tmp_path):
        config, alphabet = fast_link
        payload = b"\x42\x99"
        mem = ll.run_end_to_end(config, alphabet, payload)

        bits = codec.encode_frame(payload)
        sched = codec.bits_to_schedule(
            bits, alphabet, start_time=harness.LEAD_IN_SYMBOLS * alphabet.symbol_period)
        sched = ll.apply_rate_limit(sched, config.max_command_rate).schedule
        duration = (sched.last_time + config.fade_duration
                    + harness.TAIL_SYMBOLS * alphabet.symbol_period)
        sensor = ll.simulate_link(sched, config, duration)
        trace_path = tmp_path / "sensor.bin"
        fileio.export_trace(sensor, trace_path)

        loaded = fileio.import_trace(trace_path)
        track = ll.dominant_frequency(ll.stft(loaded, 4096, 2048))
        calibration = codec.calibrate(track, alphabet)
        bits_rx, _ = codec.classify_symbols(track, calibration, alphabet)
        report = codec.decode_frame(bits_rx, reference=payload)

        assert np.array_equal(report.bits, mem.report.bits)
        assert report.payload == mem.report.payload
        assert report.ber == mem.report.ber


class TestReportFormat:
    def test_deterministic_and_complete(self):
        report = codec.decode_frame(codec.encode_frame(b"\x41"), reference=b"\x41",
                                    confidences=np.full(33, 12.0))
        text = fileio.format_report(report, throughput_bits=5.0)
        assert text == fileio.format_report(report, throughput_bits=5.0)
        assert "payload_hex=41" in text
        assert "ber=0.0" in text
        assert "parity_failures=0" in text
        assert "throughput_bits_per_s=5.0" in text
        assert "mean_confidence=12" in text
        assert "bits=" in text
