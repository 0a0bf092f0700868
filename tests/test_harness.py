"""Pipeline orchestration, sweeps, and the on-disk formats."""

import collections
import inspect
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from conftest import ScriptedExecutor

import lightleak as ll
from lightleak import _kernels, bulb, channel, codec, dsp, fileio, harness, traces
from lightleak.errors import (
    CalibrationError,
    ConfigError,
    DomainError,
    LightLeakError,
    ScheduleFormatError,
    TraceFormatError,
)
from lightleak.traces import SensorTrace


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

    def test_timing_warning_names_the_calling_line(self, fast_link):
        config, alphabet = fast_link
        crowded = config.replace(fade_duration=0.0029)
        with pytest.warns(UserWarning) as direct:
            harness.check_symbol_timing(crowded, alphabet, 4096)
        with pytest.warns(UserWarning) as wrapped:
            ll.run_end_to_end(crowded, alphabet, b"\x41")
        assert [w.filename for w in (*direct, *wrapped)] == [__file__, __file__]

    def test_grid_past_2_53_samples_refused(self, fast_link):
        config, alphabet = fast_link
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="a trace of .* samples is more than 2"):
                ll.run_end_to_end(config.replace(sample_rate=1e300), alphabet, b"\x41")

    def test_link_reads_the_level_only_where_a_period_starts(self, monkeypatch):
        # the criterion-5 link
        config = ll.ChannelConfig(noise_sigma=0.0, fade_duration=0.002,
                                  sensor_time_constant=0.001, max_command_rate=200.0)
        alphabet = ll.SymbolAlphabet(symbol_period=0.005)
        asked = []
        level_fill = _kernels.level_fill

        def counted(bounds, times, levels, dt, idx, out=None):
            asked.append(idx.size)
            return level_fill(bounds, times, levels, dt, idx, out)

        monkeypatch.setattr(_kernels, "level_fill", counted)
        result = ll.run_end_to_end(config, alphabet, bytes(range(0x41, 0x49)))
        assert result.report.ber == 0.0
        n = result.samples_processed
        spans = -(-n // (channel.PWM_BLOCKS * traces.BLOCK_SAMPLES))
        assert len(asked) == spans
        assert sum(asked) <= np.ceil(n * bulb.pwm_step(config)) + spans

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


def _import_scipy() -> None:
    """Import the scipy modules the link loads on first use, so that the
    first traced run of a process does not count them (about 40 MB)."""
    import scipy.fft  # noqa: F401
    import scipy.signal  # noqa: F401


def _traced_peak(config, alphabet, payload) -> tuple[int, int]:
    """Peak bytes traced (numpy buffers included) while one transmission runs,
    and the samples it ran."""
    _import_scipy()
    tracemalloc.start()
    try:
        result = ll.run_end_to_end(config, alphabet, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.report.ber == 0.0
    return peak, result.samples_processed


def test_peak_memory_flat_in_transmission_length():
    # criterion-5 settings: 1 byte is 3.47 M samples, 4 bytes 6.17 M
    config = ll.ChannelConfig(noise_sigma=0.0, fade_duration=0.002,
                              sensor_time_constant=0.001, max_command_rate=200.0)
    alphabet = ll.SymbolAlphabet(symbol_period=0.005)
    short, short_n = _traced_peak(config, alphabet, b"\x41")
    long, long_n = _traced_peak(config, alphabet, b"\x41\x42\x43\x44")
    assert long <= 1.25 * short, f"{long / 1e6:.1f} MB vs {short / 1e6:.1f} MB"
    # holding even the 1 B/sample sensor trace would grow faster than this
    assert long - short < 0.25 * (long_n - short_n)


def _sweep_peak(payload: bytes) -> int:
    """Peak bytes traced while a four-window criterion-7 sweep runs one trial.

    The batches run on the calling thread (a `ScriptedExecutor` that is
    always done): with a real worker, whether a batch's spectra are alive
    while the calling thread renders its next blocks depends on the
    threads' timing, and the timing of the threads once moved the peak of
    one sweep by 7 MB between runs.
    """
    spec = harness.SweepSpec(
        parameter="window_length", values=(1024, 2048, 4096, 8192), trials=1,
        config=ll.ChannelConfig(distance=0.4, fade_duration=0.00025,
                                max_command_rate=4000.0, noise_sigma=0.005),
        alphabet=ll.SymbolAlphabet(level_zero=120, level_one=140, level_delimiter=130,
                                   symbol_period=0.00075),
        payload=payload, seed=1)
    _import_scipy()
    tracemalloc.start()
    try:
        with warnings.catch_warnings(), \
                mock.patch.object(dsp, "ThreadPoolExecutor", ScriptedExecutor([True])):
            warnings.simplefilter("ignore", UserWarning)
            points = harness.sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(points) == 4
    return peak


def test_sweep_peak_memory_flat_in_transmission_length():
    # 16 bytes render 2.55 M samples, 64 bytes 9.03 M; every window's
    # receiver keeps at most one batch of its frames
    short = _sweep_peak(bytes(range(16)))
    long = _sweep_peak(bytes(range(64)))
    assert long <= 1.25 * short, f"{long / 1e6:.1f} MB vs {short / 1e6:.1f} MB"


def _noise_sweep_peak(payload: bytes, trials: int) -> tuple[int, int]:
    """Peak bytes traced while a four-value criterion-6 noise sweep runs, and
    the samples one of its transmissions renders."""
    spec = harness.SweepSpec(
        parameter="noise_sigma", values=(0.0, 0.002, 0.01, 0.05), trials=trials,
        config=ll.ChannelConfig(distance=0.3, fade_duration=0.001, max_command_rate=1000.0),
        alphabet=ll.SymbolAlphabet(symbol_period=0.003), payload=payload, seed=1)
    _import_scipy()
    tracemalloc.start()
    try:
        points = harness.sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [p.trials for p in points] == [trials] * 4
    # sigma 0.05 fails calibration: its errors are kept, their frames are not
    assert points[-1].calibration_failure_rate > 0.0
    _, duration = harness.transmit(spec.config, spec.alphabet, payload)
    return peak, bulb.sample_count(spec.config, duration)


def test_noise_sweep_peak_memory_flat_in_transmission_length():
    # 2 bytes render 2.52 M samples per value, 8 bytes 5.76 M; the four
    # values share one transmit half and each keeps one sensor tail
    short, short_n = _noise_sweep_peak(b"\xa5\x3c", trials=1)
    long, long_n = _noise_sweep_peak(bytes(range(8)), trials=1)
    assert long <= 1.25 * short, f"{long / 1e6:.1f} MB vs {short / 1e6:.1f} MB"
    # holding even one 1 B/sample sensor trace would grow faster than this
    assert long - short < 0.25 * (long_n - short_n)
    # kept outcomes (the sigma 0.05 errors among them) pin no receiver state
    repeated, _ = _noise_sweep_peak(b"\xa5\x3c", trials=4)
    assert repeated <= 1.25 * short, f"{repeated / 1e6:.1f} MB vs {short / 1e6:.1f} MB"


class TestWindowFanOut:
    """A sweep renders its transmit half once per trial and feeds every value from it.

    Window values share one tail and differ in their receivers; noise and
    distance values share the source and differ in their tails.
    """

    @staticmethod
    def _reference(spec) -> list:
        """The sweep's points, one `run_end_to_end` per value and trial."""
        points = []
        for value in sorted(spec.values):
            config, window = spec.config, spec.window_length
            if spec.parameter == "window_length":
                window = int(value)
            else:
                config = config.replace(**{spec.parameter: float(value)})
            outcomes = []
            for trial in range(spec.trials):
                try:
                    outcomes.append(ll.run_end_to_end(
                        config.replace(rng_seed=spec.seed + trial), spec.alphabet,
                        spec.payload, window_length=window,
                        tracker=spec.tracker).report.ber)
                except LightLeakError as exc:
                    outcomes.append(exc)
            failed = [o for o in outcomes if isinstance(o, LightLeakError)]
            calibration = sum(isinstance(o, CalibrationError) for o in failed)
            points.append(harness.SweepPoint(
                value=float(value),
                mean_ber=float(np.mean([1.0 if o in failed else o for o in outcomes])),
                calibration_failure_rate=calibration / spec.trials,
                trials=spec.trials, decode_errors=len(failed) - calibration))
        return points

    @staticmethod
    def _messages(call) -> tuple[list, list]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = call()
        return result, list(dict.fromkeys(str(w.message) for w in caught))

    # 1000 is no power of two; 2**22 is longer than the 2.4 M-sample trace;
    # 16384 and 32768 crowd the 3 ms slots and warn; noise (1.0 at 0.4 m,
    # 0.1 and 0.3 for zero crossing) and 0.6 m fail calibration
    @pytest.mark.parametrize("parameter, values, tracker, changes", [
        ("window_length", (8192, 1024, 4096, 2048), "stft", {}),
        ("window_length", (1000, 2048, 4096), "stft", {}),
        ("window_length", (2048, 2 ** 22), "stft", {}),
        ("window_length", (4096, 16384, 32768), "stft", {}),
        ("window_length", (1024, 2048, 4096), "zero_crossing", {}),
        ("noise_sigma", (0.01, 0.0, 1.0, 0.002), "stft",
         dict(distance=0.4, ambient_intensity=0.01)),
        ("noise_sigma", (0.3, 0.0, 0.1), "zero_crossing", {}),
        ("distance", (0.6, 0.1, 0.3), "stft", dict(noise_sigma=0.004, ambient_intensity=0.01)),
    ], ids=["four_windows", "invalid_window", "window_past_trace", "warnings",
            "zero_crossing", "noise_sigma", "noise_sigma_zero_crossing", "distance"])
    def test_one_render_per_trial(self, fast_link, monkeypatch, parameter, values, tracker,
                                  changes):
        config, alphabet = fast_link
        spec = harness.SweepSpec(
            parameter=parameter, values=values, trials=2, config=config.replace(**changes),
            alphabet=alphabet, payload=b"\x5a", tracker=tracker, seed=4)
        want, want_warnings = self._messages(lambda: self._reference(spec))

        # every value's link has this many samples, the same PWM spans
        _, duration = harness.transmit(spec.config, alphabet, spec.payload)
        spans = -(-bulb.sample_count(spec.config, duration)
                  // (channel.PWM_BLOCKS * traces.BLOCK_SAMPLES))
        passes = {"level_fill": 0, "pwm_wave": 0}
        for name in passes:
            kernel = getattr(_kernels, name)

            def counted(*args, name=name, kernel=kernel, **kwargs):
                passes[name] += 1
                return kernel(*args, **kwargs)

            monkeypatch.setattr(_kernels, name, counted)
        got, got_warnings = self._messages(lambda: harness.sweep(spec))
        assert passes == {"level_fill": spec.trials * spans, "pwm_wave": spec.trials * spans}
        assert got == want
        assert got_warnings == want_warnings

    def test_points_show_each_failure_kind(self, fast_link):
        config, alphabet = fast_link
        spec = harness.SweepSpec(
            parameter="window_length", values=(1000, 2048, 2 ** 22), trials=2,
            config=config, alphabet=alphabet, payload=b"\x5a", seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            bad, good, too_long = harness.sweep(spec)
        assert (bad.decode_errors, bad.mean_ber) == (2, 1.0)
        assert (good.decode_errors, good.mean_ber) == (0, 0.0)
        assert (too_long.decode_errors, too_long.mean_ber) == (2, 1.0)


class TestReceiveAll:
    def test_each_receiver_keeps_its_own_error(self, fast_link):
        config, alphabet = fast_link
        schedule, duration = harness.transmit(config, alphabet, b"\x41")
        sensor = ll.simulate_link(schedule, config, duration)
        ok, short = harness.receive_all(sensor, alphabet,
                                        [(0, 4096, 2048), (0, 2 ** 22, 2 ** 21)],
                                        reference=b"\x41")
        assert ok.payload == b"\x41" and ok.ber == 0.0
        assert isinstance(short, DomainError)
        assert short.stage == "track"
        with pytest.raises(DomainError) as exc_info:
            harness.receive(sensor, alphabet, 2 ** 22)
        assert exc_info.value.stage == "track"
        assert str(exc_info.value) == str(short)


    def test_one_stream_per_tail(self, fast_link):
        config, alphabet = fast_link
        config = config.replace(distance=0.4, ambient_intensity=0.01)
        schedule, duration = harness.transmit(config, alphabet, b"\x41")
        configs = [config, config.replace(noise_sigma=1.0)]
        steps = channel.link_blocks(schedule, configs, duration)
        ok, noisy, short = harness.receive_all(
            steps, alphabet, [(0, 4096, 2048), (1, 4096, 2048), (1, 2 ** 22, 2 ** 21)],
            reference=b"\x41", sample_rate=config.sample_rate)
        assert ok.payload == b"\x41" and ok.ber == 0.0
        assert ok.sync >= 0 and ok.calibration.f_zero < ok.calibration.f_one
        assert isinstance(noisy, CalibrationError) and noisy.stage == "calibrate"
        assert isinstance(short, DomainError) and short.stage == "track"
        # a kept error holds no frames, so it pins no tracker or track
        assert noisy.__traceback__ is None and short.__traceback__ is None

    def test_outcomes_come_back_in_receiver_order(self, fast_link):
        config, alphabet = fast_link
        config = config.replace(distance=0.4, ambient_intensity=0.01)
        schedule, duration = harness.transmit(config, alphabet, b"\x41")
        steps = channel.link_blocks(schedule, [config, config.replace(noise_sigma=1.0)],
                                    duration)
        noisy, ok, short = harness.receive_all(
            steps, alphabet, [(1, 4096, 2048), (0, 4096, 2048), (1, 2 ** 22, 2 ** 21)],
            reference=b"\x41", sample_rate=config.sample_rate)
        assert isinstance(noisy, CalibrationError) and noisy.stage == "calibrate"
        assert ok.payload == b"\x41" and ok.ber == 0.0
        assert isinstance(short, DomainError) and short.stage == "track"


    def test_no_window_for_a_stream_shorter_than_it(self, fast_link, monkeypatch):
        # a receiver builds its window at its first batch of frames, so a window
        # too big for memory, on a shorter stream, is that receiver's track error;
        # a gated receiver builds its window of gate sums
        built, hann = [], dsp.hann_window

        def bounded(n):
            built.append(n)
            assert n <= 2 ** 24, f"built a {n}-sample window"
            return hann(n)

        monkeypatch.setattr(dsp, "hann_window", bounded)
        config, alphabet = fast_link
        gate = harness._gate(config, 4096, 2048, "stft")
        assert gate == 4  # an 800 kHz top tone: 10 MS/s over 8 is below 1.5 times it
        schedule, duration = harness.transmit(config, alphabet, b"\x41")
        steps = channel.link_blocks(schedule, [config], duration)
        ok, *short = harness.receive_all(
            steps, alphabet, [(0, 4096, 2048, gate), (0, 2 ** 22, 2 ** 21, gate),
                              (0, 2 ** 30, 2 ** 29), (0, 2 ** 70, 2 ** 69, gate)],
            reference=b"\x41", sample_rate=config.sample_rate)
        assert ok.ber == 0.0
        assert all(isinstance(exc, DomainError) and exc.stage == "track" for exc in short)
        assert built == [4096 // gate]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the windows crowd the slots
            with pytest.raises(DomainError) as exc_info:
                harness.run_end_to_end(config, alphabet, b"\x41", window_length=2 ** 30)
            assert exc_info.value.stage == "track"
            spec = harness.SweepSpec(
                parameter="window_length", values=(4096, 2 ** 30, 2 ** 70), trials=2,
                config=config, alphabet=alphabet, payload=b"\x5a", seed=4)
            good, *too_long = harness.sweep(spec)
        assert (good.decode_errors, good.mean_ber) == (0, 0.0)
        assert [(p.decode_errors, p.mean_ber) for p in too_long] == [(2, 1.0)] * 2
        # the sweep's 4096 receiver, gated as above, built one window per trial
        assert built == [4096 // gate] * 3

    def test_a_batch_error_is_its_receivers_own(self, fast_link, monkeypatch):
        track, floor = dsp.TRACKERS["stft"]
        config, alphabet = fast_link
        schedule, duration = harness.transmit(config, alphabet, b"\x41")
        # on the worker thread, then on a scripted worker that is always done,
        # where the failing batch is one handed on from the worker
        for scripted in (None, ScriptedExecutor([True])):
            if scripted is not None:
                monkeypatch.setattr(dsp, "ThreadPoolExecutor", scripted)
            batches = collections.Counter()

            def flaky(frames, window, sample_rate):  # the 2048 window fails its second batch
                batches[window.size] += 1
                if window.size == 2048 and batches[2048] == 2:
                    raise DomainError("the second batch failed")
                return track(frames, window, sample_rate)

            monkeypatch.setitem(dsp.TRACKERS, "stft", (flaky, floor))
            steps = channel.link_blocks(schedule, [config], duration)
            ok, bad, also_ok = harness.receive_all(
                steps, alphabet, [(0, 4096, 2048), (0, 2048, 1024), (0, 4096, 1024)],
                reference=b"\x41", sample_rate=config.sample_rate)
            assert ok.ber == 0.0 and also_ok.ber == 0.0
            assert isinstance(bad, DomainError) and bad.stage == "track"
            assert str(bad) == "the second batch failed"
            assert batches[2048] == 2  # no later batch of that receiver is tracked
            assert batches[4096] > 4
        assert any(future.raised is bad for kind, future in scripted.events if kind == "result")


    def test_a_piece_error_is_its_receivers_own(self, fast_link, monkeypatch):
        # a scripted worker that never seems done leaves the queued jobs to the
        # calling thread once the stream has ended, which runs them in pieces
        track, floor = dsp.TRACKERS["stft"]
        config, alphabet = fast_link
        schedule, duration = harness.transmit(config, alphabet, b"\x41")
        scripted = ScriptedExecutor([False])
        monkeypatch.setattr(dsp, "ThreadPoolExecutor", scripted)
        calls = []  # (window, frames, run here) of each call

        def flaky(frames, window, sample_rate):  # the 2048 window's second piece here fails
            calls.append(call := (window.size, frames.shape[0], scripted.running is None))
            if call == (2048, 64, True) and calls.count(call) == 2:
                raise DomainError("a piece failed")
            return track(frames, window, sample_rate)

        monkeypatch.setitem(dsp.TRACKERS, "stft", (flaky, floor))
        steps = channel.link_blocks(schedule, [config], duration)
        # the 2048 receiver last, so its closing batch is queued before its failed
        # batch is handed on: only the failure itself keeps that batch from running
        ok, also_ok, bad = harness.receive_all(
            steps, alphabet, [(0, 4096, 2048), (0, 4096, 1024), (0, 2048, 1024)],
            reference=b"\x41", sample_rate=config.sample_rate)
        assert ok.ber == 0.0 and also_ok.ber == 0.0
        assert isinstance(bad, DomainError) and bad.stage == "track"
        assert str(bad) == "a piece failed"
        # the failing call was the second 64-frame piece of a 2048 batch run on the
        # calling thread, and no later piece or batch of that receiver ran
        failed = [i for i, call in enumerate(calls) if call == (2048, 64, True)][1]
        assert calls[failed - 1] == (2048, 64, True)
        assert all(window != 2048 for window, _, _ in calls[failed + 1:])
        assert not any(future.raised for kind, future in scripted.events if kind == "result")


# the criterion-5, -6 and -7 links' configs
CRITERION_5 = ll.ChannelConfig(noise_sigma=0.0, fade_duration=0.002,
                               sensor_time_constant=0.001, max_command_rate=200.0)
CRITERION_6 = ll.ChannelConfig(distance=0.3, fade_duration=0.001, max_command_rate=1000.0)
CRITERION_7 = ll.ChannelConfig(distance=0.4, fade_duration=0.00025,
                               max_command_rate=4000.0, noise_sigma=0.005)


class TestGate:
    """The gate D that `run_end_to_end` and `sweep` give each STFT receiver."""

    @pytest.mark.parametrize("config, window, want", [
        (CRITERION_5, 4096, 4),
        (CRITERION_6.replace(noise_sigma=0.0), 4096, 16),
        (CRITERION_6.replace(noise_sigma=0.002), 4096, 16),
        (CRITERION_6.replace(noise_sigma=0.01), 4096, 16),
        (CRITERION_6.replace(noise_sigma=0.05), 4096, 8),
        (CRITERION_7, 1024, 4), (CRITERION_7, 2048, 8), (CRITERION_7, 4096, 16),
        (CRITERION_7, 8192, 32),
    ])
    def test_the_criterion_links(self, config, window, want):
        assert channel.sensor_top_frequency(config) == pytest.approx(
            config.sensor_full_scale_frequency * (config.geometric_gain + 0.01
                                                  + 4 * config.noise_sigma))
        assert harness._gate(config, window, window // 2, "stft") == want
        assert harness._gate(config, window, window // 2, "zero_crossing") == 1

    def test_each_bound(self):
        # a 400 kHz top tone at 9.6 MS/s: the gated Nyquist frequency may be
        # exactly 1.5 times it, at D = 8, and not less
        config = ll.ChannelConfig(sample_rate=9.6e6, sensor_full_scale_frequency=400e3,
                                  ambient_intensity=0.0, noise_sigma=0.0)
        assert channel.sensor_top_frequency(config) == 400e3
        assert harness._gate(config, 4096, 2048, "stft") == 8
        brighter = config.replace(sensor_dark_frequency=1.0)
        assert harness._gate(brighter, 4096, 2048, "stft") == 4
        # the gate divides the hop and keeps 256 points a window
        assert harness._gate(config, 4096, 2047, "stft") == 1
        assert harness._gate(config, 4096, 6, "stft") == 2
        assert harness._gate(config, 512, 256, "stft") == 2
        assert harness._gate(config, 256, 128, "stft") == 1
        # a faint tone: at most the longest gate whose sums fit in a byte
        faint = config.replace(distance=100.0)
        assert harness._gate(faint, 2 ** 20, 2 ** 19, "stft") == dsp.GATE_MAX == 128

    def test_the_top_tone_bounds_the_track(self):
        config = CRITERION_6.replace(noise_sigma=0.05)
        alphabet = ll.SymbolAlphabet(symbol_period=0.003)
        schedule, duration = harness.transmit(config, alphabet, b"\xa5")
        sensor = ll.simulate_link(schedule, config, duration)
        track = dsp.stft_track(sensor, 4096, 2048)
        assert track.frequencies.max() < channel.sensor_top_frequency(config)

    def test_only_the_link_stft_receivers_are_gated(self, fast_link, monkeypatch, tmp_path):
        # the zero-crossing tracker, `stft`, and `receive` of a trace file frame the
        # samples themselves, as before the gate; the link's STFT receivers sum gates
        gates, framer = [], dsp._Framer

        def recorded(window_length, hop, gate=1):
            gates.append(gate)
            return framer(window_length, hop, gate)

        monkeypatch.setattr(dsp, "_Framer", recorded)
        config, alphabet = fast_link
        assert ll.run_end_to_end(config, alphabet, b"\x41",
                                 tracker="zero_crossing").report.ber == 0.0
        spec = harness.SweepSpec(parameter="noise_sigma", values=(0.0, 0.002), trials=1,
                                 config=config, alphabet=alphabet, tracker="zero_crossing")
        assert [p.mean_ber for p in harness.sweep(spec)] == [0.0, 0.0]
        schedule, duration = harness.transmit(config, alphabet, b"\x41")
        trace_path = tmp_path / "sensor.bin"
        fileio.export_trace(ll.simulate_link(schedule, config, duration), trace_path)
        trace = fileio.import_trace(trace_path)
        assert harness.receive(trace, alphabet, reference=b"\x41").ber == 0.0
        ll.stft(trace, 4096, 2048)
        assert gates == [1] * 5
        assert ll.run_end_to_end(config, alphabet, b"\x41").report.ber == 0.0
        assert gates[5:] == [4]


def _record_threads(monkeypatch, idents: list) -> None:
    """Wrap every public function of the link's and the receiver's modules
    so that it records the thread that calls it."""
    def recorded(fn):
        def call(*args, **kwargs):
            idents.append(threading.get_ident())
            return fn(*args, **kwargs)
        return call

    for module in (bulb, channel, _kernels, dsp, codec):
        for name, fn in list(vars(module).items()):
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                monkeypatch.setattr(module, name, recorded(fn))


def test_public_functions_run_on_the_calling_thread(fast_link, monkeypatch):
    public = []
    _record_threads(monkeypatch, public)
    caller = threading.get_ident()
    link_blocks, stream = channel.link_blocks, {"ended": False}

    def marked(*args, **kwargs):  # a link stream that marks its end
        stream["ended"] = False
        yield from link_blocks(*args, **kwargs)
        stream["ended"] = True

    monkeypatch.setattr(channel, "link_blocks", marked)
    config, alphabet = fast_link
    schedule, duration = harness.transmit(config, alphabet, b"\x5a")
    for tracker, (fn, floor) in list(dsp.TRACKERS.items()):
        batches = []

        def recorded(batch, window, sample_rate, fn=fn, batches=batches):
            batches.append((threading.get_ident(), stream["ended"]))
            return fn(batch, window, sample_rate)

        monkeypatch.setitem(dsp.TRACKERS, tracker, (recorded, floor))
        assert ll.run_end_to_end(config, alphabet, b"\x41", tracker=tracker).report.ber == 0.0
        assert len(batches) > 1
        steps = channel.link_blocks(schedule, [config, config.replace(distance=0.4)], duration)
        tracks = dsp.track_all(steps, [(0, 4096, 2048), (1, 2048, 1024)], tracker,
                               sample_rate=config.sample_rate)
        assert all(isinstance(track, dsp.FrequencyTrack) for track in tracks)
        # every batch that ran while its stream lasted ran on the worker; only
        # once it had ended may the calling thread run one
        assert not [ended for ident, ended in batches if ident == caller and not ended], tracker
        assert any(ident != caller for ident, _ in batches), tracker
    assert set(public) == {caller}


class TestSweep:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            harness.SweepSpec(parameter="gamma", values=(1,), trials=1)
        with pytest.raises(ConfigError):
            harness.SweepSpec(parameter="noise_sigma", values=(), trials=1)
        with pytest.raises(ConfigError):
            harness.SweepSpec(parameter="noise_sigma", values=(0.1,), trials=0)
        with pytest.raises(ConfigError, match="seed"):
            harness.SweepSpec(parameter="noise_sigma", values=(0.1,), trials=1, seed=-3)
        for value in (4096.5, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=r"window_length|finite"):
                harness.SweepSpec(parameter="window_length", values=(4096, value), trials=1)
        with pytest.raises(ConfigError, match="finite"):
            harness.SweepSpec(parameter="distance", values=(float("inf"),), trials=1)
        with pytest.raises(ConfigError, match="payload"):
            harness.SweepSpec(parameter="noise_sigma", values=(0.1,), trials=2,
                              payload=bytes(codec.MAX_PAYLOAD + 1))
        with pytest.raises(ConfigError, match="finite numbers"):
            harness.SweepSpec(parameter="noise_sigma", values=("x",), trials=1)
        with pytest.raises(ConfigError, match="trials"):
            harness.SweepSpec(parameter="noise_sigma", values=(0.1,), trials=1.5)
        for seed in (1.5, True):
            with pytest.raises(ConfigError, match="seed"):
                harness.SweepSpec(parameter="noise_sigma", values=(0.1,), trials=1, seed=seed)
        # a bad receiver fails the sweep before it renders, not as a decode error
        # at every point
        for parameter in ("noise_sigma", "window_length"):
            spec = harness.SweepSpec(parameter=parameter, values=(4096,), trials=1,
                                     tracker="wavelet")
            with pytest.raises(ConfigError, match="tracker"):
                harness.sweep(spec)
        for window in (1000, 4096.0, True):
            spec = harness.SweepSpec(parameter="noise_sigma", values=(0.1,), trials=1,
                                     window_length=window)
            with pytest.raises(ConfigError, match="window_length"):
                harness.sweep(spec)

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

    @pytest.mark.parametrize("window", [1000, 1])
    def test_bad_window_fails_before_rendering(self, fast_link, monkeypatch, window):
        config, alphabet = fast_link

        def no_render(*args, **kwargs):
            raise AssertionError("rendered despite a bad window length")

        # every render, streamed or whole, starts with these kernels
        monkeypatch.setattr(_kernels, "level_fill", no_render)
        monkeypatch.setattr(_kernels, "pwm_wave", no_render)
        with pytest.raises(ConfigError, match="window_length"):
            ll.run_end_to_end(config, alphabet, b"\x41", window_length=window)
        spec = harness.SweepSpec(
            parameter="window_length", values=(float(window),), trials=2,
            config=config, alphabet=alphabet, payload=b"\x41")
        point, = harness.sweep(spec)
        assert point.decode_errors == 2
        assert point.mean_ber == 1.0

    def test_bad_hop_is_config_error(self, fast_link):
        config, alphabet = fast_link
        for hop in (0, 2048.5, True):
            with pytest.raises(ConfigError, match="hop"):
                ll.run_end_to_end(config, alphabet, b"\x41", hop=hop)
        # a window that is not an integer is refused too, not a TypeError
        for window in (4096.0, "4096", None):
            with pytest.raises(ConfigError, match="window_length"):
                harness.check_receiver(window, None, "stft")
        with pytest.raises(ConfigError, match="window_length"):
            ll.run_end_to_end(config, alphabet, b"\x41", window_length=4096.0)

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
    CASES = [SensorTrace(10_000_000.0, np.array([0, 1] * 40, dtype=np.uint8))]

    @pytest.mark.parametrize("trace", CASES, ids=lambda t: type(t).__name__)
    def test_round_trip_bit_exact(self, trace, tmp_path):
        path = tmp_path / "trace.bin"
        fileio.export_trace(trace, path)
        back = fileio.import_trace(path)
        assert type(back) is type(trace)
        assert back.sample_rate == trace.sample_rate
        assert back.values.dtype == trace.values.dtype
        assert np.array_equal(back.values, trace.values)

    def test_header_only_empty_trace(self, tmp_path):
        path = tmp_path / "empty.bin"
        fileio.export_trace(SensorTrace(500.0, np.zeros(0, dtype=np.uint8)), path)
        back = fileio.import_trace(path)
        assert len(back) == 0
        assert back.sample_rate == 500.0

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trace.bin"
        fileio.export_trace(SensorTrace(1000.0, np.resize(np.array([0, 1], np.uint8), 80)), path)
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
        fileio.export_trace(SensorTrace(1000.0, np.array([0, 1, 1, 0], np.uint8)), path)
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
