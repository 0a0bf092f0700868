"""STFT, dominant-frequency tracking, and the zero-crossing cross-check."""

import threading
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from conftest import ScriptedExecutor, synth_square

from lightleak import (
    ChannelConfig,
    CommandSchedule,
    SensorTrace,
    Spectrogram,
    dominant_frequency,
    hann_window,
    simulate_link,
    stft,
    zero_crossing_frequency,
)
from lightleak import channel, dsp, traces
from lightleak.errors import ConfigError, DomainError

FS = 10_000_000.0


class TestHannWindow:
    def test_n3(self):
        assert np.allclose(hann_window(3), [0.0, 1.0, 0.0])

    def test_n4(self):
        assert np.allclose(hann_window(4), [0.0, 0.75, 0.75, 0.0])

    @pytest.mark.parametrize("n", [5, 33, 4097])
    def test_odd_peak_is_one(self, n):
        w = hann_window(n)
        assert w.max() == pytest.approx(1.0)
        assert np.allclose(w, w[::-1])

    def test_too_short(self):
        with pytest.raises(DomainError):
            hann_window(1)


class TestStft:
    def test_square_tone_dominant_bin(self):
        x = synth_square(400_000.0, FS, 40_960)
        spec = stft(x, 4096, 2048, sample_rate=FS)
        true_bin = 400_000.0 / spec.bin_width
        for frame in spec.frames:
            assert abs(np.argmax(frame) - true_bin) <= 1.0

    def test_constant_input_is_flat(self):
        x = np.full(10_000, 3.3)
        spec = stft(x, 2048, 1024, sample_rate=FS)
        assert np.all(spec.frames[:, 1:] < 1e-9)

    def test_frame_count_formula(self):
        x = np.zeros(40_960)
        spec = stft(x, 4096, 2048, sample_rate=FS)
        assert spec.n_frames == 19
        assert spec.frames.shape == (19, 2049)

    def test_bin_width(self):
        spec = stft(np.zeros(8192), 4096, 2048, sample_rate=FS)
        assert spec.bin_width == FS / 4096

    def test_too_short_input(self):
        with pytest.raises(DomainError):
            stft(np.zeros(1000), 4096, 2048, sample_rate=FS)

    def test_non_power_of_two_window(self):
        with pytest.raises(DomainError):
            stft(np.zeros(10_000), 3000, 1500, sample_rate=FS)
        # a float or bool window or hop is refused, not rounded or sliced with
        for window, hop in ((4096.0, 2048), (4096, 2048.5), (4096, True), (True, 1)):
            with pytest.raises(DomainError, match="window_length|hop"):
                stft(np.zeros(10_000), window, hop, sample_rate=FS)
            with pytest.raises(DomainError, match="window_length|hop"):
                dsp.stft_track(np.zeros(10_000), window, hop, sample_rate=FS)

    def test_hop_beyond_int64(self):
        # frame times are float64 from the start, so a huge hop cannot overflow
        x = synth_square(400_000.0, FS, 10_000)
        for track in (dsp.stft_track(x, 4096, 2 ** 70, FS),
                      zero_crossing_frequency(x, 4096, 2 ** 70, FS)):
            assert len(track) == 1
            assert track.frame_times.tolist() == [4096 / 2 / FS]
        assert stft(x, 4096, 2 ** 70, FS).frame_times.tolist() == [4096 / 2 / FS]

    def test_sample_rate_required_for_arrays(self):
        with pytest.raises(DomainError):
            stft(np.zeros(10_000), 2048, 1024)

    @pytest.mark.parametrize("rate", [0.0, -1e7, float("nan"), float("inf")])
    def test_sample_rate_must_be_finite_and_positive(self, rate):
        x = synth_square(400_000.0, FS, 20_000)
        calls = [(stft, x)]
        for call in (dsp.stft_track, zero_crossing_frequency):
            calls += [(call, x), (call, ((block,) for block in traces.blocks(x)))]
        calls += [(lambda s, w, h, sample_rate: dsp.track_all(s, [(0, w, h)],
                                                              sample_rate=sample_rate), x)]
        for call, samples in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # refused before any numpy warning
                with pytest.raises(DomainError, match="sample_rate must be finite and > 0"):
                    call(samples, 1024, 512, sample_rate=rate)


class TestPrecision:
    """The spectra follow the input's dtype: float32 for a uint8 sensor trace,
    float64 for float input, within stated tolerances of each other."""

    CONFIG = ChannelConfig(noise_sigma=0.02, rng_seed=7, fade_duration=0.002,
                           sensor_time_constant=0.0005)
    SCHEDULE = CommandSchedule.from_pairs([(0.005, 135), (0.02, 140), (0.035, 137)], 137)

    @pytest.fixture(scope="class")
    def sensor(self):
        return simulate_link(self.SCHEDULE, self.CONFIG, 0.05)

    def test_uint8_trace_tracks_as_its_float64_copy(self, sensor):
        assert sensor.values.dtype == np.uint8
        reference = sensor.values.astype(np.float64)
        fs = sensor.sample_rate
        spec = stft(sensor, 4096, 2048)
        assert spec.frames.dtype == np.float32
        wide = stft(reference, 4096, 2048, sample_rate=fs)
        assert wide.frames.dtype == np.float64
        assert np.array_equal(np.argmax(spec.frames, axis=1), np.argmax(wide.frames, axis=1))

        narrow = dsp.stft_track(sensor, 4096, 2048)
        want = dsp.stft_track(reference, 4096, 2048, fs)
        assert np.array_equal(narrow.frame_times, want.frame_times)
        assert np.all(np.abs(narrow.frequencies - want.frequencies) <= 1e-4 * spec.bin_width)
        assert np.allclose(narrow.confidences, want.confidences, rtol=1e-6, atol=0.0)

    def test_float64_spectra_are_the_numpy_formula(self):
        rng = np.random.default_rng(3)
        x = synth_square(312_500.0, FS, 300_000) + 0.01 * rng.standard_normal(300_000)
        spec = stft(x, 1024, 512, sample_rate=FS)
        assert spec.n_frames > dsp._STFT_BLOCK
        frames = sliding_window_view(x, 1024)[::512].astype(np.float64)
        frames = (frames - frames.mean(axis=1, keepdims=True)) * hann_window(1024)
        assert np.array_equal(spec.frames, np.abs(np.fft.rfft(frames, axis=1)))


class TestDominantFrequency:
    def test_exact_bin_tone(self):
        spec = stft(np.zeros(8192), 4096, 2048, sample_rate=FS)
        f0 = 160 * spec.bin_width
        t = np.arange(40_960) / FS
        x = np.sin(2 * np.pi * f0 * t)
        track = dominant_frequency(stft(x, 4096, 2048, sample_rate=FS))
        assert np.allclose(track.frequencies, f0, atol=0.02 * spec.bin_width)

    @pytest.mark.parametrize("offset", [0.1, 0.25, 0.5])
    def test_off_bin_tone_within_tenth_bin(self, offset):
        bin_width = FS / 4096
        f0 = (160 + offset) * bin_width
        t = np.arange(40_960) / FS
        x = np.sin(2 * np.pi * f0 * t)
        track = dominant_frequency(stft(x, 4096, 2048, sample_rate=FS))
        assert np.all(np.abs(track.frequencies - f0) < 0.1 * bin_width)

    def test_two_plateau_track(self):
        # levels 135/140 at reference geometry map to 423.5 and 439.2 kHz
        f_zero, f_one = 135 / 255 * 800e3, 140 / 255 * 800e3
        seg0 = synth_square(f_zero, FS, 200_000)
        seg1 = synth_square(f_one, FS, 200_000)
        track = dominant_frequency(stft(np.concatenate([seg0, seg1]), 4096, 2048,
                                        sample_rate=FS))
        n = len(track)
        lo = np.median(track.frequencies[: n // 3])
        hi = np.median(track.frequencies[-n // 3:])
        bin_width = FS / 4096
        assert abs((hi - lo) - (f_one - f_zero)) < bin_width

    def test_confidence_high_for_tone_low_for_flat(self):
        x = synth_square(400_000.0, FS, 20_480)
        track = dominant_frequency(stft(x, 4096, 2048, sample_rate=FS))
        assert np.all(track.confidences > 10.0)
        flat = dominant_frequency(stft(np.zeros(20_480), 4096, 2048, sample_rate=FS))
        assert np.all(flat.confidences <= 1.0)

    def test_amplitude_invariance(self):
        rng = np.random.default_rng(5)
        x = synth_square(312_500.0, FS, 20_480) + 0.01 * rng.standard_normal(20_480)
        a = dominant_frequency(stft(x, 2048, 1024, sample_rate=FS))
        b = dominant_frequency(stft(7.25 * x, 2048, 1024, sample_rate=FS))
        bin_width = FS / 2048
        # peak bins are scale-invariant exactly; the sub-bin refinement only
        # up to log-domain rounding
        assert np.array_equal(np.round(a.frequencies / bin_width),
                              np.round(b.frequencies / bin_width))
        assert np.allclose(a.frequencies, b.frequencies, rtol=1e-9)

    def test_time_shift_by_hop_multiple(self):
        x = synth_square(250_000.0, FS, 30_720)
        a = dominant_frequency(stft(x, 2048, 1024, sample_rate=FS))
        b = dominant_frequency(stft(x[2048:], 2048, 1024, sample_rate=FS))
        assert np.allclose(a.frequencies[2:len(b) + 2], b.frequencies)

    def test_tone_sweep_within_half_bin(self):
        # any steady tone between 10 bins and 0.45 fs lands within half a bin
        bin_width = FS / 2048
        t = np.arange(10_240) / FS
        for f0 in np.linspace(10 * bin_width, 0.45 * FS, 7):
            x = np.sin(2 * np.pi * f0 * t)
            track = dominant_frequency(stft(x, 2048, 1024, sample_rate=FS))
            assert np.all(np.abs(track.frequencies - f0) < 0.5 * bin_width)


    def test_matches_per_frame_reference(self):
        # the per-frame loop the vectorised tracker replaced, kept as the oracle
        def reference(spec):
            freqs, confs = [], []
            for row in spec.frames:
                k = int(np.argmax(row))
                delta = 0.0
                if 0 < k < row.size - 1 and min(row[k - 1], row[k], row[k + 1]) > 0.0:
                    a, b, c = np.log(row[k - 1]), np.log(row[k]), np.log(row[k + 1])
                    denom = a - 2.0 * b + c
                    if denom < 0.0:
                        delta = float(np.clip(0.5 * (a - c) / denom, -0.5, 0.5))
                freqs.append((k + delta) * spec.bin_width)
                mean = row.mean()
                confs.append(row[k] / mean if mean > 0.0 else 0.0)
            return np.array(freqs), np.array(confs)

        rng = np.random.default_rng(9)
        x = synth_square(423_500.0, FS, 40_960) + 0.3 * rng.standard_normal(40_960)
        mags = stft(x, 256, 128, sample_rate=FS).frames.copy()
        mags[0] = 0.0                      # flat frame: no peak, zero mean
        mags[1, 0] = mags[1].max() + 1.0   # peak on the first bin
        mags[2, -1] = mags[2].max() + 1.0  # peak on the last bin
        mags[3, 40:43] = [0.0, 9e3, 1.0]   # a zero neighbour
        mags[4, 40:43] = [1.0, 9e3, 9e3 - 1.0]
        spec = Spectrogram(256, 128, FS, mags, np.arange(mags.shape[0]) / FS)
        track = dominant_frequency(spec)
        freqs, confs = reference(spec)
        assert np.array_equal(track.frequencies, freqs)
        assert np.array_equal(track.confidences, confs)


class TestZeroCrossing:
    def test_square_wave_frequency(self):
        x = synth_square(400_000.0, FS, 40_960)
        track = zero_crossing_frequency(x, 4096, 2048, sample_rate=FS)
        window_duration = 4096 / FS
        assert np.all(np.abs(track.frequencies - 400_000.0) <= 1.0 / window_duration)
        assert np.all(track.confidences > 0.9)

    def test_constant_signal(self):
        track = zero_crossing_frequency(np.ones(10_000), 2048, 1024, sample_rate=FS)
        assert np.all(track.frequencies == 0.0)
        assert np.all(track.confidences == 0.0)

    def test_agreement_with_stft(self):
        bin_width = FS / 4096
        for f0 in (150_000.0, 400_000.0, 523_456.0):
            x = synth_square(f0, FS, 40_960)
            zc = zero_crossing_frequency(x, 4096, 2048, sample_rate=FS)
            ft = dominant_frequency(stft(x, 4096, 2048, sample_rate=FS))
            assert np.all(np.abs(zc.frequencies - ft.frequencies) < bin_width)

    def test_single_edge_window(self):
        x = np.zeros(4096)
        x[3000:] = 1.0
        track = zero_crossing_frequency(x, 4096, 2048, sample_rate=FS)
        assert track.frequencies[0] == 0.0
        assert track.confidences[0] == 0.0


def _edge_rate(w, duration):
    """Rising-edge frequency and gap-regularity confidence of one frame, one
    frame at a time: the reference the batch tracker must match."""
    lo, hi = w.min(), w.max()
    if hi <= lo:
        return 0.0, 0.0
    thr = 0.5 * (lo + hi)
    above = w >= thr
    edges = np.flatnonzero(~above[:-1] & above[1:]) + 1
    if edges.size < 2:
        return 0.0, 0.0
    gaps = np.diff(edges).astype(np.float64)
    mean_gap = gaps.mean()
    conf = 1.0 - gaps.var() / (mean_gap * mean_gap)
    return edges.size / duration, float(np.clip(conf, 0.0, 1.0))


@st.composite
def _signals(draw, n):
    kind = draw(st.sampled_from(["bits_uint8", "bits_float", "uint8", "analog"]))
    if kind == "analog":
        return draw(arrays(np.float64, n, elements=st.floats(-1e6, 1e6)))
    x = draw(arrays(np.uint8, n, elements=st.integers(0, 1 if kind.startswith("bits") else 255)))
    return x.astype(np.float64) if kind == "bits_float" else x


@settings(max_examples=300, deadline=None)
@given(window=st.sampled_from([2, 4, 8, 16, 32, 64]), data=st.data())
def test_zero_crossing_matches_per_frame_reference(window, data):
    hop = data.draw(st.integers(1, 3 * window), label="hop")
    x = data.draw(st.integers(window, 400).flatmap(_signals), label="x")
    # three frames a batch and 13-sample blocks: several batches, split across blocks
    with mock.patch.object(dsp, "_STFT_BLOCK", 3), \
            mock.patch.object(traces, "BLOCK_SAMPLES", 13):
        track = zero_crossing_frequency(x, window, hop, FS)
    frames = sliding_window_view(x.astype(np.float64), window)[::hop]
    want = np.array([_edge_rate(frame, window / FS) for frame in frames]).reshape(-1, 2)
    assert np.array_equal(track.frequencies, want[:, 0])
    assert np.allclose(track.confidences, want[:, 1], rtol=0.0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 300), window=st.sampled_from([2 ** k for k in range(1, 14)]),
       kind=st.sampled_from(["bits_uint8", "float64"]), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_row_pieces_match_the_whole_batch(rows, window, kind, seed, data):
    # what lets the receive loop run a job in pieces: every row of a batch is
    # its own, so consecutive pieces, concatenated, are the whole batch bit for bit
    hop = data.draw(st.integers(1, window), label="hop")
    cuts = sorted(data.draw(st.sets(st.integers(1, rows - 1), max_size=8), label="cuts")
                  if rows > 1 else ())
    rng = np.random.default_rng(seed)
    n = (rows - 1) * hop + window
    x = rng.integers(0, 2, n, dtype=np.uint8) if kind == "bits_uint8" else rng.normal(0.5, 1.0, n)
    frames, hann = sliding_window_view(x, window)[::hop], hann_window(window)
    pieces = [frames[a:b] for a, b in zip([0, *cuts], [*cuts, rows])]
    assert np.array_equal(np.concatenate([dsp._spectra(p, hann) for p in pieces]),
                          dsp._spectra(frames, hann))
    for fn, _ in dsp.TRACKERS.values():
        whole = fn(frames, hann, FS)
        split = [np.concatenate(column) for column in zip(*(fn(p, hann, FS) for p in pieces))]
        assert all(np.array_equal(a, b) for a, b in zip(split, whole, strict=True))


def _split(x, sizes):
    """``x`` as consecutive blocks of the given sizes, cycled, to its end."""
    edges = np.cumsum(sizes * (x.size // sum(sizes) + 1))
    return np.split(x, edges[edges < x.size])


@settings(max_examples=200, deadline=None)
@given(gate=st.sampled_from([2 ** k for k in range(1, 8)]), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_gate_sums_do_not_depend_on_the_block_split(gate, seed, data):
    # a receiver of two sums a frame, one sum apart, hands on every gate sum;
    # blocks as short as one sample, and a stream that ends inside a gate
    n = data.draw(st.integers(2 * gate, 40 * gate), label="n")
    sizes = data.draw(st.lists(st.integers(1, 3 * gate), min_size=1, max_size=8), label="sizes")
    x = np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)
    framer = dsp._Framer(2 * gate, gate, gate)
    batches = [batch for block in _split(x, sizes) for batch in framer.push(block)]
    batches += [last] if (last := framer.close()) is not None else []
    frames = np.concatenate(batches)
    sums = np.concatenate([frames[:, 0], frames[-1:, 1]])
    assert sums.dtype == np.uint8
    assert np.array_equal(sums, x[:n - n % gate].reshape(-1, gate).sum(1))


@settings(max_examples=100, deadline=None)
@given(window=st.sampled_from([2 ** k for k in range(2, 11)]), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_a_gated_receiver_keeps_the_frames_of_the_full_rate_one(window, seed, data):
    gate = data.draw(st.sampled_from([2 ** k for k in range(1, 8) if 2 ** k < window]),
                     label="gate")
    hop = gate * data.draw(st.integers(1, 3 * window // gate), label="hop / gate")
    n = data.draw(st.integers(window // 2, 6 * window), label="n")
    block = data.draw(st.integers(1, 3 * window), label="block")
    x = np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)
    with mock.patch.object(dsp, "_STFT_BLOCK", 3), \
            mock.patch.object(traces, "BLOCK_SAMPLES", block):
        full, gated = dsp.track_all(x, [(0, window, hop), (0, window, hop, gate)], "stft", FS)
    if n < window:
        assert isinstance(full, DomainError) and str(gated) == str(full)
        return
    assert len(gated) == len(full) == (n - window) // hop + 1
    assert np.array_equal(gated.frame_times, full.frame_times)
    # the bin width is the full-rate one: a peak lies on its grid of bins
    bins = gated.frequencies / (FS / window)
    assert np.all((bins >= 0) & (bins <= window // gate // 2))


class TestGate:
    """A receiver's gate: its checks, and the tone its sums keep."""

    @pytest.mark.parametrize("window, hop, gate", [
        (1024, 512, 3), (1024, 512, 256), (1024, 6, 4), (1024, 512, 0), (2, 1, 2), (4, 2, 4)])
    def test_a_gate_that_does_not_fit_is_refused(self, window, hop, gate):
        with pytest.raises(DomainError):
            dsp._Framer(window, hop, gate)

    def test_only_bytes_are_summed(self):
        with pytest.raises(DomainError, match="0/1 bytes"):
            dsp.track_all(np.zeros(4096), [(0, 256, 128, 4)], "stft", FS)

    @pytest.mark.parametrize("gate", [2, 4, 16])
    def test_the_tone_survives_the_gate(self, gate):
        # a 300 kHz square wave, 4096-sample windows: the gated peak sits
        # within a tenth of a bin of the full-rate one
        x = synth_square(300e3, FS, 200_000).astype(np.uint8)
        full, gated = dsp.track_all(x, [(0, 4096, 2048), (0, 4096, 2048, gate)], "stft", FS)
        assert np.abs(gated.frequencies - full.frequencies).max() < 0.1 * FS / 4096
        assert np.abs(full.frequencies - 300e3).max() < FS / 4096


def _serial_track(x, window, hop, tracker):
    """Frequencies and confidences of the ``TRACKERS[tracker]`` batch function
    over every batch of ``x``'s frames in turn, with no worker."""
    fn, _ = dsp.TRACKERS[tracker]
    frames = sliding_window_view(x, window)[::hop]
    k = min(dsp._STFT_BLOCK, max(1, dsp._STFT_BLOCK * window // hop))
    batches = (frames[i:i + k] for i in range(0, frames.shape[0], k))
    freqs, confs = zip(*(fn(b, hann_window(window), FS) for b in batches))
    return np.concatenate(freqs), np.concatenate(confs)


def _tracks_equal(a, b):
    return (np.array_equal(a.frame_times, b.frame_times)
            and np.array_equal(a.frequencies, b.frequencies)
            and np.array_equal(a.confidences, b.confidences))


class TestBlockEdges:
    """Frames and tracks must not depend on the block size of the input stream."""

    CONFIG = ChannelConfig(noise_sigma=0.01, rng_seed=5, fade_duration=0.002,
                           sensor_time_constant=0.0005, pwm_frequency=19_777.0)
    SCHEDULE = CommandSchedule.from_pairs(
        [(0.005, 135), (0.02, 140), (0.035, 137), (0.05, 135), (0.065, 137)], 137)
    DURATION = 0.08

    @pytest.fixture(scope="class")
    def sensor(self):
        return simulate_link(self.SCHEDULE, self.CONFIG, self.DURATION)

    # the 8192 window is longer than a 7919 block; the 1500 hop is longer
    # than its 1024 window; both give more than one batch of frames
    @pytest.mark.parametrize("window, hop", [(8192, 1000), (1024, 1500)])
    @pytest.mark.parametrize("block", [7919, 10_000_000])
    def test_frames_and_tracks_independent_of_block_size(self, sensor, monkeypatch,
                                                         window, hop, block):
        spec = stft(sensor, window, hop)
        assert spec.n_frames > dsp._STFT_BLOCK
        track = dominant_frequency(spec)
        zero = zero_crossing_frequency(sensor, window, hop)

        monkeypatch.setattr(traces, "BLOCK_SAMPLES", block)
        got = stft(sensor, window, hop)
        assert np.array_equal(got.frames, spec.frames)
        assert np.array_equal(got.frame_times, spec.frame_times)
        assert _tracks_equal(dsp.stft_track(sensor, window, hop), track)
        assert _tracks_equal(zero_crossing_frequency(sensor, window, hop), zero)
        stream = channel.link_blocks(self.SCHEDULE, [self.CONFIG], self.DURATION)
        assert _tracks_equal(dsp.stft_track(stream, window, hop, self.CONFIG.sample_rate),
                             track)

    def test_each_receiver_tracks_its_own_tail(self, sensor):
        noisy = self.CONFIG.replace(noise_sigma=0.2, distance=0.3)
        steps = channel.link_blocks(self.SCHEDULE, [self.CONFIG, noisy], self.DURATION)
        receivers = [(1, 4096, 2048), (0, 1024, 1500), (1, 2 ** 22, 2 ** 21), (0, 4096, 2048)]
        got = dsp.track_all(steps, receivers, sample_rate=self.CONFIG.sample_rate)
        noisy_sensor = simulate_link(self.SCHEDULE, noisy, self.DURATION)
        for (tail, window, hop), track in zip(receivers, got, strict=True):
            if window > sensor.values.size:
                assert isinstance(track, DomainError)
                continue
            want = dsp.stft_track((sensor, noisy_sensor)[tail], window, hop)
            assert _tracks_equal(track, want)

    # hops longer than the window skip samples between batches
    @pytest.mark.parametrize("window, hop", [(4, 1), (4, 3), (8, 8), (4, 7), (16, 5), (2, 23)])
    @pytest.mark.parametrize("block", [1, 2, 5, 13, 64, 1000])
    def test_segments_hold_exactly_their_frames(self, monkeypatch, window, hop, block):
        monkeypatch.setattr(dsp, "_STFT_BLOCK", 3)
        monkeypatch.setattr(traces, "BLOCK_SAMPLES", block)
        x = np.arange(499.0)  # with (4, 3) the last segment is exactly one window
        framer = dsp._Framer(window, hop)
        frames = [batch for block in traces.blocks(x) for batch in framer.push(block)]
        last = framer.close()
        frames += [] if last is None else [last]
        k = min(3, max(1, 3 * window // hop))  # hops past the window cut the batch
        assert [f.shape[0] for f in frames[:-1]] == [k] * (len(frames) - 1)
        assert np.array_equal(np.concatenate(frames), sliding_window_view(x, window)[::hop])
        assert np.array_equal(framer.window, hann_window(window))

    # several receivers, whose batches share the one worker: a real one, and
    # scripted ones that seem busy or idle at chosen batches; once the stream
    # has ended the calling thread runs jobs too, here in pieces of 24 elements
    @pytest.mark.parametrize("tracker, script", [
        pytest.param(tracker, script, id="-".join([tracker, *map(str, script or ())]))
        for tracker in sorted(dsp.TRACKERS)
        for script in (None, (False,), (True,), (True, False), (False, False, True))])
    def test_batches_in_flight_match_a_serial_reference(self, monkeypatch, tracker, script):
        monkeypatch.setattr(dsp, "_STFT_BLOCK", 3)
        monkeypatch.setattr(dsp, "_DRAIN_PIECE", 24)
        monkeypatch.setattr(traces, "BLOCK_SAMPLES", 13)
        # 2998 samples end the frames of (8, 8) and (64, 4) with a short batch, which
        # `close` gives, and those of the others with a full one
        x = np.random.default_rng(3).integers(0, 2, 2998, dtype=np.uint8)
        receivers = [(0, 4, 3), (0, 16, 5), (0, 8, 8), (0, 2, 23), (0, 64, 4)]
        want = [_serial_track(x, window, hop, tracker) for _, window, hop in receivers]
        executor = dsp.ThreadPoolExecutor if script is None else ScriptedExecutor(script)
        fn, floor = dsp.TRACKERS[tracker]
        receive, log = dsp._receive, []
        jobs = []  # per submitted job: its receiver, where it ran, its pieces' frame counts
        running = {}  # where -> the job running there now
        caller = threading.get_ident()

        def where():
            if script is None:
                return "here" if threading.get_ident() == caller else "worker"
            return "worker" if executor.running is not None else "here"

        def pool(max_workers):  # logs each job's submission, where it runs, and its end
            pool = executor(max_workers=max_workers)
            submit = pool.submit

            def logged(run, r, *args):
                k = len(jobs)
                jobs.append({"r": r, "ran": None, "pieces": [], "finished": False})
                log.append(("submit", r))

                def on_worker(*args):
                    jobs[k]["ran"], running["worker"] = "worker", k
                    try:
                        return run(*args)
                    finally:
                        jobs[k]["finished"] = True

                future = submit(on_worker, r, *args)
                cancel = future.cancel

                def logged_cancel():
                    if not cancel():
                        return False
                    # the job had not started, and every other job of its receiver
                    # had finished (this thread finishes a job before it cancels another)
                    assert jobs[k]["ran"] is None
                    assert all(job["finished"] or job["ran"] == "here"
                               for i, job in enumerate(jobs) if job["r"] == r and i != k)
                    jobs[k]["ran"], running["here"] = "here", k
                    log.append(("here", k))
                    return True

                future.cancel = logged_cancel
                return future

            pool.submit = logged
            return pool

        def logged_receive(steps, receivers, job, take):  # logs each receiver handed a result
            def logged(r, result):
                log.append(("take", r))
                take(r, result)

            return receive(steps, receivers, job, logged)

        def logged_fn(batch, window, sample_rate):  # logs each piece where it runs
            k = running[where()]
            jobs[k]["pieces"].append(batch.shape[0])
            assert window.size == receivers[jobs[k]["r"]][1]
            return fn(batch, window, sample_rate)

        def stream():  # logs the end of the stream
            yield from ((block,) for block in traces.blocks(x))
            log.append(("ended", None))

        monkeypatch.setattr(dsp, "ThreadPoolExecutor", pool)
        monkeypatch.setattr(dsp, "_receive", logged_receive)
        monkeypatch.setitem(dsp.TRACKERS, tracker, (logged_fn, floor))
        got = dsp.track_all(stream(), receivers, tracker, FS)
        for (_, window, hop), track, (freqs, confs) in zip(receivers, got, want, strict=True):
            assert np.array_equal(track.frequencies, freqs)
            assert np.array_equal(track.confidences, confs)
            assert np.array_equal(track.frame_times,
                                  dsp._frame_times(freqs.size, window, hop, FS))
        # every job ran, and no job ran here before the stream ended
        assert all(job["ran"] is not None for job in jobs)
        kinds = [kind for kind, _ in log]
        ended = kinds.index("ended")
        assert "here" not in kinds[:ended]
        # the worker ran whole batches; this thread ran its jobs in consecutive
        # pieces of at most 24 elements, or of one frame
        for job in jobs:
            window = receivers[job["r"]][1]
            if job["ran"] == "worker":
                assert len(job["pieces"]) == 1
            else:
                rows = max(1, 24 // window)
                assert job["pieces"][:-1] == [rows] * (len(job["pieces"]) - 1)
                assert 1 <= job["pieces"][-1] <= rows
        if script == (False,):  # a worker that never seems done leaves jobs to this thread
            assert "here" in kinds
        # handed on in submission order, piece by piece, with no more batches
        # queued than receivers
        assert [r for kind, r in log if kind == "take"] == [
            job["r"] for job in jobs for _ in job["pieces"]]
        last_takes = set(np.cumsum([len(job["pieces"]) for job in jobs]).tolist())
        queued, most, taken = 0, 0, 0
        for kind in kinds:  # a job leaves the queue with its last piece's take
            if kind == "submit":
                queued += 1
                most = max(most, queued)
            elif kind == "take":
                taken += 1
                queued -= taken in last_takes
        assert most <= len(receivers)
        if script == (False,):  # a worker that never seems done fills the queue
            assert most == len(receivers)

    def test_at_most_one_batch_of_spectra_is_alive(self, monkeypatch):
        spectra, made, most = dsp._spectra, [], 0

        def counted(frames, window):
            nonlocal most
            mags = spectra(frames, window)
            made.append(weakref.ref(mags))
            most = max(most, sum(m.size for m in (ref() for ref in made) if m is not None))
            return mags

        monkeypatch.setattr(dsp, "_spectra", counted)
        # a criterion-7 stream: the larger windows' only batch comes after the last block
        x = np.random.default_rng(7).integers(0, 2, 520_000, dtype=np.uint8)
        receivers = [(0, 1024, 512), (0, 2048, 1024), (0, 4096, 2048), (0, 8192, 4096)]
        tracks = dsp.track_all(x, receivers, sample_rate=FS)
        assert all(isinstance(track, dsp.FrequencyTrack) for track in tracks)
        assert len(made) >= 8  # 4 + 2 + 1 + 1 batches, more where pieces ran here
        batch = max(min(dsp._STFT_BLOCK, len(track)) * (window // 2 + 1)
                    for track, (_, window, _) in zip(tracks, receivers))
        piece = max(max(1, (1 << 17) // window) * (window // 2 + 1) for _, window, _ in receivers)
        assert most <= batch + piece

    def test_a_stream_error_joins_the_worker(self, monkeypatch):
        spectra = dsp._spectra
        workers = set()

        def recorded(frames, window):
            workers.add(threading.get_ident())
            return spectra(frames, window)

        def stream():
            for k in range(3):
                yield ((np.arange(k * 5000, (k + 1) * 5000) // 7 % 2).astype(np.uint8),)
            raise ConfigError("the stream broke")

        monkeypatch.setattr(dsp, "_spectra", recorded)
        threads = threading.active_count()
        with pytest.raises(ConfigError, match="the stream broke"):
            dsp.track_all(stream(), [(0, 64, 32), (0, 128, 64)], sample_rate=FS)
        assert threading.active_count() == threads
        assert workers - {threading.get_ident()}  # a batch's spectra ran on the worker

    def test_long_hop_holds_no_more_than_a_short_one(self):
        def peak(hop):
            # 8 M samples, fresh blocks as a link makes them
            stream = (((np.arange(k, k + 65_536) // 7 % 2).astype(np.uint8),)
                      for k in range(0, 2 ** 23, 65_536))
            tracemalloc.start()
            try:
                zero_crossing_frequency(stream, 4096, hop, FS)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2 ** 20) <= peak(2048)

    def test_stream_shorter_than_a_window(self):
        blocks = iter([(np.zeros(100, dtype=np.uint8),), (np.ones(100, dtype=np.uint8),)])
        with pytest.raises(DomainError, match="input has 200 samples"):
            dsp.stft_track(blocks, 256, 128, FS)

    def test_stft_wants_the_whole_trace(self):
        with pytest.raises(DomainError, match="stft_track"):
            stft(iter([np.zeros(1024)]), 256, 128, FS)

    def test_stream_needs_sample_rate(self):
        with pytest.raises(DomainError, match="sample_rate"):
            dsp.stft_track(iter([np.zeros(1024)]), 256, 128)


class TestOneDimensional:
    """Samples, stream blocks and traces that are not one-dimensional are
    refused with `DomainError`."""

    def test_a_stream_of_bare_arrays(self, monkeypatch):
        # each step is then an array, whose first sample would be read as the block
        x = np.zeros(200_000, dtype=np.uint8)
        with pytest.raises(DomainError, match="one-dimensional"):
            dsp.stft_track(traces.blocks(x), 256, 128, FS)
        monkeypatch.setattr(traces, "BLOCK_SAMPLES", 100)  # 2 000 blocks
        with pytest.raises(DomainError, match="one-dimensional"):
            dsp.stft_track(traces.blocks(x), 256, 128, FS)

    def test_a_trace_of_two_rows(self):
        with pytest.raises(DomainError, match="one-dimensional"):
            SensorTrace(FS, np.zeros((2, 5000), np.uint8))

    @pytest.mark.parametrize("times, freqs, confs", [
        (np.zeros((2, 8)), np.zeros((2, 8)), np.zeros((2, 8))),
        (np.arange(9.0), np.zeros(8), np.zeros(8)),
        (np.arange(8.0), np.zeros(8), np.zeros(7)),
    ], ids=["two-rows", "times-too-long", "confidences-too-short"])
    def test_a_frequency_track(self, times, freqs, confs):
        with pytest.raises(DomainError, match="one-dimensional and of one length"):
            dsp.FrequencyTrack(times, freqs, confs)

    @pytest.mark.parametrize("freq, conf", [
        (np.nan, 1.0), (np.inf, 1.0), (1e5, -np.inf), (1e5, np.nan)])
    def test_a_frequency_track_is_finite(self, freq, conf):
        with pytest.raises(DomainError, match="must be finite"):
            dsp.FrequencyTrack(np.arange(3.0), np.array([1e5, freq, 1e5]),
                               np.array([1.0, conf, 1.0], dtype=np.float32))

    @pytest.mark.parametrize("x", [np.zeros((2, 5000)), np.float64(3.0)])
    def test_arrays(self, x):
        with pytest.raises(DomainError, match="one-dimensional"):
            stft(x, 256, 128, FS)
        for tracker in dsp.TRACKERS:
            with pytest.raises(DomainError, match="one-dimensional"):
                dsp.track_all(x, [(0, 256, 128)], tracker, FS)
