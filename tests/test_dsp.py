"""STFT, dominant-frequency tracking, and the zero-crossing cross-check."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import synth_square

from lightleak import (
    ChannelConfig,
    CommandSchedule,
    Spectrogram,
    dominant_frequency,
    hann_window,
    simulate_link,
    stft,
    zero_crossing_frequency,
)
from lightleak import channel, dsp, traces
from lightleak.errors import DomainError

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

    def test_sample_rate_required_for_arrays(self):
        with pytest.raises(DomainError):
            stft(np.zeros(10_000), 2048, 1024)


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
        framer = dsp._Framer(window, hop,
                             lambda segment: sliding_window_view(segment, window)[::hop])
        for block in traces.blocks(x):
            framer.push(block)
        frames = framer.close()
        assert [f.shape[0] for f in frames[:-1]] == [3] * (len(frames) - 1)
        assert np.array_equal(np.concatenate(frames), sliding_window_view(x, window)[::hop])

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
