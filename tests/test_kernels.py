"""The per-sample kernels: their physics, and block-by-block equals one pass."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lightleak
from lightleak._kernels import level_fill, lowpass, pwm_wave, square_wave

N = 500_000
FS = 10_000_000.0


def _wavy_levels(n=N):
    rng = np.random.default_rng(0)
    t = np.arange(n) / FS
    base = 140.0 + 5.0 * np.sin(2 * np.pi * 3.0 * t)
    return np.clip(base + rng.normal(0, 0.5, n), 0.0, 255.0)


class TestStreamedEqualsOnePass:
    def test_level_fill(self):
        times = np.array([0.0, 0.01, 0.013, 0.02])
        levels = np.array([10.0, 10.0, 130.0, 255.0])
        bounds = np.array([0, 100_000, 130_000, 200_000, 300_000], dtype=np.int64)
        whole = level_fill(bounds, times, levels, 1.0 / FS, np.arange(300_000))
        for start, stop in ((0, 300_000), (7919, 15_838), (129_000, 201_000)):
            part = level_fill(bounds, times, levels, 1.0 / FS, np.arange(start, stop))
            assert np.array_equal(part, whole[start:stop])

    def test_level_fill_at_some_samples(self):
        times = np.array([0.0, 0.01, 0.013, 0.013, 0.02])
        levels = np.array([10.0, 10.0, 130.0, 40.0, 255.0])
        bounds = np.array([0, 100_000, 130_000, 130_000, 200_000, 300_000], dtype=np.int64)
        whole = level_fill(bounds, times, levels, 1.0 / FS, np.arange(300_000))
        idx = np.unique(np.random.default_rng(2).integers(0, 300_000, 5000))
        idx = np.concatenate(([0], idx, [129_999, 130_000, 299_999]))
        idx.sort()
        assert np.array_equal(level_fill(bounds, times, levels, 1.0 / FS, idx), whole[idx])
        # in place, over float indices
        values = idx.astype(np.float64)
        assert level_fill(bounds, times, levels, 1.0 / FS, values, out=values) is values
        assert np.array_equal(values, whole[idx])
        assert level_fill(bounds, times, levels, 1.0 / FS, idx[:0]).size == 0

    def test_blocks_with_carry(self):
        levels = _wavy_levels()
        freq = 1_000.0 + 3_000.0 * levels
        x = np.random.default_rng(1).random(N)
        step = 19_777.0 / FS

        def stream(block):
            duty = phi = 0.0
            y = x[0]
            pwm, wave, low = [], [], []
            for start in range(0, N, block):
                part, duty = pwm_wave(levels.__getitem__, step, start,
                                       min(start + block, N), duty)
                pwm.append(part)
                part, phi = square_wave(freq[start:start + block], FS, phi)
                wave.append(part)
                part = lowpass(x[start:start + block], 0.04, y)
                y = part[-1]
                low.append(part)
            return (np.concatenate(pwm), np.concatenate(wave), np.concatenate(low),
                    duty, phi)

        streamed, one_pass = stream(7919), stream(N)
        assert all(np.array_equal(a, b) for a, b in zip(streamed, one_pass))


def test_pwm_reads_the_level_at_period_starts_only():
    levels = _wavy_levels()
    step = 19_777.0 / FS
    asked = []

    def level_at(idx):
        asked.append(idx)
        return levels[idx]

    for start in range(0, N, 7919):
        pwm_wave(level_at, step, start, min(start + 7919, N), 0.0)
    period = np.floor(np.arange(N) * step)
    starts = np.flatnonzero(np.diff(period)) + 1
    assert np.array_equal(np.concatenate(asked), np.concatenate(([0], starts)))


class TestNumpyKernels:
    def test_pwm_constant_duty(self):
        levels = np.full(50_000, 128.0)
        wave, _ = pwm_wave(levels.__getitem__, 20_000.0 / FS, 0, levels.size, 0.0)
        period = 500
        mean = wave[: (wave.size // period) * period].mean()
        assert abs(mean - 128 / 255) <= 1 / period

    def test_lowpass_steady_state(self):
        x = np.full(10_000, 0.7)
        y = lowpass(x, 0.01, 0.7)
        assert np.allclose(y, 0.7)

    def test_lowpass_step_response(self):
        x = np.ones(300)
        y = lowpass(x, 0.01, 0.0)
        assert y[0] == pytest.approx(0.01)
        assert np.all(np.diff(y) > 0)
        assert 0.9 < y[-1] < 1.0

    def test_square_wave_rate(self):
        wave, _ = square_wave(np.full(100_000, 400_000.0), FS, 0.0)
        toggles = int(np.count_nonzero(np.diff(wave)))
        assert toggles / 2 / (100_000 / FS) == pytest.approx(400_000.0, abs=100)

    def test_empty_inputs(self):
        assert pwm_wave(np.zeros(0).__getitem__, 0.002, 0, 0, 0.0)[0].size == 0
        assert lowpass(np.zeros(0), 0.5, 0.0).size == 0
        assert square_wave(np.zeros(0), FS, 0.0)[0].size == 0


def test_import_leaves_scipy_signal_unloaded():
    """``import lightleak`` does not pay for scipy.signal or scipy.fft; the
    first STFT loads scipy.fft and `lowpass` loads scipy.signal."""
    src = str(Path(lightleak.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, numpy, lightleak; "
            "assert 'scipy.signal' not in sys.modules and 'scipy.fft' not in sys.modules; "
            "lightleak.stft(numpy.ones(8), 4, 2, sample_rate=1.0); "
            "assert 'scipy.fft' in sys.modules and 'scipy.signal' not in sys.modules; "
            "from lightleak import _kernels; _kernels.lowpass(numpy.ones(3), 0.5, 0.0); "
            "assert 'scipy.signal' in sys.modules")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
