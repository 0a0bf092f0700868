"""Numba and numpy kernel backends must agree bit-for-bit."""

import os
import subprocess
import sys

import numpy as np
import pytest

from lightleak import _kernels
from lightleak._kernels import (
    level_fill_numpy,
    lowpass_numpy,
    pwm_wave_numpy,
    square_wave_numpy,
)

needs_numba = pytest.mark.skipif(_kernels.BACKEND != "numba",
                                 reason="numba backend not active")

N = 500_000
FS = 10_000_000.0


def _wavy_levels(n=N):
    rng = np.random.default_rng(0)
    t = np.arange(n) / FS
    base = 140.0 + 5.0 * np.sin(2 * np.pi * 3.0 * t)
    return np.clip(base + rng.normal(0, 0.5, n), 0.0, 255.0)


@needs_numba
class TestBackendEquivalence:
    def test_pwm_wave(self):
        levels = _wavy_levels()
        for step in (20_000.0 / FS, 19_777.0 / FS, 23_456.7 / FS):
            a = _kernels.pwm_wave_numba(levels, step, 0, 0.0)
            b = pwm_wave_numpy(levels, step, 0, 0.0)
            assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_lowpass(self):
        rng = np.random.default_rng(1)
        x = rng.random(N)
        for alpha in (1.0, 0.5, 0.04, 1e-4):
            a = _kernels.lowpass_numba(x, alpha, x[0])
            b = lowpass_numpy(x, alpha, x[0])
            assert np.array_equal(a, b)

    def test_square_wave(self):
        rng = np.random.default_rng(2)
        freq = 400_000.0 + 50_000.0 * rng.standard_normal(N).cumsum() / np.sqrt(N)
        freq = np.abs(freq)
        a = _kernels.square_wave_numba(freq, FS, 0.0)
        b = square_wave_numpy(freq, FS, 0.0)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_blocks_with_carry(self):
        levels = _wavy_levels()
        freq = 1_000.0 + 3_000.0 * levels

        def stream(pwm_wave, square_wave, block=7919):
            duty = phi = 0.0
            pwm, wave = [], []
            for start in range(0, N, block):
                part, duty = pwm_wave(levels[start:start + block], 19_777.0 / FS, start, duty)
                pwm.append(part)
                part, phi = square_wave(freq[start:start + block], FS, phi)
                wave.append(part)
            return np.concatenate(pwm), np.concatenate(wave), duty, phi

        a = stream(_kernels.pwm_wave_numba, _kernels.square_wave_numba)
        b = stream(pwm_wave_numpy, square_wave_numpy)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_level_fill(self):
        t0s = np.array([0.0, 0.01, 0.013, 0.02])
        spans = np.array([0.01, 0.003, 0.007, np.inf])
        v0s = np.array([10.0, 10.0, 130.0, 255.0])
        dvs = np.array([0.0, 120.0, 125.0, 0.0])
        bounds = np.array([0, 100_000, 130_000, 200_000, 300_000], dtype=np.int64)
        for start, stop in ((0, 300_000), (7919, 15_838), (129_000, 201_000)):
            a = _kernels.level_fill_numba(bounds, t0s, spans, v0s, dvs, 1.0 / FS, start, stop)
            b = level_fill_numpy(bounds, t0s, spans, v0s, dvs, 1.0 / FS, start, stop)
            assert np.array_equal(a, b)


class TestNumpyKernels:
    def test_pwm_constant_duty(self):
        levels = np.full(50_000, 128.0)
        wave, _ = pwm_wave_numpy(levels, 20_000.0 / FS, 0, 0.0)
        period = 500
        mean = wave[: (wave.size // period) * period].mean()
        assert abs(mean - 128 / 255) <= 1 / period

    def test_lowpass_steady_state(self):
        x = np.full(10_000, 0.7)
        y = lowpass_numpy(x, 0.01, 0.7)
        assert np.allclose(y, 0.7)

    def test_lowpass_step_response(self):
        x = np.ones(300)
        y = lowpass_numpy(x, 0.01, 0.0)
        assert y[0] == pytest.approx(0.01)
        assert np.all(np.diff(y) > 0)
        assert 0.9 < y[-1] < 1.0

    def test_square_wave_rate(self):
        wave, _ = square_wave_numpy(np.full(100_000, 400_000.0), FS, 0.0)
        toggles = int(np.count_nonzero(np.diff(wave)))
        assert toggles / 2 / (100_000 / FS) == pytest.approx(400_000.0, abs=100)

    def test_empty_inputs(self):
        assert pwm_wave_numpy(np.zeros(0), 0.002, 0, 0.0)[0].size == 0
        assert lowpass_numpy(np.zeros(0), 0.5, 0.0).size == 0
        assert square_wave_numpy(np.zeros(0), FS, 0.0)[0].size == 0


class TestEnvFlag:
    def test_disable_flag_selects_numpy(self):
        env = dict(os.environ, LIGHTLEAK_NO_NUMBA="1")
        out = subprocess.run(
            [sys.executable, "-c", "import lightleak; print(lightleak.BACKEND)"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "numpy"

    def test_numpy_backend_end_to_end(self, tmp_path):
        # the fallback path must run the whole pipeline, not just the kernels
        code = (
            "import lightleak as ll\n"
            "cfg = ll.ChannelConfig(noise_sigma=0.0, ambient_intensity=0.0,\n"
            "    fade_duration=0.001, sensor_time_constant=0.0005,\n"
            "    max_command_rate=1000.0)\n"
            "al = ll.SymbolAlphabet(symbol_period=0.003)\n"
            "r = ll.run_end_to_end(cfg, al, b'\\x5a')\n"
            "print(r.report.ber, r.report.payload.hex())\n"
        )
        env = dict(os.environ, LIGHTLEAK_NO_NUMBA="1")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["0.0", "5a"]
