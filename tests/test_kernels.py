"""The per-sample kernels: their physics, and block-by-block equals one pass."""

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lightleak
from lightleak import _kernels
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
            phi = 0.0
            y = x[0]
            pwm, wave, low = [], [], []
            for start in range(0, N, block):
                pwm.append(pwm_wave(levels.__getitem__, step, start, min(start + block, N)))
                part, phi = square_wave(freq[start:start + block], FS, phi)
                wave.append(part)
                part = lowpass(x[start:start + block], 0.04, y)
                y = part[-1]
                low.append(part)
            return np.concatenate(pwm), np.concatenate(wave), np.concatenate(low), phi

        streamed, one_pass = stream(7919), stream(N)
        assert all(np.array_equal(a, b) for a, b in zip(streamed, one_pass))


def test_pwm_reads_the_level_at_period_starts_only():
    levels = _wavy_levels()
    step = 19_777.0 / FS
    asked = []

    def level_at(idx):
        asked.append(idx)
        return levels[idx]

    starts = range(0, N, 7919)
    for start in starts:
        pwm_wave(level_at, step, start, min(start + 7919, N))
    period = np.floor(np.arange(N) * step)
    openings = np.concatenate(([0], np.flatnonzero(np.diff(period)) + 1))
    # every index asked is an opening, and every opening is asked
    assert np.array_equal(np.unique(np.concatenate(asked)), openings)
    # a call asks again only for the opening of the period open at its start
    seen = set()
    for start, idx in zip(starts, asked):
        again = [i for i in idx.tolist() if i in seen]
        assert again in ([], [openings[openings <= start][-1]])
        assert idx.size == np.unique(idx).size
        seen.update(idx.tolist())


def _opening(step, i):
    """The first sample ``j`` with ``floor(j * step) >= floor(i * step)``, by bisection."""
    p = math.floor(i * step)
    lo, hi = 0, i
    while lo < hi:
        mid = (lo + hi) // 2
        if math.floor(mid * step) >= p:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _pwm_reference(level, step, start, stop):
    """Per-sample PWM: on while the phase's fraction is below the level at
    the opening of its period, over 255."""
    wave = np.zeros(stop - start, dtype=np.uint8)
    for i in range(start, stop):
        phase = i * step
        wave[i - start] = phase - math.floor(phase) < level(_opening(step, i)) / 255.0
    return wave


# steps of 1e-9 to 1e-2 PWM periods a sample; starts near 2**52 are where the
# opening of the period open at a block's start is one sample off ceil(p / step)
@settings(max_examples=100, deadline=None)
# at step 0.01 a period opens every 100 samples, and the one at sample 0
# latches level ``salt``: duties of 0, 1, 254 and 255 over 255
@example(step=0.01, start=0, blocks=[100, 100], salt=0)
@example(step=0.01, start=0, blocks=[100, 100], salt=1)
@example(step=0.01, start=0, blocks=[100, 100], salt=254)
@example(step=0.01, start=0, blocks=[100, 100], salt=255)
# one-sample blocks, and blocks that start on an opening or one sample after it
@example(step=0.01, start=99, blocks=[1, 1, 1, 98], salt=7)
@example(step=0.01, start=100, blocks=[100, 200], salt=7)
@example(step=0.01, start=101, blocks=[99, 1, 300], salt=7)
@given(step=st.floats(-9, -2).map(lambda e: 10 ** e),
       start=st.one_of(st.integers(0, 2 ** 20), st.integers(2 ** 44, 2 ** 52)),
       blocks=st.lists(st.integers(1, 400), min_size=1, max_size=4), salt=st.integers(0, 255))
def test_pwm_streamed_equals_per_sample_reference(step, start, blocks, salt):
    def level(i):
        return float((i % 65_521 * 31 + salt) % 256)

    def level_at(idx):
        return np.array([level(i) for i in idx.tolist()])

    edges = np.cumsum([start, *blocks]).tolist()
    streamed = np.concatenate([pwm_wave(level_at, step, a, b) for a, b in zip(edges, edges[1:])])
    assert np.array_equal(streamed, _pwm_reference(level, step, start, edges[-1]))


def test_pwm_finds_the_opening_before_a_block():
    """The first level a block asks for is at the opening of the period open
    at its start, however float rounding places it around p / step."""
    rng = np.random.default_rng(4)
    for step, start in zip(10 ** rng.uniform(-9, -2, 3000), rng.integers(2 ** 44, 2 ** 52, 3000)):
        asked = []
        pwm_wave(lambda idx: asked.append(idx) or np.zeros(idx.size), step, int(start),
                 int(start) + 1)
        assert asked[0][0] == _opening(step, int(start))


def test_public_functions_are_the_traced_kernels():
    """The benchmark traces each public function of `_kernels` as a
    ``kernels.*`` span with its own metric; a helper stays private."""
    public = {name for name, fn in vars(_kernels).items()
              if not name.startswith("_") and inspect.isfunction(fn)
              and fn.__module__ == _kernels.__name__}
    assert public == {"level_fill", "pwm_wave", "lowpass", "square_wave"}


def test_kernels_leave_their_inputs_unchanged():
    rng = np.random.default_rng(5)
    x = rng.random(70_000)
    freq = 1e5 + 7e5 * rng.random(70_000)
    for array, call in ((x, lambda a: lowpass(a, 0.04, 0.3)),
                        (freq, lambda a: square_wave(a, FS, 0.7))):
        kept = array.copy()
        call(array)
        assert np.array_equal(array, kept)


class TestNumpyKernels:
    def test_pwm_constant_duty(self):
        levels = np.full(50_000, 128.0)
        wave = pwm_wave(levels.__getitem__, 20_000.0 / FS, 0, levels.size)
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
        assert pwm_wave(np.zeros(0).__getitem__, 0.002, 0, 0).size == 0
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
