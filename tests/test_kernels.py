"""The per-sample kernels: their physics, their precision, and block-by-block equals one pass."""

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
from lightleak._kernels import SEGMENT, level_fill, pwm_wave, sensor_wave

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from sensor_precision import GRID, reference_wave, rising_edges  # noqa: E402

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
        x = np.random.default_rng(1).random(N)
        step = 19_777.0 / FS

        def stream(block):
            state = None
            pwm, wave = [], []
            for start in range(0, N, block):
                pwm.append(pwm_wave(levels.__getitem__, step, start, min(start + block, N)))
                part, state = sensor_wave(x[start:start + block], start, 0.96, 0.08, 0.001, state)
                wave.append(part)
            return np.concatenate(pwm), np.concatenate(wave), state

        (pwm, wave, state), (pwm_1, wave_1, state_1) = stream(7919), stream(N)
        assert N > 10 * SEGMENT
        assert np.array_equal(pwm, pwm_1) and np.array_equal(wave, wave_1)
        assert _same_state(state, state_1)


def _same_state(a, b) -> bool:
    """Whether two `sensor_wave` states hold the same bits."""
    return all(np.array_equal(np.asarray(u), np.asarray(v)) for u, v in zip(a, b, strict=True))


def _light(n, seed):
    """PWM-like light: runs of on and off (1.01 and 0.01) with noise, clamped at 0."""
    rng = np.random.default_rng(seed)
    runs = rng.integers(1, 700, n // 100 + 1)
    on = np.repeat(np.arange(runs.size) % 2, runs)[:n]
    return np.maximum(0.01 + on + 0.01 * rng.standard_normal(n), 0.0)


# blocks of 1 and 2 samples, blocks that end on a segment edge or cross it,
# from starts before, on and after one
@settings(max_examples=60, deadline=None)
@example(offset=-3, blocks=[1, 2, 1, 1, 5000], decay=0.999, dark=0.0)
@example(offset=0, blocks=[SEGMENT, 1, 2], decay=0.0, dark=0.0005)
@example(offset=-1, blocks=[1, SEGMENT - 1, 2 * SEGMENT + 7], decay=0.99999, dark=0.0)
@given(offset=st.integers(-3 * SEGMENT // 2, SEGMENT),
       blocks=st.lists(st.one_of(st.integers(1, 2), st.integers(1, 2 * SEGMENT + 9)),
                       min_size=1, max_size=6),
       decay=st.sampled_from([0.0, 0.5, 0.995, 0.99999]),
       dark=st.sampled_from([0.0, 0.0005]))
def test_sensor_wave_split_anywhere_equals_one_pass(offset, blocks, decay, dark):
    """Any split of a trace into blocks gives the one pass's bits and end
    state, wherever the blocks fall on the segment grid."""
    start = 3 * SEGMENT + offset
    light = _light(sum(blocks), 7)
    whole, end = sensor_wave(light, start, decay, 0.08, dark)
    parts, state, at = [], None, 0
    for size in blocks:
        part, state = sensor_wave(light[at:at + size], start + at, decay, 0.08, dark, state)
        parts.append(part)
        at += size
    assert np.array_equal(np.concatenate(parts), whole)
    assert _same_state(state, end)


@pytest.mark.parametrize("tau, full_scale, dark", GRID,
                         ids=[f"{tau:g}-{full:g}-{dark:g}" for tau, full, dark in GRID])
def test_sensor_wave_matches_extended_precision(tau, full_scale, dark):
    """Against both recurrences in np.longdouble, at most 2e-4 of the samples
    differ and the rising edges agree.  The light is noisy, so the phase
    does not land on half-integers, as it does at a time constant of 0 for
    light of two values (where rounding decides those ties)."""
    light = _light(7 * SEGMENT + 123, 8)
    decay = math.exp(-1.0 / (tau * FS)) if tau > 0 else 0.0
    wave, _ = sensor_wave(light, 0, decay, full_scale / FS, dark / FS)
    ref = reference_wave(light, tau, FS, full_scale, dark)
    assert np.count_nonzero(wave != ref) <= 2e-4 * light.size
    assert rising_edges(wave) == rising_edges(ref)


def test_reference_is_the_per_sample_recurrence():
    """`reference_wave`'s chunked scan is the two recurrences run sample by
    sample in np.longdouble, across several chunks."""
    light = _light(3 * 4096 + 11, 9)
    ld = np.longdouble
    pole = np.exp(ld(-1) / (ld(2e-5) * ld(FS)))
    y, phase, want = ld(light[0]), ld(0), np.empty(light.size, dtype=np.uint8)
    for i, x in enumerate(light.astype(ld)):
        y = (1 - pole) * x + pole * y
        phase += (ld(5e3) + ld(1e5) * y) / ld(FS)
        want[i] = phase - np.floor(phase) >= 0.5
    assert np.array_equal(reference_wave(light, 2e-5, FS, 1e5, 5e3), want)


def _level_per_line(bounds, times, levels, dt, idx):
    """`level_fill` as a loop over the level lines that own samples of ``idx``."""
    out = np.empty(idx.size)
    cuts = np.searchsorted(idx, bounds)  # line j owns idx[cuts[j]:cuts[j+1]]
    for j in np.flatnonzero(cuts[1:] > cuts[:-1]):
        lo, hi = cuts[j], cuts[j + 1]
        if j + 1 == times.size or levels[j + 1] == levels[j]:
            out[lo:hi] = levels[j]
            continue
        frac = np.clip((idx[lo:hi] * dt - times[j]) / (times[j + 1] - times[j]), 0.0, 1.0)
        out[lo:hi] = levels[j] + (levels[j + 1] - levels[j]) * frac
    return out


# knots as `bulb._fade_knots` makes them: ramps, holds (no gap, or the same
# target) and zero fades (two knots at one time)
@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(0, 3000), st.integers(0, 255)), min_size=0,
                      max_size=12),
       fade=st.sampled_from([0, 1, 700]), seed=st.integers(0, 2 ** 16))
def test_level_fill_is_the_per_line_loop(steps, fade, seed):
    """One search and a few array operations give the loop's bits."""
    dt = 1.0 / FS
    times, levels = [0.0], [137.0]
    for gap, target in steps:
        at = times[-1] + gap * dt
        times += [at, at + fade * dt]
        levels += [levels[-1], float(target)]
    times, levels = np.array(times), np.array(levels)
    n = int(times[-1] * FS) + 500
    bounds = np.append(np.clip(np.maximum.accumulate(np.ceil(times * FS).astype(np.int64)),
                               0, n), n)
    bounds[0] = 0
    idx = np.unique(np.random.default_rng(seed).integers(0, n, 300))
    want = _level_per_line(bounds, times, levels, dt, idx)
    assert np.array_equal(level_fill(bounds, times, levels, dt, idx).view(np.int64),
                          want.view(np.int64))


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
    assert public == {"level_fill", "pwm_wave", "sensor_wave"}


def test_kernels_leave_their_inputs_unchanged():
    rng = np.random.default_rng(5)
    x = rng.random(70_000)
    idx = np.arange(70_000)
    bounds, times = np.array([0, 30_000, 70_000]), np.array([0.0, 0.003])
    for array, call in ((x, lambda a: sensor_wave(a, SEGMENT - 5, 0.96, 0.08, 0.0)),
                        (idx, lambda a: level_fill(bounds, times, np.array([3.0, 9.0]),
                                                   1.0 / FS, a))):
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
        """Constant light from steady state: the phase is the ramp
        ``(dark + gain * light) * (i + 1)`` from 0, low in each cycle's first half."""
        wave, _ = sensor_wave(np.full(10_000, 0.7), 0, 0.99, 0.05, 0.002)
        phase = (0.002 + 0.05 * 0.7) * np.arange(1, 10_001)
        assert np.array_equal(wave, phase - np.floor(phase) >= 0.5)

    def test_lowpass_step_response(self):
        """From dark, a step of light 1: the low-pass output is ``1 - b**k``
        at the k-th lit sample, and each rising edge falls where its sum
        (times the gain) first reaches a half-integer cycle."""
        b, gain = 0.99, 0.1
        wave, _ = sensor_wave(np.concatenate(([0.0], np.ones(3000))), 0, b, gain, 0.0)
        k = np.arange(1, 3001)
        phase = np.concatenate(([0.0], gain * (k - b * (1 - b ** k) / (1 - b))))
        assert np.array_equal(wave, phase - np.floor(phase) >= 0.5)
        # the rate grows toward gain: 10 samples a cycle once settled
        periods = np.diff(np.flatnonzero(np.diff(wave) == 1))
        assert periods[0] > 2 * periods[-1] and periods[-1] == 10

    def test_square_wave_rate(self):
        wave, _ = sensor_wave(np.full(100_000, 0.5), 0, 0.0, 800_000.0 / FS, 0.0)
        toggles = int(np.count_nonzero(np.diff(wave)))
        assert toggles / 2 / (100_000 / FS) == pytest.approx(400_000.0, abs=100)

    def test_empty_inputs(self):
        assert pwm_wave(np.zeros(0).__getitem__, 0.002, 0, 0).size == 0
        _, kept = sensor_wave(np.full(9, 0.3), 0, 0.5, 0.1, 0.0)
        wave, state = sensor_wave(np.zeros(0), 9, 0.5, 0.1, 0.0, kept)
        assert wave.size == 0 and state is kept


def test_import_leaves_scipy_signal_unloaded():
    """``import lightleak`` does not pay for scipy.signal or scipy.fft; the
    first STFT loads scipy.fft and `sensor_wave` loads scipy.signal."""
    src = str(Path(lightleak.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, numpy, lightleak; "
            "assert 'scipy.signal' not in sys.modules and 'scipy.fft' not in sys.modules; "
            "lightleak.stft(numpy.ones(8), 4, 2, sample_rate=1.0); "
            "assert 'scipy.fft' in sys.modules and 'scipy.signal' not in sys.modules; "
            "from lightleak import _kernels; _kernels.sensor_wave(numpy.ones(3), 0, 0.5, 0.1, 0.0); "
            "assert 'scipy.signal' in sys.modules")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
