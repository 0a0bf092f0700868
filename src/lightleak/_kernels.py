"""Hot per-sample kernels with numba-jitted and pure-numpy implementations.

The four inner loops that dominate runtime at 10 MS/s all live here:

* ``level_fill``  -- sample a piecewise-linear fade profile,
* ``pwm_wave``    -- render a PWM on/off waveform from a level trace,
* ``lowpass``     -- first-order low-pass (photodiode integration),
* ``square_wave`` -- phase-accumulating oscillator (light-to-frequency output).

Each kernel exists twice.  The ``*_numba`` variant is an ``@njit`` sample
loop; the ``*_numpy`` variant is vectorised numpy/scipy.  Both variants are
written so that they execute the same IEEE-754 operations in the same order,
and the test suite asserts their outputs are bit-identical.

The kernels render one block of a longer trace at a time.  ``level_fill`` and
``pwm_wave`` take the absolute index of the block's first sample, and
``pwm_wave``, ``lowpass`` and ``square_wave`` take the state the previous
block ended in (latched duty, filter output, oscillator phase); ``pwm_wave``
and ``square_wave`` return their end state with the block.  Rendering a
trace block by block therefore gives the same bits as one pass over it.

Backend selection happens once at import time: setting ``LIGHTLEAK_NO_NUMBA=1``
in the environment, or numba not being installed (it is the optional
``numba`` extra), silently selects the numpy path.
``benchmarks/bench_kernels.py`` times both.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.signal import lfilter

_ENV_FLAG = "LIGHTLEAK_NO_NUMBA"


def _env_disabled() -> bool:
    return os.environ.get(_ENV_FLAG, "").strip().lower() in ("1", "true", "yes", "on")


if _env_disabled():
    _HAVE_NUMBA = False
else:
    try:
        from numba import njit
        _HAVE_NUMBA = True
    except ImportError:  # numba is an optional extra; numpy is the baseline
        _HAVE_NUMBA = False

BACKEND = "numba" if _HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# pure-numpy implementations


def level_fill_numpy(bounds: np.ndarray, t0s: np.ndarray, spans: np.ndarray,
                     v0s: np.ndarray, dvs: np.ndarray, dt: float,
                     start: int, stop: int) -> np.ndarray:
    """Sample piecewise-linear segments onto samples ``start:stop`` of a uniform grid.

    Segment ``j`` covers samples ``bounds[j]:bounds[j+1]`` and ramps from
    ``v0s[j]`` over ``spans[j]`` seconds starting at ``t0s[j]``; the ramp
    fraction is clamped to [0, 1] so a segment holds its end value once the
    ramp completes.  Sample ``i`` sits at ``i * dt`` whatever block it is
    rendered in.
    """
    out = np.empty(stop - start, dtype=np.float64)
    first = int(np.searchsorted(bounds, start, side="right")) - 1
    last = int(np.searchsorted(bounds, stop, side="left"))
    for j in range(max(first, 0), min(last, t0s.size)):
        lo, hi = max(int(bounds[j]), start), min(int(bounds[j + 1]), stop)
        if hi <= lo:
            continue
        if dvs[j] == 0.0:
            out[lo - start:hi - start] = v0s[j]
            continue
        t = np.arange(lo, hi, dtype=np.float64) * dt
        frac = np.clip((t - t0s[j]) / spans[j], 0.0, 1.0)
        out[lo - start:hi - start] = v0s[j] + dvs[j] * frac
    return out


def pwm_wave_numpy(levels: np.ndarray, step: float, start: int,
                   duty: float) -> tuple[np.ndarray, float]:
    """PWM waveform of samples ``start:start + levels.size``.

    ``step = pwm_frequency / sample_rate``.  The duty for each PWM period is
    latched from the level at the period's first sample (zero-order hold).
    Sample ``i`` sits at phase ``i * step`` PWM periods; it is on while the
    within-period phase is below the duty.  Computing the phase directly from
    the index keeps long traces drift-free.  ``duty`` is the duty latched by
    the period open at sample ``start - 1``; the duty latched by the period
    open at the last sample is returned with the waveform, for the next block.
    """
    n = levels.size
    if n == 0:
        return np.zeros(0, dtype=np.uint8), duty
    phase = np.arange(start, start + n, dtype=np.float64) * step
    period = np.floor(phase)
    frac = phase - period
    # period indices are non-decreasing, so run starts mark period starts
    starts = np.flatnonzero(period[1:] != period[:-1]) + 1
    # the first run continues the previous block's period unless one starts here
    if start == 0 or np.floor((start - 1) * step) != period[0]:
        duty = levels[0] / 255.0
    duties = np.concatenate(([duty], levels[starts] / 255.0))
    counts = np.diff(np.concatenate(([0], starts, [n])))
    return (frac < np.repeat(duties, counts)).astype(np.uint8), float(duties[-1])


def lowpass_numpy(x: np.ndarray, alpha: float, y0: float) -> np.ndarray:
    """First-order low-pass ``y[i] = alpha*x[i] + (1-alpha)*y[i-1]``, y[-1]=y0."""
    if x.size == 0:
        return np.zeros(0, dtype=np.float64)
    beta = 1.0 - alpha
    # direct-form II transposed with this b/a is the identical recurrence
    y, _ = lfilter([alpha], [1.0, alpha - 1.0], x, zi=np.array([beta * y0]))
    return y


def square_wave_numpy(freq: np.ndarray, sample_rate: float,
                      phi: float) -> tuple[np.ndarray, float]:
    """Square wave from an instantaneous-frequency trace via phase accumulation.

    Accumulates ``phi += freq[i] / sample_rate`` from the phase ``phi`` of
    the previous sample and toggles the output each time the phase crosses a
    half-integer; from phase 0 the wave starts low.  Returns the wave and the
    phase at its last sample.
    """
    if freq.size == 0:
        return np.zeros(0, dtype=np.uint8), phi
    steps = freq / sample_rate
    # cumsum adds left to right, so folding phi into the first step is the
    # same sum as carrying it through a single pass
    steps[0] += phi
    phase = np.cumsum(steps)
    return (np.floor(2.0 * phase).astype(np.int64) & 1).astype(np.uint8), float(phase[-1])


# ---------------------------------------------------------------------------
# numba implementations (same arithmetic, fused into single passes)

if _HAVE_NUMBA:

    @njit(cache=True)
    def level_fill_numba(bounds, t0s, spans, v0s, dvs, dt, start, stop):
        out = np.empty(stop - start, dtype=np.float64)
        for j in range(t0s.size):
            lo, hi = max(bounds[j], start), min(bounds[j + 1], stop)
            if dvs[j] == 0.0:
                for i in range(lo, hi):
                    out[i - start] = v0s[j]
                continue
            for i in range(lo, hi):
                frac = (i * dt - t0s[j]) / spans[j]
                if frac < 0.0:
                    frac = 0.0
                elif frac > 1.0:
                    frac = 1.0
                out[i - start] = v0s[j] + dvs[j] * frac
        return out

    @njit(cache=True)
    def pwm_wave_numba(levels, step, start, duty):
        n = levels.size
        out = np.zeros(n, dtype=np.uint8)
        current_period = np.floor((start - 1) * step) if start > 0 else -1.0
        for i in range(n):
            phase = (start + i) * step
            period = np.floor(phase)
            if period != current_period:
                current_period = period
                duty = levels[i] / 255.0
            if phase - period < duty:
                out[i] = 1
        return out, duty

    @njit(cache=True)
    def lowpass_numba(x, alpha, y0):
        n = x.size
        out = np.empty(n, dtype=np.float64)
        beta = 1.0 - alpha
        z = beta * y0
        for i in range(n):
            y = alpha * x[i] + z
            out[i] = y
            z = beta * y
        return out

    @njit(cache=True)
    def square_wave_numba(freq, sample_rate, phi):
        n = freq.size
        out = np.empty(n, dtype=np.uint8)
        for i in range(n):
            phi += freq[i] / sample_rate
            out[i] = np.uint8(np.int64(np.floor(2.0 * phi)) & 1)
        return out, phi

    level_fill = level_fill_numba
    pwm_wave = pwm_wave_numba
    lowpass = lowpass_numba
    square_wave = square_wave_numba
else:
    level_fill_numba = None
    pwm_wave_numba = None
    lowpass_numba = None
    square_wave_numba = None

    level_fill = level_fill_numpy
    pwm_wave = pwm_wave_numpy
    lowpass = lowpass_numpy
    square_wave = square_wave_numpy
