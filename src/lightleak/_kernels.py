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
                     v0s: np.ndarray, dvs: np.ndarray, dt: float) -> np.ndarray:
    """Sample piecewise-linear segments onto a uniform grid.

    Segment ``j`` covers samples ``bounds[j]:bounds[j+1]`` and ramps from
    ``v0s[j]`` over ``spans[j]`` seconds starting at ``t0s[j]``; the ramp
    fraction is clamped to [0, 1] so a segment holds its end value once the
    ramp completes.
    """
    n = int(bounds[-1])
    out = np.empty(n, dtype=np.float64)
    for j in range(t0s.size):
        lo, hi = int(bounds[j]), int(bounds[j + 1])
        if hi <= lo:
            continue
        if dvs[j] == 0.0:
            out[lo:hi] = v0s[j]
            continue
        t = np.arange(lo, hi, dtype=np.float64) * dt
        frac = np.clip((t - t0s[j]) / spans[j], 0.0, 1.0)
        out[lo:hi] = v0s[j] + dvs[j] * frac
    return out


def pwm_wave_numpy(levels: np.ndarray, step: float) -> np.ndarray:
    """PWM waveform from per-sample levels; ``step = pwm_frequency / sample_rate``.

    The duty for each PWM period is latched from the level at the period's
    first sample (zero-order hold).  Sample ``i`` sits at phase ``i * step``
    PWM periods; it is on while the within-period phase is below the duty.
    Computing the phase directly from the index keeps long traces drift-free.
    """
    n = levels.size
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    phase = np.arange(n, dtype=np.float64) * step
    period = np.floor(phase)
    frac = phase - period
    # period indices are non-decreasing, so run starts mark period starts
    starts = np.flatnonzero(period[1:] != period[:-1]) + 1
    starts = np.concatenate(([0], starts))
    counts = np.diff(np.append(starts, n))
    duty = np.repeat(levels[starts] / 255.0, counts)
    return (frac < duty).astype(np.uint8)


def lowpass_numpy(x: np.ndarray, alpha: float, y0: float) -> np.ndarray:
    """First-order low-pass ``y[i] = alpha*x[i] + (1-alpha)*y[i-1]``, y[-1]=y0."""
    if x.size == 0:
        return np.zeros(0, dtype=np.float64)
    beta = 1.0 - alpha
    # direct-form II transposed with this b/a is the identical recurrence
    y, _ = lfilter([alpha], [1.0, alpha - 1.0], x, zi=np.array([beta * y0]))
    return y


def square_wave_numpy(freq: np.ndarray, sample_rate: float) -> np.ndarray:
    """Square wave from an instantaneous-frequency trace via phase accumulation.

    Accumulates ``phi += freq[i] / sample_rate`` and toggles the output each
    time ``phi`` crosses a half-integer; the wave starts low.
    """
    if freq.size == 0:
        return np.zeros(0, dtype=np.uint8)
    phi = np.cumsum(freq / sample_rate)
    return (np.floor(2.0 * phi) % 2.0).astype(np.uint8)


# ---------------------------------------------------------------------------
# numba implementations (same arithmetic, fused into single passes)

if _HAVE_NUMBA:

    @njit(cache=True)
    def level_fill_numba(bounds, t0s, spans, v0s, dvs, dt):
        n = bounds[-1]
        out = np.empty(n, dtype=np.float64)
        for j in range(t0s.size):
            lo, hi = bounds[j], bounds[j + 1]
            if dvs[j] == 0.0:
                for i in range(lo, hi):
                    out[i] = v0s[j]
                continue
            for i in range(lo, hi):
                frac = (i * dt - t0s[j]) / spans[j]
                if frac < 0.0:
                    frac = 0.0
                elif frac > 1.0:
                    frac = 1.0
                out[i] = v0s[j] + dvs[j] * frac
        return out

    @njit(cache=True)
    def pwm_wave_numba(levels, step):
        n = levels.size
        out = np.zeros(n, dtype=np.uint8)
        current_period = -1.0
        duty = 0.0
        for i in range(n):
            phase = i * step
            period = np.floor(phase)
            if period != current_period:
                current_period = period
                duty = levels[i] / 255.0
            if phase - period < duty:
                out[i] = 1
        return out

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
    def square_wave_numba(freq, sample_rate):
        n = freq.size
        out = np.empty(n, dtype=np.uint8)
        phi = 0.0
        for i in range(n):
            phi += freq[i] / sample_rate
            out[i] = np.uint8(np.int64(np.floor(2.0 * phi)) & 1)
        return out

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
