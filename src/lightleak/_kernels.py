"""Hot per-sample kernels, vectorised with numpy and scipy.

The four inner loops that dominate runtime at 10 MS/s all live here:

* ``level_fill``  -- sample a piecewise-linear fade profile,
* ``pwm_wave``    -- render a PWM on/off waveform from a level trace,
* ``lowpass``     -- first-order low-pass (photodiode integration),
* ``square_wave`` -- phase-accumulating oscillator (light-to-frequency output).

The kernels render one block of a longer trace at a time.  ``level_fill`` and
``pwm_wave`` take the absolute index of the block's first sample, and
``pwm_wave``, ``lowpass`` and ``square_wave`` take the state the previous
block ended in (latched duty, filter output, oscillator phase); ``pwm_wave``
and ``square_wave`` return their end state with the block.  Rendering a
trace block by block therefore gives the same bits as one pass over it.
"""

from __future__ import annotations

import numpy as np

#: the kernel implementation, recorded with benchmark results
BACKEND = "numpy"


def level_fill(bounds: np.ndarray, t0s: np.ndarray, spans: np.ndarray,
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


def pwm_wave(levels: np.ndarray, step: float, start: int,
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


def lowpass(x: np.ndarray, alpha: float, y0: float) -> np.ndarray:
    """First-order low-pass ``y[i] = alpha*x[i] + (1-alpha)*y[i-1]``, y[-1]=y0."""
    if x.size == 0:
        return np.zeros(0, dtype=np.float64)
    # imported here: scipy.signal is most of the package's import time
    from scipy.signal import lfilter
    beta = 1.0 - alpha
    # direct-form II transposed with this b/a is the identical recurrence
    y, _ = lfilter([alpha], [1.0, alpha - 1.0], x, zi=np.array([beta * y0]))
    return y


def square_wave(freq: np.ndarray, sample_rate: float,
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
