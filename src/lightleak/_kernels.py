"""Hot per-sample kernels, vectorised with numpy and scipy.

The four inner loops that dominate runtime at 10 MS/s all live here:

* ``level_fill``  -- sample a piecewise-linear fade profile at given samples,
* ``pwm_wave``    -- render a PWM on/off waveform from the level at period starts,
* ``lowpass``     -- first-order low-pass (photodiode integration),
* ``square_wave`` -- phase-accumulating oscillator (light-to-frequency output).

The kernels render one block of a longer trace at a time.  ``level_fill``
and ``pwm_wave`` take absolute sample indices, and ``pwm_wave``, ``lowpass``
and ``square_wave`` take the state the previous block ended in (latched
duty, filter output, oscillator phase); ``pwm_wave`` and ``square_wave``
return their end state with the block.  Rendering a trace block by block
therefore gives the same bits as one pass over it.
"""

from __future__ import annotations

import numpy as np

#: the kernel implementation, recorded with benchmark results
BACKEND = "numpy"


def level_fill(bounds: np.ndarray, times: np.ndarray, levels: np.ndarray, dt: float,
               idx: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Level at the ascending sample indices ``idx`` of a uniform grid.

    The level runs linearly from knot ``j`` (``levels[j]`` at ``times[j]``)
    to knot ``j+1`` and holds its value past the last knot; line ``j`` owns
    samples ``bounds[j]:bounds[j+1]``, and its ramp fraction is clamped to
    [0, 1].  Sample ``i`` sits at ``i * dt`` whatever block it is read in.
    The levels go to ``out`` (a new float64 array if None), which may be
    ``idx`` itself.
    """
    if out is None:
        out = np.empty(idx.size, dtype=np.float64)
    cuts = np.searchsorted(idx, bounds)  # line j owns idx[cuts[j]:cuts[j+1]]
    for j in np.flatnonzero(cuts[1:] > cuts[:-1]):
        lo, hi = cuts[j], cuts[j + 1]
        if j + 1 == times.size or levels[j + 1] == levels[j]:
            out[lo:hi] = levels[j]
            continue
        t = idx[lo:hi] * dt
        frac = np.clip((t - times[j]) / (times[j + 1] - times[j]), 0.0, 1.0)
        out[lo:hi] = levels[j] + (levels[j + 1] - levels[j]) * frac
    return out


def pwm_wave(level_at, step: float, start: int, stop: int,
             duty: float) -> tuple[np.ndarray, float]:
    """PWM waveform of samples ``start:stop``.

    ``step = pwm_frequency / sample_rate``.  The duty for each PWM period is
    latched from the level at the period's first sample (zero-order hold);
    ``level_at(idx)`` gives the levels at ascending absolute sample indices
    and is asked, once per call, only for the period starts.  Sample ``i``
    sits at phase ``i * step`` PWM periods; it is on while the within-period
    phase is below the duty.  Computing the phase directly from the index
    keeps long traces drift-free.  ``duty`` is the duty latched by the period
    open at sample ``start - 1``; the duty latched by the period open at the
    last sample is returned with the waveform, for the next block.
    """
    n = stop - start
    if n == 0:
        return np.zeros(0, dtype=np.uint8), duty
    phase = np.arange(start, stop, dtype=np.float64) * step
    period = np.floor(phase)
    frac = phase - period
    # period indices are non-decreasing, so run starts mark period starts
    runs = np.concatenate(([0], np.flatnonzero(period[1:] != period[:-1]) + 1))
    # the first run continues the previous block's period, and keeps its duty,
    # unless one starts here
    carried = int(start > 0 and np.floor((start - 1) * step) == period[0])
    duties = np.concatenate(([duty] * carried, level_at(start + runs[carried:]) / 255.0))
    counts = np.diff(np.append(runs, n))
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
    # the phase is non-negative, so its fraction is exact: high in each cycle's second half
    return (phase - np.floor(phase) >= 0.5).view(np.uint8), float(phase[-1])
