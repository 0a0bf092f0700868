"""Hot per-sample kernels, vectorised with numpy and scipy.

The four inner loops that dominate runtime at 10 MS/s all live here:

* ``level_fill``  -- sample a piecewise-linear fade profile at given samples,
* ``pwm_wave``    -- render a PWM on/off waveform from the level at period starts,
* ``lowpass``     -- first-order low-pass (photodiode integration),
* ``square_wave`` -- phase-accumulating oscillator (light-to-frequency output).

The kernels render one block of a longer trace at a time.  ``level_fill``
and ``pwm_wave`` take absolute sample indices and carry no state, and
``lowpass`` and ``square_wave`` take the state the previous block ended in
(filter output, oscillator phase); ``square_wave`` returns its end phase
with the block.  Rendering a trace block by block therefore gives the same
bits as one pass over it.

``pwm_wave`` works per PWM period, not per sample: it finds each period's
opening and the end of its on-run from an estimate and an exact fix-up on
the phase ``i * step``, asks ``level_fill`` for the level at the openings
only, and writes the wave once, from its run lengths.  The sensor's two
kernels touch every sample: ``lowpass`` once (the ``lfilter`` recurrence),
``square_wave`` five times (divide, ``cumsum``, floor, subtract, compare).
These two recurrences have no faster form with the same bits.

Each kernel returns arrays it allocated itself and writes into no array it
is given (``level_fill`` writes into ``out`` when given one): the waves are
new uint8 arrays, ``lowpass`` returns the array ``lfilter`` made, and
``square_wave`` keeps its steps and phase in two arrays of its own.  So a
caller may overwrite what ``lowpass`` returns, and may keep every wave.
"""

from __future__ import annotations

import math

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


def pwm_wave(level_at, step: float, start: int, stop: int) -> np.ndarray:
    """PWM waveform of samples ``start:stop``.

    ``step = pwm_frequency / sample_rate``.  Sample ``i`` sits at phase
    ``i * step`` PWM periods, computed from the index so long traces do not
    drift.  Period ``p`` opens at the first sample whose phase reaches ``p``
    and latches its duty from the level there (zero-order hold); a sample is
    on while its within-period phase is below its period's duty.
    ``level_at(idx)`` gives the levels at ascending absolute sample indices
    and is asked, once per call, only for openings: those in the block and
    that of the period open at ``start``, which may lie before it.  So no
    state crosses a block edge, and no sample before ``start`` is rendered.
    """
    if stop == start:
        return np.zeros(0, dtype=np.uint8)
    periods = np.arange(math.floor(start * step), math.floor((stop - 1) * step) + 1,
                        dtype=np.float64)
    # period p opens at the first sample whose phase reaches p: the first
    # period at or before start, the others inside the block
    opens = _reach(step, periods, 0.0).astype(np.int64)
    duties = level_at(opens) / 255.0
    # a period's part of the block is on until its within-period phase, exact
    # as ``i * step - p``, reaches its duty, and off from there
    edges = np.empty(2 * periods.size + 1, dtype=np.int64)
    edges[0], edges[2:-1:2], edges[-1] = start, opens[1:], stop
    edges[1::2] = np.clip(_reach(step, periods, duties), edges[0:-1:2], edges[2::2])
    on_off = np.ones(2 * periods.size, dtype=np.uint8)
    on_off[1::2] = 0
    return np.repeat(on_off, edges[1:] - edges[:-1])


def _reach(step: float, p: np.ndarray, t) -> np.ndarray:
    """Elementwise, the first sample ``i`` with ``i * step - p >= t``.

    The phase ``i * step`` never falls as ``i`` grows, so the estimate
    ``ceil((p + t) / step)`` is fixed up one sample at a time on that test.
    Sample indices are whole numbers below 2**53, exact in float64.
    """
    i = np.ceil((p + t) / step)
    while np.count_nonzero(back := (i - 1.0) * step - p >= t):
        i -= back
    while np.count_nonzero(ahead := i * step - p < t):
        i += ahead
    return i


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
    # the phase is non-negative, so its fraction is exact: high in each
    # cycle's second half; the steps are spent, and hold it
    frac = np.subtract(phase, np.floor(phase, out=steps), out=steps)
    return (frac >= 0.5).view(np.uint8), float(phase[-1])
