"""Hot per-sample kernels, vectorised with numpy and scipy.

The three inner loops that dominate runtime at 10 MS/s all live here:

* ``level_fill``  -- sample a piecewise-linear fade profile at given samples,
* ``pwm_wave``    -- render a PWM on/off waveform from the level at period starts,
* ``sensor_wave`` -- the light-to-frequency sensor: a first-order low-pass
  (photodiode integration) driving a phase-accumulating oscillator, as one
  order-2 recurrence from light to phase.

The kernels render one block of a longer trace at a time.  ``level_fill``
and ``pwm_wave`` take absolute sample indices and carry no state;
``sensor_wave`` takes the block's first absolute index and the state the
previous block ended in, and returns its end state with the block.
Rendering a trace block by block therefore gives the same bits as one pass
over it.

``level_fill`` finds each sample's level line with one search and computes
every sample's level with the same few array operations, whatever lines
the samples fall on.  ``pwm_wave`` works per PWM period, not per sample: it
finds each period's opening and the end of its on-run from an estimate and
an exact fix-up on the phase ``i * step``, asks ``level_fill`` for the level
at the openings only, and writes the wave once, from its run lengths.
``sensor_wave`` touches every sample in one ``lfilter`` and six array
operations (centre, ramp, add, floor, subtract, compare); within a
segment of ``SEGMENT`` samples it keeps no phase but the filter's.

Each kernel returns arrays it allocated itself and writes into no array it
is given (``level_fill`` writes into ``out`` when given one), so a caller may
keep every wave.
"""

from __future__ import annotations

import math

import numpy as np

#: the kernel implementation, recorded with benchmark results
BACKEND = "numpy"

#: samples per segment of the sensor's phase grid: `sensor_wave` re-centres
#: its filter and reduces the phase to [0, 1) at multiples of this absolute
#: sample index, and nowhere else
SEGMENT = 1 << 14

#: ``i + 1`` for the ``i``-th sample of a segment, what the sensor's ramp scales
_RAMP = np.arange(1.0, SEGMENT + 1.0)


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
    # sample i is on line j where bounds[j] <= i < bounds[j+1]; past the last
    # knot the line has no span and no rise, so its level holds
    line = np.searchsorted(bounds, idx, side="right") - 1
    origin, level = times[line], levels[line]
    span = times.take(line + 1, mode="clip") - origin
    rise = levels.take(line + 1, mode="clip") - level
    out = np.multiply(idx, dt, out=out)
    out -= origin
    np.divide(out, span, out=out, where=span > 0)
    np.clip(out, 0.0, 1.0, out=out)
    out *= rise
    out += level
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


def sensor_wave(light: np.ndarray, start: int, decay: float, gain: float, dark: float,
                state: tuple | None = None) -> tuple[np.ndarray, tuple]:
    """The sensor's square wave for the light of samples ``start:start + light.size``.

    The photodiode low-passes the light, ``y[i] = (1-b)*x[i] + b*y[i-1]``
    with the pole ``b = decay`` rounded to a multiple of 2**-52, and the
    oscillator accumulates the phase ``phi[i] = phi[i-1] + dark + gain*y[i]``
    (``gain`` and ``dark`` in cycles per sample).  The wave is high while the
    phase's fraction is at least 1/2, so from phase 0 it starts low.

    Both recurrences run as one ``lfilter([gain*(1-b)], [1, -1-b, b])`` from
    light to phase.  Its poles are ``b`` and exactly 1 (on that grid
    ``1 + b`` and ``1 - b`` are exact), and it is centred to keep its
    precision: within each segment of ``SEGMENT`` absolute samples it filters
    the light minus ``m``, the low-pass output where the segment starts,
    from the phase there, and adds back the ramp ``(gain*m + dark)*(i+1)``
    that ``m`` drives.  Only where a segment ends is the phase reduced to
    [0, 1) and ``m`` read from the filter's state.

    ``state`` is what the previous block returned, or None for a low-pass
    in steady state at the first sample and phase 0.  Since the segments
    are fixed in absolute samples, any split of a trace into blocks gives
    the same bits as one pass.
    """
    if light.size == 0:
        return np.zeros(0, dtype=np.uint8), state
    # imported here: scipy.signal is most of the package's import time
    from scipy.signal import lfilter
    pole = math.ldexp(round(math.ldexp(decay, 52)), -52)
    b, a = [gain * (1.0 - pole)], [1.0, -1.0 - pole, pole]
    m, zi = (float(light[0]), np.zeros(2)) if state is None else state
    wave = np.empty(light.size, dtype=np.uint8)
    # the block's pieces, cut where a segment ends
    edges = [0, *range(-start % SEGMENT or SEGMENT, light.size, SEGMENT), light.size]
    for lo, hi in zip(edges, edges[1:]):
        at = (start + lo) % SEGMENT
        centred = np.subtract(light[lo:hi], m)
        phase, zi = lfilter(b, a, centred, zi=zi)
        last = phase[-1]
        # the ramp goes into the spent input, and the fraction into the filter's output
        total = np.multiply(_RAMP[at:at + hi - lo], gain * m + dark, out=centred)
        total += phase
        frac = np.subtract(total, np.floor(total, out=phase), out=phase)
        np.greater_equal(frac, 0.5, out=wave[lo:hi].view(bool))
        if at + hi - lo == SEGMENT:
            # the filter's first state is the last phase plus gain*b*(y - m);
            # the next segment starts from the phase's fraction, a steady state
            m = float(light[hi - 1]) if pole == 0 else m + (zi[0] - last) / (gain * pole)
            zi = np.array([1.0, -pole]) * frac[-1]
    return wave, (m, zi)
