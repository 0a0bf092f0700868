"""Precision of the sensor model against an extended-precision reference.

Renders the light of a 2-byte criterion-5 link (payload ``AB``, no noise),
runs the package's sensor on it (`lightleak.sensor_response`, which runs
`_kernels.sensor_wave` over the trace's phase segments) at each point of a
grid of sensor time constants and full scales, and compares the wave, sample
by sample, with `reference_wave`: the same two recurrences, the low-pass and
the phase, in ``np.longdouble``.  Prints one row per grid point: the samples
that differ and the rising edges of both waves.  Numpy and the standard
library only, besides the package itself::

    python3 tools/sensor_precision.py

At a time constant of 0 the light takes two values and each step of the
phase is an exact multiple of a float, so the phase lands exactly on
half-integers and rounding decides those ties, in the reference too.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

#: (time constant s, full scale Hz, dark Hz) of each grid point, in table order
GRID = tuple((tau, full, dark) for tau in (0.0, 20e-6, 1e-3, 10e-3)
             for full, dark in ((800e3, 0.0), (100e3, 5e3)))

#: samples a chunk of the reference's scan holds
CHUNK = 4096


def reference_wave(light: np.ndarray, tau: float, sample_rate: float, full_scale: float,
                   dark: float) -> np.ndarray:
    """The sensor's wave for ``light``, both recurrences in ``np.longdouble``.

    The low-pass ``y[i] = (1-b)*x[i] + b*y[i-1]`` (``b = exp(-1/(tau*rate))``,
    ``y[-1] = x[0]``) runs as a scan over chunks of ``CHUNK`` samples: every
    chunk from rest at once, then each chunk's start carried forward with
    ``b**(k+1)``.  The phase ``dark/rate + full_scale/rate * y`` is summed
    within each chunk from the fraction the previous chunk ended at, so no
    partial sum exceeds one chunk's worth of cycles.  The wave is high
    while the phase's fraction is at least 1/2.
    """
    ld = np.longdouble
    n, rate = light.size, ld(sample_rate)
    pole = np.exp(ld(-1) / (ld(tau) * rate)) if tau > 0 else ld(0)
    chunks = -(-n // CHUNK)
    x = np.full(chunks * CHUNK, light[-1], dtype=ld)
    x[:n] = light
    x = x.reshape(chunks, CHUNK)
    rest = np.empty_like(x)
    y = np.zeros(chunks, dtype=ld)
    for k in range(CHUNK):
        y = (1 - pole) * x[:, k] + pole * y
        rest[:, k] = y
    powers = pole ** np.arange(1, CHUNK + 1, dtype=ld)
    starts = np.empty(chunks, dtype=ld)
    y = ld(light[0])
    for j in range(chunks):
        starts[j] = y
        y = rest[j, -1] + powers[-1] * y
    filtered = rest + powers * starts[:, None]
    phase = np.cumsum((ld(dark) + ld(full_scale) * filtered) / rate, axis=1)
    begin = np.empty(chunks, dtype=ld)
    cycles = ld(0)
    for j in range(chunks):
        begin[j] = cycles
        cycles += phase[j, -1]
        cycles -= np.floor(cycles)
    phase += begin[:, None]
    frac = phase - np.floor(phase)
    return (frac >= 0.5).reshape(-1)[:n].view(np.uint8)


def rising_edges(wave: np.ndarray) -> int:
    """Samples where the wave goes from low to high."""
    return int(np.count_nonzero(wave[1:] > wave[:-1]))


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import lightleak as ll
    from lightleak import bulb, channel, harness

    config = ll.ChannelConfig(noise_sigma=0.0, fade_duration=0.002,
                              sensor_time_constant=0.001, max_command_rate=200.0)
    alphabet = ll.SymbolAlphabet(symbol_period=0.005)
    schedule, duration = harness.transmit(config, alphabet, b"AB")
    pwm = bulb.render_pwm(bulb.render_level_trace(schedule, config, duration), config)
    light = channel.propagate(pwm, config)
    print(f"{light.values.size} samples of light, 2-byte link")
    print(f"{'tau s':>8} {'full Hz':>8} {'dark Hz':>8} {'differ':>7} {'edges':>7} {'ref edges':>9}")
    for tau, full, dark in GRID:
        point = config.replace(sensor_time_constant=tau, sensor_full_scale_frequency=full,
                               sensor_dark_frequency=dark)
        wave = ll.sensor_response(light, point).values
        ref = reference_wave(light.values, tau, point.sample_rate, full, dark)
        print(f"{tau:8g} {full:8g} {dark:8g} {np.count_nonzero(wave != ref):7d} "
              f"{rising_edges(wave):7d} {rising_edges(ref):9d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
