"""Optical path and light-to-frequency sensor model.

The path applies inverse-square distance loss and a cosine incidence factor,
adds ambient light and white Gaussian noise, and clamps at zero (no negative
light).  The sensor integrates the intensity with a first-order low-pass and
drives an oscillator whose square-wave output frequency is linear in the
filtered intensity, reaching ``sensor_full_scale_frequency`` at intensity 1.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from . import _kernels, bulb, traces
from .config import ChannelConfig
from .errors import ConfigError
from .traces import IntensityTrace, PwmTrace, SensorTrace
from .bulb import CommandSchedule


def propagate(pwm: PwmTrace, config: ChannelConfig,
              rng: np.random.Generator | None = None) -> IntensityTrace:
    """Light intensity arriving at the sensor for a transmitted PWM waveform.

    Per sample: ``I = pwm * cos(angle) * (d_ref/distance)^2 + ambient + noise``
    clamped at 0.  Noise is white Gaussian drawn from ``rng``; by default a
    generator seeded with ``config.rng_seed``, so repeated calls are
    identical.  A block stream passes one generator to every block.
    """
    values = pwm.values * config.geometric_gain
    if config.ambient_intensity:
        values = values + config.ambient_intensity
    if config.noise_sigma > 0:
        if rng is None:
            rng = np.random.default_rng(config.rng_seed)
        values = values + rng.normal(0.0, config.noise_sigma, values.size)
    values = np.maximum(values, 0.0)
    return IntensityTrace(pwm.sample_rate, values)


def _oscillate(x: np.ndarray, config: ChannelConfig, y: float,
               phi: float) -> tuple[np.ndarray, float, float]:
    """Sensor output for intensities ``x``, from filter output ``y`` and phase ``phi``.

    Returns the square wave with the filter output and phase at its last
    sample, which the next block starts from.
    """
    tau = config.sensor_time_constant
    if tau > 0:
        alpha = 1.0 - math.exp(-1.0 / (tau * config.sample_rate))
    else:
        alpha = 1.0
    filtered = _kernels.lowpass(x, alpha, y)
    freq = config.sensor_dark_frequency + filtered * config.sensor_full_scale_frequency
    wave, phi = _kernels.square_wave(freq, config.sample_rate, phi)
    return wave, float(filtered[-1]), phi


def sensor_response(intensity: IntensityTrace, config: ChannelConfig) -> SensorTrace:
    """Square wave produced by the light-to-frequency sensor.

    The photodiode integrates the intensity with time constant
    ``sensor_time_constant``; the oscillator's instantaneous frequency is
    ``dark + filtered * full_scale`` and the output toggles each time the
    accumulated phase crosses a half-integer.  The filter starts in steady
    state at the first sample, so a constant input gives a constant rate.
    """
    if intensity.sample_rate != config.sample_rate:
        raise ConfigError(
            f"intensity sample rate {intensity.sample_rate} != config sample rate "
            f"{config.sample_rate}")
    x = intensity.values
    if x.size == 0:
        return SensorTrace(config.sample_rate, np.zeros(0, dtype=np.uint8))
    wave, _, _ = _oscillate(x, config, x[0], 0.0)
    return SensorTrace(config.sample_rate, wave)


def sensor_blocks(schedule: CommandSchedule, config: ChannelConfig,
                  duration: float) -> Iterator[np.ndarray]:
    """The sensor's square wave over ``[0, duration)``, one block of samples at a time.

    The transmitter-to-sensor chain (level, PWM, optical path, sensor) runs
    on blocks of ``traces.BLOCK_SAMPLES`` samples, each stage carrying its
    state across block edges: the fade segments and the PWM phase follow the
    absolute sample index, the PWM period open at the edge keeps its latched
    duty, one generator draws all the noise, and the low-pass output and the
    oscillator phase carry over.  The blocks joined are bit for bit the
    single-pass render, and no stage ever holds more than a block.

    The schedule, duration and PWM resolution are checked here, before the
    first block is rendered.
    """
    plan = bulb.level_plan(schedule, config, duration)
    step = bulb.pwm_step(config)
    return _render(plan, step, config)


def _render(plan: bulb.LevelPlan, step: float, config: ChannelConfig) -> Iterator[np.ndarray]:
    rng = np.random.default_rng(config.rng_seed) if config.noise_sigma > 0 else None
    duty, y, phi = 0.0, None, 0.0
    for start in range(0, plan.n, traces.BLOCK_SAMPLES):
        stop = min(start + traces.BLOCK_SAMPLES, plan.n)
        pwm, duty = _kernels.pwm_wave(plan.render(start, stop), step, start, duty)
        x = propagate(PwmTrace(config.sample_rate, pwm), config, rng).values
        # the filter starts in steady state at the first sample
        wave, y, phi = _oscillate(x, config, x[0] if y is None else y, phi)
        yield wave


def simulate_link(schedule: CommandSchedule, config: ChannelConfig,
                  duration: float) -> SensorTrace:
    """Full transmitter-to-sensor chain for a command schedule, as one trace."""
    blocks = sensor_blocks(schedule, config, duration)
    values = np.empty(bulb.sample_count(config, duration), dtype=np.uint8)
    start = 0
    for block in blocks:
        values[start:start + block.size] = block
        start += block.size
    return SensorTrace(config.sample_rate, values)
