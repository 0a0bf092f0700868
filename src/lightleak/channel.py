"""Optical path and light-to-frequency sensor model.

The path applies inverse-square distance loss and a cosine incidence factor,
adds ambient light and white Gaussian noise, and clamps at zero (no negative
light).  The sensor integrates the intensity with a first-order low-pass and
drives an oscillator whose square-wave output frequency is linear in the
filtered intensity, reaching ``sensor_full_scale_frequency`` at intensity 1.

The link is streamed (`link_blocks`): one source renders the PWM waveform
(from the level at period starts) and one noise draw, and feeds them to one
tail per config, the optical path and the sensor, so configs that differ
only in tail fields share the source.  Each step yields one block per tail; a single link is the
one-tail case, and `simulate_link` joins its blocks into one trace.

The tails of a link take turns with one light buffer and one for the scaled
noise draw, both allocated with the first block.  A tail writes its light
there (the 0/1 waveform takes two values, computed once), the low-pass
reads it into an array of its own, and the frequency mapping overwrites
that array in place.  Only each tail's square wave is new at every block,
since the receiver keeps the blocks it is handed.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterator, Sequence

import numpy as np

from . import _kernels, bulb, traces
from .config import ChannelConfig
from .errors import ConfigError
from .traces import IntensityTrace, PwmTrace, SensorTrace
from .bulb import CommandSchedule


#: the ChannelConfig fields that only the optical path and the sensor read;
#: configs that differ in nothing else share one transmit half
TAIL_FIELDS = ("distance", "angle", "ambient_intensity", "noise_sigma",
               "sensor_full_scale_frequency", "sensor_dark_frequency",
               "sensor_time_constant")


def source_key(config: ChannelConfig) -> tuple:
    """The config with its tail fields left out: equal keys, equal transmit halves."""
    return tuple((f.name, getattr(config, f.name)) for f in dataclasses.fields(config)
                 if f.name not in TAIL_FIELDS)


def _light(pwm: np.ndarray, config: ChannelConfig, z: np.ndarray | None,
           out: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """``pwm * gain + ambient + noise_sigma * z``, clamped at 0, into ``out``.

    The 0/1 waveform takes two values before the noise, so each is computed
    once.  ``z`` is unread without noise; with it, ``scratch`` (a new array
    if None) takes ``noise_sigma * z``.
    """
    off, on = 0.0 * config.geometric_gain, 1.0 * config.geometric_gain
    if config.ambient_intensity:
        off, on = off + config.ambient_intensity, on + config.ambient_intensity
    np.copyto(out, off)
    np.copyto(out, on, where=pwm.view(bool))
    if config.noise_sigma > 0:
        out += np.multiply(z, config.noise_sigma, out=scratch)
    elif off >= 0 and on >= 0:
        return out  # the clamp cannot act
    return np.maximum(out, 0.0, out=out)


def propagate(pwm: PwmTrace, config: ChannelConfig) -> IntensityTrace:
    """Light intensity arriving at the sensor for a transmitted PWM waveform.

    Per sample: ``I = pwm * cos(angle) * (d_ref/distance)^2 + ambient + noise``
    clamped at 0.  The noise is ``noise_sigma`` times standard normals drawn
    from ``config.rng_seed``, so repeated calls are identical.  The streamed
    link applies the same formula to each block.
    """
    z = None
    if config.noise_sigma > 0:
        z = np.random.default_rng(config.rng_seed).standard_normal(pwm.values.size)
    light = _light(pwm.values, config, z, np.empty(pwm.values.size), scratch=z)
    return IntensityTrace(pwm.sample_rate, light)


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
    freq = _kernels.lowpass(x, alpha, y)
    y = float(freq[-1])
    # dark + filtered * full_scale, in the array the filter returned
    np.multiply(freq, config.sensor_full_scale_frequency, out=freq)
    freq += config.sensor_dark_frequency
    wave, phi = _kernels.square_wave(freq, config.sample_rate, phi)
    return wave, y, phi


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


def link_blocks(schedule: CommandSchedule, configs: Sequence[ChannelConfig],
                duration: float) -> Iterator[tuple[np.ndarray, ...]]:
    """The sensor square waves of several configs of one link, a block of each per step.

    Each step is a tuple of one block per config, in config order.  The
    configs must agree on every field outside `TAIL_FIELDS`.  One source
    renders what those fields fix: the PWM waveform, reading the level plan
    at period starts only, and one standard-normal draw from ``rng_seed``
    (only if some config has noise).
    One tail per config turns them into light (`propagate`'s formula, its
    ``noise_sigma`` scaling the shared draw) and runs its sensor.  So a noise
    or distance sweep renders the transmit half once for all its values.

    Both halves run on blocks of ``traces.BLOCK_SAMPLES`` samples and carry
    their state across block edges: the level knots and the PWM phase
    follow the absolute sample index (PWM period ``p`` latches its duty at
    the first sample whose phase reaches ``p``, which a block that starts
    inside the period finds from its index), one generator draws all the
    noise, and each tail's low-pass output and oscillator phase carry over.
    Each tail's blocks joined are bit for bit its single-pass render, and no
    stage holds more than a block.  The schedule, duration and PWM
    resolution are checked here, before the first block is rendered.
    """
    configs = tuple(configs)
    if len({source_key(config) for config in configs}) != 1:
        raise ConfigError("the configs of one link must differ only in "
                          f"{', '.join(TAIL_FIELDS)}")
    first = configs[0]
    plan = bulb.level_plan(schedule, first, duration)
    step = bulb.pwm_step(first)
    noisy = any(config.noise_sigma > 0 for config in configs)
    rng = np.random.default_rng(first.rng_seed) if noisy else None
    return _tails(_source(plan, step, rng), configs)


def _source(plan: bulb.LevelPlan, step: float,
            rng: np.random.Generator | None) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """The transmit half: each block's PWM waveform and standard normals (None without noise)."""
    for start in range(0, plan.n, traces.BLOCK_SAMPLES):
        stop = min(start + traces.BLOCK_SAMPLES, plan.n)
        pwm = _kernels.pwm_wave(plan.at, step, start, stop)
        yield pwm, None if rng is None else rng.standard_normal(stop - start)


def _tails(source, configs: tuple[ChannelConfig, ...]) -> Iterator[tuple[np.ndarray, ...]]:
    """Each config's optical path and sensor over the source blocks, in lockstep."""
    # (filter output, oscillator phase) per tail; the filter starts in
    # steady state at the first sample
    carry = [(None, 0.0)] * len(configs)
    light = scaled = None
    for pwm, z in source:
        if light is None:  # the first block is the longest
            light, scaled = np.empty(pwm.size), np.empty(pwm.size)
        waves = []
        for k, config in enumerate(configs):
            x = _light(pwm, config, z, light[:pwm.size], scaled[:pwm.size])
            y, phi = carry[k]
            wave, y, phi = _oscillate(x, config, x[0] if y is None else y, phi)
            carry[k] = (y, phi)
            waves.append(wave)
        yield tuple(waves)


def simulate_link(schedule: CommandSchedule, config: ChannelConfig,
                  duration: float) -> SensorTrace:
    """Full transmitter-to-sensor chain for a command schedule, as one trace."""
    blocks = link_blocks(schedule, [config], duration)
    n = bulb.sample_count(config, duration)
    try:
        values = np.empty(n, dtype=np.uint8)
    except (MemoryError, ValueError):  # numpy refuses a size it cannot address
        raise ConfigError(f"a trace of {n} samples does not fit in memory") from None
    start = 0
    for block, in blocks:
        values[start:start + block.size] = block
        start += block.size
    return SensorTrace(config.sample_rate, values)
