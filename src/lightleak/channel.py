"""Optical path and light-to-frequency sensor model.

The path applies inverse-square distance loss and a cosine incidence factor,
adds ambient light and white Gaussian noise, and clamps at zero (no negative
light).  The sensor integrates the intensity with a first-order low-pass and
drives an oscillator whose square-wave output frequency is linear in the
filtered intensity, reaching ``sensor_full_scale_frequency`` at intensity 1.
The low-pass and the oscillator's phase run as one recurrence from light to
phase (`_kernels.sensor_wave`), on phase segments fixed in absolute samples.

The link is streamed (`link_blocks`): one source renders the PWM waveform
(from the level at period starts, `PWM_BLOCKS` blocks per kernel call) and
one noise draw, and feeds them a block at a time to one tail per config,
the optical path and the sensor, so configs that differ only in tail fields
share the source.  Each step yields one block per tail; a single link is the
one-tail case, and `simulate_link` joins its blocks into one trace.

The tails of a link take turns with one light buffer and one for the scaled
noise draw, both allocated with the first block.  A tail writes its light
there (the 0/1 waveform takes two values, computed once), and the sensor
kernel (`_kernels.sensor_wave`) reads it into arrays of its own.  Each
tail's square wave is new at every block, since the receiver keeps the
blocks it is handed.
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

#: blocks of PWM waveform the source renders per `_kernels.pwm_wave` call.
#: That kernel's work is per call and per PWM period more than per sample:
#: at one call per block, its Python and small-array steps were most of its
#: time, and what a busy host slowed most (twice as slow in the slowest
#: quarter of criterion-5 transmissions).  Eight blocks of the one-byte
#: waveform are 256 KiB.
PWM_BLOCKS = 8


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


def _sensor(config: ChannelConfig) -> tuple[float, float, float]:
    """The sensor's constants for `_kernels.sensor_wave`: the low-pass decay
    per sample, and the full-scale and dark frequencies in cycles per sample."""
    tau, rate = config.sensor_time_constant, config.sample_rate
    return (math.exp(-1.0 / (tau * rate)) if tau > 0 else 0.0,
            config.sensor_full_scale_frequency / rate, config.sensor_dark_frequency / rate)


def sensor_top_frequency(config: ChannelConfig) -> float:
    """The highest tone the sensor is expected to make on ``config``'s link, in Hz.

    ``dark + full_scale * (geometric_gain + ambient + 4 * noise_sigma)``: the
    oscillator's frequency in the light of a fully lit PWM period, four
    noise sigmas above its mean.
    """
    return config.sensor_dark_frequency + config.sensor_full_scale_frequency * (
        config.geometric_gain + config.ambient_intensity + 4.0 * config.noise_sigma)


def sensor_response(intensity: IntensityTrace, config: ChannelConfig) -> SensorTrace:
    """Square wave produced by the light-to-frequency sensor.

    The photodiode integrates the intensity with time constant
    ``sensor_time_constant``; the oscillator's instantaneous frequency is
    ``dark + filtered * full_scale`` and the output toggles each time the
    accumulated phase crosses a half-integer.  The filter starts in steady
    state at the first sample, so a constant input gives a constant rate.
    The whole trace runs on the kernel's grid of phase segments, as the
    streamed link does, so the two give the same bits.
    """
    if intensity.sample_rate != config.sample_rate:
        raise ConfigError(
            f"intensity sample rate {intensity.sample_rate} != config sample rate "
            f"{config.sample_rate}")
    wave, _ = _kernels.sensor_wave(intensity.values, 0, *_sensor(config))
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
    noise, and each tail's sensor state carries over (its phase segments
    follow the absolute sample index too).
    Each tail's blocks joined are bit for bit its single-pass render, and no
    stage holds more than a block, but for the PWM waveform, which is
    rendered `PWM_BLOCKS` blocks at a time.  The schedule, duration and PWM
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
    span = PWM_BLOCKS * traces.BLOCK_SAMPLES
    for start in range(0, plan.n, span):
        pwm = _kernels.pwm_wave(plan.at, step, start, min(start + span, plan.n))
        # a span starts on a block edge, so its blocks are the stream's
        for block in traces.blocks(pwm):
            yield block, None if rng is None else rng.standard_normal(block.size)


def _tails(source, configs: tuple[ChannelConfig, ...]) -> Iterator[tuple[np.ndarray, ...]]:
    """Each config's optical path and sensor over the source blocks, in lockstep."""
    # the sensor state per tail; None starts its filter in steady state at
    # the first sample
    states = [None] * len(configs)
    light = scaled = None
    start = 0
    for pwm, z in source:
        if light is None:  # the first block is the longest
            light, scaled = np.empty(pwm.size), np.empty(pwm.size)
        waves = []
        for k, config in enumerate(configs):
            x = _light(pwm, config, z, light[:pwm.size], scaled[:pwm.size])
            wave, states[k] = _kernels.sensor_wave(x, start, *_sensor(config), states[k])
            waves.append(wave)
        start += pwm.size
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
