"""Smart bulb model: commands, bridge rate limiting, fading, PWM rendering.

The bulb exposes exactly one lever to an attacker: timestamped brightness
commands with integer levels 0..255.  The bridge enforces a command rate
limit, the bulb fades smoothly between levels, and the LED driver turns the
effective level into a ~20 kHz PWM waveform whose duty cycle is level/255.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .config import ChannelConfig
from .errors import ConfigError, DomainError
from .traces import LevelTrace, PwmTrace, blocks

#: number of brightness steps above "off"
LEVEL_MAX = 255

#: minimum oversampling of the PWM carrier required for faithful rendering
PWM_RESOLUTION_FACTOR = 100.0


def _check_level(level) -> int:
    # an int is checked as is: one beyond float range cannot convert
    if isinstance(level, bool) or not (isinstance(level, (int, np.integer))
                                       or float(level).is_integer()):
        raise DomainError(f"brightness level must be an integer, got {level!r}")
    level = int(level)
    if not 0 <= level <= LEVEL_MAX:
        raise DomainError(f"brightness level must be in [0, {LEVEL_MAX}], got {level}")
    return level


def duty_cycle(level: int) -> float:
    """Fraction of each PWM period the LED is on for a brightness level.

    One level step corresponds to a 1/255 duty step (0.392 % per level).
    """
    return _check_level(level) / LEVEL_MAX


@dataclass(frozen=True)
class BrightnessCommand:
    """A single brightness-change command sent through the bridge."""

    at_time: float
    level: int

    def __post_init__(self):
        object.__setattr__(self, "level", _check_level(self.level))
        t = float(self.at_time)
        if not np.isfinite(t) or t < 0:
            raise DomainError(f"command time must be finite and >= 0, got {self.at_time!r}")
        object.__setattr__(self, "at_time", t)


@dataclass(frozen=True)
class CommandSchedule:
    """An ordered sequence of brightness commands plus the level before the first."""

    commands: tuple[BrightnessCommand, ...]
    initial_level: int

    def __post_init__(self):
        object.__setattr__(self, "commands", tuple(self.commands))
        object.__setattr__(self, "initial_level", _check_level(self.initial_level))
        times = [c.at_time for c in self.commands]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError("command times must be strictly increasing")

    @classmethod
    def from_pairs(cls, pairs, initial_level: int) -> "CommandSchedule":
        """Build a schedule from (time, level) pairs."""
        return cls(tuple(BrightnessCommand(t, lv) for t, lv in pairs), initial_level)

    def __len__(self):
        return len(self.commands)

    @property
    def last_time(self) -> float:
        return self.commands[-1].at_time if self.commands else 0.0


class RateLimited(NamedTuple):
    schedule: CommandSchedule
    total_delay: float


#: relative slack when checking inter-command gaps, absorbs float rounding in
#: schedules built from multiples of the symbol period
_GAP_SLACK = 1e-9


def apply_rate_limit(schedule: CommandSchedule, max_rate: float) -> RateLimited:
    """Enforce the bridge command rate limit by pushing late commands back.

    Commands closer than ``1/max_rate`` to their predecessor are delayed just
    enough to restore the minimum gap (order preserved, nothing dropped).
    Returns the adjusted schedule and the total delay added.
    """
    if max_rate <= 0:
        raise DomainError(f"max_rate must be > 0, got {max_rate}")
    min_gap = 1.0 / max_rate
    slack = min_gap * _GAP_SLACK
    out = []
    total_delay = 0.0
    prev = -np.inf
    for cmd in schedule.commands:
        t = cmd.at_time
        if t < prev + min_gap - slack:
            t = prev + min_gap
            total_delay += t - cmd.at_time
            out.append(BrightnessCommand(t, cmd.level))
        else:
            out.append(cmd)
        prev = t
    return RateLimited(CommandSchedule(tuple(out), schedule.initial_level), total_delay)


def _fade_knots(schedule: CommandSchedule, fade_duration: float):
    """Knot times and levels of the piecewise-linear level of a schedule.

    The level runs linearly between knots and holds past the last one.  Each
    command adds a knot at its own time, at the level the bulb is at, and
    one where its ramp toward its target ends or the next command cuts it
    short (re-anchoring when fades overlap); a zero fade is two knots at one
    time.
    """
    times, levels = [0.0], [float(schedule.initial_level)]
    cmds = schedule.commands
    for k, cmd in enumerate(cmds):
        cur_v, target = levels[-1], float(cmd.level)
        times.append(cmd.at_time)
        levels.append(cur_v)
        fade_end = cmd.at_time + fade_duration
        next_t = cmds[k + 1].at_time if k + 1 < len(cmds) else np.inf
        if next_t < fade_end:
            times.append(next_t)
            levels.append(cur_v + (target - cur_v) * ((next_t - cmd.at_time) / fade_duration))
        else:
            times.append(fade_end)
            levels.append(target)
    return np.array(times), np.array(levels)


def check_duration(schedule: CommandSchedule, config: ChannelConfig,
                   duration: float) -> None:
    """Reject a duration that is not finite and positive, or ends before the
    last fade does."""
    if not 0 < duration < np.inf:
        raise DomainError(f"duration must be finite and > 0, got {duration}")
    if schedule.commands:
        need = schedule.last_time + config.fade_duration
        if duration < need:
            raise DomainError(
                f"duration {duration} s does not cover the last command plus its "
                f"fade ({need} s)")


def sample_count(config: ChannelConfig, duration: float) -> int:
    """Samples in ``[0, duration)`` at the configured sample rate."""
    return int(round(duration * config.sample_rate))


class LevelPlan(NamedTuple):
    """The level knots of a schedule (see `_fade_knots`) on the grid of an
    ``n``-sample render, the line from knot ``j`` owning samples
    ``bounds[j]:bounds[j+1]``."""

    n: int
    bounds: np.ndarray
    times: np.ndarray
    levels: np.ndarray
    dt: float

    def at(self, idx: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Effective level at ascending sample indices (see `_kernels.level_fill`)."""
        return _kernels.level_fill(self.bounds, self.times, self.levels, self.dt, idx, out)


def level_plan(schedule: CommandSchedule, config: ChannelConfig,
               duration: float) -> LevelPlan:
    """Lay the schedule's fades onto the sample grid of ``[0, duration)``.

    The level before the first command is ``schedule.initial_level``; each
    command starts a linear fade (``config.fade_duration``) from the current
    level toward its target.  Overlapping fades re-anchor at the interpolated
    level.  Nothing is rendered here: the plan gives the level at the
    samples asked for.  A grid of more than 2**53 samples is refused.
    """
    check_duration(schedule, config, duration)
    samples = duration * config.sample_rate
    if not samples <= 2 ** 53:  # past it, float64 sample times and PWM phases are not exact
        raise ConfigError(f"a trace of {samples:.17g} samples is more than 2**53, past "
                          "which sample times are not exact")
    n = sample_count(config, duration)
    times, levels = _fade_knots(schedule, config.fade_duration)
    # the line from knot j owns samples with times[j] <= i*dt < times[j+1]
    bounds = np.ceil(times * config.sample_rate).astype(np.int64)
    bounds = np.clip(np.maximum.accumulate(bounds), 0, n)
    bounds = np.append(bounds, n)
    bounds[0] = 0
    return LevelPlan(n, bounds, times, levels, 1.0 / config.sample_rate)


def render_level_trace(schedule: CommandSchedule, config: ChannelConfig,
                       duration: float) -> LevelTrace:
    """Sample the effective brightness level over ``[0, duration)`` (see `level_plan`)."""
    plan = level_plan(schedule, config, duration)
    # the sample indices are overwritten by their levels, a block at a time
    # so that the fill's temporaries stay block-sized: one array in all
    values = np.arange(plan.n, dtype=np.float64)
    for block in blocks(values):
        plan.at(block, out=block)
    return LevelTrace(config.sample_rate, values)


def pwm_step(config: ChannelConfig) -> float:
    """PWM periods per sample, once the sample rate is checked to resolve them.

    Requires the sample rate to oversample the PWM carrier by at least
    ``PWM_RESOLUTION_FACTOR``.
    """
    if config.sample_rate < PWM_RESOLUTION_FACTOR * config.pwm_frequency:
        raise ConfigError(
            f"sample_rate must be >= {PWM_RESOLUTION_FACTOR:g} x pwm_frequency to "
            f"resolve the PWM waveform ({config.sample_rate} < "
            f"{PWM_RESOLUTION_FACTOR * config.pwm_frequency})")
    return config.pwm_frequency / config.sample_rate


def render_pwm(levels: LevelTrace, config: ChannelConfig) -> PwmTrace:
    """Render the LED on/off waveform for a level trace.

    The duty of each PWM period is latched from the level at the period start
    (zero-order hold).  Period boundaries are derived from the sample index,
    so long renders accumulate no phase drift.
    """
    if levels.sample_rate != config.sample_rate:
        raise ConfigError(
            f"level trace sample rate {levels.sample_rate} != config sample rate "
            f"{config.sample_rate}")
    wave = _kernels.pwm_wave(levels.values.__getitem__, pwm_step(config), 0, len(levels))
    return PwmTrace(config.sample_rate, wave)
