"""Bulb model: duty cycle, rate limiting, fading, level and PWM rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightleak import (
    BrightnessCommand,
    ChannelConfig,
    CommandSchedule,
    apply_rate_limit,
    duty_cycle,
    fade_profile,
    render_level_trace,
    render_pwm,
)
from lightleak.bulb import _GAP_SLACK
from lightleak.errors import ConfigError, DomainError
from lightleak.traces import LevelTrace


class TestDutyCycle:
    def test_level_one_is_one_255th(self):
        assert duty_cycle(1) == 1 / 255
        assert f"{duty_cycle(1) * 100:.3g}" == "0.392"

    def test_endpoints(self):
        assert duty_cycle(0) == 0.0
        assert duty_cycle(255) == 1.0

    @pytest.mark.parametrize("bad", [-1, 256, 1000])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(DomainError):
            duty_cycle(bad)

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            duty_cycle(1.5)

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(DomainError):
            duty_cycle(10 ** 400)

    def test_monotone_with_exact_step(self):
        duties = np.array([duty_cycle(k) for k in range(256)])
        steps = np.diff(duties)
        assert np.all(steps > 0)
        assert np.allclose(steps, 1 / 255, rtol=0, atol=1e-15)


class TestCommands:
    def test_command_validation(self):
        with pytest.raises(DomainError):
            BrightnessCommand(-0.5, 10)
        with pytest.raises(DomainError):
            BrightnessCommand(float("inf"), 10)
        with pytest.raises(DomainError):
            BrightnessCommand(0.0, 300)

    def test_schedule_requires_increasing_times(self):
        with pytest.raises(DomainError):
            CommandSchedule.from_pairs([(0.0, 10), (0.0, 20)], 0)
        with pytest.raises(DomainError):
            CommandSchedule.from_pairs([(1.0, 10), (0.5, 20)], 0)


class TestRateLimit:
    def test_push_back(self):
        sched = CommandSchedule.from_pairs([(0.0, 1), (0.05, 2), (0.2, 3)], 0)
        limited, delay = apply_rate_limit(sched, 10.0)
        times = [c.at_time for c in limited.commands]
        assert times == [0.0, 0.1, 0.2]
        assert delay == pytest.approx(0.05)
        assert [c.level for c in limited.commands] == [1, 2, 3]

    def test_compliant_schedule_unchanged(self):
        sched = CommandSchedule.from_pairs([(0.0, 1), (1.0, 2), (2.0, 3)], 0)
        limited, delay = apply_rate_limit(sched, 10.0)
        assert delay == 0.0
        assert limited == sched

    def test_empty_schedule(self):
        sched = CommandSchedule((), 5)
        limited, delay = apply_rate_limit(sched, 10.0)
        assert limited == sched
        assert delay == 0.0

    def test_min_gap_and_idempotence(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            times = np.sort(rng.uniform(0, 1, size=12))
            times += np.arange(12) * 1e-6  # ensure strictly increasing
            sched = CommandSchedule.from_pairs(
                [(float(t), int(lv)) for t, lv in zip(times, rng.integers(0, 256, 12))], 0)
            max_rate = float(rng.uniform(5, 50))
            once, _ = apply_rate_limit(sched, max_rate)
            gaps = np.diff([c.at_time for c in once.commands])
            assert np.all(gaps >= 1.0 / max_rate * (1 - 1e-9))
            twice, delay2 = apply_rate_limit(once, max_rate)
            assert twice == once
            assert delay2 == 0.0

    def test_bad_rate(self):
        with pytest.raises(DomainError):
            apply_rate_limit(CommandSchedule((), 0), 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
                    unique=True, max_size=30).map(sorted),
           st.lists(st.integers(0, 255), min_size=30, max_size=30),
           st.floats(min_value=0.1, max_value=1e4))
    def test_properties(self, times, levels, max_rate):
        sched = CommandSchedule.from_pairs(zip(times, levels), 7)
        limited, delay = apply_rate_limit(sched, max_rate)
        before, after = sched.commands, limited.commands
        # order and count kept, nothing moved earlier
        assert [c.level for c in after] == [c.level for c in before]
        assert limited.initial_level == sched.initial_level
        assert all(a.at_time >= b.at_time for a, b in zip(after, before))
        assert delay >= 0.0
        # every gap at least 1/max_rate, up to the relative slack
        min_gap = 1.0 / max_rate
        assert all(later.at_time >= earlier.at_time + min_gap - min_gap * _GAP_SLACK
                   for earlier, later in zip(after, after[1:]))
        assert apply_rate_limit(limited, max_rate) == (limited, 0.0)


class TestFadeProfile:
    def test_midpoint(self):
        assert fade_profile(135, 140, 0.4, 0.2) == pytest.approx(137.5)

    def test_past_fade_end(self):
        assert fade_profile(140, 135, 0.4, 1.0) == 135.0

    def test_no_op_fade(self):
        for t in (0.0, 0.1, 3.0):
            assert fade_profile(100, 100, 0.4, t) == 100.0

    def test_zero_duration_switches_immediately(self):
        assert fade_profile(10, 200, 0.0, 0.0) == 200.0
        assert fade_profile(10, 200, 0.0, 5.0) == 200.0

    def test_out_of_range_levels(self):
        with pytest.raises(DomainError):
            fade_profile(-1, 100, 0.4, 0.0)
        with pytest.raises(DomainError):
            fade_profile(100, 256, 0.4, 0.0)

    def test_array_input(self):
        t = np.array([0.0, 0.2, 0.4, 0.8])
        out = fade_profile(0, 100, 0.4, t)
        assert np.allclose(out, [0.0, 50.0, 100.0, 100.0])

    @pytest.mark.parametrize("fade, t", [
        (-0.1, 0.1), (float("nan"), 0.1),
        (0.4, -0.1), (0.4, float("nan")), (0.4, np.array([0.0, np.nan, 0.2])),
    ])
    def test_negative_or_nan_fade_or_time(self, fade, t):
        with pytest.raises(DomainError, match="must be >= 0"):
            fade_profile(10, 200, fade, t)


@settings(max_examples=60, deadline=None)
@given(from_level=st.integers(0, 255), to_level=st.integers(0, 255),
       fade=st.one_of(st.just(0.0), st.floats(1e-4, 0.02)),
       sample_rate=st.floats(1_000.0, 200_000.0))
def test_fade_profile_is_the_rendered_level(from_level, to_level, fade, sample_rate):
    """At every sample time, t = 0 included, `fade_profile` reads the level
    `render_level_trace` gives the one-command schedule."""
    cfg = ChannelConfig(sample_rate=sample_rate, sensor_full_scale_frequency=sample_rate / 4,
                        fade_duration=fade)
    sched = CommandSchedule.from_pairs([(0.0, to_level)], from_level)
    trace = render_level_trace(sched, cfg, fade + 0.005)
    t = np.arange(len(trace)) * (1.0 / sample_rate)
    assert np.max(np.abs(fade_profile(from_level, to_level, fade, t) - trace.values)) <= 1e-9
    assert fade_profile(from_level, to_level, fade, 0.0) == (to_level if fade == 0.0
                                                              else from_level)


class TestRenderLevelTrace:
    CFG = ChannelConfig(sample_rate=100_000.0, pwm_frequency=1000.0,
                        sensor_full_scale_frequency=20_000.0, fade_duration=0.4)

    def test_single_fade(self):
        sched = CommandSchedule.from_pairs([(0.0, 135)], 140)
        trace = render_level_trace(sched, self.CFG, 1.0)
        fs = self.CFG.sample_rate
        assert trace.values[0] == 140.0
        assert trace.values[int(0.2 * fs)] == pytest.approx(137.5)
        assert trace.values[int(0.4 * fs)] == pytest.approx(135.0)
        assert np.all(trace.values[int(0.5 * fs):] == 135.0)
        mid = trace.values[:int(0.4 * fs)]
        assert np.all(np.diff(mid) <= 0)

    def test_empty_schedule_constant(self):
        trace = render_level_trace(CommandSchedule((), 140), self.CFG, 0.5)
        assert len(trace) == int(0.5 * self.CFG.sample_rate)
        assert np.all(trace.values == 140.0)

    def test_overlapping_fades_reanchor(self):
        # 0 -> 200 over 1 s, interrupted at t=0.5 (level 100) by a fade to 0
        cfg = self.CFG.replace(fade_duration=1.0)
        sched = CommandSchedule.from_pairs([(0.0, 200), (0.5, 0)], 0)
        trace = render_level_trace(sched, cfg, 2.0)
        fs = cfg.sample_rate
        assert trace.values[int(0.25 * fs)] == pytest.approx(50.0)
        assert trace.values[int(0.5 * fs)] == pytest.approx(100.0)
        assert trace.values[int(1.0 * fs)] == pytest.approx(50.0)
        assert trace.values[int(1.5 * fs)] == pytest.approx(0.0)
        assert np.all(trace.values[int(1.5 * fs):] == 0.0)

    def test_duration_too_short(self):
        sched = CommandSchedule.from_pairs([(0.9, 135)], 140)
        with pytest.raises(DomainError):
            render_level_trace(sched, self.CFG, 1.0)

    def test_bounds_for_monotone_fades(self):
        rng = np.random.default_rng(3)
        levels = rng.integers(50, 200, size=5)
        pairs = [(0.5 * k, int(lv)) for k, lv in enumerate(levels)]
        sched = CommandSchedule.from_pairs(pairs, 120)
        trace = render_level_trace(sched, self.CFG, 3.0)
        lo = min(120, levels.min())
        hi = max(120, levels.max())
        assert trace.values.min() >= lo
        assert trace.values.max() <= hi

    def test_deterministic(self):
        sched = CommandSchedule.from_pairs([(0.1, 10), (0.7, 250)], 128)
        a = render_level_trace(sched, self.CFG, 2.0)
        b = render_level_trace(sched, self.CFG, 2.0)
        assert np.array_equal(a.values, b.values)


def _reference_level(schedule, config, duration):
    """The level at every sample from fade segments ``(t_start, t_end,
    v_start, v_end)``, each owning the samples from its start time to the
    next one's, with a per-sample clamped ramp formula."""
    cmds, fade = schedule.commands, config.fade_duration
    cur = float(schedule.initial_level)
    segments = [(0.0, cmds[0].at_time if cmds else np.inf, cur, cur)]
    for k, cmd in enumerate(cmds):
        next_t = cmds[k + 1].at_time if k + 1 < len(cmds) else np.inf
        target = float(cmd.level)
        if fade == 0.0:
            segments.append((cmd.at_time, next_t, target, target))
            cur = target
        elif next_t < cmd.at_time + fade:
            end = cur + (target - cur) * ((next_t - cmd.at_time) / fade)
            segments.append((cmd.at_time, next_t, cur, end))
            cur = end
        else:
            segments.append((cmd.at_time, cmd.at_time + fade, cur, target))
            segments.append((cmd.at_time + fade, next_t, target, target))
            cur = target
    n = int(round(duration * config.sample_rate))
    starts = np.array([s[0] for s in segments])
    owner = np.ceil(starts * config.sample_rate).astype(np.int64)
    owner = np.clip(np.maximum.accumulate(owner), 0, n)
    owner[0] = 0
    out = np.empty(n)
    dt = 1.0 / config.sample_rate
    for i in range(n):
        t0, t1, v0, v1 = segments[np.searchsorted(owner, i, side="right") - 1]
        if v1 == v0:
            out[i] = v0
        else:
            out[i] = v0 + (v1 - v0) * min(max((i * dt - t0) / (t1 - t0), 0.0), 1.0)
    return out


@settings(max_examples=150, deadline=None)
@given(initial=st.integers(0, 255),
       fade=st.sampled_from([0.0, 0.0013, 0.002, 0.00137]),
       first=st.sampled_from([0.0, 0.0004, 0.00123]),
       # in fade units: overlapping (< 1), back to back (1) and apart (> 1)
       gaps=st.lists(st.tuples(st.sampled_from([0.3, 0.5, 1.0, 1.7, 2.5]),
                               st.integers(0, 255)), max_size=5),
       sample_rate=st.sampled_from([100_000.0, 123_457.0, 99_999.7, 250_000.0]))
def test_level_trace_matches_per_sample_reference(initial, fade, first, gaps, sample_rate):
    cfg = ChannelConfig(sample_rate=sample_rate, pwm_frequency=1000.0,
                        sensor_full_scale_frequency=20_000.0, fade_duration=fade)
    pairs, t = [], first
    for gap, level in gaps:
        pairs.append((t, level))
        t += gap * (fade or 0.001)
    sched = CommandSchedule.from_pairs(pairs, initial)
    duration = sched.last_time + fade + 0.0021
    got = render_level_trace(sched, cfg, duration).values
    assert np.array_equal(got, _reference_level(sched, cfg, duration))


class TestRenderPwm:
    CFG = ChannelConfig()  # 20 kHz PWM at 10 MS/s

    def _constant(self, level, seconds=0.01):
        n = int(seconds * self.CFG.sample_rate)
        return LevelTrace(self.CFG.sample_rate, np.full(n, float(level)))

    def test_level_zero_all_off(self):
        pwm = render_pwm(self._constant(0), self.CFG)
        assert not np.any(pwm.values)

    def test_level_255_all_on(self):
        pwm = render_pwm(self._constant(255), self.CFG)
        assert np.all(pwm.values == 1)

    def test_level_254_off_spans(self):
        # one 20 kHz period is 500 samples at 10 MS/s; duty 254/255 leaves
        # ~196 ns off, which quantises to one or two 100 ns samples
        pwm = render_pwm(self._constant(254, seconds=0.06), self.CFG)
        period = int(self.CFG.sample_rate / self.CFG.pwm_frequency)
        n_periods = len(pwm.values) // period
        assert n_periods >= 1000
        off_per_period = (1 - pwm.values[:n_periods * period]
                          ).reshape(n_periods, period).sum(axis=1)
        assert np.all(off_per_period >= 1)
        assert np.all(off_per_period <= 2)

    @pytest.mark.parametrize("level", [1, 17, 128, 200, 254])
    def test_mean_duty_within_quantisation(self, level):
        pwm = render_pwm(self._constant(level), self.CFG)
        period = int(self.CFG.sample_rate / self.CFG.pwm_frequency)
        n_periods = len(pwm.values) // period
        mean = pwm.values[:n_periods * period].mean()
        assert abs(mean - level / 255) <= 1.0 / period

    def test_resolution_guard(self):
        cfg = ChannelConfig(sample_rate=4_000_000.0, pwm_frequency=100_000.0)
        trace = LevelTrace(cfg.sample_rate, np.full(1000, 100.0))
        with pytest.raises(ConfigError):
            render_pwm(trace, cfg)

    def test_sample_rate_mismatch(self):
        trace = LevelTrace(5_000_000.0, np.full(1000, 100.0))
        with pytest.raises(ConfigError):
            render_pwm(trace, self.CFG)

    def test_deterministic(self):
        trace = self._constant(140, seconds=0.002)
        a = render_pwm(trace, self.CFG)
        b = render_pwm(trace, self.CFG)
        assert np.array_equal(a.values, b.values)
