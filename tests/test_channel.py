"""Optical path and light-to-frequency sensor model."""

import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import measured_frequency

from lightleak import (
    ChannelConfig,
    CommandSchedule,
    IntensityTrace,
    PwmTrace,
    propagate,
    sensor_response,
    simulate_link,
)
from lightleak import _kernels, bulb, channel, traces
from lightleak.errors import ConfigError, DomainError


def _all_on(config, seconds=0.001):
    n = int(seconds * config.sample_rate)
    return PwmTrace(config.sample_rate, np.ones(n, dtype=np.uint8))


class TestPropagate:
    def test_reference_geometry_unit_gain(self):
        cfg = ChannelConfig(ambient_intensity=0.0, noise_sigma=0.0)
        out = propagate(_all_on(cfg), cfg)
        assert np.all(out.values == 1.0)

    def test_inverse_square(self):
        cfg = ChannelConfig(distance=0.2, ambient_intensity=0.0, noise_sigma=0.0)
        out = propagate(_all_on(cfg), cfg)
        assert np.allclose(out.values, 0.25)
        cfg4 = cfg.replace(distance=0.4)
        out4 = propagate(_all_on(cfg4), cfg4)
        assert np.allclose(out4.values, 0.25 / 4)

    def test_angle_cosine(self):
        cfg = ChannelConfig(angle=np.pi / 3, ambient_intensity=0.0, noise_sigma=0.0)
        out = propagate(_all_on(cfg), cfg)
        assert np.allclose(out.values, 0.5)

    def test_ambient_offset(self):
        cfg = ChannelConfig(ambient_intensity=0.05, noise_sigma=0.0)
        pwm = PwmTrace(cfg.sample_rate, np.zeros(1000, dtype=np.uint8))
        out = propagate(pwm, cfg)
        assert np.allclose(out.values, 0.05)

    def test_seed_determinism(self):
        cfg = ChannelConfig(noise_sigma=0.01, rng_seed=42)
        a = propagate(_all_on(cfg), cfg)
        b = propagate(_all_on(cfg), cfg)
        assert np.array_equal(a.values, b.values)
        c = propagate(_all_on(cfg.replace(rng_seed=43)), cfg.replace(rng_seed=43))
        assert not np.array_equal(a.values, c.values)

    def test_noise_clamped_at_zero(self):
        cfg = ChannelConfig(ambient_intensity=0.0, noise_sigma=0.5, rng_seed=1)
        pwm = PwmTrace(cfg.sample_rate, np.zeros(10_000, dtype=np.uint8))
        out = propagate(pwm, cfg)
        assert out.values.min() == 0.0


# light, and the standard normals ``z`` it may scale, over 1 to 300 samples
@settings(max_examples=200, deadline=None)
@given(pwm=arrays(np.bool_, st.integers(1, 300)), distance=st.floats(0.01, 10.0),
       angle=st.floats(0.0, 1.5), ambient=st.floats(-1.0, 1.0), sigma=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(pwm=np.array([True, False, True]), distance=0.1, angle=0.0, ambient=0.0,
         sigma=0.5, seed=1)
@example(pwm=np.array([True, False, False]), distance=0.3, angle=0.2, ambient=-0.05,
         sigma=0.0, seed=2)
@example(pwm=np.array([False, True, True]), distance=0.1, angle=0.0, ambient=0.01,
         sigma=0.0, seed=3)
def test_light_is_the_per_sample_formula(pwm, distance, angle, ambient, sigma, seed):
    """`channel._light` writes ``max(pwm * gain + ambient + sigma * z, 0)`` into
    its buffer, bit for bit, whatever it skips."""
    config = ChannelConfig(distance=distance, angle=angle, ambient_intensity=ambient,
                           noise_sigma=sigma)
    pwm = pwm.view(np.uint8)
    z = np.random.default_rng(seed).standard_normal(pwm.size)
    expected = np.maximum(pwm * config.geometric_gain + ambient + sigma * z, 0.0)
    for scratch in (None, np.empty(pwm.size)):
        out = np.full(pwm.size, np.nan)
        assert channel._light(pwm, config, z.copy(), out, scratch) is out
        assert np.array_equal(out.view(np.int64), expected.view(np.int64))


class TestSensorResponse:
    def test_full_scale_frequency(self):
        # criterion oracle: toggle counting over 10 ms
        cfg = ChannelConfig()
        n = int(0.01 * cfg.sample_rate)
        intensity = IntensityTrace(cfg.sample_rate, np.ones(n))
        wave = sensor_response(intensity, cfg)
        assert measured_frequency(wave) == pytest.approx(800_000.0, rel=0.005)

    def test_dark_is_silent(self):
        cfg = ChannelConfig(sensor_dark_frequency=0.0)
        intensity = IntensityTrace(cfg.sample_rate, np.zeros(50_000))
        wave = sensor_response(intensity, cfg)
        assert np.all(wave.values == wave.values[0])

    def test_half_intensity_half_frequency(self):
        cfg = ChannelConfig()
        n = int(0.01 * cfg.sample_rate)
        intensity = IntensityTrace(cfg.sample_rate, np.full(n, 0.5))
        wave = sensor_response(intensity, cfg)
        assert abs(measured_frequency(wave) - 400_000.0) <= 1.0 / wave.duration

    def test_dark_frequency_offset(self):
        cfg = ChannelConfig(sensor_dark_frequency=50_000.0)
        n = int(0.01 * cfg.sample_rate)
        intensity = IntensityTrace(cfg.sample_rate, np.zeros(n))
        wave = sensor_response(intensity, cfg)
        assert abs(measured_frequency(wave) - 50_000.0) <= 1.0 / wave.duration

    def test_sample_rate_mismatch(self):
        cfg = ChannelConfig()
        intensity = IntensityTrace(cfg.sample_rate / 2, np.ones(1000))
        with pytest.raises(ConfigError):
            sensor_response(intensity, cfg)

    def test_slow_sensor_reports_duty_average(self):
        # sensor_time_constant >> PWM period: once settled, the output
        # frequency encodes duty * gain + ambient to within 1 %
        cfg = ChannelConfig(noise_sigma=0.0, sensor_time_constant=0.002)
        level = 140
        n = int(0.06 * cfg.sample_rate)
        from lightleak.traces import LevelTrace, SensorTrace
        levels = LevelTrace(cfg.sample_rate, np.full(n, float(level)))
        wave = sensor_response(propagate(bulb.render_pwm(levels, cfg), cfg), cfg)
        settled = SensorTrace(cfg.sample_rate,
                              wave.values[int(0.02 * cfg.sample_rate):])
        expected = ((level / 255) * cfg.geometric_gain + cfg.ambient_intensity) \
            * cfg.sensor_full_scale_frequency
        assert measured_frequency(settled) == pytest.approx(expected, rel=0.01)


def test_public_stages_leave_their_inputs_unchanged():
    config = TestBlockEdges.CONFIG
    pwm = bulb.render_pwm(bulb.render_level_trace(
        TestBlockEdges.SCHEDULE, config, TestBlockEdges.DURATION), config)
    kept = pwm.values.copy()
    light = propagate(pwm, config)
    assert np.array_equal(pwm.values, kept)
    kept = light.values.copy()
    sensor_response(light, config)
    assert np.array_equal(light.values, kept)


class TestSimulateLink:
    def test_matches_manual_composition(self):
        cfg = ChannelConfig(noise_sigma=0.002, rng_seed=11, fade_duration=0.001,
                            sensor_time_constant=0.0005)
        sched = CommandSchedule.from_pairs([(0.002, 135), (0.01, 140)], 137)
        duration = 0.02
        via_link = simulate_link(sched, cfg, duration)
        levels = bulb.render_level_trace(sched, cfg, duration)
        pwm = bulb.render_pwm(levels, cfg)
        manual = sensor_response(propagate(pwm, cfg), cfg)
        assert np.array_equal(via_link.values, manual.values)

    def test_steady_state_closed_form(self):
        from lightleak.traces import SensorTrace
        cfg = ChannelConfig(noise_sigma=0.0, distance=0.2, angle=0.3,
                            sensor_time_constant=0.002)
        sched = CommandSchedule((), 140)
        wave = simulate_link(sched, cfg, 0.06)
        settled = SensorTrace(cfg.sample_rate,
                              wave.values[int(0.02 * cfg.sample_rate):])
        expected = ((140 / 255) * cfg.geometric_gain + cfg.ambient_intensity) \
            * cfg.sensor_full_scale_frequency
        assert measured_frequency(settled) == pytest.approx(expected, rel=0.01)

    def test_level_zero_silent(self):
        cfg = ChannelConfig(noise_sigma=0.0, ambient_intensity=0.0,
                            sensor_dark_frequency=0.0)
        wave = simulate_link(CommandSchedule((), 0), cfg, 0.01)
        assert np.all(wave.values == wave.values[0])

    def test_seed_reproducibility(self):
        cfg = ChannelConfig(noise_sigma=0.005, rng_seed=99, fade_duration=0.001)
        sched = CommandSchedule.from_pairs([(0.001, 135)], 140)
        a = simulate_link(sched, cfg, 0.01)
        b = simulate_link(sched, cfg, 0.01)
        assert np.array_equal(a.values, b.values)


class TestBlockEdges:
    """The streamed render must not depend on where the block edges fall."""

    # noise on; an off-grid PWM rate and fades that overlap one another
    CONFIG = ChannelConfig(noise_sigma=0.01, rng_seed=3, fade_duration=0.0013,
                           sensor_time_constant=0.0005, pwm_frequency=19_777.0,
                           ambient_intensity=0.01)
    SCHEDULE = CommandSchedule.from_pairs([(0.0011, 135), (0.0019, 180), (0.0052, 140)], 137)
    DURATION = 0.0083

    # blocks of 500 and 501 samples are shorter than a PWM period (about 506
    # samples), so some hold no period start; a zero fade switches at once
    BLOCKS = (7919, 10_000_000, 500, 501)

    @pytest.mark.parametrize("block, fade", [(b, 0.0013) for b in BLOCKS]
                             + [(b, 0.0) for b in BLOCKS],
                             ids=[str(b) for b in BLOCKS] + [f"zero_fade-{b}" for b in BLOCKS])
    def test_sensor_trace_independent_of_block_size(self, monkeypatch, block, fade):
        cfg, sched = self.CONFIG.replace(fade_duration=fade), self.SCHEDULE
        default = simulate_link(sched, cfg, self.DURATION).values
        monkeypatch.setattr(traces, "BLOCK_SAMPLES", block)
        edges = np.arange(block, default.size, block)
        step = bulb.pwm_step(cfg)
        # some block edge splits a PWM period, and the first fade spans edges
        assert block > default.size or np.any(np.floor((edges - 1) * step)
                                              == np.floor(edges * step))
        assert block > default.size or np.count_nonzero(
            (edges > 0.0011 * cfg.sample_rate) & (edges < 0.0024 * cfg.sample_rate)) >= 1
        blocks = [block for block, in channel.link_blocks(sched, [cfg], self.DURATION)]
        assert max(b.size for b in blocks) == min(block, default.size)
        assert np.array_equal(np.concatenate(blocks), default)
        assert np.array_equal(simulate_link(sched, cfg, self.DURATION).values, default)

    def test_checks_before_the_first_block(self):
        cfg = self.CONFIG
        with pytest.raises(DomainError, match="does not cover"):
            channel.link_blocks(self.SCHEDULE, [cfg], 0.001)
        with pytest.raises(ConfigError, match="resolve the PWM"):
            channel.link_blocks(self.SCHEDULE, [cfg.replace(pwm_frequency=200_000.0)],
                                self.DURATION)


class TestLinkTails:
    """Several configs of one link: one source, one tail each."""

    CONFIG = TestBlockEdges.CONFIG
    SCHEDULE = TestBlockEdges.SCHEDULE

    @settings(max_examples=25, deadline=None)
    @given(tails=st.lists(st.tuples(st.floats(0.0, 0.5), st.floats(0.05, 1.0)),
                          min_size=1, max_size=4),
           noiseless_distance=st.floats(0.05, 1.0),
           # past the last fade (0.0065 s), and not on a block edge
           n=st.integers(65_001, 3 * traces.BLOCK_SAMPLES).filter(
               lambda n: n % traces.BLOCK_SAMPLES != 0))
    def test_each_tail_is_its_own_link(self, tails, noiseless_distance, n):
        configs = [self.CONFIG.replace(noise_sigma=sigma, distance=distance)
                   for sigma, distance in [(0.0, noiseless_distance), *tails]]
        duration = n / self.CONFIG.sample_rate
        steps = list(channel.link_blocks(self.SCHEDULE, configs, duration))
        assert all(len(step) == len(configs) for step in steps)
        pwm = bulb.render_pwm(bulb.render_level_trace(self.SCHEDULE, self.CONFIG, duration),
                              self.CONFIG)
        for k, config in enumerate(configs):
            joined = np.concatenate([step[k] for step in steps])
            assert joined.size == n
            assert np.array_equal(joined, simulate_link(self.SCHEDULE, config, duration).values)
            assert np.array_equal(joined, sensor_response(propagate(pwm, config), config).values)

    @pytest.mark.parametrize("sigmas", [(0.0,), (0.01, 0.02, 0.05)], ids=["one", "three_noisy"])
    def test_yielded_blocks_stay_as_yielded(self, sigmas):
        """Nothing a later block renders writes into a block already yielded:
        the receiver keeps blocks while the link renders on."""
        configs = [self.CONFIG.replace(noise_sigma=sigma) for sigma in sigmas]
        yielded, copies = [], []
        for step in channel.link_blocks(self.SCHEDULE, configs, TestBlockEdges.DURATION):
            yielded.append(step)
            copies.append(tuple(block.copy() for block in step))
        assert len(yielded) >= 3
        for step, copy in zip(yielded, copies):
            assert all(np.array_equal(a, b) for a, b in zip(step, copy, strict=True))

    def test_configs_must_share_the_transmit_half(self):
        with pytest.raises(ConfigError, match="differ only in"):
            channel.link_blocks(self.SCHEDULE, [self.CONFIG, self.CONFIG.replace(rng_seed=4)],
                                TestBlockEdges.DURATION)


def _noise_threads() -> list:
    return [t for t in threading.enumerate() if t.name.startswith(channel._NOISE_THREAD)]


class TestNoiseHelper:
    """A noisy link's normals are drawn on a helper thread, ahead of the tails."""

    CONFIG = TestBlockEdges.CONFIG
    SCHEDULE = TestBlockEdges.SCHEDULE
    DURATION = TestBlockEdges.DURATION
    # 11 blocks of 83 000 samples, the last shorter, so every ring below wraps
    BLOCK = 7919

    @pytest.mark.parametrize("ahead", [1, 5])
    def test_blocks_are_the_whole_trace_at_any_depth(self, monkeypatch, ahead):
        monkeypatch.setattr(channel, "_NOISE_AHEAD", ahead)
        monkeypatch.setattr(traces, "BLOCK_SAMPLES", self.BLOCK)
        configs = [self.CONFIG, self.CONFIG.replace(noise_sigma=0.05, distance=0.5)]
        steps = list(channel.link_blocks(self.SCHEDULE, configs, self.DURATION))
        assert len(steps) > ahead + 1 and 0 < steps[-1][0].size < self.BLOCK
        pwm = bulb.render_pwm(bulb.render_level_trace(self.SCHEDULE, self.CONFIG,
                                                      self.DURATION), self.CONFIG)
        for k, config in enumerate(configs):
            whole = sensor_response(propagate(pwm, config), config).values
            assert np.array_equal(np.concatenate([step[k] for step in steps]), whole)

    def test_close_joins_the_helper(self, monkeypatch):
        monkeypatch.setattr(traces, "BLOCK_SAMPLES", self.BLOCK)
        threads = threading.active_count()
        stream = channel.link_blocks(self.SCHEDULE, [self.CONFIG], self.DURATION)
        for _ in range(3):
            next(stream)
        assert len(_noise_threads()) == 1
        stream.close()
        assert not _noise_threads()
        assert threading.active_count() == threads

    def test_a_draw_error_leaves_the_stream_unchanged(self, monkeypatch):
        boom, default_rng = RuntimeError("the draw broke"), np.random.default_rng

        class Failing:  # the fourth block's draw raises
            def __init__(self, seed):
                self.rng, self.draws = default_rng(seed), 0

            def standard_normal(self, out):
                self.draws += 1
                if self.draws == 4:
                    raise boom
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(np.random, "default_rng", Failing)
        monkeypatch.setattr(traces, "BLOCK_SAMPLES", self.BLOCK)
        threads = threading.active_count()
        steps = []
        with pytest.raises(RuntimeError) as raised:
            for step in channel.link_blocks(self.SCHEDULE, [self.CONFIG], self.DURATION):
                steps.append(step)
        assert raised.value is boom
        assert len(steps) == 3
        assert not _noise_threads()
        assert threading.active_count() == threads

    def test_a_tail_error_joins_the_helper(self, monkeypatch):
        sensor_wave, calls = _kernels.sensor_wave, []

        def failing(*args):  # the third block's sensor raises
            calls.append(args)
            if len(calls) == 3:
                raise ArithmeticError("the sensor broke")
            return sensor_wave(*args)

        monkeypatch.setattr(_kernels, "sensor_wave", failing)
        monkeypatch.setattr(traces, "BLOCK_SAMPLES", self.BLOCK)
        threads = threading.active_count()
        try:
            for _ in channel.link_blocks(self.SCHEDULE, [self.CONFIG], self.DURATION):
                pass
        except ArithmeticError:  # its traceback holds every frame of the stream
            assert not _noise_threads()
            assert threading.active_count() == threads
        else:
            pytest.fail("the sensor's error was lost")

    def test_a_noiseless_link_starts_no_thread(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a noiseless link started a helper")

        monkeypatch.setattr(channel, "ThreadPoolExecutor", refused)
        monkeypatch.setattr(traces, "BLOCK_SAMPLES", self.BLOCK)
        threads = threading.active_count()
        configs = [self.CONFIG.replace(noise_sigma=0.0),
                   self.CONFIG.replace(noise_sigma=0.0, distance=0.5)]
        steps = 0
        for _ in channel.link_blocks(self.SCHEDULE, configs, self.DURATION):
            steps += 1
            assert threading.active_count() == threads
        assert steps == 11
