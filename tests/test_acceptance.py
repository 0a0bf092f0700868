"""Acceptance suite: one test per criterion, each printing a pass line.

Scenario constants pin the regimes each criterion needs (for example the
clean duty-average sensor regime for decode round trips); every tolerance is
written out here rather than deferred to runtime calibration.
"""

import warnings

import numpy as np
import pytest

from conftest import measured_frequency

import lightleak as ll
from lightleak import cli, fileio, harness
from lightleak.traces import IntensityTrace, LevelTrace


def announce(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


# criterion 5/9 scenario: desk-scale 100 bit/s link in the clean-sensor regime
RUN_CONFIG = dict(noise_sigma=0.0, fade_duration=0.002, sensor_time_constant=0.001,
                  max_command_rate=200.0)
RUN_SYMBOL_PERIOD = 0.005
RUN_PAYLOAD = bytes(range(0x41, 0x49))  # 8 bytes


def test_criterion_1_duty_cycle_fidelity():
    duty = ll.duty_cycle(1)
    assert duty == 1 / 255
    assert f"{duty * 100:.3g}" == "0.392"
    announce(1, "duty_cycle(1) = 1/255 = 0.392 % to 3 significant figures")


def test_criterion_2_off_period_resolution():
    config = ll.ChannelConfig()  # 20 kHz PWM sampled at 10 MS/s
    period_samples = int(config.sample_rate / config.pwm_frequency)
    n_periods = 1200
    levels = LevelTrace(config.sample_rate,
                        np.full(n_periods * period_samples, 254.0))
    pwm = ll.render_pwm(levels, config)
    off_spans_ns = (1 - pwm.values).reshape(n_periods, period_samples).sum(axis=1) \
        * 1e9 / config.sample_rate
    assert np.all(np.abs(off_spans_ns - 196.0) <= 100.0)
    announce(2, f"level-254 off spans within 196 +/- 100 ns over {n_periods} periods "
                f"(min {off_spans_ns.min():.0f} ns, max {off_spans_ns.max():.0f} ns)")


def test_criterion_3_sensor_full_scale():
    config = ll.ChannelConfig()
    n = int(0.010 * config.sample_rate)
    wave = ll.sensor_response(IntensityTrace(config.sample_rate, np.ones(n)), config)
    freq = measured_frequency(wave)
    assert freq == pytest.approx(800_000.0, rel=0.005)
    announce(3, f"full-scale intensity measures {freq:.0f} Hz (800 kHz +/- 0.5 %)")


def test_criterion_4_adjacent_level_discrimination():
    # brightness 140 -> 135 -> 140 with 0.4 s fades at reference geometry,
    # slow-sensor regime so the track shows clean duty plateaus
    config = ll.ChannelConfig(noise_sigma=0.0, sensor_time_constant=0.001)
    schedule = ll.CommandSchedule.from_pairs([(0.5, 135), (1.25, 140)], 140)
    sensor = ll.simulate_link(schedule, config, 2.0)
    spec = ll.stft(sensor, 4096, 2048)
    track = ll.dominant_frequency(spec)
    expected_step = 5 * 800e3 / 255  # 15.69 kHz

    def plateau(lo, hi):
        sel = (track.frame_times >= lo) & (track.frame_times <= hi)
        return float(np.median(track.frequencies[sel]))

    f140_before, f135, f140_after = plateau(0.1, 0.45), plateau(0.95, 1.2), \
        plateau(1.7, 1.95)
    assert abs((f140_before - f135) - expected_step) < spec.bin_width
    assert abs((f140_after - f135) - expected_step) < spec.bin_width

    def block_medians(lo, hi, blocks=8):
        edges = np.linspace(lo, hi, blocks + 1)
        return np.array([
            np.median(track.frequencies[(track.frame_times >= a)
                                        & (track.frame_times < b)])
            for a, b in zip(edges, edges[1:])])

    down = block_medians(0.52, 0.88)
    up = block_medians(1.27, 1.63)
    assert np.all(np.diff(down) < 0), "fade down must be monotone"
    assert np.all(np.diff(up) > 0), "fade up must be monotone"
    for lo, hi in ((0.52, 0.88), (1.27, 1.63)):
        sel = (track.frame_times >= lo) & (track.frame_times <= hi)
        assert np.abs(np.diff(track.frequencies[sel])).max() < spec.bin_width, \
            "fades must be smooth frame to frame"
    announce(4, f"plateau separation {(f140_before - f135) / 1e3:.2f} kHz vs "
                f"15.69 kHz within one bin ({spec.bin_width:.0f} Hz), "
                f"fades smooth and monotone")


@pytest.fixture(scope="module")
def round_trip_result():
    config = ll.ChannelConfig(**RUN_CONFIG)
    alphabet = ll.SymbolAlphabet(symbol_period=RUN_SYMBOL_PERIOD)
    return ll.run_end_to_end(config, alphabet, RUN_PAYLOAD)


def test_criterion_5_end_to_end_round_trip(round_trip_result):
    result = round_trip_result
    alphabet = ll.SymbolAlphabet(symbol_period=RUN_SYMBOL_PERIOD)
    assert ll.throughput(alphabet, 200.0) == 100.0
    assert result.report.payload == RUN_PAYLOAD
    assert result.report.ber == 0.0
    assert result.report.parity_failures == 0
    assert result.wall_time < 60.0
    announce(5, f"8-byte payload at 100 bit/s decoded with ber 0 "
                f"({result.samples_processed} samples in {result.wall_time:.1f} s)")


def test_criterion_5_report_names_calibration_and_sync(round_trip_result):
    report = round_trip_result.report
    assert report.calibration.f_zero < report.calibration.f_one
    assert report.sync >= 0
    # the report file shows neither, so criterion-9 reports stay as they were
    text = fileio.format_report(report)
    assert "sync" not in text and "f_zero" not in text


def test_criterion_6_noise_degradation():
    spec = harness.SweepSpec(
        parameter="noise_sigma",
        values=(0.0, 0.002, 0.01, 0.05),
        trials=20,
        config=ll.ChannelConfig(distance=0.3, fade_duration=0.001,
                                max_command_rate=1000.0),
        alphabet=ll.SymbolAlphabet(symbol_period=0.003),
        payload=b"\xa5\x3c",
        seed=100,
    )
    points = harness.sweep(spec)
    bers = [p.mean_ber for p in points]
    assert bers == sorted(bers), f"mean ber must be non-decreasing, got {bers}"
    top = points[-1]
    assert top.mean_ber > 0.0 or top.calibration_failure_rate > 0.0
    announce(6, "mean ber non-decreasing over sigma "
                f"{[p.value for p in points]} -> {[round(b, 3) for b in bers]}, "
                f"calibration failures at sigma 0.05: "
                f"{top.calibration_failure_rate:.0%}")


def test_criterion_7_distance_window_interaction():
    # at four times the reference distance the symbol plateaus are shorter
    # than an 8192-sample window, so a smaller window must do better
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        spec = harness.SweepSpec(
            parameter="window_length",
            values=(1024, 2048, 4096, 8192),
            trials=10,
            config=ll.ChannelConfig(distance=0.4, fade_duration=0.00025,
                                    max_command_rate=4000.0, noise_sigma=0.005),
            alphabet=ll.SymbolAlphabet(level_zero=120, level_one=140,
                                       level_delimiter=130, symbol_period=0.00075),
            payload=b"\x96",
            seed=300,
        )
        points = harness.sweep(spec)
    by_window = {int(p.value): p.mean_ber for p in points}
    smaller_best = min(ber for w, ber in by_window.items() if w < 8192)
    assert smaller_best < by_window[8192], (
        f"some window below 8192 must beat it: {by_window}")
    announce(7, f"mean ber by window {by_window}; "
                f"best small window {smaller_best:.3f} < 8192's {by_window[8192]:.3f}")


def test_criterion_8_covertness_rule():
    assert ll.covertness_check(ll.SymbolAlphabet(135, 140, 137)) == "covert"
    assert ll.covertness_check(ll.SymbolAlphabet(135, 145, 140)) == "visible"
    assert ll.covertness_check(ll.SymbolAlphabet(130, 145, 137)) == "visible"
    announce(8, "separation 5 covert; separations 10 and 15 visible")


def test_criterion_9_determinism(tmp_path):
    args = ["simulate", "--payload-hex", RUN_PAYLOAD.hex(), "--seed", "0"]
    for key, value in RUN_CONFIG.items():
        args += ["--set", f"{key}={value}"]
    args += ["--set", f"symbol_period={RUN_SYMBOL_PERIOD}"]
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    assert cli.main(args + ["--out", str(first)]) == cli.EXIT_OK
    assert cli.main(args + ["--out", str(second)]) == cli.EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    announce(9, "identical seeds produce byte-identical report files")
