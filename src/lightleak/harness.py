"""End-to-end pipeline, metrics, and Monte-Carlo parameter sweeps.

``transmit`` frames the payload into a rate-limited brightness schedule;
``receive`` tracks a sensor trace's frequency, calibrates from the preamble,
classifies symbols and decodes.  ``run_end_to_end`` joins the two through
``channel.simulate_link``.  The CLI uses the same three pieces, so the file
pipeline and the in-memory one cannot drift apart.  Everything is
deterministic given the config seed.

``sweep`` repeats that over one swept parameter with independent trial seeds,
reporting mean bit error rate and calibration-failure rate per point.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import bulb, channel, codec, dsp
from .bulb import CommandSchedule
from .codec import DecodeReport
from .config import ChannelConfig, SymbolAlphabet
from .errors import CalibrationError, ConfigError, LightLeakError
from .traces import SensorTrace

DEFAULT_WINDOW_LENGTH = 4096
#: confidence floor per tracker; zero-crossing confidences live in [0, 1]
CONFIDENCE_FLOORS = {"stft": codec.DEFAULT_CONFIDENCE_FLOOR, "zero_crossing": 0.5}
#: quiet delimiter time prepended/appended, in symbol periods
LEAD_IN_SYMBOLS = 2
TAIL_SYMBOLS = 2

SWEEPABLE_PARAMETERS = ("noise_sigma", "distance", "window_length",
                        "symbol_period", "max_command_rate")


@dataclass(frozen=True)
class RunResult:
    """One end-to-end transmission, decoded."""

    config: dict
    payload: bytes
    report: DecodeReport
    simulated_duration: float
    wall_time: float
    samples_processed: int


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter Monte-Carlo sweep."""

    parameter: str
    values: tuple
    trials: int
    config: ChannelConfig = ChannelConfig()
    alphabet: SymbolAlphabet = SymbolAlphabet()
    payload: bytes = b"\xa5"
    window_length: int = DEFAULT_WINDOW_LENGTH
    tracker: str = "stft"
    seed: int = 0

    def __post_init__(self):
        if self.parameter not in SWEEPABLE_PARAMETERS:
            raise ConfigError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"choose from {SWEEPABLE_PARAMETERS}")
        if not self.values:
            raise ConfigError("sweep needs a non-empty value list")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated outcome at one swept value."""

    value: float
    mean_ber: float
    calibration_failure_rate: float
    trials: int
    decode_errors: int


@contextmanager
def _stage(name: str):
    """Tag any simulator error raised inside with the pipeline stage name."""
    try:
        yield
    except LightLeakError as exc:
        exc.stage = name
        raise


def _snapshot(config: ChannelConfig, alphabet: SymbolAlphabet, payload: bytes,
              window_length: int, hop: int, tracker: str) -> dict:
    snap = {f: getattr(config, f) for f in config.__dataclass_fields__}
    snap.update({f: getattr(alphabet, f) for f in alphabet.__dataclass_fields__})
    snap.update(window_length=window_length, hop=hop, tracker=tracker,
                payload_hex=payload.hex())
    return snap


def check_symbol_timing(config: ChannelConfig, alphabet: SymbolAlphabet,
                        window_length: int) -> None:
    """Validate command-rate compliance; warn when fades crowd the slots."""
    if alphabet.symbol_period < 1.0 / config.max_command_rate:
        raise ConfigError(
            f"symbol_period {alphabet.symbol_period} s beats the bridge rate limit "
            f"(needs >= {1.0 / config.max_command_rate} s at "
            f"{config.max_command_rate} commands/s)")
    settle = config.fade_duration + 2.0 * window_length / config.sample_rate
    if alphabet.symbol_period < settle:
        warnings.warn(
            f"symbol_period {alphabet.symbol_period} s is shorter than the fade plus "
            f"two analysis windows ({settle:.6g} s); slots may not settle",
            stacklevel=2)


def check_receiver(window_length: int, hop: int | None, tracker: str) -> int:
    """Validate the tracker name and return the hop, defaulting to half a window."""
    if tracker not in CONFIDENCE_FLOORS:
        raise ConfigError(f"unknown tracker {tracker!r}")
    return window_length // 2 if hop is None else hop


def link_duration(schedule: CommandSchedule, config: ChannelConfig,
                  alphabet: SymbolAlphabet) -> float:
    """Simulated seconds for a schedule: last command, its fade, the quiet tail."""
    return (schedule.last_time + config.fade_duration
            + TAIL_SYMBOLS * alphabet.symbol_period)


def transmit(config: ChannelConfig, alphabet: SymbolAlphabet,
             payload: bytes) -> tuple[CommandSchedule, float]:
    """Frame ``payload`` into a rate-limited command schedule and its duration."""
    with _stage("encode"):
        bits = codec.encode_frame(payload)
    with _stage("schedule"):
        schedule = codec.bits_to_schedule(
            bits, alphabet, start_time=LEAD_IN_SYMBOLS * alphabet.symbol_period)
        schedule = bulb.apply_rate_limit(schedule, config.max_command_rate).schedule
    return schedule, link_duration(schedule, config, alphabet)


def receive(sensor: SensorTrace, alphabet: SymbolAlphabet,
            window_length: int = DEFAULT_WINDOW_LENGTH, hop: int | None = None,
            tracker: str = "stft", reference: bytes | None = None) -> DecodeReport:
    """Track, calibrate, classify and decode a sensor trace.

    ``reference``, when given, is the sent payload the bit error rate is
    measured against.  Errors carry the failing stage in ``.stage``.
    """
    hop = check_receiver(window_length, hop, tracker)
    with _stage("track"):
        if tracker == "stft":
            track = dsp.dominant_frequency(dsp.stft(sensor, window_length, hop))
        else:
            track = dsp.zero_crossing_frequency(sensor, window_length, hop)
    with _stage("calibrate"):
        calibration = codec.calibrate(track, alphabet)
    with _stage("classify"):
        bits, slots = codec.classify_symbols(track, calibration, alphabet,
                                             confidence_floor=CONFIDENCE_FLOORS[tracker])
    with _stage("decode"):
        return codec.decode_frame(bits, reference=reference,
                                  confidences=[s.confidence for s in slots])


def run_end_to_end(config: ChannelConfig, alphabet: SymbolAlphabet, payload: bytes,
                   window_length: int = DEFAULT_WINDOW_LENGTH,
                   hop: int | None = None, tracker: str = "stft") -> RunResult:
    """Transmit ``payload`` over the simulated link and decode it back.

    Raises the failing stage's error (tagged with ``.stage``) rather than
    returning garbage bits; a calibration failure therefore surfaces as
    `CalibrationError`, not as a bogus decode.
    """
    hop = check_receiver(window_length, hop, tracker)
    check_symbol_timing(config, alphabet, window_length)
    started = time.perf_counter()
    schedule, duration = transmit(config, alphabet, payload)
    with _stage("render"):
        sensor = channel.simulate_link(schedule, config, duration)
    report = receive(sensor, alphabet, window_length, hop, tracker, reference=payload)
    return RunResult(
        config=_snapshot(config, alphabet, payload, window_length, hop, tracker),
        payload=payload,
        report=report,
        simulated_duration=duration,
        wall_time=time.perf_counter() - started,
        samples_processed=len(sensor),
    )


def _apply_parameter(spec: SweepSpec, value):
    config, alphabet, window = spec.config, spec.alphabet, spec.window_length
    if spec.parameter == "window_length":
        window = int(value)
    elif spec.parameter == "symbol_period":
        alphabet = alphabet.replace(symbol_period=float(value))
    else:
        config = config.replace(**{spec.parameter: float(value)})
    return config, alphabet, window


def sweep(spec: SweepSpec) -> list[SweepPoint]:
    """Run the sweep; per-point trials use seeds ``seed + trial_index``.

    A trial that fails calibration (or any later decode stage) counts as a
    completely lost transmission: its bit error rate is 1.  Rows come back
    ordered by parameter value.
    """
    points = []
    for value in sorted(spec.values):
        config, alphabet, window = _apply_parameter(spec, value)
        bers = []
        calibration_failures = 0
        decode_errors = 0
        for trial in range(spec.trials):
            trial_config = config.replace(rng_seed=spec.seed + trial)
            try:
                result = run_end_to_end(trial_config, alphabet, spec.payload,
                                        window_length=window, tracker=spec.tracker)
                bers.append(result.report.ber)
            except CalibrationError:
                calibration_failures += 1
                bers.append(1.0)
            except LightLeakError:
                decode_errors += 1
                bers.append(1.0)
        points.append(SweepPoint(
            value=float(value),
            mean_ber=float(np.mean(bers)),
            calibration_failure_rate=calibration_failures / spec.trials,
            trials=spec.trials,
            decode_errors=decode_errors,
        ))
    return points


def format_sweep_table(spec: SweepSpec, points: list[SweepPoint]) -> str:
    """Deterministic text table for a sweep result."""
    lines = [
        f"# lightleak sweep parameter={spec.parameter} trials={spec.trials} "
        f"seed={spec.seed} payload_hex={spec.payload.hex()}",
        "# value mean_ber calibration_failure_rate decode_errors",
    ]
    for p in points:
        lines.append(f"{p.value!r} {p.mean_ber!r} {p.calibration_failure_rate!r} "
                     f"{p.decode_errors}")
    return "\n".join(lines) + "\n"
