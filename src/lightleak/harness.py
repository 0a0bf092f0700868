"""End-to-end pipeline, metrics, and Monte-Carlo parameter sweeps.

``transmit`` frames the payload into a rate-limited brightness schedule;
``receive_all`` tracks a sensor stream with ``(tail, window_length, hop)``
receivers, calibrates from the preamble, classifies symbols and decodes,
and ``receive`` is its one-receiver case.  ``run_end_to_end`` joins the two
through ``channel.link_blocks`` with one tail, block by block.  Knowing the
link's config, it and ``sweep`` give each STFT receiver the gate D that
config allows (`_gate`): the receiver sums each gate of D samples before
its STFT (see `dsp.track_all`); a trace read without its config is tracked
at the full rate.  The CLI uses the same pieces, so the file pipeline and
the in-memory one cannot drift apart.  Everything is deterministic given
the config seed.

``sweep`` repeats that over one swept parameter with independent trial seeds,
reporting mean bit error rate and calibration-failure rate per point.  It
shares work across the values: values that leave the transmit half alone
(level, PWM and the noise draw) render it once per trial, each distinct
config among them is one tail of that render, and one ``receive_all`` over
that render decodes every value with a receiver on its tail.
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import bulb, channel, codec, dsp
from .bulb import CommandSchedule
from .codec import DecodeReport
from .config import ChannelConfig, SymbolAlphabet
from .errors import CalibrationError, ConfigError, DomainError, LightLeakError

DEFAULT_WINDOW_LENGTH = 4096
#: quiet delimiter time prepended/appended, in symbol periods
LEAD_IN_SYMBOLS = 2
TAIL_SYMBOLS = 2
#: the fewest points a gated STFT window keeps (see `_gate`)
_GATED_WINDOW_MIN = 256

SWEEPABLE_PARAMETERS = ("noise_sigma", "distance", "window_length",
                        "symbol_period", "max_command_rate")


@dataclass(frozen=True)
class RunResult:
    """One end-to-end transmission, decoded."""

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
        if not isinstance(self.trials, numbers.Integral) or self.trials < 1:
            raise ConfigError(f"trials must be an integer >= 1, got {self.trials!r}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral)
                or self.seed < 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if len(self.payload) > codec.MAX_PAYLOAD:
            raise ConfigError(f"payload must be <= {codec.MAX_PAYLOAD} bytes, "
                              f"got {len(self.payload)}")
        object.__setattr__(self, "values", tuple(self.values))
        for value in self.values:
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ConfigError(f"sweep values must be finite numbers, got {value!r}")
            if self.parameter == "window_length" and value != int(value):
                raise ConfigError(f"window_length values must be integers, got {value!r}")


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


def check_symbol_timing(config: ChannelConfig, alphabet: SymbolAlphabet,
                        window_length: int, stacklevel: int = 2) -> None:
    """Validate command-rate compliance; warn when fades crowd the slots.

    ``stacklevel`` counts as in `warnings.warn`, from this function: the
    default 2 names the caller's line; `run_end_to_end` passes 3 so that the
    warning names the line that called it.
    """
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
            stacklevel=stacklevel)


def check_receiver(window_length: int, hop: int | None, tracker: str) -> int:
    """Validate the receiver settings and return the hop, defaulting to half a window.

    Runs before anything is rendered or read, so a bad window length or hop
    is a `ConfigError` rather than a failure at the track stage.
    """
    if tracker not in dsp.TRACKERS:
        raise ConfigError(f"unknown tracker {tracker!r}")
    if hop is None and isinstance(window_length, numbers.Integral):
        hop = window_length // 2  # else `check_framing` refuses the window first
    try:
        dsp.check_framing(window_length, hop)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    return hop


def _gate(config: ChannelConfig, window_length: int, hop: int, tracker: str) -> int:
    """The gate D of a receiver on ``config``'s link (see `dsp.track_all`).

    The STFT tracker's D is the largest power of two that divides the window
    length and the hop, keeps at least `_GATED_WINDOW_MIN` points a window,
    and keeps the gated rate's Nyquist frequency, ``sample_rate / (2*D)``,
    at least 1.5 times the sensor's top tone (`channel.sensor_top_frequency`),
    up to the longest gate `dsp` sums; 1 if no D above 1 does.  The
    zero-crossing tracker counts edges of the square wave itself, so its D
    is 1.
    """
    if tracker != "stft":
        return 1
    limit = min(hop & -hop, window_length // _GATED_WINDOW_MIN, dsp.GATE_MAX,
                config.sample_rate / (3.0 * channel.sensor_top_frequency(config)))
    gate = 1
    while 2 * gate <= limit:
        gate *= 2
    return gate


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


def receive_all(sensor, alphabet: SymbolAlphabet, receivers: list,
                tracker: str = "stft", reference: bytes | None = None,
                sample_rate: float | None = None) -> list:
    """Decode one sensor stream with several receivers, fed in lockstep.

    ``sensor`` is a SensorTrace, or a `channel.link_blocks` stream at
    ``sample_rate``; it is read once, and every step goes to every receiver.
    ``receivers`` lists ``(tail, window_length, hop)`` triples whose window
    and hop passed `check_receiver`, each with the gate `_gate` gives it as
    a fourth element where the stream is a link's; a trace is tail 0 (see
    `dsp.track_all`).  ``reference``, when given, is the sent payload the bit
    error rate is measured against.  Returns one outcome per receiver, in
    receiver order: its `DecodeReport`, or the `LightLeakError` it failed
    with, carrying the failing stage in ``.stage`` and no traceback, so a
    kept outcome pins no receiver state.  An error of the stream itself is
    raised, not returned.
    """
    with _stage("track"):
        tracks = dsp.track_all(sensor, receivers, tracker, sample_rate)
    return [_outcome(track, alphabet, tracker, reference) for track in tracks]


def _outcome(track, alphabet: SymbolAlphabet, tracker: str,
             reference: bytes | None) -> DecodeReport | LightLeakError:
    """`_decode`, or the error it failed with, its traceback dropped."""
    try:
        return _decode(track, alphabet, tracker, reference)
    except LightLeakError as exc:
        return exc.with_traceback(None)


def _decode(track, alphabet: SymbolAlphabet, tracker: str,
            reference: bytes | None) -> DecodeReport:
    """One receiver's report from its track, or the error its track ended with."""
    with _stage("track"):
        if isinstance(track, DomainError):
            raise track
    with _stage("calibrate"):
        calibration = codec.calibrate(track, alphabet)
    with _stage("classify"):
        bits, confidences = codec.classify_symbols(
            track, calibration, alphabet, confidence_floor=dsp.TRACKERS[tracker][1])
    with _stage("decode"):
        report = codec.decode_frame(bits, reference=reference, confidences=confidences)
    return replace(report, calibration=calibration)


def receive(sensor, alphabet: SymbolAlphabet,
            window_length: int = DEFAULT_WINDOW_LENGTH, hop: int | None = None,
            tracker: str = "stft", reference: bytes | None = None,
            sample_rate: float | None = None) -> DecodeReport:
    """Track, calibrate, classify and decode a sensor trace: `receive_all`
    with one receiver, on tail 0.

    Takes the same ``sensor`` and ``reference`` as `receive_all`.  Raises the
    failing stage's error, tagged with ``.stage``.
    """
    hop = check_receiver(window_length, hop, tracker)
    return _receive_one(sensor, alphabet, (0, window_length, hop), tracker, reference,
                        sample_rate)


def _receive_one(sensor, alphabet: SymbolAlphabet, receiver: tuple, tracker: str,
                 reference: bytes | None, sample_rate: float | None) -> DecodeReport:
    """`receive_all` with the one ``receiver``; raises its error."""
    outcome, = receive_all(sensor, alphabet, [receiver], tracker, reference, sample_rate)
    if isinstance(outcome, LightLeakError):
        raise outcome
    return outcome


def _link(configs: list[ChannelConfig], alphabet: SymbolAlphabet, payload: bytes):
    """Transmit ``payload`` and start the sensor stream of each config, which
    share their transmit half; returns `channel.link_blocks` and the duration."""
    schedule, duration = transmit(configs[0], alphabet, payload)
    with _stage("render"):
        return channel.link_blocks(schedule, configs, duration), duration


def run_end_to_end(config: ChannelConfig, alphabet: SymbolAlphabet, payload: bytes,
                   window_length: int = DEFAULT_WINDOW_LENGTH,
                   hop: int | None = None, tracker: str = "stft") -> RunResult:
    """Transmit ``payload`` over the simulated link and decode it back.

    The sensor blocks go straight from the channel into the receiver, so
    memory stays flat however long the transmission is.  Raises the failing
    stage's error (tagged with ``.stage``) rather than returning garbage
    bits; a calibration failure therefore surfaces as `CalibrationError`,
    not as a bogus decode.
    """
    hop = check_receiver(window_length, hop, tracker)
    check_symbol_timing(config, alphabet, window_length, stacklevel=3)
    started = time.perf_counter()
    steps, duration = _link([config], alphabet, payload)
    receiver = (0, window_length, hop, _gate(config, window_length, hop, tracker))
    report = _receive_one(steps, alphabet, receiver, tracker, payload, config.sample_rate)
    return RunResult(
        payload=payload,
        report=report,
        simulated_duration=duration,
        wall_time=time.perf_counter() - started,
        samples_processed=bulb.sample_count(config, duration),
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

    The tracker, and the window unless it is the swept parameter, are
    checked first; a bad one raises `ConfigError`.  Each value's receiver
    and symbol timing are checked once, before anything is rendered; a value
    that fails them counts every trial as a decode error.  The values are
    grouped by the transmit half they leave,
    ``(channel.source_key(config), alphabet)``, and each group renders that
    half once per trial (`channel.link_blocks`): each distinct config in the
    group becomes one tail of the render, and each value one ``(tail,
    window_length, hop)`` receiver of one `receive_all` over it.  So a
    ``noise_sigma`` or ``distance`` sweep renders level, PWM and noise once
    per trial for all its values, and a ``window_length`` sweep is one tail
    with one receiver per window.  A trial that fails calibration (or any
    later decode stage) counts as a completely lost transmission: its bit
    error rate is 1.  Failed outcomes are kept without their traceback.
    Rows come back ordered by parameter value.
    """
    window = DEFAULT_WINDOW_LENGTH if spec.parameter == "window_length" else spec.window_length
    check_receiver(window, None, spec.tracker)
    values = sorted(spec.values)
    outcomes = [[] for _ in values]
    # (source key, alphabet) -> ({config: tail}, [value index], [(tail, window, hop, gate)])
    links: dict = {}
    for i, value in enumerate(values):
        config, alphabet, window = _apply_parameter(spec, value)
        try:
            hop = check_receiver(window, None, spec.tracker)
            check_symbol_timing(config, alphabet, window)
        except LightLeakError as exc:
            outcomes[i] = [exc.with_traceback(None)] * spec.trials
            continue
        tails, indices, receivers = links.setdefault(
            (channel.source_key(config), alphabet), ({}, [], []))
        indices.append(i)
        receivers.append((tails.setdefault(config, len(tails)), window, hop,
                          _gate(config, window, hop, spec.tracker)))
    for (_, alphabet), (tails, indices, receivers) in links.items():
        for trial in range(spec.trials):
            configs = [config.replace(rng_seed=spec.seed + trial) for config in tails]
            try:
                steps, _ = _link(configs, alphabet, spec.payload)
                results = receive_all(steps, alphabet, receivers, spec.tracker,
                                      reference=spec.payload,
                                      sample_rate=configs[0].sample_rate)
            except LightLeakError as exc:
                results = [exc.with_traceback(None)] * len(receivers)
            for i, result in zip(indices, results):
                outcomes[i].append(result)
    return [_point(value, trials) for value, trials in zip(values, outcomes)]


def _point(value, outcomes: list) -> SweepPoint:
    """Aggregate one value's trials; a failed trial has bit error rate 1."""
    failed = [o for o in outcomes if isinstance(o, LightLeakError)]
    calibration_failures = sum(isinstance(o, CalibrationError) for o in failed)
    return SweepPoint(
        value=float(value),
        mean_ber=float(np.mean([1.0 if isinstance(o, LightLeakError) else o.ber
                                for o in outcomes])),
        calibration_failure_rate=calibration_failures / len(outcomes),
        trials=len(outcomes),
        decode_errors=len(failed) - calibration_failures,
    )


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
