"""The benchmark's workloads: inputs drawn from a seed, one call, its checks.

Every workload is a closed loop: ``run.py`` makes one operation at a time
from a single process, and each operation is one call into the public API,
``harness.run_end_to_end`` or ``harness.sweep``.  Inputs come only from the
``--seed`` argument, so the same seed gives the same inputs.

Simulated statistics (BER, calibration failures, errors) and the output
digest cover the first ``stats_ops`` operations only.  That prefix is fixed
by the seed, so these figures repeat exactly however many operations fit in
the timed window.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

import lightleak as ll
from lightleak import harness
from lightleak.errors import CalibrationError


@dataclass
class Outcome:
    """What one operation did, as far as the public API shows it."""

    transmissions: int
    elapsed: float
    samples: int = 0
    ber_sum: float = 0.0
    calibration_failures: float = 0.0
    #: crashes that are not a LightLeakError, plus noiseless transmissions
    #: that did not decode the payload exactly
    errors: int = 0
    #: swept value -> (sum of per-trial BER, trials)
    by_value: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    digest: bytes = b""


class LinkClean:
    """The criterion-5 link: 8 random bytes at 100 bit/s, STFT tracker, no noise.

    Every operation sends a fresh payload, so no cache keyed on the input can
    serve a later call.  Per-sample kernels dominate; sweep-level changes
    should not move it.
    """

    name = "link_clean"
    config = ll.ChannelConfig(noise_sigma=0.0, fade_duration=0.002,
                              sensor_time_constant=0.001, max_command_rate=200.0)
    alphabet = ll.SymbolAlphabet(symbol_period=0.005)

    def __init__(self, seed: int, tiny: bool):
        self.payload_bytes = 1 if tiny else 8
        self.stats_ops = 1 if tiny else 8
        self.trace_ops = 1 if tiny else 8
        rng = random.Random(seed)
        self.warm_up_payload = rng.randbytes(self.payload_bytes)
        self._rng = rng
        self._payloads = []

    def job(self, i: int) -> bytes:
        while len(self._payloads) <= i:
            self._payloads.append(self._rng.randbytes(self.payload_bytes))
        return self._payloads[i]

    def call(self, payload: bytes):
        return harness.run_end_to_end(self.config, self.alphabet, payload)

    def warm_up(self) -> None:
        result = self.call(self.warm_up_payload)
        if result.report.payload != self.warm_up_payload or result.report.ber != 0.0:
            raise RuntimeError("warm-up transmission did not decode its payload")

    def assess(self, payload: bytes, result, elapsed: float) -> Outcome:
        out = Outcome(transmissions=1, elapsed=elapsed)
        if isinstance(result, Exception):
            out.errors = 1
            out.ber_sum = 1.0
            out.calibration_failures = float(isinstance(result, CalibrationError))
            out.problems.append(f"payload {payload.hex()}: {type(result).__name__}: {result}")
            out.digest = type(result).__name__.encode()
            return out
        report = result.report
        out.samples = result.samples_processed
        out.ber_sum = report.ber
        out.digest = report.bits.tobytes()
        if report.payload != payload or report.ber != 0.0 or report.parity_failures:
            out.errors = 1
            out.problems.append(
                f"payload {payload.hex()} decoded as "
                f"{report.payload.hex() if report.payload is not None else None} "
                f"(ber {report.ber}, parity failures {report.parity_failures})")
        return out

    def check_totals(self, outcomes: list) -> list:
        return []


class _Sweep:
    """A Monte-Carlo sweep through ``harness.sweep``, one trial per value per call.

    Each operation is one ``sweep`` call with a fresh trial seed, so the
    transmissions of one call share their transmit side but not their noise.
    """

    parameter: str
    values: tuple
    config: ll.ChannelConfig
    alphabet: ll.SymbolAlphabet
    payload: bytes
    trials = 1

    def __init__(self, seed: int, tiny: bool):
        rng = random.Random(seed)
        self._rng = rng
        self._seeds = []
        if tiny:
            self.stats_ops = self.trace_ops = 1
        # the noiseless round trip counts the samples one transmission renders
        self.samples_per_transmission = 0

    def job(self, i: int) -> harness.SweepSpec:
        while len(self._seeds) <= i:
            self._seeds.append(self._rng.randrange(2 ** 31))
        return harness.SweepSpec(
            parameter=self.parameter, values=self.values, trials=self.trials,
            config=self.config, alphabet=self.alphabet, payload=self.payload,
            seed=self._seeds[i])

    def call(self, spec: harness.SweepSpec):
        return harness.sweep(spec)

    def warm_up(self) -> None:
        # sample count does not depend on noise or window, only on framing
        result = harness.run_end_to_end(self.config.replace(noise_sigma=0.0),
                                        self.alphabet, self.payload)
        if result.report.payload != self.payload or result.report.ber != 0.0:
            raise RuntimeError("warm-up transmission did not decode its payload")
        self.samples_per_transmission = result.samples_processed

    def assess(self, spec: harness.SweepSpec, result, elapsed: float) -> Outcome:
        transmissions = len(spec.values) * spec.trials
        out = Outcome(transmissions=transmissions, elapsed=elapsed,
                      samples=transmissions * self.samples_per_transmission)
        if isinstance(result, Exception):
            # sweep absorbs LightLeakError itself, so anything here is a crash
            out.errors = transmissions
            out.ber_sum = float(transmissions)
            out.problems.append(f"sweep seed {spec.seed}: {type(result).__name__}: {result}")
            out.digest = type(result).__name__.encode()
            return out
        rows = []
        for point in result:
            out.ber_sum += point.mean_ber * point.trials
            out.calibration_failures += point.calibration_failure_rate * point.trials
            out.by_value[point.value] = (point.mean_ber * point.trials, point.trials)
            rows.append(f"{point.value!r} {point.mean_ber!r} "
                        f"{point.calibration_failure_rate!r} {point.decode_errors}")
        out.digest = "\n".join(rows).encode()
        if sorted(out.by_value) != sorted(float(v) for v in spec.values):
            out.problems.append(f"sweep seed {spec.seed}: points {sorted(out.by_value)} "
                                f"do not match values {spec.values}")
        if any(p.trials != spec.trials for p in result):
            out.problems.append(f"sweep seed {spec.seed}: wrong trial count")
        if not all(0.0 <= p.mean_ber <= 1.0 and 0.0 <= p.calibration_failure_rate <= 1.0
                   for p in result):
            out.problems.append(f"sweep seed {spec.seed}: rate outside [0, 1]")
        return out


def _mean_ber_by_value(outcomes: list) -> dict:
    sums: dict = {}
    for out in outcomes:
        for value, (ber_sum, trials) in out.by_value.items():
            s, t = sums.get(value, (0.0, 0))
            sums[value] = (s + ber_sum, t + trials)
    return {value: s / t for value, (s, t) in sorted(sums.items())}


class NoiseSweep(_Sweep):
    """The criterion-6 noise sweep.

    The transmit side (encode to pwm) is the same for every trial and value,
    so caching it or pooling trials shows here; the noise draw in
    ``channel.propagate`` is real work only here.  Sigma 0.05 takes the
    calibration-failure path.
    """

    name = "noise_sweep"
    parameter = "noise_sigma"
    values = (0.0, 0.002, 0.01, 0.05)
    config = ll.ChannelConfig(distance=0.3, fade_duration=0.001, max_command_rate=1000.0)
    alphabet = ll.SymbolAlphabet(symbol_period=0.003)
    stats_ops = 20
    trace_ops = 10

    def __init__(self, seed: int, tiny: bool):
        self.payload = b"\xa5" if tiny else b"\xa5\x3c"
        super().__init__(seed, tiny)

    def assess(self, spec, result, elapsed):
        out = super().assess(spec, result, elapsed)
        if not out.problems:
            ber_sum, trials = out.by_value[0.0]
            if ber_sum != 0.0:
                out.errors += trials
                out.problems.append(f"sweep seed {spec.seed}: noiseless point has "
                                    f"mean BER {ber_sum / trials}")
        return out

    def check_totals(self, outcomes):
        bers = list(_mean_ber_by_value(outcomes).values())
        if bers != sorted(bers):
            return [f"mean BER must not fall as noise grows, got {bers}"]
        return []


class WindowSweep(_Sweep):
    """The criterion-7 window sweep: the receiver is what gets swept.

    Small windows make up to 8x more frames per sample than large ones, so
    the per-frame tracker, the codec's segmentation and the harness's
    per-call overhead take their largest share here.
    """

    name = "window_sweep"
    parameter = "window_length"
    values = (1024, 2048, 4096, 8192)
    config = ll.ChannelConfig(distance=0.4, fade_duration=0.00025,
                              max_command_rate=4000.0, noise_sigma=0.005)
    alphabet = ll.SymbolAlphabet(level_zero=120, level_one=140, level_delimiter=130,
                                 symbol_period=0.00075)
    payload = b"\x96"
    stats_ops = 60
    trace_ops = 30

    def check_totals(self, outcomes):
        by_window = _mean_ber_by_value(outcomes)
        if not min(b for w, b in by_window.items() if w < 8192) < by_window[8192]:
            return [f"no window below 8192 beats it: {by_window}"]
        return []


WORKLOADS = {w.name: w for w in (LinkClean, NoiseSweep, WindowSweep)}


def make(name: str, seed: int, tiny: bool = False):
    """Build the named workload with inputs drawn from ``seed``."""
    return WORKLOADS[name](seed, tiny)


def digest(outcomes: list) -> str:
    """SHA-256 over the recovered outputs of ``outcomes``, in order."""
    h = hashlib.sha256()
    for out in outcomes:
        h.update(len(out.digest).to_bytes(8, "little"))
        h.update(out.digest)
    return h.hexdigest()
