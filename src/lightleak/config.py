"""Link configuration: physical channel parameters and the symbol alphabet.

``ChannelConfig`` collects every physical and protocol parameter of the
simulated link; ``SymbolAlphabet`` holds the brightness levels and timing used
to carry bits.  Both are immutable so they can be shared freely across
threads and sweep trials.

Configs can be loaded from a flat ``key = value`` text file (``#`` comments
allowed).  Keys mirror the dataclass field names; unknown keys are rejected so
typos do not silently fall back to defaults.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

from .errors import ConfigError

#: distance at which the optical path has unit gain (metres)
REFERENCE_DISTANCE = 0.1


@dataclass(frozen=True)
class ChannelConfig:
    """All physical and protocol parameters of the simulated link."""

    pwm_frequency: float = 20_000.0
    sample_rate: float = 10_000_000.0
    sensor_full_scale_frequency: float = 800_000.0
    sensor_dark_frequency: float = 0.0
    sensor_time_constant: float = 20e-6
    distance: float = 0.1
    angle: float = 0.0
    ambient_intensity: float = 0.01
    noise_sigma: float = 0.002
    fade_duration: float = 0.4
    max_command_rate: float = 10.0
    rng_seed: int = 0

    def __post_init__(self):
        # NaN passes every range check below, so finiteness comes first
        for field in dataclasses.fields(self):
            if field.type == "float" and not math.isfinite(getattr(self, field.name)):
                raise ConfigError(
                    f"{field.name} must be a finite number, got {getattr(self, field.name)}")
        if (isinstance(self.rng_seed, bool) or not isinstance(self.rng_seed, numbers.Integral)
                or self.rng_seed < 0):
            raise ConfigError(f"rng_seed must be an integer >= 0, got {self.rng_seed!r}")
        for name in ("pwm_frequency", "sample_rate", "sensor_full_scale_frequency",
                     "max_command_rate"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.sample_rate < 4.0 * self.sensor_full_scale_frequency:
            raise ConfigError(
                "sample_rate must be at least 4x sensor_full_scale_frequency "
                f"({self.sample_rate} < 4 x {self.sensor_full_scale_frequency})")
        if not 0.0 <= self.angle < math.pi / 2:
            raise ConfigError(f"angle must lie in [0, pi/2), got {self.angle}")
        if self.distance <= 0:
            raise ConfigError(f"distance must be > 0, got {self.distance}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.sensor_dark_frequency < 0:
            raise ConfigError("sensor_dark_frequency must be >= 0")
        if self.sensor_time_constant < 0:
            raise ConfigError("sensor_time_constant must be >= 0")
        if self.fade_duration < 0:
            raise ConfigError("fade_duration must be >= 0")

    def replace(self, **changes) -> "ChannelConfig":
        """Return a copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    @property
    def geometric_gain(self) -> float:
        """Optical gain relative to the reference geometry: cos(angle)/(d/d_ref)^2."""
        return math.cos(self.angle) * (REFERENCE_DISTANCE / self.distance) ** 2


@dataclass(frozen=True)
class SymbolAlphabet:
    """Brightness levels for 0/1/delimiter plus the per-command symbol period.

    A logical one is the higher brightness level; the delimiter sits strictly
    between the two and is sent after every data bit to mark slot boundaries.
    """

    level_zero: int = 135
    level_one: int = 140
    level_delimiter: int = 137
    symbol_period: float = 1.0

    def __post_init__(self):
        for name in ("level_zero", "level_one", "level_delimiter"):
            v = getattr(self, name)
            if not (isinstance(v, int) and 0 <= v <= 255):
                raise ConfigError(f"{name} must be an integer in [0, 255], got {v!r}")
        if not self.level_zero < self.level_delimiter < self.level_one:
            raise ConfigError(
                "levels must satisfy level_zero < level_delimiter < level_one, got "
                f"{self.level_zero}/{self.level_delimiter}/{self.level_one}")
        # an infinite period stays valid as the never-sending limit (zero
        # throughput); config files reject it, as every non-finite number
        if not self.symbol_period > 0:
            raise ConfigError(f"symbol_period must be > 0, got {self.symbol_period}")

    def replace(self, **changes) -> "SymbolAlphabet":
        return dataclasses.replace(self, **changes)

    @property
    def separation(self) -> int:
        return self.level_one - self.level_zero


_CHANNEL_FIELDS = {f.name for f in dataclasses.fields(ChannelConfig)}
_ALPHABET_FIELDS = {f.name for f in dataclasses.fields(SymbolAlphabet)}
#: extra flat-file keys owned by the receiver/harness rather than the dataclasses
_EXTRA_FIELDS = {"window_length", "hop", "tracker"}
_INT_FIELDS = {"rng_seed", "level_zero", "level_one", "level_delimiter",
               "window_length", "hop"}


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` config text into a dict of typed values."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CHANNEL_FIELDS | _ALPHABET_FIELDS | _EXTRA_FIELDS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key == "tracker":
            values[key] = val
        elif key in _INT_FIELDS:
            try:
                values[key] = int(val)
            except ValueError:
                raise ConfigError(f"config line {lineno}: {key} needs an integer, got {val!r}")
        else:
            try:
                values[key] = float(val)
            except ValueError:
                raise ConfigError(f"config line {lineno}: {key} needs a number, got {val!r}")
            if not math.isfinite(values[key]):
                raise ConfigError(
                    f"config line {lineno}: {key} needs a finite number, got {val!r}")
    return values


def read_config_file(path) -> dict:
    """Read a flat key/value config file.  See `parse_config_text`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason} "
                              f"at byte {exc.start}") from None
    return parse_config_text(text)


def build_from_values(values: dict) -> tuple[ChannelConfig, SymbolAlphabet, dict]:
    """Split a flat value dict into (ChannelConfig, SymbolAlphabet, extras)."""
    chan = {k: v for k, v in values.items() if k in _CHANNEL_FIELDS}
    alph = {k: v for k, v in values.items() if k in _ALPHABET_FIELDS}
    extra = {k: v for k, v in values.items() if k in _EXTRA_FIELDS}
    return ChannelConfig(**chan), SymbolAlphabet(**alph), extra
