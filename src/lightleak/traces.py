"""Uniformly sampled signal containers used along the simulated link.

All traces wrap a numpy array plus its sample rate.  They are treated as
immutable: operations always build new traces and never mutate values in
place, which keeps renders deterministic and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


@dataclass(frozen=True, eq=False)
class _Trace:
    """Shared body: values stored contiguously as ``_dtype``, then range-checked."""

    sample_rate: float
    values: np.ndarray = field(repr=False)

    #: float64 traces carry analog values; uint8 traces are binary waveforms.
    #: A plain class attribute, not a field, so it stays out of the dataclass.
    _dtype = np.float64

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=self._dtype))
        object.__setattr__(self, "values", values)
        if self.sample_rate <= 0:
            raise DomainError("sample_rate must be > 0")
        if values.size:
            self._check_range(values)

    def _check_range(self, values: np.ndarray) -> None:
        if self._dtype is np.uint8 and values.max() > 1:
            raise DomainError("binary trace values must be 0 or 1")

    def __len__(self):
        return self.values.size

    @property
    def duration(self) -> float:
        return self.values.size / self.sample_rate


@dataclass(frozen=True, eq=False)
class LevelTrace(_Trace):
    """Effective brightness level over time, fading applied (values in [0, 255])."""

    start_time: float = 0.0

    def _check_range(self, values):
        if not (values.min() >= 0.0 and values.max() <= 255.0):
            raise DomainError("level values must lie in [0, 255]")


class PwmTrace(_Trace):
    """Binary LED on/off waveform."""

    _dtype = np.uint8


class IntensityTrace(_Trace):
    """Non-negative light intensity at the sensor, as a fraction of the
    transmitter full scale at reference geometry."""

    def _check_range(self, values):
        if values.min() < 0.0:
            raise DomainError("intensity values must be >= 0")


class SensorTrace(_Trace):
    """Binary square wave emitted by the light-to-frequency sensor."""

    _dtype = np.uint8
