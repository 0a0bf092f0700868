"""Uniformly sampled signal containers used along the simulated link.

All traces wrap a numpy array plus its sample rate.  They are treated as
immutable: operations always build new traces and never mutate values in
place, which keeps renders deterministic and thread-safe.  A long trace can
also travel as a stream of ``BLOCK_SAMPLES``-sample blocks, so that no stage
holds all of it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


@dataclass(frozen=True, eq=False)
class _Trace:
    """Shared body: values range-checked, then stored contiguously as ``_dtype``."""

    sample_rate: float
    values: np.ndarray = field(repr=False)

    #: float64 traces carry analog values; uint8 traces are binary waveforms.
    #: A plain class attribute, not a field, so it stays out of the dataclass.
    _dtype = np.float64

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 1:
            raise DomainError(f"trace values must be one-dimensional, got shape {values.shape}")
        if not 0 < self.sample_rate < np.inf:  # NaN fails both comparisons
            raise DomainError(f"sample_rate must be finite and > 0, got {self.sample_rate}")
        if values.size:  # before the cast, which would read 0.5 and 256 as a binary 0
            self._check_range(values)
        object.__setattr__(self, "values", np.ascontiguousarray(values, dtype=self._dtype))

    def _check_range(self, values: np.ndarray) -> None:
        if self._dtype is np.uint8 and not _binary(values):
            raise DomainError("binary trace values must be exactly 0 or 1")

    def __len__(self):
        return self.values.size

    @property
    def duration(self) -> float:
        return self.values.size / self.sample_rate


def _binary(values: np.ndarray) -> bool:
    """Whether every value is exactly 0 or 1 (NaN is neither)."""
    if values.dtype.kind in "bu":  # one pass and no temporary for a trace file's samples
        return bool(values.max() <= 1)
    return bool(np.all((values == 0) | (values == 1)))


class LevelTrace(_Trace):
    """Effective brightness level over time, fading applied (values in [0, 255])."""

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
        # NaN fails both comparisons; min and max take no temporary array
        if not (values.min() >= 0.0 and values.max() < np.inf):
            raise DomainError("intensity values must be finite and >= 0")


class SensorTrace(_Trace):
    """Binary square wave emitted by the light-to-frequency sensor."""

    _dtype = np.uint8


#: samples per block when a trace is rendered or received as a stream
BLOCK_SAMPLES = 1 << 15


def blocks(values: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive views of ``BLOCK_SAMPLES`` samples (the last may be shorter)."""
    for start in range(0, values.size, BLOCK_SAMPLES):
        yield values[start:start + BLOCK_SAMPLES]
