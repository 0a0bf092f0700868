"""Receiver signal processing: STFT and frequency tracking.

The receiver slices the sensor square wave into overlapping Hann-windowed
frames, removes each frame's mean (the square wave carries a large DC
component that would otherwise leak everywhere), and takes magnitude spectra.
The dominant-frequency tracker refines the peak bin with parabolic
interpolation; an independent zero-crossing tracker provides a time-domain
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError
from .traces import SensorTrace

#: frames per block when streaming the transform, keeps memory bounded
_STFT_BLOCK = 512


@dataclass(frozen=True, eq=False)
class Spectrogram:
    """Magnitude STFT frames: ``frames[frame][bin]``, bins 0..window/2."""

    window_length: int
    hop: int
    sample_rate: float
    frames: np.ndarray = field(repr=False)
    frame_times: np.ndarray = field(repr=False)

    @property
    def bin_width(self) -> float:
        return self.sample_rate / self.window_length

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True, eq=False)
class FrequencyTrack:
    """Per-frame dominant frequency estimates with confidences."""

    frame_times: np.ndarray = field(repr=False)
    frequencies: np.ndarray = field(repr=False)
    confidences: np.ndarray = field(repr=False)

    def __len__(self):
        return self.frequencies.size


def hann_window(n: int) -> np.ndarray:
    """Symmetric Hann window ``w[k] = 0.5*(1 - cos(2*pi*k/(n-1)))``."""
    if n < 2:
        raise DomainError(f"window length must be >= 2, got {n}")
    k = np.arange(n, dtype=np.float64)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / (n - 1)))


def _as_samples(samples, sample_rate):
    if isinstance(samples, SensorTrace):
        return samples.values, samples.sample_rate
    if sample_rate is None:
        raise DomainError("sample_rate is required for plain arrays")
    return np.asarray(samples), float(sample_rate)


def check_framing(window_length: int, hop: int) -> None:
    """Reject a window length that is not a power of two >= 2, or a hop below 1."""
    if window_length < 2 or window_length & (window_length - 1):
        raise DomainError(f"window_length must be a power of two >= 2, got {window_length}")
    if hop < 1:
        raise DomainError(f"hop must be >= 1, got {hop}")


def _frame_count(n: int, window_length: int, hop: int) -> int:
    check_framing(window_length, hop)
    if n < window_length:
        raise DomainError(f"input has {n} samples, need at least one window ({window_length})")
    return (n - window_length) // hop + 1


def stft(samples, window_length: int, hop: int, sample_rate: float | None = None) -> Spectrogram:
    """Short-time Fourier transform with per-frame mean removal and Hann window.

    ``samples`` may be a SensorTrace or a plain array (then ``sample_rate`` is
    required).  Produces ``floor((N - window)/hop) + 1`` frames of
    ``window/2 + 1`` magnitude bins.  Frame times mark window centres.
    """
    x, fs = _as_samples(samples, sample_rate)
    n_frames = _frame_count(x.size, window_length, hop)
    window = hann_window(window_length)
    frames_view = sliding_window_view(x, window_length)[::hop][:n_frames]

    mags = np.empty((n_frames, window_length // 2 + 1), dtype=np.float64)
    for start in range(0, n_frames, _STFT_BLOCK):
        block = frames_view[start:start + _STFT_BLOCK].astype(np.float64)
        block -= block.mean(axis=1, keepdims=True)
        block *= window
        mags[start:start + _STFT_BLOCK] = np.abs(np.fft.rfft(block, axis=1))

    times = (np.arange(n_frames) * hop + window_length / 2.0) / fs
    return Spectrogram(window_length, hop, fs, mags, times)


def dominant_frequency(spec: Spectrogram) -> FrequencyTrack:
    """Per-frame dominant frequency via argmax plus parabolic refinement.

    The sub-bin offset comes from a 3-point parabola on the log magnitudes
    around the peak, clipped to half a bin; it is 0 at the band edges, when a
    neighbour is zero, or when the log magnitudes do not curve downward.
    Confidence is the peak magnitude over the frame's mean magnitude, a
    scale-free measure of how tonal the frame is.
    """
    if spec.n_frames == 0:
        raise DomainError("spectrogram has no frames")
    mags = spec.frames
    n_bins = mags.shape[1]
    rows = np.arange(spec.n_frames)
    peaks = np.argmax(mags, axis=1)
    # edge peaks gather from a clipped index; `refine` then discards them
    inner = np.clip(peaks, 1, n_bins - 2)
    left, centre, right = (mags[rows, inner + d] for d in (-1, 0, 1))
    refine = (peaks > 0) & (peaks < n_bins - 1) & (left > 0.0) & (centre > 0.0) & (right > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b, c = np.log(left), np.log(centre), np.log(right)
        denom = a - 2.0 * b + c
        delta = np.clip(0.5 * (a - c) / denom, -0.5, 0.5)
    delta = np.where(refine & (denom < 0.0), delta, 0.0)
    freqs = (peaks + delta) * spec.bin_width

    means = mags.mean(axis=1)
    confs = np.divide(mags[rows, peaks], means, out=np.zeros_like(means), where=means > 0.0)
    return FrequencyTrack(spec.frame_times.copy(), freqs, confs)


def zero_crossing_frequency(samples, window_length: int, hop: int,
                            sample_rate: float | None = None) -> FrequencyTrack:
    """Time-domain frequency tracker: rising-edge counting per window.

    Frequency is the number of rising edges divided by the window duration
    (edges cross the window's min/max midpoint).  Confidence is
    ``1 - var(gaps)/mean(gap)^2`` clamped to [0, 1]; windows with fewer than
    two edges report frequency 0 and confidence 0.
    """
    x, fs = _as_samples(samples, sample_rate)
    x = x.astype(np.float64, copy=False)
    n_frames = _frame_count(x.size, window_length, hop)
    duration = window_length / fs

    freqs = np.zeros(n_frames, dtype=np.float64)
    confs = np.zeros(n_frames, dtype=np.float64)
    for i in range(n_frames):
        w = x[i * hop:i * hop + window_length]
        lo, hi = w.min(), w.max()
        if hi <= lo:
            continue
        thr = 0.5 * (lo + hi)
        above = w >= thr
        edges = np.flatnonzero(~above[:-1] & above[1:]) + 1
        if edges.size < 2:
            continue
        freqs[i] = edges.size / duration
        gaps = np.diff(edges).astype(np.float64)
        mean_gap = gaps.mean()
        conf = 1.0 - gaps.var() / (mean_gap * mean_gap)
        confs[i] = float(np.clip(conf, 0.0, 1.0))

    times = (np.arange(n_frames) * hop + window_length / 2.0) / fs
    return FrequencyTrack(times, freqs, confs)
