"""Receiver signal processing: STFT and frequency tracking.

The receiver slices the sensor square wave into overlapping Hann-windowed
frames, removes each frame's mean (the square wave carries a large DC
component that would otherwise leak everywhere), and takes magnitude spectra.
The dominant-frequency tracker refines the peak bin with parabolic
interpolation; an independent zero-crossing tracker provides a time-domain
cross-check.  Both take their frames off a stream of sample blocks, one batch
of frames at a time, so a long capture never has to be held whole.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import traces
from .errors import DomainError
from .traces import SensorTrace

#: frames per STFT batch; batches always start at a multiple of this frame
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


def _as_blocks(samples, sample_rate) -> tuple[Iterable[np.ndarray], float]:
    """Blocks and sample rate of a SensorTrace, a plain array or an iterator of blocks."""
    if isinstance(samples, SensorTrace):
        return traces.blocks(samples.values), samples.sample_rate
    if sample_rate is None:
        raise DomainError("sample_rate is required for plain arrays and block streams")
    if isinstance(samples, Iterator):
        return samples, float(sample_rate)
    return traces.blocks(np.asarray(samples)), float(sample_rate)


def check_framing(window_length: int, hop: int) -> None:
    """Reject a window length that is not a power of two >= 2, or a hop below 1."""
    if window_length < 2 or window_length & (window_length - 1):
        raise DomainError(f"window_length must be a power of two >= 2, got {window_length}")
    if hop < 1:
        raise DomainError(f"hop must be >= 1, got {hop}")


def _segments(blocks: Iterable[np.ndarray], window_length: int,
              hop: int) -> Iterator[np.ndarray]:
    """The samples of consecutive batches of frames of a block stream.

    Frame ``f`` is ``x[f*hop : f*hop + window_length]``.  Segment ``k``
    holds exactly the samples of frames ``k*_STFT_BLOCK`` up to
    ``(k+1)*_STFT_BLOCK`` (fewer in the last one), whatever the block size,
    so its own frames are those frames.  Only the samples that later frames
    still need are kept, so memory does not grow with the stream.  Raises
    `DomainError` if the stream ends before one full window.
    """
    span = (_STFT_BLOCK - 1) * hop + window_length  # samples of a full batch
    step = _STFT_BLOCK * hop  # from one batch's first frame to the next's
    pending, held, seen, skip = [], 0, 0, 0
    for block in blocks:
        seen += block.size
        if skip:  # a hop longer than the window jumps over these samples
            block, skip = block[skip:], max(0, skip - block.size)
        pending.append(block)
        held += block.size
        if held < span:
            continue
        buf = np.concatenate(pending)
        first = 0
        while first + span <= buf.size:
            yield buf[first:first + span]
            first += step
        skip = max(0, first - buf.size)
        pending = [buf[first:]]
        held = pending[0].size
    if seen < window_length:
        raise DomainError(f"input has {seen} samples, need at least one window ({window_length})")
    if held >= window_length:
        yield np.concatenate(pending)


def _frame_times(n_frames: int, window_length: int, hop: int, fs: float) -> np.ndarray:
    """Window centres of the first ``n_frames`` frames, in seconds."""
    return (np.arange(n_frames) * hop + window_length / 2.0) / fs


def _spectra(segment: np.ndarray, window: np.ndarray, hop: int) -> np.ndarray:
    """Magnitude spectra of a segment's frames, each mean-removed and windowed."""
    block = sliding_window_view(segment, window.size)[::hop].astype(np.float64)
    block -= block.mean(axis=1, keepdims=True)
    block *= window
    return np.abs(np.fft.rfft(block, axis=1))


def stft(samples, window_length: int, hop: int, sample_rate: float | None = None) -> Spectrogram:
    """Short-time Fourier transform with per-frame mean removal and Hann window.

    ``samples`` is a SensorTrace or a plain array (then ``sample_rate`` is
    required); the whole spectrogram is kept, so a block stream buys nothing
    here and is tracked with `stft_track` instead.  Produces
    ``floor((N - window)/hop) + 1`` frames of ``window/2 + 1`` magnitude
    bins.  Frame times mark window centres.
    """
    if isinstance(samples, Iterator):
        raise DomainError("stft needs a SensorTrace or an array; track a block stream "
                          "with stft_track")
    blocks, fs = _as_blocks(samples, sample_rate)
    check_framing(window_length, hop)
    window = hann_window(window_length)
    mags = np.empty((max(0, (len(samples) - window_length) // hop + 1), window_length // 2 + 1))
    filled = 0
    for segment in _segments(blocks, window_length, hop):
        batch = _spectra(segment, window, hop)
        mags[filled:filled + batch.shape[0]] = batch
        filled += batch.shape[0]
    times = _frame_times(mags.shape[0], window_length, hop, fs)
    return Spectrogram(window_length, hop, fs, mags, times)


def _peaks(mags: np.ndarray, bin_width: float) -> tuple[np.ndarray, np.ndarray]:
    """Refined peak frequency and confidence of each row of magnitudes."""
    n_bins = mags.shape[1]
    rows = np.arange(mags.shape[0])
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
    freqs = (peaks + delta) * bin_width

    means = mags.mean(axis=1)
    confs = np.divide(mags[rows, peaks], means, out=np.zeros_like(means), where=means > 0.0)
    return freqs, confs


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
    freqs, confs = _peaks(spec.frames, spec.bin_width)
    return FrequencyTrack(spec.frame_times.copy(), freqs, confs)


def stft_track(samples, window_length: int, hop: int,
               sample_rate: float | None = None) -> FrequencyTrack:
    """``dominant_frequency(stft(...))``, one batch of STFT frames at a time.

    Takes a SensorTrace, a plain array or an iterator of sample blocks (the
    last two with ``sample_rate``) and gives the same track as
    ``dominant_frequency(stft(...))``, but holds the spectra of one batch of
    frames at a time rather than the whole spectrogram.
    """
    blocks, fs = _as_blocks(samples, sample_rate)
    check_framing(window_length, hop)
    window = hann_window(window_length)
    freqs, confs = (np.concatenate(parts) for parts in zip(*(
        _peaks(_spectra(segment, window, hop), fs / window_length)
        for segment in _segments(blocks, window_length, hop))))
    return FrequencyTrack(_frame_times(freqs.size, window_length, hop, fs), freqs, confs)


def zero_crossing_frequency(samples, window_length: int, hop: int,
                            sample_rate: float | None = None) -> FrequencyTrack:
    """Time-domain frequency tracker: rising-edge counting per window.

    Frequency is the number of rising edges divided by the window duration
    (edges cross the window's min/max midpoint).  Confidence is
    ``1 - var(gaps)/mean(gap)^2`` clamped to [0, 1]; windows with fewer than
    two edges report frequency 0 and confidence 0.  Takes the same inputs as
    `stft_track`.
    """
    blocks, fs = _as_blocks(samples, sample_rate)
    check_framing(window_length, hop)
    duration = window_length / fs
    rates = [_edge_rate(w, duration)
             for segment in _segments(blocks, window_length, hop)
             for w in sliding_window_view(segment.astype(np.float64), window_length)[::hop]]
    freqs, confs = np.array(rates, dtype=np.float64).T.copy()
    return FrequencyTrack(_frame_times(freqs.size, window_length, hop, fs), freqs, confs)


def _edge_rate(w: np.ndarray, duration: float) -> tuple[float, float]:
    """Rising-edge frequency and gap-regularity confidence of one window."""
    lo, hi = w.min(), w.max()
    if hi <= lo:
        return 0.0, 0.0
    thr = 0.5 * (lo + hi)
    above = w >= thr
    edges = np.flatnonzero(~above[:-1] & above[1:]) + 1
    if edges.size < 2:
        return 0.0, 0.0
    gaps = np.diff(edges).astype(np.float64)
    mean_gap = gaps.mean()
    conf = 1.0 - gaps.var() / (mean_gap * mean_gap)
    return edges.size / duration, float(np.clip(conf, 0.0, 1.0))
