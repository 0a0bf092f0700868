"""Receiver signal processing: STFT and frequency tracking.

The receiver slices the sensor square wave into overlapping Hann-windowed
frames, removes each frame's mean (the square wave carries a large DC
component that would otherwise leak everywhere), and takes magnitude spectra.
The dominant-frequency tracker refines the peak bin with parabolic
interpolation; an independent zero-crossing tracker provides a time-domain
cross-check.  Each tracker is one batch function, listed in `TRACKERS` with
its confidence floor.  One framer takes a stream one block of samples at a
time and runs a tracker (or, in `stft`, the spectrogram fill) on each batch
of frames as soon as it is complete, so a long capture never has to be held
whole, and one stream can feed several receivers in lockstep.  A stream
yields one block per tail at each step, as `channel.link_blocks` does (a
trace or an array is one tail); a receiver is a ``(tail, window_length,
hop)`` triple.
"""

from __future__ import annotations

import functools
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


def _as_stream(samples, sample_rate) -> tuple[Iterable[tuple[np.ndarray, ...]], float]:
    """Steps and sample rate of a stream; a SensorTrace or an array is one tail."""
    if isinstance(samples, SensorTrace):
        samples, sample_rate = samples.values, samples.sample_rate
    elif sample_rate is None:
        raise DomainError("sample_rate is required for plain arrays and block streams")
    if not isinstance(samples, Iterator):
        samples = ((block,) for block in traces.blocks(np.asarray(samples)))
    return samples, float(sample_rate)


def check_framing(window_length: int, hop: int) -> None:
    """Reject a window length that is not a power of two >= 2, or a hop below 1."""
    if window_length < 2 or window_length & (window_length - 1):
        raise DomainError(f"window_length must be a power of two >= 2, got {window_length}")
    if hop < 1:
        raise DomainError(f"hop must be >= 1, got {hop}")


class _Framer:
    """Cuts a pushed stream of sample blocks into batches of frames.

    Frame ``f`` is ``x[f*hop : f*hop + window_length]``.  Batch ``k`` holds
    exactly the samples of frames ``k*_STFT_BLOCK`` up to
    ``(k+1)*_STFT_BLOCK`` (fewer in the last one), whatever the block sizes,
    so its own frames are those frames.  `push` runs ``fn`` on each batch
    as soon as its last sample arrives and keeps only the samples that later
    frames still need, so memory does not grow with the stream.  `close`
    runs it on the last, shorter batch and returns what it gave for every
    batch, in order; it raises `DomainError` if the stream ended before one
    full window.
    """

    def __init__(self, window_length: int, hop: int, fn):
        check_framing(window_length, hop)
        self.window_length, self.hop, self._fn = window_length, hop, fn
        self._span = (_STFT_BLOCK - 1) * hop + window_length  # samples of a full batch
        self._step = _STFT_BLOCK * hop  # from one batch's first frame to the next's
        self._pending, self._held, self._seen, self._skip = [], 0, 0, 0
        self._results = []

    def push(self, block: np.ndarray) -> None:
        self._seen += block.size
        if self._skip:  # a hop longer than the window jumps over these samples
            block, self._skip = block[self._skip:], max(0, self._skip - block.size)
        self._pending.append(block)
        self._held += block.size
        if self._held < self._span:
            return
        buf = np.concatenate(self._pending)
        first = 0
        while first + self._span <= buf.size:
            self._results.append(self._fn(buf[first:first + self._span]))
            first += self._step
        self._skip = max(0, first - buf.size)
        # copy the leftover (under one batch span) so the joined buffer is freed
        self._pending = [buf[first:].copy()]
        self._held = self._pending[0].size

    def close(self) -> list:
        if self._seen < self.window_length:
            raise DomainError(f"input has {self._seen} samples, "
                              f"need at least one window ({self.window_length})")
        if self._held >= self.window_length:
            self._results.append(self._fn(np.concatenate(self._pending)))
        return self._results


def _frame_times(n_frames: int, window_length: int, hop: int, fs: float) -> np.ndarray:
    """Window centres of the first ``n_frames`` frames, in seconds."""
    return (np.arange(n_frames) * hop + window_length / 2.0) / fs


def _spectra(segment: np.ndarray, window: np.ndarray, hop: int) -> np.ndarray:
    """Magnitude spectra of a segment's frames, each mean-removed and windowed."""
    block = sliding_window_view(segment, window.size)[::hop].astype(np.float64)
    block -= block.mean(axis=1, keepdims=True)
    block *= window
    spectra = np.fft.rfft(block, axis=1)
    del block  # the frames go before the magnitudes are made: a smaller peak
    return np.abs(spectra)


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
    steps, fs = _as_stream(samples, sample_rate)
    filled = 0

    def fill(segment):
        nonlocal filled
        batch = _spectra(segment, window, hop)
        mags[filled:filled + batch.shape[0]] = batch
        filled += batch.shape[0]

    framer = _Framer(window_length, hop, fill)
    window = hann_window(window_length)
    mags = np.empty((max(0, (len(samples) - window_length) // hop + 1),
                     window_length // 2 + 1))
    for block, in steps:
        framer.push(block)
    framer.close()
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


def _track_stft(segment: np.ndarray, window_length: int, hop: int,
                sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """``dominant_frequency(stft(...))`` of one batch of frames, from its spectra alone."""
    return _peaks(_spectra(segment, hann_window(window_length), hop),
                  sample_rate / window_length)


def _track_zero_crossing(segment: np.ndarray, window_length: int, hop: int,
                         sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Time-domain frequency of one batch of frames: rising-edge counting.

    Frequency is the number of rising edges divided by the window duration
    (edges cross the window's min/max midpoint).  Confidence is
    ``1 - var(gaps)/mean(gap)^2`` clamped to [0, 1]; windows with fewer than
    two edges report frequency 0 and confidence 0.
    """
    duration = window_length / sample_rate
    windows = sliding_window_view(segment.astype(np.float64), window_length)
    rates = np.array([_edge_rate(w, duration) for w in windows[::hop]],
                     dtype=np.float64)
    return rates[:, 0], rates[:, 1]


#: tracker name -> (batch function, confidence floor below which a slot is erased);
#: the function maps one batch and the receiver's window length, hop and sample
#: rate to its frames' frequencies and confidences (zero-crossing's lie in [0, 1])
TRACKERS = {"stft": (_track_stft, 2.0), "zero_crossing": (_track_zero_crossing, 0.5)}


def track_all(samples, receivers: list, tracker: str = "stft",
              sample_rate: float | None = None) -> list:
    """Track one stream with several receivers in lockstep.

    ``samples`` is a SensorTrace, a plain array or an iterator of steps (the
    last two with ``sample_rate``); ``receivers`` lists ``(tail,
    window_length, hop)`` triples, each a `_Framer` on the blocks of its tail
    that runs the ``TRACKERS[tracker]`` batch function on each batch of its
    frames.  Every step goes to every receiver before the next step is
    drawn, so the stream is produced once and each receiver keeps at most
    one batch of its frames.  Returns, per receiver and in receiver order,
    its `FrequencyTrack` or the `DomainError` it ended with (a stream
    shorter than its window).
    """
    steps, fs = _as_stream(samples, sample_rate)
    fn, _ = TRACKERS[tracker]
    framers = [(tail, _Framer(window_length, hop, functools.partial(
                    fn, window_length=window_length, hop=hop, sample_rate=fs)))
               for tail, window_length, hop in receivers]
    for step in steps:
        for tail, framer in framers:
            framer.push(step[tail])
    return [_finish(framer, fs) for _, framer in framers]


def _finish(framer: _Framer, sample_rate: float) -> FrequencyTrack | DomainError:
    """The track of a receiver's framer, or the error its stream ended with."""
    try:
        batches = framer.close()
    except DomainError as exc:
        return exc
    freqs, confs = (np.concatenate(column) for column in zip(*batches))
    times = _frame_times(freqs.size, framer.window_length, framer.hop, sample_rate)
    return FrequencyTrack(times, freqs, confs)


def _track_one(samples, window_length, hop, tracker, sample_rate) -> FrequencyTrack:
    track, = track_all(samples, [(0, window_length, hop)], tracker, sample_rate)
    if isinstance(track, DomainError):
        raise track
    return track


def stft_track(samples, window_length: int, hop: int,
               sample_rate: float | None = None) -> FrequencyTrack:
    """The ``"stft"`` tracker over a SensorTrace, a plain array or tail 0 of
    a stream, one batch of frames at a time.

    Gives the same track as ``dominant_frequency(stft(...))``; the last two
    input kinds need ``sample_rate``.
    """
    return _track_one(samples, window_length, hop, "stft", sample_rate)


def zero_crossing_frequency(samples, window_length: int, hop: int,
                            sample_rate: float | None = None) -> FrequencyTrack:
    """The ``"zero_crossing"`` tracker (rising-edge counting, see
    `_track_zero_crossing`) over the same inputs as `stft_track`."""
    return _track_one(samples, window_length, hop, "zero_crossing", sample_rate)


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
