"""Receiver signal processing: STFT and frequency tracking.

The receiver slices the sensor square wave into overlapping Hann-windowed
frames, removes each frame's mean (the square wave carries a large DC
component that would otherwise leak everywhere), and takes magnitude spectra.
The dominant-frequency tracker refines the peak bin with parabolic
interpolation; an independent zero-crossing tracker provides a time-domain
cross-check.  Each tracker is one batch function, listed in `TRACKERS` with
its confidence floor, from a batch's frames and the receiver's Hann window
(built at the first batch) to their frequencies and confidences.  One framer
cuts a stream, pushed one block at a time, into batches of frames and hands
each, as soon as it is complete, to a tracker (or, in `stft`, the
spectrogram fill), so a long capture never has to be held whole, and one
stream can feed several receivers in lockstep.  A stream yields one block
per tail at each step, as `channel.link_blocks` does (a trace or an array is
one tail); a receiver is a ``(tail, window_length, hop)`` triple.

`track_all` and `stft` open one worker thread for the call, joined on its
every exit, that takes the magnitude spectra of one batch at a time
(`_SpectraWorker`) while the calling thread draws (for a link: renders) the
next blocks; the FFT and numpy's large loops release the GIL.  Everything
else, every public function and the peak search included, runs on the
calling thread, so the worker takes the GIL only between its few large
calls and the two threads seldom wait on each other.  A batch goes to the
worker only if it is free, else its spectra are taken on the calling
thread; the last batch of a receiver always is, as nothing is left to
overlap it with.  Each receiver has at most one batch in flight, and each
frame's results depend on that frame alone, so the output is bit for bit
that of a serial run.

The spectra are computed in ``np.result_type(samples.dtype, np.float32)``,
numpy's own promotion rule: float32 for the uint8 sensor traces of the link,
the sweeps and trace files, float64 for float input.  Against float64 on the
criterion-5, -6 and -7 links (11 778 frames), float32 moved no peak bin, a
refined frequency by at most 2.4e-6 of a bin (0.0062 Hz), a confidence by at
most 3.3e-7 relative and a magnitude by at most 2.5e-7 of its frame's
largest.
"""

from __future__ import annotations

import functools
import numbers
from collections.abc import Iterable, Iterator
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import traces
from .errors import ConfigError, DomainError
from .traces import SensorTrace

#: frames per STFT batch (fewer when the hop is longer than the window, see
#: `_Framer`); batches always start at a multiple of the batch size
_STFT_BLOCK = 256


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
    """Reject a window length that is not a power of two >= 2, or a hop below 1.

    Both must be integers; a float or a bool is rejected, not rounded.
    """
    for name, value in (("window_length", window_length), ("hop", hop)):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise DomainError(f"{name} must be an integer, got {value!r}")
    if window_length < 2 or window_length & (window_length - 1):
        raise DomainError(f"window_length must be a power of two >= 2, got {window_length}")
    if hop < 1:
        raise DomainError(f"hop must be >= 1, got {hop}")


class _Framer:
    """Cuts a pushed stream of sample blocks into batches of frames, and
    hands each batch's spectra to a worker thread while the next one arrives.

    Frame ``f`` is ``x[f*hop : f*hop + window_length]``; batch ``k`` holds
    frames ``k*b`` up to ``(k+1)*b`` (fewer in the last one), whatever the
    block sizes.  ``b`` is ``_STFT_BLOCK``, cut to
    ``_STFT_BLOCK * window_length // hop`` (at least 1) when the hop is
    longer than the window, so a batch never spans more samples than
    ``_STFT_BLOCK`` windows.  As soon as a batch's last sample arrives,
    `push` builds the receiver's Hann window (at the first batch), collects
    the previous batch and calls ``fn(frames, window, spectra)``, which
    passes the frames and window to ``spectra`` and returns a function that
    gives the batch's result; so at most one batch of the receiver is in
    flight.  ``spectra`` is ``worker.start`` if the worker is free, else
    `_spectra_here`, and a batch done here is collected at once, so that
    its spectra are freed.  It keeps only the samples that later frames
    still need, so memory does not grow with the stream.  `close` runs the
    last, shorter batch here and returns what every batch gave, in order,
    or re-raises the first error a batch raised; it raises `DomainError`,
    and builds no window, if the stream ended before one full window.
    """

    def __init__(self, window_length: int, hop: int, fn, worker: _SpectraWorker):
        check_framing(window_length, hop)
        self.window_length, self.hop, self._fn, self._worker = window_length, hop, fn, worker
        self._window = None
        frames = min(_STFT_BLOCK, max(1, _STFT_BLOCK * window_length // hop))
        self._span = (frames - 1) * hop + window_length  # samples of a full batch
        self._step = frames * hop  # from one batch's first frame to the next's
        self._pending, self._held, self._seen, self._skip = [], 0, 0, 0
        self._results, self._busy, self._error = [], None, None

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
            self._run(buf[first:first + self._span])
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
            self._run(np.concatenate(self._pending), last=True)
        self._collect()
        if self._error is not None:
            raise self._error
        results, self._results = self._results, []  # the caller's alone, to free as it goes
        return results

    def _run(self, segment: np.ndarray, last: bool = False) -> None:
        if self._window is None:
            self._window = hann_window(self.window_length)
        self._collect()
        if self._error is not None:  # after an error the later batches are not tracked
            return
        frames = sliding_window_view(segment, self.window_length)[::self.hop]
        here = last or not self._worker.free()
        try:
            self._busy = self._fn(frames, self._window,
                                  _spectra_here if here else self._worker.start)
        except Exception as exc:  # `close` re-raises it
            self._error = exc
        if here:  # done already: keep its result, not its spectra
            self._collect()

    def _collect(self) -> None:
        """Collect the batch in flight, if any, or the error it raised."""
        busy, self._busy = self._busy, None
        if busy is None:
            return
        try:
            self._results.append(busy())
        except Exception as exc:  # `close` re-raises it
            self._error = exc


def _frame_times(n_frames: int, window_length: int, hop: int, fs: float) -> np.ndarray:
    """Window centres of the first ``n_frames`` frames, in seconds."""
    # float64 from the start: a hop past int64 cannot overflow an integer product
    return (np.arange(n_frames, dtype=np.float64) * hop + window_length / 2.0) / fs


def _work_dtype(dtype) -> np.dtype:
    """The dtype the spectra of samples of ``dtype`` are computed in."""
    return np.result_type(dtype, np.float32)


def _spectra(frames: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Magnitude spectra of a batch's frames, each mean-removed and windowed,
    in the frames' work dtype."""
    # imported here: scipy.fft takes longer to import than the rest of the package
    from scipy.fft import rfft

    dtype = _work_dtype(frames.dtype)
    block = frames.astype(dtype)
    block -= block.mean(axis=1, keepdims=True)
    # the framer builds its window in float64, once; casting it costs nothing
    # next to a batch of frames
    block *= window.astype(dtype, copy=False)
    # scipy's float32 rfft is twice as fast as its float64 one; numpy's float32 one
    # is slower than both
    spectra = rfft(block, axis=1)
    del block  # the frames go before the magnitudes are made: a smaller peak
    return np.abs(spectra)


def _spectra_here(frames: np.ndarray, window: np.ndarray):
    """`_spectra` on the calling thread, as a function that gives them."""
    mags = _spectra(frames, window)
    return lambda: mags


class _SpectraWorker:
    """The worker thread of one call, computing one batch's spectra at a time."""

    def __init__(self, executor: Executor):
        self._executor, self._busy = executor, None

    def free(self) -> bool:
        """Whether the spectra it was last given are done."""
        return self._busy is None or self._busy.done()

    def start(self, frames: np.ndarray, window: np.ndarray):
        """Start `_spectra` on the worker; returns a function that waits for them."""
        self._busy = self._executor.submit(_spectra, frames, window)
        return self._busy.result


def stft(samples, window_length: int, hop: int, sample_rate: float | None = None) -> Spectrogram:
    """Short-time Fourier transform with per-frame mean removal and Hann window.

    ``samples`` is a SensorTrace or a plain array (then ``sample_rate`` is
    required); the whole spectrogram is kept, so a block stream buys nothing
    here and is tracked with `stft_track` instead.  Produces
    ``floor((N - window)/hop) + 1`` frames of ``window/2 + 1`` magnitude
    bins.  Frame times mark window centres.  The frames are float32 for
    integer or float32 samples (a sensor trace) and float64 for float64
    ones.  On the criterion-5, -6 and -7 links, float32 magnitudes lie
    within 2.5e-7 of their frame's largest magnitude of the float64 ones.
    """
    if isinstance(samples, Iterator):
        raise DomainError("stft needs a SensorTrace or an array; track a block stream "
                          "with stft_track")
    steps, fs = _as_stream(samples, sample_rate)
    filled = 0

    def fill(frames, window, spectra):
        nonlocal filled
        rows = slice(filled, filled + frames.shape[0])
        filled = rows.stop
        batch = spectra(frames, window)

        def store():
            mags[rows] = batch()
        return store

    with ThreadPoolExecutor(max_workers=1) as executor:
        framer = _Framer(window_length, hop, fill, _SpectraWorker(executor))
        values = samples.values if isinstance(samples, SensorTrace) else np.asarray(samples)
        shape = (max(0, (values.size - window_length) // hop + 1), window_length // 2 + 1)
        try:
            mags = np.empty(shape, dtype=_work_dtype(values.dtype))
        except (MemoryError, ValueError):  # numpy refuses a size it cannot address
            raise ConfigError(f"a spectrogram of {shape[0]} frames of {shape[1]} bins "
                              "does not fit in memory; use a longer hop") from None
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


def _track_stft(frames: np.ndarray, window: np.ndarray, spectra, sample_rate: float):
    """``dominant_frequency(stft(...))`` of one batch of frames, from its spectra alone."""
    mags = spectra(frames, window)
    return lambda: _peaks(mags(), sample_rate / window.size)


def _track_zero_crossing(frames: np.ndarray, window: np.ndarray, spectra,
                         sample_rate: float):
    """Time-domain frequency of one batch of frames: rising-edge counting.

    Only the window's length counts: the frames are not weighted, and no
    spectra are taken, so the batch runs on the calling thread.  Frequency
    is the number of rising edges (crossings of the frame's min/max
    midpoint) divided by the window duration.  Confidence is
    ``1 - var(gaps)/mean(gap)^2``, that is ``1 - (k*S2 - S1^2)/S1^2`` over
    the ``k`` gaps' sum ``S1`` and sum of squares ``S2``, clamped to [0, 1];
    frames with fewer than two edges report frequency 0 and confidence 0.
    """
    n = frames.shape[0]
    # the midpoint in float64, so that uint8 `lo + hi` cannot wrap
    thr = 0.5 * (frames.min(axis=1).astype(np.float64) + frames.max(axis=1))
    above = frames >= thr[:, None]
    rows, cols = np.nonzero(above[:, 1:] > above[:, :-1])  # below, then above: an edge
    edges = np.bincount(rows, minlength=n)
    same = rows[1:] == rows[:-1]  # consecutive edges of one frame bound a gap
    gaps = np.diff(cols)[same].astype(np.float64)
    s1, s2 = (np.bincount(rows[1:][same], weights=g, minlength=n) for g in (gaps, gaps * gaps))
    ok = edges >= 2
    ratio = np.divide((edges - 1) * s2 - s1 * s1, s1 * s1, out=np.ones(n), where=ok)
    freqs = np.where(ok, edges / (window.size / sample_rate), 0.0)
    result = freqs, np.clip(1.0 - ratio, 0.0, 1.0)
    return lambda: result


#: tracker name -> (batch function, confidence floor below which a slot is erased);
#: the function takes one batch's frames, the receiver's Hann window (built at
#: its first batch), a function that starts `_spectra` of frames and window
#: (see `_Framer`) and the sample rate, and returns a function that gives the
#: frames' frequencies and confidences (zero-crossing's lie in [0, 1])
TRACKERS = {"stft": (_track_stft, 2.0), "zero_crossing": (_track_zero_crossing, 0.5)}


def track_all(samples, receivers: list, tracker: str = "stft",
              sample_rate: float | None = None) -> list:
    """Track one stream with several receivers in lockstep.

    ``samples`` is a SensorTrace, a plain array or an iterator of steps (the
    last two with ``sample_rate``); ``receivers`` lists ``(tail,
    window_length, hop)`` triples, each a `_Framer` on the blocks of its tail
    that runs the ``TRACKERS[tracker]`` batch function on each batch of its
    frames and its window, built at its first batch.  Every step goes to
    every receiver before the next step is drawn, so the stream is produced
    once and each receiver keeps at most one batch of its frames in flight
    on the worker thread.  Returns, per receiver and in receiver order, its
    `FrequencyTrack` or the `DomainError` it ended with (a stream shorter
    than its window, which then never builds its window, or the first
    `DomainError` one of its batches raised).  An error of the stream itself
    is raised, once the worker has finished.
    """
    steps, fs = _as_stream(samples, sample_rate)
    fn = functools.partial(TRACKERS[tracker][0], sample_rate=fs)
    with ThreadPoolExecutor(max_workers=1) as executor:
        worker = _SpectraWorker(executor)
        framers = [(tail, _Framer(window_length, hop, fn, worker))
                   for tail, window_length, hop in receivers]
        for step in steps:
            for tail, framer in framers:
                framer.push(step[tail])
        return [_finish(framer, fs) for _, framer in framers]


def _finish(framer: _Framer, sample_rate: float) -> FrequencyTrack | DomainError:
    """The track of a receiver's framer, or the error its stream ended with."""
    try:
        freqs, confs = zip(*framer.close())
    except DomainError as exc:
        return exc
    freqs = np.concatenate(freqs)  # a column's batches go as soon as it is joined
    confs = np.concatenate(confs)
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
