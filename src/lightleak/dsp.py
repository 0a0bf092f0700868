"""Receiver signal processing: STFT and frequency tracking.

The receiver slices the sensor square wave into overlapping Hann-windowed
frames, removes each frame's mean (the square wave carries a large DC
component that would otherwise leak everywhere), and takes magnitude spectra.
The dominant-frequency tracker refines the peak bin with parabolic
interpolation; an independent zero-crossing tracker provides a time-domain
cross-check.  Each tracker is one batch function, listed in `TRACKERS` with
its confidence floor, from a batch's frames to their frequencies and
confidences (the STFT tracker through the frames' magnitude spectra).  A
framer cuts a stream, pushed one block at a time, into batches of frames, so
a long capture never has to be held whole, and one receive loop
(`_receive`) feeds a stream to several receivers in lockstep and hands each
batch, as soon as it is complete, to a tracker (or, in `stft`, the
spectrogram fill).  A stream yields one block per tail at each step, as
`channel.link_blocks` does (a trace or an array is one tail); a receiver is
a ``(tail, window_length, hop)`` triple, or ``(tail, window_length, hop,
gate)``.

A receiver with a gate D above 1 reads its tail as a pulse counter does:
it sums each gate of D samples, counted from the stream's start, and frames
the sums, ``window_length // D`` of them a frame and ``hop // D`` apart, at
the sample rate over D.  So the bin width (the sample rate over
``window_length``), the frame count and the frame times are those of the
full-rate receiver, while each frame's FFT is D times shorter.  The sums of
the link's 0/1 bytes are bytes too, taken a word at a time (`_gate_sums`).
`harness` gives each STFT receiver of a link the largest D its sensor's
top tone allows; `stft`, the zero-crossing tracker and a trace read without
its config keep D = 1.

The receive loop opens one worker thread for the call, joined on its every
exit, and closes a stream that has a ``close`` (a generator) on its every
exit too, so a noisy link's noise helper does not outlive the call.  While
the stream lasts, every batch's whole job (for a tracker, the batch's
magnitude spectra and the tracker's batch function; for `stft`, the
spectra) runs there, one job at a time in submission order, while the
calling thread draws (for a link: renders) the next blocks, cuts frames,
submits jobs and hands results on; the FFT and numpy's large loops release
the GIL.  Once the stream has ended, the calling thread, rather than only
wait for the oldest job, also runs queued jobs from the newest end, each in
pieces of at most ``_DRAIN_PIECE`` elements, while the worker takes them
from the oldest end.  Only private functions run on the worker: every
public function runs on the calling thread.  No more batches than there are
receivers wait in the queue, and results are handed on from it in
submission order, so a receiver's batches are taken in order.  A tracker's
spectra are made and consumed within one job or piece, so at most one batch
of spectra is alive on the worker and one piece on the calling thread, and
each frame's results depend on that frame alone, so the output is bit for
bit that of a serial run.

The spectra are computed in ``np.result_type(samples.dtype, np.float32)``,
numpy's own promotion rule: float32 for the uint8 sensor traces of the link,
the sweeps and trace files (and for their gate sums), float64 for float
input.  Against float64 on the criterion-5, -6 and -7 links (11 778 frames),
float32 moved no peak bin, a refined frequency by at most 2.4e-6 of a bin
(0.0062 Hz), a confidence by at most 3.3e-7 relative and a magnitude by at
most 2.5e-7 of its frame's largest.  On the same links' gate sums, with the
gates the harness gives them (the same 11 778 frames), it moved no peak bin,
a refined frequency by at most 2.9e-6 of a bin (0.0069 Hz), a confidence by
at most 3.3e-7 relative and a magnitude by at most 2.8e-7 of its frame's
largest.
"""

from __future__ import annotations

import numbers
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import traces
from .errors import ConfigError, DomainError
from .traces import SensorTrace

#: frames per STFT batch (fewer when the hop is longer than the window, see
#: `_Framer`); batches always start at a multiple of the batch size
_STFT_BLOCK = 256
#: elements (frames times window length) per piece of a job that the calling
#: thread runs once the stream has ended; a piece holds at least one frame
_DRAIN_PIECE = 1 << 17
#: the longest gate (see `_Framer`): its sum of 0/1 samples fits in a byte
GATE_MAX = 128


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
    """Per-frame dominant frequency estimates with confidences.

    The three arrays are one-dimensional and of one length, and the
    frequencies and confidences are finite; anything else is refused with
    `DomainError`.
    """

    frame_times: np.ndarray = field(repr=False)
    frequencies: np.ndarray = field(repr=False)
    confidences: np.ndarray = field(repr=False)

    def __post_init__(self):
        shapes = [np.shape(a) for a in (self.frame_times, self.frequencies, self.confidences)]
        if len(shapes[0]) != 1 or shapes.count(shapes[0]) != 3:
            raise DomainError("frame_times, frequencies and confidences must be "
                              f"one-dimensional and of one length, got shapes {shapes}")
        if not (np.isfinite(self.frequencies).all() and np.isfinite(self.confidences).all()):
            raise DomainError("frequencies and confidences must be finite")

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
    sample_rate = float(sample_rate)
    if not 0 < sample_rate < np.inf:  # NaN fails both comparisons
        raise DomainError(f"sample_rate must be finite and > 0, got {sample_rate}")
    if not isinstance(samples, Iterator):
        samples = np.asarray(samples)
        if samples.ndim != 1:
            raise DomainError(f"samples must be one-dimensional, got shape {samples.shape}")
        samples = ((block,) for block in traces.blocks(samples))
    return samples, sample_rate


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
    """Cuts a pushed stream of sample blocks into batches of frames.

    With a ``gate`` D above 1, the framer first sums each gate of D samples
    (samples ``g*D`` up to ``(g+1)*D``, counted from the stream's start, so a
    gate may span two blocks; see `_gate_sums`) and frames the sums: a frame
    is then ``window_length // D`` sums, ``hop // D`` apart, and the
    receiver's rate is the sample rate over D.  D must be a power of two up
    to ``GATE_MAX`` that divides the window length and the hop, and the
    stream's samples must be 0/1 bytes.  Frame ``f`` is ``x[f*hop :
    f*hop + window_length]`` of the (summed) stream ``x``, with the window
    length and hop in its points; a stream of N samples gives
    ``floor((N - window_length)/hop) + 1`` frames, gated or not.  Batch
    ``k`` holds frames ``k*b`` up to ``(k+1)*b`` (fewer in the last one),
    whatever the block sizes.  ``b`` is ``_STFT_BLOCK``, cut to
    ``_STFT_BLOCK * window_length // hop`` (at least 1) when the hop is
    longer than the window, so a batch never spans more points than
    ``_STFT_BLOCK`` windows.  `push` returns the batches whose last point
    the block brings, as strided views (no copy); `close` returns the last,
    shorter batch, or None if no frame is left, and raises `DomainError` if
    the stream ended before one full window.  ``window``, the receiver's
    Hann window of one frame's points, is built with the first batch, so a
    stream shorter than its window never builds one.  The framer keeps only
    the samples that later frames still need, so memory does not grow with
    the stream.
    """

    def __init__(self, window_length: int, hop: int, gate: int = 1):
        check_framing(window_length, hop)
        if not (isinstance(gate, numbers.Integral) and 1 <= gate <= GATE_MAX
                and not gate & (gate - 1) and window_length % gate == hop % gate == 0):
            raise DomainError(f"gate must be a power of two up to {GATE_MAX} that divides "
                              f"the window length and the hop, got {gate!r}")
        window_length, hop = window_length // gate, hop // gate
        check_framing(window_length, hop)
        self.window_length, self.hop, self.gate, self.window = window_length, hop, gate, None
        frames = min(_STFT_BLOCK, max(1, _STFT_BLOCK * window_length // hop))
        self._span = (frames - 1) * hop + window_length  # points of a full batch
        self._step = frames * hop  # from one batch's first frame to the next's
        self._pending, self._held, self._seen, self._skip = [], 0, 0, 0
        self._partial = np.empty(0, np.uint8)  # the samples of a gate still open

    def push(self, block: np.ndarray) -> list[np.ndarray]:
        if np.ndim(block) != 1:  # a bare array as a step gives its samples as blocks
            raise DomainError(f"a stream block must be one-dimensional, got {np.ndim(block)} "
                              "dimensions; a stream yields a tuple of blocks per step")
        self._seen += block.size
        if self.gate > 1:
            if self._partial.size:
                block = np.concatenate((self._partial, block))
            closed = block.size - block.size % self.gate
            self._partial = block[closed:].copy()
            block = _gate_sums(block[:closed], self.gate)
        if self._skip:  # a hop longer than the window jumps over these points
            block, self._skip = block[self._skip:], max(0, self._skip - block.size)
        self._pending.append(block)
        self._held += block.size
        if self._held < self._span:
            return []
        buf = np.concatenate(self._pending)
        starts = range(0, buf.size - self._span + 1, self._step)
        first = len(starts) * self._step
        self._skip = max(0, first - buf.size)
        # copy the leftover (under one batch span) so the joined buffer goes with its batches
        self._pending = [buf[first:].copy()]
        self._held = self._pending[0].size
        return [self._frames(buf[start:start + self._span]) for start in starts]

    def close(self) -> np.ndarray | None:
        if self._seen < self.window_length * self.gate:
            raise DomainError(f"input has {self._seen} samples, "
                              f"need at least one window ({self.window_length * self.gate})")
        if self._held < self.window_length:
            return None
        return self._frames(np.concatenate(self._pending))

    def _frames(self, segment: np.ndarray) -> np.ndarray:
        if self.window is None:
            self.window = hann_window(self.window_length)
        return sliding_window_view(segment, self.window_length)[::self.hop]


def _gate_sums(x: np.ndarray, gate: int) -> np.ndarray:
    """The sum of each gate of ``gate`` samples of ``x``, 0/1 bytes a
    multiple of ``gate`` long, as bytes.

    Read as words of ``min(gate, 8)`` bytes, each word times ``0x01...01``
    has the sum of its bytes in its top byte, whatever the byte order, since
    a sum of at most 8 ones carries into no other byte; a longer gate then
    adds neighbouring words' sums in pairs.  Bit for bit
    ``x.reshape(-1, gate).sum(1)``.
    """
    if x.dtype != np.uint8:
        raise DomainError(f"a gate sums 0/1 bytes, got {x.dtype} samples")
    word = np.dtype(f"u{min(gate, 8)}")
    sums = np.ascontiguousarray(x).view(word) * word.type(int("01" * word.itemsize, 16))
    sums >>= 8 * (word.itemsize - 1)
    sums = sums.astype(np.uint8)
    while gate > 8:
        sums, gate = sums[0::2] + sums[1::2], gate // 2
    return sums


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


def _receive(steps: Iterable, receivers: list, job, take) -> list:
    """Feed a stream to ``(tail, window_length, hop, gate)`` receivers in lockstep.

    Every step goes to every receiver's `_Framer` before the next step is
    drawn, so the stream is produced once.  Each batch's whole job,
    ``job(receiver, frames, window)``, is submitted to the call's one worker
    thread (joined on every exit), which runs the jobs one at a time in
    submission order while the calling thread draws the next steps.  Results go, from
    that one queue and in submission order, to ``take(receiver, result)`` on
    the calling thread: each as soon as it is done, and the oldest, waited
    for, before a batch would make more batches queued than there are
    receivers.  Once the stream has ended, before each wait the calling
    thread runs, newest first, a queued job that it can cancel (so it has
    not started) and that is its receiver's only unfinished one, as
    consecutive pieces of at most ``_DRAIN_PIECE`` elements (at least one
    frame) whose results are taken in turn; so a receiver's jobs never run
    on two threads at once.  Returns, per receiver, None or the first error
    its framer or one of its batches raised; no later batch of that
    receiver runs.  An error of the stream itself, or of ``take``, is raised
    once the worker is joined.  The stream, if it has a ``close``, is closed
    on every exit, so a generator's own threads (a noisy link's noise
    helper) end within the call.
    """
    framers = [(tail, _Framer(window_length, hop, gate))
               for tail, window_length, hop, gate in receivers]
    errors = [None] * len(framers)
    # (receiver, future, box, window) of the batches not yet handed on, in submission
    # order; the box holds the batch's frames until its job starts
    queue = deque()
    failed = set()  # receivers whose batch failed; no later job of theirs starts
    ended = False  # the stream has ended: the calling thread runs jobs too
    executor = ThreadPoolExecutor(max_workers=1)

    def run(r, box, window, rows):  # a job's results, in consecutive pieces of `rows` frames
        frames = box.pop()  # a started job takes its frames out of the queue
        if r in failed:  # an earlier batch of r failed: this one goes nowhere
            return []
        try:
            return [job(r, frames[q:q + rows], window) for q in range(0, len(frames), rows)]
        except Exception:
            failed.add(r)
            raise

    def run_here():  # run the newest job that may run on this thread; False if none
        for i in reversed(range(len(queue))):
            r, future, box, window = queue[i]
            if (all(f.done() for s, f, *_ in queue if s == r and f is not future)
                    and future.cancel()):
                ran = Future()  # this thread runs the job as an executor would
                try:
                    ran.set_result(run(r, box, window, max(1, _DRAIN_PIECE // window.size)))
                except Exception as exc:
                    ran.set_exception(exc)
                queue[i] = (r, ran, box, window)
                return True
        return False

    def hand_on():
        while ended and not queue[0][1].done() and run_here():
            pass
        r, future, _, _ = queue.popleft()
        if errors[r] is None:
            try:
                results = future.result()
            except Exception as exc:
                errors[r] = exc
            else:
                for result in results:
                    take(r, result)

    def feed(r, frames, window):
        while queue and (len(queue) >= len(framers) or queue[0][1].done()):
            hand_on()
        box = [frames]
        queue.append((r, executor.submit(run, r, box, window, len(frames)), box, window))

    with executor:
        try:
            for step in steps:
                for r, (tail, framer) in enumerate(framers):
                    for frames in framer.push(step[tail]) if errors[r] is None else ():
                        feed(r, frames, framer.window)
        finally:
            if hasattr(steps, "close"):
                steps.close()
        ended = True
        for r, (_, framer) in enumerate(framers):
            try:
                if errors[r] is None and (frames := framer.close()) is not None:
                    feed(r, frames, framer.window)
            except DomainError as exc:  # a stream shorter than the receiver's window
                errors[r] = exc
        while queue:
            hand_on()
    return errors


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
    check_framing(window_length, hop)
    values = samples.values if isinstance(samples, SensorTrace) else np.asarray(samples)
    shape = (max(0, (values.size - window_length) // hop + 1), window_length // 2 + 1)
    try:
        mags = np.empty(shape, dtype=_work_dtype(values.dtype))
    except (MemoryError, ValueError):  # numpy refuses a size it cannot address
        raise ConfigError(f"a spectrogram of {shape[0]} frames of {shape[1]} bins "
                          "does not fit in memory; use a longer hop") from None
    filled = 0

    def fill(_, batch):
        nonlocal filled
        mags[filled:filled + batch.shape[0]] = batch
        filled += batch.shape[0]

    error, = _receive(steps, [(0, window_length, hop, 1)],
                      lambda _, frames, window: _spectra(frames, window), fill)
    if error is not None:
        raise error
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


def _track_stft(frames: np.ndarray, window: np.ndarray, sample_rate: float):
    """``dominant_frequency(stft(...))`` of one batch, from its frames' magnitude spectra alone."""
    return _peaks(_spectra(frames, window), sample_rate / window.size)


def _track_zero_crossing(frames: np.ndarray, window: np.ndarray, sample_rate: float):
    """Time-domain frequency of one batch of frames: rising-edge counting.

    The frames are not weighted by ``window``, and no spectra are taken.
    Frequency is the number of rising edges (crossings of the frame's
    min/max midpoint) divided by the window duration.  Confidence is
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
    return freqs, np.clip(1.0 - ratio, 0.0, 1.0)


#: tracker name -> (batch function, confidence floor below which a slot is
#: erased); the function maps a batch's frames, the receiver's Hann window
#: and the sample rate to the frames' frequencies and confidences
#: (zero-crossing's lie in [0, 1]).  Each call is one job of `_receive`, run
#: on its worker thread, one job at a time.
TRACKERS = {"stft": (_track_stft, 2.0), "zero_crossing": (_track_zero_crossing, 0.5)}


def track_all(samples, receivers: list, tracker: str = "stft",
              sample_rate: float | None = None) -> list:
    """Track one stream with several receivers in lockstep.

    ``samples`` is a SensorTrace, a plain array or an iterator of steps (the
    last two with ``sample_rate``) through `_receive`, whose job for each
    batch of a receiver's frames, as soon as it is complete, is the
    ``TRACKERS[tracker]`` batch function of the frames.  ``receivers`` lists
    ``(tail, window_length, hop)`` triples; a fourth element, a gate D (1 if
    left out), has the receiver sum each gate of D samples of its tail, 0/1
    bytes, before framing them (see `_Framer`): its frames are then
    ``window_length // D`` sums at the sample rate over D, so the bin width
    (the sample rate over ``window_length``), the frame count and the frame
    times are those of the full-rate receiver; the harness derives D from
    the link's config.  Returns, per receiver and in receiver order, its
    `FrequencyTrack` or the `DomainError` it ended with (a stream shorter
    than its window, which then never builds its window, or the first
    `DomainError` one of its batches raised).  Another error of a batch, or
    an error of the stream itself, is raised once the worker has finished.
    """
    steps, fs = _as_stream(samples, sample_rate)
    fn, _ = TRACKERS[tracker]
    receivers = [_receiver(*receiver) for receiver in receivers]
    rates = [fs / gate for *_, gate in receivers]  # exact: the gate is a power of two
    results = [[] for _ in receivers]
    errors = _receive(steps, receivers, lambda r, frames, window: fn(frames, window, rates[r]),
                      lambda r, result: results[r].append(result))
    return [_finish(batches, error, window_length, hop, fs)
            for (_, window_length, hop, _), batches, error in zip(receivers, results, errors)]


def _receiver(tail: int, window_length: int, hop: int, gate: int = 1) -> tuple:
    """A receiver as `_receive` takes it: ``(tail, window_length, hop, gate)``."""
    return tail, window_length, hop, gate


def _finish(batches: list, error, window_length: int, hop: int,
            sample_rate: float) -> FrequencyTrack | DomainError:
    """A receiver's track from its batches' results, or the `DomainError` it ended with."""
    if isinstance(error, DomainError):
        return error
    if error is not None:
        raise error
    freqs, confs = (np.concatenate(column) for column in zip(*batches))
    times = _frame_times(freqs.size, window_length, hop, sample_rate)
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
