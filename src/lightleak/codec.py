"""Payload framing, symbol mapping, calibration and classification.

Bits ride on brightness levels: a logical one is the higher level, a logical
zero the lower, and a third level strictly between the two is sent after
every data bit as a delimiter, so the receiver can segment symbol slots
without a clock.  Frames carry a 16-bit alternating preamble (used both for
synchronisation and for calibrating the 0/1 frequency plateaus), an 8-bit
length, and one even-parity bit per payload byte.

Recovered bit sequences use 0, 1 and -1 (erasure, printed as ``e``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bulb import BrightnessCommand, CommandSchedule
from .config import SymbolAlphabet
from .dsp import TRACKERS, FrequencyTrack
from .errors import CalibrationError, DomainError, FramingError, SyncError, TruncationError

#: alternating sync/calibration pattern prefixed to every frame
PREAMBLE = np.array([1, 0] * 8, dtype=np.int8)
#: marker for a slot whose confidence fell below the floor
ERASURE = -1
#: preamble matches required to declare sync
SYNC_THRESHOLD = 14
#: level separation at which a brightness change becomes visible to the eye
VISIBILITY_THRESHOLD = 10
#: number of symbol periods from track start guaranteed to cover the preamble
_EARLY_SYMBOLS = 40.0
#: fraction of a symbol period a plateau must persist to count as one
_MIN_PLATEAU_FRACTION = 0.15
#: delimiter acceptance band, as a fraction of the one/zero separation
_BAND_FRACTION = 0.25
#: default confidence floor below which a slot is marked as an erasure (stft's)
DEFAULT_CONFIDENCE_FLOOR = TRACKERS["stft"][1]

MAX_PAYLOAD = 255


@dataclass(frozen=True)
class Calibration:
    """Receiver-side frequency plateaus learned from the preamble."""

    f_zero: float
    f_one: float
    threshold: float
    jitter: float


@dataclass(frozen=True)
class DecodeReport:
    """Outcome of decoding a recovered bit sequence."""

    bits: np.ndarray
    payload: bytes | None
    frames_ok: int
    parity_failures: int
    ber: float | None
    mean_confidence: float | None
    #: index into ``bits`` where the preamble was found
    sync: int | None = None
    #: the plateaus the bits were classified with, when the harness decoded them
    calibration: Calibration | None = None

    def __post_init__(self):
        if self.ber is not None and not 0.0 <= self.ber <= 1.0:
            raise DomainError(f"ber must lie in [0, 1], got {self.ber}")


def encode_frame(payload: bytes) -> np.ndarray:
    """Frame a payload as bits: preamble, length byte, bytes with even parity."""
    payload = bytes(payload)
    if len(payload) > MAX_PAYLOAD:
        raise DomainError(f"payload must be <= {MAX_PAYLOAD} bytes, got {len(payload)}")
    bits = np.unpackbits(np.frombuffer(bytes([len(payload)]) + payload, dtype=np.uint8))
    data = bits[8:].reshape(-1, 8)
    parity = data.sum(axis=1, keepdims=True, dtype=np.uint8) % 2  # even parity
    groups = np.hstack([data, parity])
    return np.concatenate([PREAMBLE, bits[:8], groups.ravel()]).astype(np.int8)


def bits_to_schedule(bits, alphabet: SymbolAlphabet, start_time: float = 0.0) -> CommandSchedule:
    """Turn bits into brightness commands: one data level then one delimiter per bit.

    Command ``2k`` sets the level for bit ``k`` at ``start_time + 2k*T``;
    command ``2k+1`` returns to the delimiter one symbol period later.  The
    schedule starts from the delimiter level and ends on it, and its uniform
    spacing of one symbol period keeps it rate-limit compliant whenever
    ``symbol_period >= 1/max_command_rate``.
    """
    if start_time < 0:
        raise DomainError(f"start_time must be >= 0, got {start_time}")
    period = alphabet.symbol_period
    commands = []
    for k, bit in enumerate(bits):
        if bit not in (0, 1):
            raise DomainError(f"cannot schedule bit value {bit!r}")
        level = alphabet.level_one if bit == 1 else alphabet.level_zero
        commands.append(BrightnessCommand(start_time + (2 * k) * period, level))
        commands.append(BrightnessCommand(start_time + (2 * k + 1) * period,
                                          alphabet.level_delimiter))
    return CommandSchedule(tuple(commands), alphabet.level_delimiter)


def throughput(alphabet: SymbolAlphabet, max_command_rate: float) -> float:
    """Payload bit rate: two commands per data bit, capped by the bridge."""
    if max_command_rate <= 0:
        raise DomainError(f"max_command_rate must be > 0, got {max_command_rate}")
    return min(1.0 / (2.0 * alphabet.symbol_period), max_command_rate / 2.0)


def covertness_check(alphabet: SymbolAlphabet) -> str:
    """Whether the alphabet's level separation is noticeable to the naked eye.

    Distinguishing two levels takes roughly 10 to 15 levels of separation;
    this check flags the conservative lower end.
    """
    return "visible" if alphabet.separation >= VISIBILITY_THRESHOLD else "covert"


# ---------------------------------------------------------------------------
# track segmentation


def _plateau_runs(in_band: np.ndarray, min_run: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and end frames of the in-band runs at least ``min_run`` long."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], in_band, [False]))))
    starts, ends = edges.reshape(-1, 2).T
    keep = ends - starts >= min_run
    return starts[keep], ends[keep]


def _min_run_frames(track: FrequencyTrack, alphabet: SymbolAlphabet) -> int:
    if len(track) < 2:
        raise FramingError("track too short to segment")
    frame_dt = float(np.median(np.diff(track.frame_times)))
    if not (np.isfinite(frame_dt) and frame_dt > 0.0):
        raise FramingError(f"track frame spacing must be a positive time, got {frame_dt} s")
    frames = _MIN_PLATEAU_FRACTION * alphabet.symbol_period / frame_dt
    if not np.isfinite(frames):
        raise FramingError(f"a {alphabet.symbol_period} s symbol spans no finite number of frames")
    return max(2, int(round(frames)))


def _medians(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """`np.median` of each run of ``values``, the runs back to back and ``lengths`` long.

    One sort by (run, value); an odd run's median is its middle element, and
    an even run's its two middle elements added and divided by 2 in the
    values' dtype, as `np.median` does, so the result is its bit for bit
    (an even run's sum overflows where `np.median`'s does).  Every length
    is at least 1.
    """
    order = np.lexsort((values, np.repeat(np.arange(lengths.size), lengths)))
    starts = np.cumsum(lengths) - lengths
    # each run's middle element, or the upper of its two
    medians, even = values[order[starts + lengths // 2]], lengths % 2 == 0
    medians[even] = (values[order[starts[even] + lengths[even] // 2 - 1]] + medians[even]) / 2
    return medians


def _slots(track: FrequencyTrack, center: float, halfwidth: float,
           min_run: int) -> tuple[np.ndarray, ...]:
    """Data slots: the gaps of at least ``min_run`` frames between delimiter plateaus.

    Returns the frames of each slot's central half, back to back, the number
    of them per slot, and each slot's median frequency and confidence over
    them (float64).  Trimming the outer quarters keeps the fade transitions
    on either side from dragging the medians toward the delimiter; with
    ``min_run >= 2`` no central half is empty.
    """
    in_band = np.abs(track.frequencies - center) <= halfwidth
    delim_starts, delim_ends = _plateau_runs(in_band, min_run)
    if delim_starts.size == 0:
        raise FramingError("no delimiter structure found in track")
    starts, ends = delim_ends[:-1], delim_starts[1:]
    keep = ends - starts >= min_run
    cut = (ends[keep] - starts[keep]) // 4
    ends = ends[keep] - cut
    lengths = ends - (starts[keep] + cut)
    # slot i's central frames are the lengths[i] frames before its trimmed end
    frames = np.repeat(ends - np.cumsum(lengths), lengths) + np.arange(lengths.sum())
    freqs, confs = (_medians(a[frames], lengths) for a in (track.frequencies, track.confidences))
    return frames, lengths, freqs.astype(np.float64), confs.astype(np.float64)


def symbol_slots(track: FrequencyTrack, calibration: Calibration,
                 alphabet: SymbolAlphabet) -> tuple[np.ndarray, ...]:
    """Segment a track into data slots using the calibrated delimiter band.

    Returns, as `_slots` does, the central-half frames, their count per
    slot, and each slot's median frequency and confidence over them.
    """
    halfwidth = _BAND_FRACTION * (calibration.f_one - calibration.f_zero)
    return _slots(track, calibration.threshold, halfwidth, _min_run_frames(track, alphabet))


def calibrate(track: FrequencyTrack, alphabet: SymbolAlphabet) -> Calibration:
    """Learn the 0/1 frequency plateaus from the alternating preamble.

    Bootstraps a delimiter band from robust percentiles of the early part of
    the track (which the preamble occupies and keeps balanced), segments,
    and takes the median plateau frequency of the one-slots and zero-slots.
    Fails if the plateau separation does not clear twice the track jitter,
    distinguishing a channel too noisy to calibrate from decode errors.
    """
    if len(track) == 0:
        raise CalibrationError("empty track")
    min_run = _min_run_frames(track, alphabet)

    early_end = track.frame_times[0] + _EARLY_SYMBOLS * alphabet.symbol_period
    early = track.frequencies[track.frame_times <= early_end]
    p10, p90 = np.percentile(early, [10.0, 90.0])
    if not p90 > p10:
        raise CalibrationError("track shows no frequency spread to calibrate from")

    frames, lengths, medians, _ = _slots(track, 0.5 * (p10 + p90),
                                         _BAND_FRACTION * (p90 - p10), min_run)
    if lengths.size < PREAMBLE.size:
        raise CalibrationError(
            f"preamble region not found: {lengths.size} slots, need {PREAMBLE.size}")
    lengths, medians = lengths[:PREAMBLE.size], medians[:PREAMBLE.size]
    # preamble alternates 1,0,1,0,...: odd-numbered symbols carry ones
    f_one = float(np.median(medians[0::2]))
    f_zero = float(np.median(medians[1::2]))
    if f_one <= f_zero:
        raise CalibrationError("preamble plateaus are not ordered; cannot calibrate")

    residuals = np.abs(track.frequencies[frames[:lengths.sum()]] - np.repeat(medians, lengths))
    jitter = 1.4826 * float(np.median(residuals))
    if f_one - f_zero <= 2.0 * jitter:
        raise CalibrationError(
            f"level separation {f_one - f_zero:.1f} Hz below jitter bound "
            f"{2.0 * jitter:.1f} Hz")
    return Calibration(f_zero, f_one, 0.5 * (f_zero + f_one), jitter)


def classify_symbols(track: FrequencyTrack, calibration: Calibration,
                     alphabet: SymbolAlphabet,
                     confidence_floor: float = DEFAULT_CONFIDENCE_FLOOR
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Recover the bit sequence from a frequency track, with its slots' confidences.

    Delimiter plateaus split the track into data slots; a slot whose median
    frequency clears the calibrated threshold is a one, otherwise a zero.
    Slots whose median confidence falls below ``confidence_floor`` are marked
    as erasures rather than guessed.  ``bits[i]`` comes from the slot whose
    median confidence is ``confidences[i]``.
    """
    _, _, freqs, confs = symbol_slots(track, calibration, alphabet)
    bits = np.where(confs < confidence_floor, ERASURE, freqs >= calibration.threshold)
    return bits.astype(np.int8), confs


# ---------------------------------------------------------------------------
# frame decoding


def decode_frame(bits, reference: bytes | None = None,
                 confidences=None) -> DecodeReport:
    """Locate the preamble, parse one frame, and verify per-byte parity.

    Sync requires at least ``SYNC_THRESHOLD`` of the 16 preamble bits to match
    (erasures never match).  When a ``reference`` payload is given, ``ber`` is
    the fraction of its payload bits recovered incorrectly.  ``confidences``,
    when given, must align with ``bits``; the report averages them over the
    consumed frame.
    """
    bits = np.asarray(bits, dtype=np.int8)
    if bits.ndim != 1:
        raise DomainError(f"bits must be one-dimensional, got shape {bits.shape}")
    if confidences is not None:
        confidences = np.asarray(confidences, dtype=np.float64)
        if confidences.size != bits.size:
            raise DomainError("confidences must align with bits")

    n = bits.size
    matches = np.zeros(0, dtype=np.intp)
    if n >= PREAMBLE.size:
        matches = np.count_nonzero(sliding_window_view(bits, PREAMBLE.size) == PREAMBLE,
                                   axis=1)
    synced = np.flatnonzero(matches >= SYNC_THRESHOLD)
    if synced.size == 0:
        raise SyncError("preamble not found in recovered bits")
    sync = int(synced[0])

    pos = sync + PREAMBLE.size
    if pos + 8 > n:
        raise TruncationError("bits end before the length field")
    # erasures read as 0 in the length field and the payload bytes
    length = int(np.packbits(bits[pos:pos + 8] == 1)[0])
    pos += 8
    end = pos + 9 * length
    if end > n:
        raise TruncationError(
            f"length field says {length} bytes but only {n - pos} bits remain")

    groups = bits[pos:end].reshape(length, 9)
    data = groups[:, :8]
    clean = np.all(groups != ERASURE, axis=1)
    even = np.count_nonzero(groups == 1, axis=1) % 2 == 0
    parity_failures = int(np.count_nonzero(~(clean & even)))

    ber = None
    if reference is not None:
        ref_bits = np.unpackbits(np.frombuffer(bytes(reference), dtype=np.uint8))
        # raw data bits, so an erased bit never matches the reference
        got_bits = data.ravel()
        total = ref_bits.size
        if total == 0:
            ber = 0.0
        else:
            # a short recovered frame loses the reference's remaining bits
            m = min(total, got_bits.size)
            errors = int(np.count_nonzero(ref_bits[:m] != got_bits[:m])) + (total - m)
            ber = errors / total

    mean_confidence = None
    if confidences is not None and end > sync:
        mean_confidence = float(np.mean(confidences[sync:end]))

    return DecodeReport(
        bits=bits,
        payload=np.packbits(data == 1, axis=1).tobytes(),
        frames_ok=1 if parity_failures == 0 else 0,
        parity_failures=parity_failures,
        ber=ber,
        mean_confidence=mean_confidence,
        sync=sync,
    )


def bits_to_text(bits) -> str:
    """Serialise a bit sequence as 0/1/e characters."""
    out = []
    for b in bits:
        if b == ERASURE:
            out.append("e")
        elif b in (0, 1):
            out.append(str(int(b)))
        else:
            raise DomainError(f"cannot serialise bit value {b!r}")
    return "".join(out)

