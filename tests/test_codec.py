"""Framing, symbol mapping, calibration, classification and decoding."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lightleak as ll
from lightleak import codec
from lightleak.codec import (
    ERASURE,
    PREAMBLE,
    Calibration,
    bits_to_text,
    calibrate,
    classify_symbols,
    covertness_check,
    decode_frame,
    encode_frame,
    throughput,
)
from lightleak.dsp import FrequencyTrack
from lightleak.errors import (
    CalibrationError,
    DomainError,
    FramingError,
    SyncError,
    TruncationError,
)

ALPHABET = ll.SymbolAlphabet()  # 135 / 140, delimiter 137, 1 s symbols


def make_track(symbols, f_zero=423_500.0, f_one=439_200.0, frames_per_slot=16,
               confidence=50.0, symbol_period=1.0):
    """Synthetic plateau track: 'd' = delimiter, '0'/'1' = data levels.

    Frame spacing is symbol_period / frames_per_slot so each symbol occupies
    one plateau of frames_per_slot frames.
    """
    f_delim = 0.5 * (f_zero + f_one)
    freq_of = {"d": f_delim, "0": f_zero, "1": f_one}
    freqs = np.concatenate([np.full(frames_per_slot, freq_of[s]) for s in symbols])
    dt = symbol_period / frames_per_slot
    times = np.arange(freqs.size) * dt
    confs = np.full(freqs.size, float(confidence))
    return FrequencyTrack(times, freqs, confs)


def track_for_bits(bits, **kwargs):
    symbols = "d"
    for b in bits:
        symbols += ("1" if b else "0") + "d"
    return make_track(symbols, **kwargs)


class TestEncodeFrame:
    def test_single_byte(self):
        bits = encode_frame(b"\x41")
        expected = list(PREAMBLE) + [0, 0, 0, 0, 0, 0, 0, 1] \
            + [0, 1, 0, 0, 0, 0, 0, 1] + [0]
        assert bits.tolist() == expected

    def test_empty_payload(self):
        bits = encode_frame(b"")
        assert bits.tolist() == list(PREAMBLE) + [0] * 8

    def test_all_ones_byte_parity_even(self):
        bits = encode_frame(b"\xff")
        assert bits[-1] == 0  # eight set bits, already even

    def test_oversized_payload(self):
        with pytest.raises(DomainError):
            encode_frame(bytes(256))


class TestBitsToSchedule:
    def test_single_one(self):
        sched = codec.bits_to_schedule([1], ALPHABET, start_time=2.0)
        assert [(c.at_time, c.level) for c in sched.commands] == \
            [(2.0, 140), (3.0, 137)]
        assert sched.initial_level == 137

    def test_one_zero_pattern(self):
        alphabet = ll.SymbolAlphabet(symbol_period=0.1)
        sched = codec.bits_to_schedule([1, 0], alphabet)
        assert [c.level for c in sched.commands] == [140, 137, 135, 137]
        assert [c.at_time for c in sched.commands] == \
            pytest.approx([0.0, 0.1, 0.2, 0.3], abs=1e-12)

    def test_empty_bits(self):
        sched = codec.bits_to_schedule([], ALPHABET)
        assert len(sched) == 0

    def test_rejects_erasures(self):
        with pytest.raises(DomainError):
            codec.bits_to_schedule([1, ERASURE], ALPHABET)

    def test_rate_limit_identity(self):
        # schedules are rate-compliant by construction whenever the symbol
        # period respects the bridge limit
        rng = np.random.default_rng(2)
        for _ in range(10):
            period = float(rng.uniform(0.005, 0.5))
            alphabet = ll.SymbolAlphabet(symbol_period=period)
            bits = rng.integers(0, 2, size=24)
            sched = codec.bits_to_schedule(bits, alphabet, start_time=1.0)
            limited, delay = ll.apply_rate_limit(sched, 1.0 / period)
            assert delay == 0.0
            assert limited == sched


class TestThroughput:
    def test_rate_limited(self):
        assert throughput(ll.SymbolAlphabet(symbol_period=0.1), 10.0) == 5.0

    def test_symbol_limited(self):
        assert throughput(ll.SymbolAlphabet(symbol_period=0.005), 200.0) == 100.0

    def test_infinite_period(self):
        assert throughput(ll.SymbolAlphabet(symbol_period=float("inf")), 10.0) == 0.0

    def test_never_exceeds_half_rate(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            alphabet = ll.SymbolAlphabet(symbol_period=float(rng.uniform(1e-3, 10)))
            rate = float(rng.uniform(0.1, 1000))
            assert throughput(alphabet, rate) <= rate / 2 + 1e-12


class TestCovertness:
    def test_paper_pair_is_covert(self):
        assert covertness_check(ll.SymbolAlphabet(135, 140, 137)) == "covert"

    def test_fifteen_visible(self):
        assert covertness_check(ll.SymbolAlphabet(135, 150, 140)) == "visible"

    def test_boundary_ten_visible(self):
        assert covertness_check(ll.SymbolAlphabet(135, 145, 140)) == "visible"


class TestCalibrate:
    def test_ideal_preamble_track(self):
        track = track_for_bits(PREAMBLE)
        cal = calibrate(track, ALPHABET)
        assert cal.f_zero == pytest.approx(423_500.0)
        assert cal.f_one == pytest.approx(439_200.0)
        assert cal.threshold == pytest.approx(431_350.0)

    def test_end_to_end_closed_form(self, fast_link):
        # noiseless preamble at reference geometry: plateaus land within half
        # an STFT bin of (level/255) * 800 kHz
        config, alphabet = fast_link
        sched = codec.bits_to_schedule(PREAMBLE, alphabet,
                                       start_time=2 * alphabet.symbol_period)
        duration = sched.last_time + config.fade_duration + 2 * alphabet.symbol_period
        sensor = ll.simulate_link(sched, config, duration)
        track = ll.dominant_frequency(ll.stft(sensor, 4096, 2048))
        cal = calibrate(track, alphabet)
        bin_width = config.sample_rate / 4096
        assert cal.f_zero == pytest.approx(135 / 255 * 800e3, abs=0.5 * bin_width)
        assert cal.f_one == pytest.approx(140 / 255 * 800e3, abs=0.5 * bin_width)
        assert cal.threshold == pytest.approx(137.5 / 255 * 800e3, abs=0.5 * bin_width)

    def test_insufficient_separation_fails(self):
        rng = np.random.default_rng(8)
        track = track_for_bits(PREAMBLE, f_zero=400_000.0, f_one=400_400.0)
        noisy = FrequencyTrack(track.frame_times,
                               track.frequencies + rng.normal(0, 500.0, len(track)),
                               track.confidences)
        with pytest.raises(CalibrationError):
            calibrate(noisy, ALPHABET)

    def test_too_few_slots_fails(self):
        track = track_for_bits([1, 0, 1])
        with pytest.raises(CalibrationError):
            calibrate(track, ALPHABET)

    def test_flat_track_fails(self):
        track = make_track("d" * 40)
        with pytest.raises((CalibrationError, FramingError)):
            calibrate(track, ALPHABET)


    def test_repeated_frame_times_fail_framing(self):
        # zero median frame spacing has no symbol-length meaning
        track = track_for_bits([1, 0])
        stuck = FrequencyTrack(np.zeros(50), track.frequencies[:50], track.confidences[:50])
        with pytest.raises(FramingError, match="frame spacing"):
            calibrate(stuck, ALPHABET)
        with pytest.raises(FramingError, match="frame spacing"):
            codec.symbol_slots(stuck, TestClassifySymbols.CAL, ALPHABET)


class TestClassifySymbols:
    CAL = Calibration(f_zero=423_500.0, f_one=439_200.0,
                      threshold=431_350.0, jitter=10.0)

    def test_round_trip_two_bits(self):
        track = track_for_bits([1, 0])
        bits, slots = classify_symbols(track, self.CAL, ALPHABET)
        assert bits.tolist() == [1, 0]
        assert len(slots) == 2

    def test_pure_delimiter_empty(self):
        track = make_track("d" * 30)
        bits, confidences = classify_symbols(track, self.CAL, ALPHABET)
        assert bits.tolist() == []
        assert confidences.size == 0

    def test_erasure_marking(self):
        bits = [1, 0, 1, 1, 0]
        track = track_for_bits(bits)
        confs = track.confidences.copy()
        # dropout over the third data slot (slots alternate d b d b ...)
        slot = 16 * 5
        confs[slot:slot + 16] = 0.5
        dropped = FrequencyTrack(track.frame_times, track.frequencies, confs)
        got, confidences = classify_symbols(dropped, self.CAL, ALPHABET)
        assert got.tolist() == [1, 0, ERASURE, 1, 0]
        # each bit comes from the slot at the same index
        assert (confidences < 1.0).tolist() == [False, False, True, False, False]

    def test_an_infinite_symbol_period_spans_no_frames(self):
        track = track_for_bits(PREAMBLE)
        endless = ll.SymbolAlphabet(symbol_period=float("inf"))
        with pytest.raises(FramingError, match="no finite number of frames"):
            calibrate(track, endless)
        with pytest.raises(FramingError, match="no finite number of frames"):
            classify_symbols(track, self.CAL, endless)

    def test_no_delimiter_structure(self):
        track = make_track("1" * 30)
        with pytest.raises(FramingError):
            classify_symbols(track, self.CAL, ALPHABET)

    def test_scaling_invariance(self):
        bits = list(PREAMBLE) + [1, 1, 0, 1, 0, 0]
        track = track_for_bits(bits)
        cal = calibrate(track, ALPHABET)
        base, _ = classify_symbols(track, cal, ALPHABET)
        for scale in (0.25, 3.0):
            scaled = FrequencyTrack(track.frame_times, track.frequencies * scale,
                                    track.confidences)
            cal_s = calibrate(scaled, ALPHABET)
            assert cal_s.threshold == pytest.approx(cal.threshold * scale, rel=1e-9)
            assert np.array_equal(classify_symbols(scaled, cal_s, ALPHABET)[0], base)


@st.composite
def float_runs(draw):
    """A float dtype and runs of values of it: ties, odd and even lengths, no run at all."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    info = np.finfo(dtype)
    # the whole finite range; a signed zero is drawn as +0.0, since which of
    # two tied zeros sorts to the middle is the sort's choice
    floats = st.floats(-info.max, info.max, width=info.bits).map(lambda v: v + 0.0)
    pool = draw(st.lists(floats, min_size=1, max_size=3))  # values drawn again make ties
    value = st.one_of(st.sampled_from(pool), floats)
    return dtype, draw(st.lists(st.lists(value, min_size=1, max_size=9), max_size=8))


@settings(deadline=None)
@given(float_runs())
@example((np.float64, []))
@example((np.float32, [[1.0], [0.1, 0.2], [3.0, 1.0, 3.0], [5.0, 4.0, 5.0, 4.0]]))
# an odd run's middle element is its median however large; two large middle
# elements overflow to inf in both
@example((np.float64, [[1e308] * 3, [1e308, 1e308], [-1.7e308, 1.7e308, -1.7e308]]))
@example((np.float32, [[3e38], [3e38, 3e38, 3e38, 3e38], [-3e38, 1.0, -3e38]]))
def test_medians_are_np_median(dtype_runs):
    dtype, runs = dtype_runs
    values = np.array([v for run in runs for v in run], dtype=dtype)
    lengths = np.array([len(run) for run in runs], dtype=np.intp)
    with np.errstate(over="ignore"):  # an even run's sum may overflow, in np.median too
        want = np.array([np.median(np.array(run, dtype=dtype)) for run in runs], dtype=dtype)
        got = codec._medians(values, lengths)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestDecodeFrame:
    def test_bits_of_two_rows(self):
        bits = np.stack([encode_frame(b"\x41")] * 2)
        with pytest.raises(DomainError, match="one-dimensional"):
            decode_frame(bits)

    def test_exact_inverse(self):
        payload = b"\x41\x42\x43"
        report = decode_frame(encode_frame(payload), reference=payload)
        assert report.payload == payload
        assert report.parity_failures == 0
        assert report.frames_ok == 1
        assert report.ber == 0.0

    def test_inverse_random_payloads(self):
        rng = np.random.default_rng(21)
        for n in (0, 1, 7, 32, 255):
            payload = bytes(rng.integers(0, 256, size=n).tolist())
            report = decode_frame(encode_frame(payload), reference=payload)
            assert report.payload == payload
            assert report.ber == 0.0
            assert report.parity_failures == 0

    def test_single_flipped_bit(self):
        payload = b"\x41\x42"
        bits = encode_frame(payload)
        bits[PREAMBLE.size + 8 + 3] ^= 1  # a data bit of the first byte
        report = decode_frame(bits, reference=payload)
        assert report.parity_failures == 1
        assert report.frames_ok == 0
        assert report.ber == pytest.approx(1 / 16)

    def test_random_bits_sync_error_rate(self):
        rng = np.random.default_rng(17)
        false_syncs = 0
        trials = 200
        for _ in range(trials):
            bits = rng.integers(0, 2, size=64).astype(np.int8)
            try:
                decode_frame(bits)
                false_syncs += 1
            except SyncError:
                pass
            except TruncationError:
                false_syncs += 1  # synced, then ran out of bits
        # ~0.2 % per offset, 49 offsets: expect roughly 10 % false syncs
        assert false_syncs / trials < 0.25

    def test_preamble_erasures_count_as_mismatch(self):
        # erase three spread-out preamble bits so no offset reaches 14/16
        # (the alternating pattern self-correlates at even shifts, so erasing
        # only leading bits would let sync lock two bits late)
        bits = encode_frame(b"")
        bits[[0, 5, 9]] = ERASURE
        with pytest.raises(SyncError):
            decode_frame(bits)

    def test_two_preamble_erasures_still_sync(self):
        payload = b"\x41"
        bits = encode_frame(payload)
        bits[0:2] = ERASURE  # 14/16 still matching
        report = decode_frame(bits, reference=payload)
        assert report.payload == payload

    def test_truncation_error(self):
        bits = encode_frame(b"\x41\x42\x43")
        with pytest.raises(TruncationError):
            decode_frame(bits[:-5])

    def test_length_field_truncation(self):
        bits = np.concatenate([PREAMBLE, [0, 1]]).astype(np.int8)
        with pytest.raises(TruncationError):
            decode_frame(bits)

    def test_payload_erasure_fails_parity(self):
        payload = b"\x0f"
        bits = encode_frame(payload)
        bits[-2] = ERASURE
        report = decode_frame(bits, reference=payload)
        assert report.parity_failures == 1

    def test_mean_confidence(self):
        payload = b"\x41"
        bits = encode_frame(payload)
        confs = np.full(bits.size, 8.0)
        report = decode_frame(bits, reference=payload, confidences=confs)
        assert report.mean_confidence == pytest.approx(8.0)
        assert decode_frame(bits, reference=payload).mean_confidence is None


#: first payload bit of an encoded frame: after the preamble and the length byte
DATA_START = PREAMBLE.size + 8
payloads = st.binary(min_size=1, max_size=codec.MAX_PAYLOAD)


class TestFrameProperties:
    @settings(deadline=None)
    @given(st.binary(max_size=codec.MAX_PAYLOAD))
    def test_round_trip(self, payload):
        report = decode_frame(encode_frame(payload), reference=payload)
        assert report.payload == payload
        assert report.parity_failures == 0
        assert report.frames_ok == 1
        assert report.ber == 0.0

    @settings(deadline=None)
    @given(payloads, st.data(), st.sets(st.integers(0, 7), min_size=1))
    def test_flipped_bits_of_one_byte(self, payload, data, flipped):
        byte = data.draw(st.integers(0, len(payload) - 1))
        bits = encode_frame(payload)
        bits[DATA_START + 9 * byte + np.array(sorted(flipped))] ^= 1
        report = decode_frame(bits, reference=payload)
        k = len(flipped)
        assert report.parity_failures == k % 2
        assert report.ber == k / (8 * len(payload))

    @settings(deadline=None)
    @given(payloads, st.data(), st.integers(0, 8))
    def test_single_erasure_in_a_group(self, payload, data, position):
        byte = data.draw(st.integers(0, len(payload) - 1))
        bits = encode_frame(payload)
        bits[DATA_START + 9 * byte + position] = ERASURE
        report = decode_frame(bits, reference=payload)
        assert report.parity_failures == 1
        # an erased data bit is a bit error; an erased parity bit is not
        assert report.ber == (position < 8) / (8 * len(payload))

    @settings(deadline=None)
    @given(st.binary(max_size=16), st.sets(st.integers(0, PREAMBLE.size - 1), max_size=2))
    def test_up_to_two_preamble_erasures_sync(self, payload, erased):
        bits = encode_frame(payload)
        bits[sorted(erased)] = ERASURE
        report = decode_frame(bits, reference=payload)
        assert report.payload == payload
        assert report.ber == 0.0


class TestBitText:
    def test_bits_as_text(self):
        bits = np.array([0, 1, 1, ERASURE, 0], dtype=np.int8)
        assert bits_to_text(bits) == "011e0"

    def test_bad_character(self):
        # a bit value that has no character
        with pytest.raises(DomainError, match="cannot serialise bit value"):
            bits_to_text(np.array([0, 1, 2], dtype=np.int8))
