"""Precision of the gated receiver against the full-rate one.

Renders the criterion-5, -6 and -7 links at fixed seeds and feeds each
sensor stream, in one pass, to two STFT receivers of every row's window:
one at the full sample rate and one with the gate D that `run_end_to_end`
and `sweep` give it (`harness._gate`).  Prints one row per link and swept
value: D, the settled frames, the largest and the median shift of a settled
frame's frequency (in Hz and in bins of ``sample_rate / window``), the
seeds whose two decode outcomes match (the same bits, or the same error at
the same stage), and both receivers' mean bit error rate (a failed decode
counts as 1, as in `sweep`).  A frame is settled when its window starts at least
`START_TAUS` sensor time constants into the stream (the sensor starts from
the first sample's light, a PWM peak) and holds no part of any command's
fade.  Numpy and the standard library only, besides the package
itself::

    python3 tools/gate_precision.py [--seeds N]

`TOLERANCE_BINS` is the bound the shifts keep on these links; a tier-1 test
runs a small case and asserts it.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: the largest shift of a settled frame's frequency, in bins, that the gate
#: may cause on the criterion-5, -6 and -7 links
TOLERANCE_BINS = 0.01
#: sensor time constants from the stream's start to the first settled window
START_TAUS = 5
#: the seeds the table is made with by default
SEEDS = (1, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class Row:
    """One link and swept value, over its seeds."""

    link: str
    value: float
    window: int
    gate: int
    settled: int
    max_hz: float
    median_hz: float
    max_bins: float
    matches: int
    seeds: int
    ber_full: float
    ber_gated: float


def _links():
    """(name, swept values, config of a value, alphabet, payload of a seed, window of a value)."""
    import lightleak as ll

    c5 = ll.ChannelConfig(noise_sigma=0.0, fade_duration=0.002, sensor_time_constant=0.001,
                          max_command_rate=200.0)
    c6 = ll.ChannelConfig(distance=0.3, fade_duration=0.001, max_command_rate=1000.0)
    c7 = ll.ChannelConfig(distance=0.4, fade_duration=0.00025, max_command_rate=4000.0,
                          noise_sigma=0.005)
    return {
        "criterion-5": ((0.0,), lambda v: c5, ll.SymbolAlphabet(symbol_period=0.005),
                        lambda seed: random.Random(seed).randbytes(8), lambda v: 4096),
        "criterion-6": ((0.0, 0.002, 0.01, 0.05), lambda v: c6.replace(noise_sigma=v),
                        ll.SymbolAlphabet(symbol_period=0.003), lambda seed: b"\xa5\x3c",
                        lambda v: 4096),
        "criterion-7": ((1024, 2048, 4096, 8192), lambda v: c7,
                        ll.SymbolAlphabet(level_zero=120, level_one=140, level_delimiter=130,
                                          symbol_period=0.00075),
                        lambda seed: b"\x96", int),
    }


def _settled(times: np.ndarray, window: int, config, schedule) -> np.ndarray:
    """Whether each frame's window, centred at ``times``, is settled."""
    half = window / 2.0 / config.sample_rate
    starts = np.array([c.at_time for c in schedule.commands])
    last = np.searchsorted(starts, times + half) - 1  # the last fade to start before the end
    faded = (last >= 0) & (starts[np.maximum(last, 0)] + config.fade_duration > times - half)
    return ~faded & (times - half >= START_TAUS * config.sensor_time_constant)


def _ber(outcome) -> float:
    return 1.0 if isinstance(outcome, Exception) else outcome.ber


def _same(a, b) -> bool:
    """Whether two decode outcomes match: equal bits, or one error at one stage."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and getattr(a, "stage", None) == getattr(b, "stage", None)
    return np.array_equal(a.bits, b.bits)


def measure(link: str, seeds=SEEDS, payload=None) -> list[Row]:
    """The rows of ``link`` over ``seeds``; ``payload`` replaces the link's own."""
    from lightleak import channel, dsp, harness

    values, config_of, alphabet, payload_of, window_of = _links()[link]
    shifts = {v: [] for v in values}
    matches = {v: 0 for v in values}
    bers = {v: [] for v in values}
    gates = {}
    for seed in seeds:
        sent = payload_of(seed) if payload is None else payload
        configs = [config_of(v).replace(rng_seed=seed) for v in values]
        tails = list(dict.fromkeys(configs))
        receivers = []
        for v, config in zip(values, configs):
            window = window_of(v)
            gates[v] = harness._gate(config, window, window // 2, "stft")
            tail = tails.index(config)
            receivers += [(tail, window, window // 2), (tail, window, window // 2, gates[v])]
        schedule, duration = harness.transmit(configs[0], alphabet, sent)
        steps = channel.link_blocks(schedule, tails, duration)
        tracks = dsp.track_all(steps, receivers, "stft", configs[0].sample_rate)
        for k, (v, config) in enumerate(zip(values, configs)):
            full, gated = tracks[2 * k:2 * k + 2]
            outcomes = [harness._outcome(t, alphabet, "stft", sent) for t in (full, gated)]
            matches[v] += _same(*outcomes)
            bers[v].append([_ber(o) for o in outcomes])
            if isinstance(full, Exception):
                continue
            keep = _settled(full.frame_times, window_of(v), config, schedule)
            shifts[v].append(np.abs(gated.frequencies - full.frequencies)[keep])
    rows = []
    for v in values:
        shift = np.concatenate(shifts[v]) if shifts[v] else np.empty(0)
        window = window_of(v)
        bin_width = config_of(v).sample_rate / window
        top = float(shift.max()) if shift.size else float("nan")
        rows.append(Row(link, v, window, gates[v], shift.size, top,
                        float(np.median(shift)) if shift.size else float("nan"),
                        top / bin_width, matches[v], len(seeds), *np.mean(bers[v], axis=0)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=len(SEEDS),
                        help="seeds 1..N of every link (default %(default)s)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    seeds = tuple(range(1, args.seeds + 1))
    print(f"seeds {seeds[0]}..{seeds[-1]}; shifts over settled frames, "
          f"tolerance {TOLERANCE_BINS} bins")
    print(f"{'link':<12} {'value':>7} {'window':>6} {'D':>3} {'settled':>8} {'max Hz':>8} "
          f"{'median Hz':>9} {'max bins':>8} {'decodes match':>13} {'BER full':>8} "
          f"{'gated':>6}")
    worst = 0.0
    for link in _links():
        for row in measure(link, seeds):
            worst = np.nanmax([worst, row.max_bins])
            print(f"{row.link:<12} {row.value:>7g} {row.window:>6} {row.gate:>3} "
                  f"{row.settled:>8} {row.max_hz:>8.2f} {row.median_hz:>9.3f} "
                  f"{row.max_bins:>8.4f} {row.matches:>6} of {row.seeds:<3}  "
                  f"{row.ber_full:>8.4f} {row.ber_gated:>6.4f}")
    print(f"largest shift {worst:.4f} bins: "
          f"{'within' if worst <= TOLERANCE_BINS else 'BEYOND'} the tolerance")
    return 0 if worst <= TOLERANCE_BINS else 1


if __name__ == "__main__":
    sys.exit(main())
