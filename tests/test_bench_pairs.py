"""The summary of `tools/bench_pairs.py`, on canned benchmark output."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from bench_pairs import parse_run, summarize  # noqa: E402


def _stdout(tx_per_s: float, rss: float, digest: str) -> str:
    """The tail of a timed `perfbench/run.py` run's standard output."""
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {"tx_per_s": {"value": tx_per_s, "unit": "1/s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return "\n".join([
        "lightleak benchmark: workload window_sweep, seed 1, timed, size full, backend numpy",
        f"  tx_per_s {tx_per_s} 1/s",
        f"  digest of the first 4 operations' outputs: {digest}",
        "  record: .bench_out/window_sweep-seed1-trace0.json",
        json.dumps(result),
    ]) + "\n"


def test_parse_run_reads_the_result_and_the_digest():
    metrics, digest = parse_run(_stdout(50.0, 120.5, "96fa9219"))
    assert metrics == {"tx_per_s": 50.0, "peak_rss_mb": 120.5}
    assert digest == "digest of the first 4 operations' outputs: 96fa9219"


def test_summary_gives_medians_quartiles_wins_and_the_rss_delta():
    base = [(50.0, 120.0), (52.0, 121.0), (48.0, 120.0), (51.0, 122.0), (49.0, 120.0)]
    change = [(55.0, 121.0), (51.0, 120.5), (56.0, 120.5), (57.0, 123.0), (54.0, 121.0)]
    pairs = [(parse_run(_stdout(*b, "d"))[0], parse_run(_stdout(*c, "d"))[0])
             for b, c in zip(base, change)]
    header, tx, rss, delta = summarize(
        pairs, {"tx_per_s": "higher", "tx_s_p50": "lower", "peak_rss_mb": "lower"})
    assert header.split()[0] == "metric"
    # base 48..52: median 50, quartiles 49 and 51; change 51..57: 55 [54, 56]
    assert tx.split() == ["tx_per_s", "50", "[49,", "51]", "55", "[54,", "56]", "+10.0", "%",
                          "4/5"]
    # a metric no run reports (tx_s_p50) is left out; lower RSS wins 1 pair of 5
    assert rss.split()[0] == "peak_rss_mb" and rss.split()[-1] == "1/5"
    # deltas 1.0, -0.5, 0.5, 1.0, 1.0
    assert delta == "peak_rss_mb delta (change - base) per pair: median +1.00 MB [+0.50, +1.00]"


@pytest.mark.parametrize("direction, wins", [("higher", "0/1"), ("lower", "1/1")])
def test_one_pair_and_a_tie(direction, wins):
    base, change = {"x": 2.0}, {"x": 1.0}
    _, line = summarize([(base, change)], {"x": direction})
    assert line.split() == ["x", "2", "[2,", "2]", "1", "[1,", "1]", "-50.0", "%", wins]
    _, tie = summarize([(base, base)], {"x": direction})
    assert tie.split()[-1] == "0/1"
