"""Alternating benchmark pairs: one checkout against another, run by run.

Runs ``perfbench/run.py`` of two checkouts of this repository, BASE and
CHANGE (for example a ``git worktree`` of the parent commit and this one),
for ``--pairs`` pairs.  Each pair runs both once, alternating which goes
first, so a slow spell of the host hits both sides alike.  Prints each run's
digest line as it finishes, then, per end-to-end metric of
``BENCHMARK.json``: both sides' medians and quartiles, the change of the
median, and the pairs the change won; then the median of the pairs'
``peak_rss_mb`` deltas.  Standard library only::

    python3 tools/bench_pairs.py BASE CHANGE --workload window_sweep --pairs 10 \\
        [--seed 1] [--seconds 30]

Exits 1 if a run fails its own checks or prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST_MARK = "digest of the first"


def parse_run(stdout: str) -> tuple[dict, str]:
    """A run's metric values by name and its digest line, from its standard output.

    The last line is the run's JSON result (see ``perfbench/run.py``).
    """
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((line.strip() for line in lines if DIGEST_MARK in line), "")
    return {name: entry["value"] for name, entry in result["metrics"].items()}, digest


def _quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list, better: dict) -> list[str]:
    """Report lines for ``pairs`` of ``(base, change)`` metric dicts.

    ``better`` maps each metric to report to ``"higher"`` or ``"lower"``; a
    pair is a win when the change's value is strictly better than the base's.
    """
    lines = [f"{'metric':<16} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32} "
             f"{'change':>9} {'wins':>6}"]
    for name, direction in better.items():
        if not all(name in base and name in change for base, change in pairs):
            continue
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        (bq1, bmed, bq3), (cq1, cmed, cq3) = _quartiles(base), _quartiles(change)
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        moved = f"{100 * (cmed - bmed) / bmed:+.1f} %" if bmed else "n/a"
        lines.append(f"{name:<16} {f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]':>32} "
                     f"{f'{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]':>32} {moved:>9} "
                     f"{f'{wins}/{len(pairs)}':>6}")
    if all("peak_rss_mb" in base and "peak_rss_mb" in change for base, change in pairs):
        q1, median, q3 = _quartiles([c["peak_rss_mb"] - b["peak_rss_mb"] for b, c in pairs])
        lines.append(f"peak_rss_mb delta (change - base) per pair: median {median:+.2f} MB "
                     f"[{q1:+.2f}, {q3:+.2f}]")
    return lines


def run_once(checkout: Path, args) -> tuple[dict, str]:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{checkout}: perfbench/run.py exited with {done.returncode}")
    return parse_run(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=("link_clean", "noise_sweep", "window_sweep"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    pairs = []
    for i in range(args.pairs):
        sides = [("base", args.base), ("change", args.change)]
        runs = {}
        for side, checkout in sides if i % 2 == 0 else sides[::-1]:
            runs[side], digest = run_once(checkout.resolve(), args)
            print(f"pair {i + 1} {side:<6} {digest}", flush=True)
        pairs.append((runs["base"], runs["change"]))
    print("\n".join(summarize(pairs, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
