#!/usr/bin/env python3
"""lightleak benchmark: the covert link and its sweeps, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload link_clean --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (see ``workloads.py``): ``link_clean`` (the criterion-5 link),
``noise_sweep`` (criterion 6) and ``window_sweep`` (criterion 7); ``all``
runs each in its own process, so no workload's peak memory shows in
another's reading.

``--trace 0`` times the public calls for ``--seconds`` seconds with tracing
off and reports the end-to-end metrics.  ``--trace 1`` runs a fixed set of
operations untraced, then the same set traced, and reports per-layer self
times and counts; the spans go to ``.bench_out/``.  Both modes check the
outputs, print a digest of them, and exit 1 if a check fails.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--size tiny`` shrinks every workload to a smoke-test size.  The package is
imported from ``src/`` of the checkout this file sits in; without it the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("link_clean", "noise_sweep", "window_sweep")
#: setups per timed run, the first in this process and the rest in fresh ones
SETUP_REPEATS = {"full": 3, "tiny": 2}
#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once in this process, print the time, and exit")
    return parser.parse_args(argv)


def set_up(args):
    """Import the package, build the inputs and make one untimed transmission."""
    started = time.perf_counter()
    import workloads
    workload = workloads.make(args.workload, args.seed, tiny=args.size == "tiny")
    workload.warm_up()
    return workload, time.perf_counter() - started


def probe_setup(args) -> float:
    """Set-up time of a fresh process, as a first run from the CLI pays it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_op(workload, index: int, tracer=None):
    """Make one timed public call and assess its output."""
    job = workload.job(index)
    if tracer is None:
        started = time.perf_counter()
        try:
            result = workload.call(job)
        except Exception as exc:  # the workload's checks report it
            result = exc
        elapsed = time.perf_counter() - started
    else:
        with tracer.op(index) as span:
            try:
                result = workload.call(job)
            except Exception as exc:
                result = exc
        elapsed = span.duration
    return workload.assess(job, result, elapsed)


def tail(values):
    """The highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile)``; with too few samples for any such
    percentile, the maximum and ``None``.
    """
    ordered = sorted(values)
    below = len(ordered) - TAIL_BEYOND
    if below < 1:
        return ordered[-1], None
    return ordered[below - 1], 100.0 * below / len(ordered)


def simulated_stats(outcomes) -> dict:
    tx = sum(o.transmissions for o in outcomes)
    return {
        "ber_mean": sum(o.ber_sum for o in outcomes) / tx,
        "calib_fail_rate": sum(o.calibration_failures for o in outcomes) / tx,
        "error_rate": sum(o.errors for o in outcomes) / tx,
    }


def environment() -> dict:
    import numpy
    import scipy
    from lightleak import _kernels

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "lightleak").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "backend": _kernels.BACKEND,
        "machine": platform.machine(),
    }


def timed_run(args) -> dict:
    workload, first_setup = set_up(args)
    setups = [first_setup] + [probe_setup(args) for _ in range(SETUP_REPEATS[args.size] - 1)]

    outcomes = []
    started = time.perf_counter()
    deadline = started + args.seconds
    while len(outcomes) < workload.stats_ops or time.perf_counter() < deadline:
        outcomes.append(run_op(workload, len(outcomes)))
    wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    fixed = outcomes[:workload.stats_ops]
    stats = simulated_stats(fixed)
    tx = sum(o.transmissions for o in outcomes)
    per_tx = [o.elapsed / o.transmissions for o in outcomes]
    tail_value, tail_pct = tail(per_tx)
    metrics = {
        "tx_per_s": (tx / wall, "1/s"),
        "tx_s_p50": (statistics.median(per_tx), "s"),
        "tx_s_tail": (tail_value, "s"),
        "ns_per_sample": (1e9 * sum(o.elapsed for o in outcomes)
                          / sum(o.samples for o in outcomes), "ns"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "bit_accuracy": (1.0 - stats["ber_mean"], "fraction"),
        "calib_ok_rate": (1.0 - stats["calib_fail_rate"], "fraction"),
        "tx_ok_rate": (1.0 - stats["error_rate"], "fraction"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return {
        "outcomes": outcomes,
        "fixed": fixed,
        "problems": workload.check_totals(fixed),
        "metrics": metrics,
        "detail": {
            "wall_s": wall,
            "operations": len(outcomes),
            "transmissions": tx,
            "tx_s_samples": len(per_tx),
            "tx_s_tail_percentile": tail_pct,
            "setup_s_samples": setups,
            "simulated_over_transmissions": sum(o.transmissions for o in fixed),
            **stats,
        },
    }


def traced_run(args) -> dict:
    workload, _ = set_up(args)
    import tracing
    import workloads
    from lightleak import _kernels, bulb, channel, codec, dsp, harness

    ops = range(workload.trace_ops)
    untraced = [run_op(workload, i) for i in ops]

    tracer = tracing.Tracer({"bulb": bulb, "kernels": _kernels, "channel": channel,
                             "dsp": dsp, "codec": codec, "harness": harness})
    origin = time.perf_counter()
    tracer.install()
    try:
        traced = [run_op(workload, i, tracer) for i in ops]
    finally:
        tracer.uninstall()

    problems = workload.check_totals(traced)
    if workloads.digest(traced) != workloads.digest(untraced):
        problems.append("traced outputs differ from untraced outputs")
    metrics = tracing.layer_metrics(tracer)
    traced_wall = sum(o.elapsed for o in traced)
    untraced_wall = sum(o.elapsed for o in untraced)
    self_sum = sum(v for name, (v, _) in metrics.items() if name.endswith(".self_s"))
    if abs(self_sum - traced_wall) > 1e-6:
        problems.append(f"layer self times sum to {self_sum} s, traced wall is {traced_wall} s")
    metrics.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.transmissions": (sum(o.transmissions for o in traced), "count"),
        "trace.spans": (len(tracer.spans), "count"),
    })

    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_file, origin)
    return {
        "outcomes": untraced + traced,
        "fixed": traced,
        "problems": problems,
        "metrics": metrics,
        "detail": {"spans_file": str(spans_file.relative_to(ROOT)),
                   "layer_self_sum_s": self_sum},
    }


def report(args, run: dict) -> int:
    import workloads

    outcomes = run["outcomes"]
    problems = [p for o in outcomes for p in o.problems] + run["problems"]
    attempted = sum(o.transmissions for o in outcomes)
    failed = sum(o.errors for o in outcomes)
    digest = workloads.digest(run["fixed"])
    env = environment()
    mode = "traced" if args.trace else "timed"

    print(f"lightleak benchmark: workload {args.workload}, seed {args.seed}, "
          f"{mode}, size {args.size}, backend {env['backend']}")
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name:<26} {value:>16.6g} {unit}")
    for key, value in run["detail"].items():
        print(f"  {key}: {value}")
    print(f"  digest of the first {len(run['fixed'])} operations' outputs: {digest}")
    print(f"  env: {json.dumps(env, sort_keys=True)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "workload": args.workload, "seed": args.seed,
                                  "size": args.size, "detail": run["detail"],
                                  "digest": digest, "env": env, "problems": problems},
                                 indent=2) + "\n")
    print(f"  record: {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload, one after another, each in a fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=3 * CHILD_TIMEOUT_S, check=False)
        lines = done.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(f"workload {name} exited with {done.returncode} and no result",
                  file=sys.stderr)
            return 2
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lightleak" / "__init__.py").is_file():
        print(f"error: no lightleak package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # criterion 7 runs symbols shorter than its largest windows on purpose
    warnings.filterwarnings("ignore", message=".*slots may not settle")
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        _, seconds = set_up(args)
        print(json.dumps({"setup_s": seconds}))
        return 0
    return report(args, traced_run(args) if args.trace else timed_run(args))


if __name__ == "__main__":
    sys.exit(main())
