#!/usr/bin/env python3
"""Benchmark the numba-jitted kernels against their pure-numpy fallbacks.

Runs each hot kernel on a 10-megasample workload (one simulated second at the
default 10 MS/s) and prints per-backend timings plus the speedup.  Run after
any kernel change:

    python3 benchmarks/bench_kernels.py [--samples N] [--repeats K]
"""

import argparse
import time

import numpy as np

from lightleak import _kernels

FS = 10_000_000.0


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def make_workloads(n):
    rng = np.random.default_rng(0)
    t = np.arange(n) / FS
    levels = np.clip(140.0 + 5.0 * np.sin(2 * np.pi * 2.0 * t), 0.0, 255.0)
    intensity = np.abs(0.5 + 0.01 * rng.standard_normal(n))
    freq = 1000.0 + intensity * 800_000.0

    seg_times = np.linspace(0.0, n / FS, 65)
    bounds = np.linspace(0, n, 65).astype(np.int64)
    t0s = seg_times[:-1]
    spans = np.diff(seg_times)
    v0s = rng.uniform(0, 255, 64)
    dvs = rng.uniform(-50, 50, 64)

    return {
        "level_fill": (bounds, t0s, spans, v0s, dvs, 1.0 / FS, 0, n),
        "pwm_wave": (levels, 20_000.0 / FS, 0, 0.0),
        "lowpass": (intensity, 0.05, float(intensity[0])),
        "square_wave": (freq, FS, 0.0),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=10_000_000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    workloads = make_workloads(args.samples)
    print(f"kernel benchmark: {args.samples:,} samples, best of {args.repeats}")
    print(f"{'kernel':<14} {'numpy':>10} {'numba':>10} {'speedup':>9}")

    for name, wl_args in workloads.items():
        numpy_fn = getattr(_kernels, f"{name}_numpy")
        numba_fn = getattr(_kernels, f"{name}_numba")
        t_numpy = best_of(lambda: numpy_fn(*wl_args), args.repeats)
        if numba_fn is None:
            print(f"{name:<14} {t_numpy:>9.3f}s {'n/a':>10} {'n/a':>9}")
            continue
        numba_fn(*wl_args)  # compile outside the timed region
        t_numba = best_of(lambda: numba_fn(*wl_args), args.repeats)
        a, b = numpy_fn(*wl_args), numba_fn(*wl_args)
        if not isinstance(a, tuple):  # pwm_wave and square_wave add their end state
            a, b = (a,), (b,)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        print(f"{name:<14} {t_numpy:>9.3f}s {t_numba:>9.3f}s {t_numpy / t_numba:>8.1f}x")

    if _kernels.BACKEND != "numba":
        print("note: numba backend inactive (LIGHTLEAK_NO_NUMBA set or numba missing)")


if __name__ == "__main__":
    main()
