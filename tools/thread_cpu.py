"""CPU time per operation of each thread of a benchmark workload.

Runs ``--ops`` operations of a ``perfbench`` workload in this process, after
its warm-up, and reports the CPU time per operation of the calling thread,
of the receive workers (`dsp._receive`'s, one per call) and of the noise
helpers (`channel._normals`', one per noisy link), with the operations' wall
time beside them.  A thread's CPU time is read from
``/proc/self/task/<tid>/schedstat`` (time on a CPU, in ns), or from
``/proc/self/task/<tid>/stat`` (utime + stime, in clock ticks) where the
kernel keeps no schedstat; the ticks are 10 ms on most kernels, too coarse
for threads that live one operation.  A worker or helper is read from its
own thread just before it exits.  Linux only; standard library and the
package only::

    python3 tools/thread_cpu.py --workload noise_sweep [--ops 20] [--seed 37] \\
        [--size {full,tiny}]

``perfbench`` times only the calling thread, so this is where a stage moved
to another thread shows.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("calling thread", "receive worker", "noise helper", "other")


def stat_cpu_s(tid: int) -> float:
    """CPU time of thread ``tid`` of this process so far, in seconds, from its stat."""
    # the fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the line
    fields = Path(f"/proc/self/task/{tid}/stat").read_text().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def thread_cpu_s(tid: int) -> float:
    """CPU time of thread ``tid`` of this process so far, in seconds."""
    try:
        schedstat = Path(f"/proc/self/task/{tid}/schedstat").read_text()
    except FileNotFoundError:
        return stat_cpu_s(tid)
    return int(schedstat.split()[0]) * 1e-9


def kind_of(name: str) -> str:
    """The kind of a thread of this process, from its name."""
    from lightleak import channel
    if name.startswith(channel._NOISE_THREAD):
        return "noise helper"
    if name.startswith("ThreadPoolExecutor"):  # `dsp._receive` leaves the default name
        return "receive worker"
    return "other"


class ThreadLog:
    """Records each thread's kind and CPU time as the thread ends.

    While installed, every `threading.Thread` started in this process reads
    its own CPU time at the end of its ``run``.
    """

    def __init__(self):
        self.ended = []  # (kind, cpu seconds) per thread that ended
        self._run = threading.Thread.run

    def __enter__(self):
        log, run = self, self._run

        def logged(thread):
            try:
                run(thread)
            finally:
                log.ended.append((kind_of(thread.name), thread_cpu_s(threading.get_native_id())))

        threading.Thread.run = logged
        return self

    def __exit__(self, *exc_info):
        threading.Thread.run = self._run


def measure(workload, ops: int) -> dict:
    """CPU seconds per operation by thread kind, thread counts, and wall seconds per operation."""
    calling = threading.get_native_id()
    with ThreadLog() as log:
        cpu0, wall0 = thread_cpu_s(calling), time.perf_counter()
        for i in range(ops):
            workload.call(workload.job(i))
        cpu1, wall1 = thread_cpu_s(calling), time.perf_counter()
    cpu = dict.fromkeys(KINDS, 0.0)
    threads = dict.fromkeys(KINDS, 0)
    cpu["calling thread"], threads["calling thread"] = cpu1 - cpu0, 1
    for kind, seconds in log.ended:
        cpu[kind] += seconds
        threads[kind] += 1
    return {"cpu_s_per_op": {kind: cpu[kind] / ops for kind in KINDS},
            "threads": threads, "wall_s_per_op": (wall1 - wall0) / ops}


def report(result: dict, ops: int) -> list[str]:
    lines = [f"{'thread':<16} {'threads':>8} {'cpu ms/op':>10}"]
    for kind in KINDS:
        lines.append(f"{kind:<16} {result['threads'][kind]:>8} "
                     f"{1e3 * result['cpu_s_per_op'][kind]:>10.1f}")
    total = sum(result["cpu_s_per_op"].values())
    lines.append(f"{'all threads':<16} {'':>8} {1e3 * total:>10.1f}")
    lines.append(f"wall {1e3 * result['wall_s_per_op']:.1f} ms/op over {ops} operations")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("link_clean", "noise_sweep", "window_sweep"))
    parser.add_argument("--ops", type=int, default=20)
    parser.add_argument("--seed", type=int, default=37)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be at least 1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    workload = workloads.make(args.workload, args.seed, tiny=args.size == "tiny")
    workload.warm_up()
    print(f"{args.workload}, seed {args.seed}, size {args.size}")
    print("\n".join(report(measure(workload, args.ops), args.ops)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
