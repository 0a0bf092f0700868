"""`tools/thread_cpu.py`, at tiny size."""

import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from thread_cpu import stat_cpu_s, thread_cpu_s  # noqa: E402

pytestmark = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                reason="reads /proc/self/task")


def test_both_readings_agree_on_a_busy_thread():
    tid = threading.get_native_id()
    started = thread_cpu_s(tid)
    while thread_cpu_s(tid) - started < 0.1:
        pass
    precise, ticks = thread_cpu_s(tid), stat_cpu_s(tid)
    assert ticks == pytest.approx(precise, abs=0.03)


def test_a_noisy_sweep_shows_each_kind_of_thread():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "thread_cpu.py"),
                           "--workload", "noise_sweep", "--ops", "2", "--size", "tiny",
                           "--seed", "3"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode == 0, done.stderr
    rows = {line[:16].strip(): line[16:].split() for line in done.stdout.splitlines()[2:6]}
    # one noisy link, so one receive worker and one noise helper, per operation
    assert rows["calling thread"][0] == "1" and float(rows["calling thread"][1]) > 0
    assert rows["receive worker"][0] == "2" and float(rows["receive worker"][1]) > 0
    assert rows["noise helper"][0] == "2" and float(rows["noise helper"][1]) > 0
    assert rows["other"] == ["0", "0.0"]
    assert "over 2 operations" in done.stdout
