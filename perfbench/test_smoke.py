"""Smoke test of the benchmark itself, at tiny size, in the timed and traced modes.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace, workload, kind", [
    ("0", "link_clean", "end_to_end"),
    ("1", "window_sweep", "per_layer"),
])
def test_tiny_run_reports_every_declared_metric(trace, workload, kind):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert "digest of the first" in done.stdout
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if kind == "end_to_end":
        assert all(value > 0 for value in metrics.values())
    else:
        self_sum = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
        assert self_sum == pytest.approx(metrics["trace.wall_s"], abs=1e-6)
        spans = (ROOT / ".bench_out" / f"spans-{workload}-seed3.jsonl").read_text()
        first = json.loads(spans.splitlines()[0])
        assert set(first) == {"name", "start", "end", "parent", "tx", "op", "error"}
        assert len(spans.splitlines()) == metrics["trace.spans"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "link_clean", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
