"""Smoke test of the benchmark harness: tiny operation counts, all workloads.

Checks the result line's shape, that every end-to-end and per-layer metric
is present with its unit, that no operation fails, and that the per-layer
counts of two traced runs with the same seed agree exactly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("cremona.moves", "numbers.sign.calls", "ech.terms", "curve.bisect_steps",
                "weights.flat_weights", "render.bytes_out", "cli.main.calls")


def bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--max-ops", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("fail_ratio 0 ") for line in lines)
    return result["metrics"]


def assert_metrics(metrics, spec):
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics_present(workload):
    metrics = bench(workload, trace=0)
    assert_metrics(metrics, SPEC["end_to_end"])
    assert all(metrics[m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counts_repeat(workload):
    first, second = bench(workload, trace=1), bench(workload, trace=1)
    assert_metrics(first, SPEC["per_layer"])
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["trace.overhead_ratio"]["value"] > 0
