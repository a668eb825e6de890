"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced, in about a minute.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_UNITS = ("count", "bytes", "GFLOP")


def run(workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return lines[:-1], result["metrics"]


def printed(lines, name, unit):
    """How many table lines show `name` with `unit`."""
    return sum(1 for line in lines if line.split()[:1] == [name] and line.split()[-1] == unit)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, metrics = run(workload, 0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(v["value"] > 0 for v in metrics.values())
    for name, unit in list(expected.items()) + [("fail_frac", "ratio")]:
        assert printed(lines, name, unit) == 1, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_counts_repeat(workload):
    lines, first = run(workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == expected
    for name, unit in expected.items():
        assert printed(lines, name, unit) == 1, name
    _, second = run(workload, 1)
    exact = [n for n, u in expected.items() if u in EXACT_UNITS and n != "trace.ops"]
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}
    assert first["admm.fit.calls"]["value"] > 0
