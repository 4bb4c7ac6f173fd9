"""Smoke test of the benchmark: every workload, tiny inputs, one operation.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs untraced and traced with --smoke. The test checks that
every metric BENCHMARK.json names is printed with its unit, that no
operation failed, and that the layers' self times fit inside the traced
operation's wall time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

CHECKOUT = Path(__file__).resolve().parent.parent
SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric_and_fails_nothing(workload: str, trace: int) -> None:
    lines, result = _run(workload, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for m in wanted:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines), f"{m['name']} not printed with its unit"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert any(line.startswith("boxi_cpu_s.p50") for line in lines)
    error_rate = [line.split() for line in lines if line.startswith("error_rate")]
    assert error_rate and float(error_rate[0][1]) == 0.0

    if trace:
        metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
        self_s = sum(value for name, value in metrics.items()
                     if name.endswith(".self_s") and not name.startswith("packager."))
        assert 0 < self_s <= metrics["trace.op_s.p50"]
        assert metrics["runtime.copy_events"] == {
            "scenarios": 15, "bulk-run": 2, "transfer": 2, "smallfiles-two-copy": 4}[workload]


def test_layer_map_covers_exactly_the_per_layer_metrics() -> None:
    layers = json.loads((CHECKOUT / "perfbench" / "layers.json").read_text())["layers"]
    mapped = [name for layer in layers for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    workloads = {w["name"] for w in SPEC["workloads"]}
    named = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for layer in layers:
        assert set(layer["on"]) | set(layer["flat_on"]) <= workloads
        assert set(layer["moves"]) <= named
