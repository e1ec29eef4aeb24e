"""Smoke test of the benchmark at a tiny run length.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs in both modes, every metric named in BENCHMARK.json
is emitted with its unit, no op fails at this commit, and the traced run
sees each layer exactly on the workloads that exercise it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, trace: int) -> dict:
    return last_json(bench("--workload", workload, "--seed", "11", "--seconds", "0.2", "--trace", str(trace)))


def test_layer_table_matches_benchmark_json():
    assert SPEC["per_layer"] == layers.metric_specs()
    assert sorted(WORKLOADS) == sorted(layers.ALL)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = run(workload, 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers(workload):
    out = run(workload, 1)
    assert out["correct"] and out["failed"] == 0
    metrics = out["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for span, (_stats, bypass) in layers.SPANS.items():
        calls = metrics[f"{span}.calls"]["value"]
        if workload in bypass:
            assert calls == 0, f"{span} should be bypassed on {workload}"
        else:
            assert calls > 0, f"{span} should be exercised on {workload}"
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
