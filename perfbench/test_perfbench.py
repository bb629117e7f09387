"""Smoke tests of the benchmark harness in quick mode; no timing is checked.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int = 1, trace: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc, proc.stdout.strip().splitlines()


def test_benchmark_lists_existing_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_quick_run_passes_its_gates_and_prints_every_metric(workload, trace):
    proc, lines = run(workload, trace=trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    info = json.loads(lines[-2])
    assert info["environment"]["nproc"] >= 1 and info["sizes"]
    assert info["unhooked"] == []


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_report_digest_repeats_for_a_seed_and_gates_hold_on_another(workload):
    digests = []
    for seed in (1, 1, 2):
        proc, lines = run(workload, seed=seed)
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(lines[-2])["report_sha256"])
    assert digests[0] == digests[1] != digests[2]


def test_fails_without_the_dexi_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = run(SPEC["workloads"][0]["name"], cwd=tmp_path)
    assert proc.returncode != 0
    assert not any('"correct"' in line for line in lines)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        (1, 0, "parent", 0.0, 10.0, 0, 0),
        (2, 1, "indexing.a", 1.0, 4.0, 0, 0),
        (3, 1, "indexing.b", 3.0, 5.0, 0, 0),  # overlaps the first child
        (4, 1, "other", 6.0, 7.0, 0, 0),
        (5, 2, "indexing.c", 1.5, 2.0, 0, 0),  # grandchild: not subtracted again
    ]
    assert tracing.self_time(spans, "parent") == pytest.approx(10.0 - 4.0 - 1.0)
    assert tracing.self_time(spans, "parent", "indexing.") == pytest.approx(10.0 - 4.0)
