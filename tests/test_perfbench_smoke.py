"""The benchmark harness still runs against the package and passes its
correctness gates (executed and pruned counts, completeness, report digest).
No timing is checked."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_nested_reduction_quick_run_passes_its_gates():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nested-reduction", "--quick",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True


def test_traced_quick_run_hooks_every_layer():
    # The per-layer tracer wraps dexi's functions by name: a rename in the
    # hot path must show up here, not as a silently missing number.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fanout-explore", "--quick",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *_, context, result = proc.stdout.strip().splitlines()
    assert json.loads(result)["correct"] is True
    assert json.loads(context)["unhooked"] == []
