"""The benchmark harness still runs against the package and passes its
correctness gates (executed and pruned counts, completeness, report digest).
No timing is checked."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quick_run(workload: str, *options: str) -> list[str]:
    """The output lines of a passing quick run of `workload`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--quick",
         "--seconds", "1", *options],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_nested_reduction_quick_run_passes_its_gates():
    assert json.loads(quick_run("nested-reduction")[-1])["correct"] is True


def test_stream_export_quick_run_passes_its_gates():
    # The one workload that goes through the command line: `dexi explore
    # --traces-out`, then `dexi graph` over the files it wrote.
    assert json.loads(quick_run("stream-export")[-1])["correct"] is True


def test_traced_quick_run_hooks_every_layer():
    # The per-layer tracer wraps dexi's functions by name: a rename in the
    # hot path must show up here, not as a silently missing number.
    *_, context, result = quick_run("fanout-explore", "--trace", "1")
    assert json.loads(result)["correct"] is True
    assert json.loads(context)["unhooked"] == []
