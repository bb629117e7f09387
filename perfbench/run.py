"""Layered benchmark of dexi's fault-space exploration.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fanout-explore --seed 1 --seconds 36 --trace 0

One process runs one workload in a closed loop from one client: each pass
of the timed phase starts after the previous one finished. `workloads.py`
builds the workloads from `--seed`, and every pass runs the workload's
correctness gates. `BENCHMARK.json` lists the workloads steady enough to
gate on; `threads-fanout`, whose wall time follows the thread scheduler's
sleep jitter, runs only on request.

With `--trace 0` the last line of standard output is a JSON object whose
`metrics` are the end-to-end metrics, measured with tracing off:

- `setup_s`: median set-up time: a fresh import of `dexi` (its modules
  evicted from `sys.modules`) plus generating the application or corpus
  document and the fault catalog, three times before every pass;
- `wall_s`: median wall time of the timed phase over the passes;
- `rpc_us`: the same per RPC invocation;
- `rpc_cpu_us`: process CPU time (all threads) per RPC invocation;
- `peak_rss_mib`: the process's high-water resident set size.

With `--trace 1` the metrics are the per-layer numbers. One pass runs
under tracemalloc to measure the memory an exploration retains; the
remaining time alternates untraced and traced passes, and the per-layer
numbers are medians over the traced passes' spans (see `tracing.py`). The
spans are written to `.perfbench-out/`.

The line before the result records the environment, the workload's sizes
and the sha256 of its canonical report, which every pass must reproduce.
`--quick` shrinks every workload to a few executions, for the benchmark's
own tests (`python3 -m pytest perfbench`). The exit code is 0 when every
gate passed, 1 when one failed, and 2 when the dexi sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench-out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 3  # per pass

sys.path.insert(0, str(BENCH_DIR))
import tracing  # noqa: E402
from workloads import WORKLOADS, IterationResult  # noqa: E402


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="how long the passes of one run take in total")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for tests")
    return parser.parse_args(argv)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


class SetUp:
    """Builds the workload for a pass: imports dexi afresh (its modules
    evicted from `sys.modules`) and generates the workload's inputs, several
    times, recording each set-up's time. Running it before every pass spreads
    the set-up samples over the whole run, as the passes are."""

    def __init__(self, workload_cls, args: argparse.Namespace, workdir: Path) -> None:
        self.make = lambda: workload_cls(args.seed, args.quick, workdir)
        self.times: list[float] = []
        self.corpus_loads: list[float] = []

    def __call__(self):
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            for name in [m for m in sys.modules if m == "dexi" or m.startswith("dexi.")]:
                del sys.modules[name]
            importlib.import_module("dexi")
            importlib.import_module("dexi.cli")
            workload = self.make()
            self.times.append(time.perf_counter() - start)
            self.corpus_loads.append(workload.corpus_load_s)
        return workload


def run_pass(workload, tracer=None) -> IterationResult:
    # Start each pass from the same heap: cyclic garbage of the previous
    # pass would otherwise be collected at varying points of this one.
    gc.collect()
    try:
        return workload.run_once(tracer)
    except Exception:
        traceback.print_exc()
        n = getattr(workload, "executions", 1)
        return IterationResult(0.0, 0.0, 0, n, n, "", ["raised"])


def measure(set_up: SetUp, seconds: float, tracer: tracing.Tracer | None):
    """Set up and run passes until the next one would end after `seconds`.
    With a tracer, odd passes are traced; at least one pass of each kind
    runs."""
    untraced, traced, durations = [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        is_traced = tracer is not None and k % 2 == 1
        begin = time.perf_counter()
        workload = set_up()
        if is_traced:
            tracer.begin_iteration(k)
            result = run_pass(workload, tracer)
            tracer.end_iteration()
            traced.append(result)
        else:
            untraced.append(run_pass(workload))
        durations.append(time.perf_counter() - begin)
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds and (tracer is None or k >= 2):
            return workload, untraced, traced


def retained_memory_pass(workload) -> tuple[float, IterationResult]:
    """One pass that starts under tracemalloc: the memory an explore's report
    (or an execution's trace) still holds when the call returns, per
    execution."""
    probe = tracing.RetainedMemory()
    tracemalloc.start()
    probe.install()
    try:
        result = run_pass(workload)
    finally:
        probe.uninstall()
        tracemalloc.stop()
    return probe.kib_per_execution(), result


def layer_metrics(tracer, traced, untraced, corpus_loads, retained_kib) -> dict[str, float]:
    per_pass = [
        tracing.iteration_layers(tracer.spans_of(k), counts)
        for k, counts in sorted(tracer.counts_by_iteration.items())
    ]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    latencies = tracing.execution_latencies_ms(tracer.spans)
    metrics["simulator.execution_p50_ms"] = tracing.percentile(latencies, 50)
    metrics["simulator.execution_p95_ms"] = tracing.percentile(latencies, 95)
    metrics["simulator.execution_samples"] = float(len(latencies))
    metrics["corpus.load_s"] = statistics.median(corpus_loads)
    metrics["tracing.overhead_ratio"] = (
        statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in untraced)
    )
    metrics["search.retained_kib_per_execution"] = retained_kib
    return metrics


def end_to_end_metrics(results: list[IterationResult], setup_times: list[float]) -> dict:
    # Passes that raised have no timing; they fail the run through the gates.
    results = [r for r in results if r.rpcs] or results
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r.wall_s for r in results),
        "rpc_us": statistics.median(r.wall_s / max(r.rpcs, 1) * 1e6 for r in results),
        "rpc_cpu_us": statistics.median(r.cpu_s / max(r.rpcs, 1) * 1e6 for r in results),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "dexi" / "__init__.py").is_file():
        print(f"error: no dexi sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        set_up = SetUp(WORKLOADS[args.workload], args, workdir)
        tracer = tracing.Tracer() if args.trace else None
        start = time.perf_counter()
        checked = []
        if tracer:
            retained_kib, result = retained_memory_pass(set_up())
            checked.append(result)
        workload, untraced, traced = measure(
            set_up, args.seconds - (time.perf_counter() - start), tracer
        )
        checked += untraced + traced
        if tracer:
            metrics = layer_metrics(tracer, traced, untraced, set_up.corpus_loads, retained_kib)
            spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write(spans_file)
        else:
            metrics = end_to_end_metrics(untraced, set_up.times)
            spans_file = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every pass of one run must serialize the same report.
    digests = Counter(r.digest for r in checked if r.digest)
    reference = digests.most_common(1)[0][0] if digests else None
    for r in checked:
        if r.digest != reference and not r.failed:
            r.failed = r.attempted
            r.problems.append("report digest differs from the other passes'")
    problems = sorted({p for r in checked for p in r.problems})
    for problem in problems:
        print(f"gate failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "report_sha256": reference,
        "environment": environment(),
        "sizes": workload.sizes,
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
        "unhooked": sorted(tracer.missing) if tracer else [],
    }, sort_keys=True))
    listed = SPEC["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in checked),
        "failed": sum(r.failed for r in checked),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
