"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload fanout-explore --seeds 1-10 [--out FILE]

Runs `run.py` once per seed, one run at a time, and prints for each
end-to-end metric its median and its spread: the distance between the first
and third quartile of the runs' values (`statistics.quantiles(values, n=4)`)
as a share of their median, next to the metric's bound from
`BENCHMARK.json`. With `--out`, the runs and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    summary: dict = {"seconds": seconds, "workloads": {}}
    status = 0
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            info = json.loads(lines[-2]) if len(lines) > 1 else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                status = 1
                continue
            runs.append({"seed": seed, "report_sha256": info.get("report_sha256"),
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        table = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            table[metric["name"]] = {"median": median, "spread": (q3 - q1) / median,
                                     "bound": metric["bound"]}
            print(f"  {metric['name']:<14} median {median:<12.6g} spread "
                  f"{(q3 - q1) / median:7.2%}  bound {metric['bound']:.0%}")
        summary["workloads"][workload] = {"runs": runs, "metrics": table}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
