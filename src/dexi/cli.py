"""Command-line front end: corpus exploration, the nondeterminism experiment,
and call-graph reconstruction from trace files."""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from .corpus import load_corpus
from .experiment import run_nondeterminism_experiment
from .indexing import CONFIG_LABELS, DexiError, DistributedExecutionIndex, config_from_label
from .search import FaultCatalog, completeness_check, explore
from .simulator import ExecutionTrace, RpcEvent


@contextmanager
def _writing(path: Path) -> Iterator[None]:
    """Report an output path dexi cannot write as a `DexiError` naming it."""
    try:
        yield
    except OSError as exc:
        raise DexiError(f"{exc.filename or path}: {exc.strerror or exc}") from None


def _write_json(path: str | None, doc: dict) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with _writing(Path(path)):
            Path(path).write_text(text)


def cmd_explore(args: argparse.Namespace) -> int:
    entries = load_corpus(args.corpus)
    if args.entry:
        by_name = {e.name: e for e in entries}
        missing = [name for name in args.entry if name not in by_name]
        if missing:
            raise DexiError(f"unknown corpus entry {', '.join(missing)}")
        entries = [by_name[name] for name in args.entry]
    config = config_from_label(args.config)
    results = []
    status = 0
    for entry in entries:
        catalog = FaultCatalog.uniform(entry.app)
        try:
            report = explore(
                entry.app,
                entry.entry_request,
                catalog,
                config=config,
                reduction_enabled=args.reduction,
                scheduler=args.scheduler,
                seed=args.seed,
                budget=args.budget,
            )
        except DexiError as exc:
            raise DexiError(f"{entry.name}: {exc}") from None
        violations = completeness_check(report, catalog)
        if violations:
            status = 1
        doc = report.to_json()
        doc["entry"] = entry.name
        doc["config"] = args.config
        doc["completeness_violations"] = [v.to_json() for v in violations]
        if args.traces_out:
            traces_dir = Path(args.traces_out)
            with _writing(traces_dir):
                traces_dir.mkdir(parents=True, exist_ok=True)
                # An earlier run's files for this entry would mix with these
                # in `dexi graph DIR/*.jsonl`; other files stay.
                stale = re.compile(rf"{re.escape(entry.name)}-\d{{4,}}\.jsonl")
                for path in traces_dir.iterdir():
                    if stale.fullmatch(path.name):
                        path.unlink()
                encoded: dict[tuple, str] = {}  # each distinct record encodes once
                for i, ex in enumerate(report.executions):
                    lines = ex.trace.to_json_lines(encoded)
                    path = traces_dir / f"{entry.name}-{i:04d}.jsonl"
                    path.write_text("\n".join(lines) + "\n")
        results.append(doc)
    _write_json(args.out, {"config": args.config, "entries": results})
    _print_summary(results)
    return status


def _print_summary(results: list[dict]) -> None:
    # Human-readable summary goes to stderr so stdout stays machine-clean
    # when the JSON report is written there.
    width = max([len(r["entry"]) for r in results] + [len("entry")])
    print(
        f"{'entry':<{width}}  config               executions  pruned  warnings",
        file=sys.stderr,
    )
    for r in results:
        print(
            f"{r['entry']:<{width}}  {r['config']:<19}  "
            f"{r['total_executed']:>10}  {len(r['pruned']):>6}  {len(r['warnings']):>8}",
            file=sys.stderr,
        )


def cmd_nondeterminism(args: argparse.Namespace) -> int:
    results = []
    for n in args.n:
        result = run_nondeterminism_experiment(n, args.pool, args.iterations)
        results.append(result.to_json())
        print(
            f"n={n:<4} pool={args.pool} iterations={args.iterations} "
            f"order-match={result.match_fraction:.2f} "
            f"deterministic={result.deterministic}",
            file=sys.stderr,
        )
    _write_json(args.out, {"pool_size": args.pool, "results": results})
    return 0


def _load_trace_file(
    path: Path,
    decoded: dict[str, DistributedExecutionIndex] | None = None,
    records: dict[str, tuple[int, RpcEvent]] | None = None,
    headers: dict[str, dict] | None = None,
) -> ExecutionTrace:
    return ExecutionTrace.from_json_lines(path.read_text().splitlines(), decoded, records,
                                          headers)


def cmd_graph(args: argparse.Namespace) -> int:
    from .search import reconstruct_graph

    traces = []
    # Each wire text decodes once, and each distinct line parses once.
    decoded: dict[str, DistributedExecutionIndex] = {}
    records: dict[str, tuple[int, RpcEvent]] = {}
    headers: dict[str, dict] = {}
    for path in args.traces:
        try:
            traces.append(_load_trace_file(Path(path), decoded, records, headers))
        except (OSError, UnicodeDecodeError, DexiError) as exc:
            raise DexiError(f"{path}: {exc}") from None
    graph = reconstruct_graph(traces)
    _write_json(args.out, graph.to_json())
    for edge in graph.edges:
        print(
            f"{edge.source} -> {edge.target}  [{len(edge.witnesses)} witness(es)]",
            file=sys.stderr,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dexi",
        description=(
            "Request-level fault injection driven by distributed execution indexes"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_explore = sub.add_parser("explore", help="exhaust the fault space of corpus entries")
    p_explore.add_argument("--corpus", default=None, help="corpus directory")
    p_explore.add_argument(
        "--entry", action="append", default=[], help="corpus entry name (repeatable; default all)"
    )
    p_explore.add_argument(
        "--config", default="full", choices=sorted(CONFIG_LABELS), help="identifier instantiation"
    )
    p_explore.add_argument("--reduction", action="store_true", help="enable dynamic reduction")
    p_explore.add_argument("--scheduler", default="virtual", choices=["virtual", "threads"])
    p_explore.add_argument("--seed", type=int, default=0)
    p_explore.add_argument("--budget", type=int, default=1000, help="max executions per entry")
    p_explore.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p_explore.add_argument("--traces-out", default=None, help="directory for per-execution traces")
    p_explore.set_defaults(func=cmd_explore)

    p_nd = sub.add_parser("nondeterminism", help="run the scheduling-nondeterminism experiment")
    p_nd.add_argument(
        "--n", type=int, action="append", default=None, help="RPC fan-out (repeatable)"
    )
    p_nd.add_argument("--pool", type=int, default=2, help="worker pool size")
    p_nd.add_argument("--iterations", type=int, default=100)
    p_nd.add_argument("--out", default=None)
    p_nd.set_defaults(func=cmd_nondeterminism)

    p_graph = sub.add_parser("graph", help="reconstruct the application graph from traces")
    p_graph.add_argument("traces", nargs="+", help="trace .jsonl files")
    p_graph.add_argument("--out", default=None)
    p_graph.set_defaults(func=cmd_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "nondeterminism" and args.n is None:
        args.n = [2, 4, 8, 16, 32, 64]
    if getattr(args, "budget", 1) <= 0:
        parser.error("--budget must be positive")
    # Every failure ends here: one `error:` line, and the exit code.
    try:
        return args.func(args)
    except DexiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
