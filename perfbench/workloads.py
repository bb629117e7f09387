"""The benchmark's workloads: inputs generated from a seed, a timed phase that
drives dexi's public API, and the correctness gates each iteration must pass.

The seed picks the payload strings and the virtual-scheduler seed. The shape
of each application is fixed, so the expected counts hold for every seed.
Each workload is built after `dexi` is imported and looks its modules up in
`sys.modules` at call time, so that wrappers installed by the tracer apply.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import string
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class IterationResult:
    """One pass of a workload's timed phase and its gates."""

    wall_s: float  # the timed phase
    cpu_s: float  # process CPU time (every thread) during the timed phase
    rpcs: int  # RPC invocations issued in the timed phase
    attempted: int
    failed: int
    digest: str  # sha256 of the canonical output
    problems: list[str] = field(default_factory=list)


def _modules():
    return (
        sys.modules["dexi.search"],
        sys.modules["dexi.simulator"],
        sys.modules["dexi.programs"],
    )


def _words(rng: random.Random, count: int) -> list[str]:
    """Distinct payload strings of equal length."""
    words: list[str] = []
    while len(words) < count:
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(8))
        if word not in words:
            words.append(word)
    return words


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Explore:
    """Explore under the virtual scheduler, check completeness, and serialize
    the report: the timed phase of the in-process explore workloads."""

    reduction = False
    expected_pruned = 0

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.scheduler_seed = self.rng.randrange(2**31)
        self.corpus_load_s = 0.0

    def run_once(self, tracer=None) -> IterationResult:
        search, _, _ = _modules()
        start, cpu = time.perf_counter(), time.process_time()
        report = search.explore(
            self.app,
            self.entry,
            self.catalog,
            reduction_enabled=self.reduction,
            scheduler="virtual",
            seed=self.scheduler_seed,
            budget=2 * self.expected_executions,
        )
        violations = search.completeness_check(report, self.catalog)
        text = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu

        problems = []
        if report.total_executed != self.expected_executions:
            problems.append(
                f"{report.total_executed} executions, expected {self.expected_executions}"
            )
        if len(report.pruned) != self.expected_pruned:
            problems.append(f"{len(report.pruned)} pruned, expected {self.expected_pruned}")
        if violations:
            problems.append(f"{len(violations)} completeness violations")
        rpcs = sum(len(ex.trace.invocation_events()) for ex in report.executions)
        return IterationResult(
            wall_s=wall,
            cpu_s=cpu,
            rpcs=rpcs,
            attempted=1,
            failed=int(bool(problems)),
            digest=_sha256(text),
            problems=problems,
        )


class FanoutExplore(_Explore):
    """The hello-world fan-out of n concurrent RPCs: 2^n fault plans."""

    name = "fanout-explore"

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        super().__init__(seed)
        search, _, programs = _modules()
        experiment = sys.modules["dexi.experiment"]
        self.n = 3 if quick else 10
        self.app = experiment.build_hello_world_app()
        self.entry = programs.EntryRequest(
            service="hello", method="greet", args={"tags": _words(self.rng, self.n)}
        )
        self.catalog = search.FaultCatalog.uniform(self.app)
        self.expected_executions = 2**self.n
        self.sizes = {"fanout": self.n, "executions": self.expected_executions,
                      "scheduler": "virtual", "reduction": False}


def nested_application_doc(mids: int, leaves: int, word: str) -> dict:
    """A front service calls `mids` mid services, each call guarded by
    try/catch; each mid calls `leaves` leaf services with no try, so a leaf
    failure propagates up through its mid."""

    def endpoint(body):
        return [{"method": "handle", "params": [{"name": "w", "type": "String"}], "body": body}]

    def rpc(service, line, assign):
        return {"op": "rpc", "service": service, "method": "handle",
                "args": {"w": {"var": "w"}}, "line": line, "assign": assign}

    front = [
        {"op": "try", "body": [rpc(f"mid{i}", 10 + i, f"r{i}")],
         "catch": [{"op": "assign", "var": f"r{i}", "value": {"const": "fallback"}}]}
        for i in range(mids)
    ]
    front.append({"op": "return", "value": {"concat": [{"var": f"r{i}"} for i in range(mids)]}})
    mid = [rpc(f"leaf{j}", 20 + j, f"x{j}") for j in range(leaves)]
    mid.append({"op": "return", "value": {"concat": [{"var": f"x{j}"} for j in range(leaves)]}})
    services = [{"name": "front", "endpoints": endpoint(front)}]
    services += [{"name": f"mid{i}", "endpoints": endpoint(mid)} for i in range(mids)]
    services += [
        {"name": f"leaf{j}", "endpoints": endpoint(
            [{"op": "return", "value": {"concat": [{"const": f"leaf{j}-"}, {"var": "w"}]}}])}
        for j in range(leaves)
    ]
    return {
        "name": f"nested-{mids}x{leaves}",
        "services": services,
        "entry": {"service": "front", "method": "handle", "args": {"w": word}},
    }


class NestedReduction(_Explore):
    """A three-tier app explored with dynamic reduction."""

    name = "nested-reduction"
    reduction = True

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        super().__init__(seed)
        search, _, programs = _modules()
        mids, leaves = (2, 2) if quick else (6, 3)
        # Fixed by the app's shape; measured once, and equal for every seed.
        self.expected_executions, self.expected_pruned = (12, 4) if quick else (595, 1350)
        doc = nested_application_doc(mids, leaves, _words(self.rng, 1)[0])
        self.app = programs.parse_application(doc)
        self.entry = programs.EntryRequest(**doc["entry"])
        self.app.validate_entry(self.entry)
        self.catalog = search.FaultCatalog.uniform(self.app)
        self.sizes = {"mids": mids, "leaves_per_mid": leaves,
                      "executions": self.expected_executions,
                      "pruned": self.expected_pruned,
                      "scheduler": "virtual", "reduction": True}


def stream_application_doc(words: list[str]) -> dict:
    """`figure-6-stream` widened: one stream, one concurrent send per word."""
    send = {"op": "stream_send", "stream": "st", "args": {"s": {"var": "w"}},
            "line": 6, "assign": "r"}
    body = [
        {"op": "open_stream", "service": "b", "method": "handle", "line": 3, "assign": "st"},
        {"op": "assign", "var": "fs", "value": {"const": []}},
        {"op": "loop", "var": "w", "in": {"const": words}, "line": 9, "body": [
            {"op": "spawn", "futures": "fs", "line": 10,
             "body": [send, {"op": "return", "value": {"var": "r"}}]}]},
        {"op": "await_all", "futures": "fs", "line": 11, "assign": "rs"},
        {"op": "return", "value": {"join": {"list": {"var": "rs"}, "sep": " "}}},
    ]
    return {
        "name": f"stream-fanout-{len(words)}",
        "description": "One stream, one concurrent send per word.",
        "services": [
            {"name": "a", "endpoints": [{"method": "index", "params": [], "body": body}]},
            {"name": "b", "endpoints": [{
                "method": "handle", "params": [{"name": "s", "type": "String"}],
                "body": [{"op": "return", "value": {"var": "s"}}]}]},
        ],
        "entry": {"service": "a", "method": "index", "args": {}},
        "expected_counts": {"full": 2 ** len(words)},
    }


class StreamExport:
    """A stream fan-out written as a corpus document, explored through
    `dexi explore --traces-out`, then `dexi graph` over the exported traces."""

    name = "stream-export"

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        corpus = sys.modules["dexi.corpus"]
        rng = random.Random(seed)
        self.scheduler_seed = rng.randrange(2**31)
        self.n = 3 if quick else 10
        doc = stream_application_doc(_words(rng, self.n))
        self.entry_name = doc["name"]
        self.expected_executions = 2**self.n
        self.workdir = workdir
        self.corpus_dir = workdir / "corpus"
        self.corpus_dir.mkdir(parents=True, exist_ok=True)
        (self.corpus_dir / f"{self.entry_name}.json").write_text(json.dumps(doc, indent=2))
        start = time.perf_counter()
        entries = corpus.load_corpus(self.corpus_dir)
        self.corpus_load_s = time.perf_counter() - start
        if [e.name for e in entries] != [self.entry_name]:
            raise RuntimeError(f"generated corpus loaded as {[e.name for e in entries]}")
        self.sizes = {"stream_sends": self.n, "executions": self.expected_executions,
                      "scheduler": "virtual", "reduction": False}

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        cli = sys.modules["dexi.cli"]
        captured = io.StringIO()
        with contextlib.redirect_stderr(captured):
            status = cli.main(argv)
        return status, captured.getvalue()

    def run_once(self, tracer=None) -> IterationResult:
        out = self.workdir / "run"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        report_path, graph_path, traces_dir = out / "report.json", out / "graph.json", out / "traces"
        start, cpu = time.perf_counter(), time.process_time()
        status, log = self._cli([
            "explore", "--corpus", str(self.corpus_dir), "--entry", self.entry_name,
            "--seed", str(self.scheduler_seed), "--budget", str(2 * self.expected_executions),
            "--out", str(report_path), "--traces-out", str(traces_dir),
        ])
        trace_files = sorted(traces_dir.glob("*.jsonl")) if status == 0 else []
        with tracer.span("bench.graph") if tracer else contextlib.nullcontext():
            graph_status, graph_log = self._cli(
                ["graph", *map(str, trace_files), "--out", str(graph_path)]
            ) if trace_files else (None, "")
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu

        problems = []
        if status != 0:
            problems.append(f"dexi explore exited {status}: {log.strip()[-500:]}")
        if graph_status != 0:
            problems.append(f"dexi graph exited {graph_status}: {graph_log.strip()[-500:]}")
        report_text = report_path.read_text() if report_path.exists() else "{}"
        entries = json.loads(report_text).get("entries", [{}])
        executed = entries[0].get("total_executed")
        if executed != self.expected_executions:
            problems.append(f"{executed} executions, expected {self.expected_executions}")
        if entries[0].get("completeness_violations"):
            problems.append(f"{len(entries[0]['completeness_violations'])} completeness violations")
        if len(trace_files) != self.expected_executions:
            problems.append(f"{len(trace_files)} trace files, expected {self.expected_executions}")
        if graph_path.exists():
            edges = [(e["source"], e["target"]) for e in json.loads(graph_path.read_text())["edges"]]
            if edges != [("a", "b")]:
                problems.append(f"graph edges {edges}, expected a->b only")
        rpcs = sum(p.read_bytes().count(b'"kind": "invocation"') for p in trace_files)
        shutil.rmtree(out, ignore_errors=True)
        return IterationResult(
            wall_s=wall,
            cpu_s=cpu,
            rpcs=rpcs,
            attempted=1,
            failed=int(bool(problems)),
            digest=_sha256(report_text),
            problems=problems,
        )


class ThreadsFanout:
    """`run_execution` of the n=32 fan-out under the thread scheduler, pool
    of 2, in a closed loop; each trace's index multiset must equal the one
    the virtual scheduler assigns."""

    name = "threads-fanout"
    pool_size = 2

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        _, simulator, programs = _modules()
        experiment = sys.modules["dexi.experiment"]
        rng = random.Random(seed)
        self.n, self.executions = (4, 5) if quick else (32, 300)
        self.app = experiment.build_hello_world_app()
        self.entry = programs.EntryRequest(
            service="hello", method="greet", args={"tags": _words(rng, self.n)}
        )
        self.reference = simulator.run_execution(
            self.app, self.entry, scheduler="virtual", seed=rng.randrange(2**31)
        ).dei_multiset()
        self.corpus_load_s = 0.0
        self.sizes = {"fanout": self.n, "executions_per_iteration": self.executions,
                      "scheduler": "threads", "pool_size": self.pool_size}

    def run_once(self, tracer=None) -> IterationResult:
        _, simulator, _ = _modules()
        wall = cpu = 0.0
        rpcs = failed = 0
        observed = None
        for _ in range(self.executions):
            start, cpu_start = time.perf_counter(), time.process_time()
            trace = simulator.run_execution(
                self.app, self.entry, scheduler="threads", pool_size=self.pool_size
            )
            wall += time.perf_counter() - start
            cpu += time.process_time() - cpu_start
            rpcs += len(trace.invocation_events())
            multiset = trace.dei_multiset()
            observed = observed or multiset
            failed += int(multiset != self.reference)
        problems = [f"{failed} executions assigned another index multiset"] if failed else []
        return IterationResult(
            wall_s=wall,
            cpu_s=cpu,
            rpcs=rpcs,
            attempted=self.executions,
            failed=failed,
            digest=_sha256(json.dumps(list(observed))),
            problems=problems,
        )


WORKLOADS = {cls.name: cls for cls in (FanoutExplore, NestedReduction, StreamExport, ThreadsFanout)}
