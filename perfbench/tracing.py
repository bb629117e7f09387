"""Span tracing of dexi's layers, recorded from outside the package.

`Tracer.install` wraps public functions and methods of `dexi.indexing`,
`dexi.simulator`, `dexi.search`, `dexi.corpus` and `dexi.cli` in place and
`Tracer.uninstall` restores them. Each call to a wrapped function records a
span: id, parent span id, name, start, end, the ordinal of the
`run_execution` it belongs to (-1 outside an execution) and the traced
iteration. A few functions that run several times per RPC are only counted,
so that tracing them does not swamp the time of the code around them.

Parents come from a per-thread span stack. Worker threads of the thread
scheduler start with an empty stack, so their spans take the execution in
progress as parent; the benchmark drives one execution at a time (a closed
loop), so that execution is unique.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# (owner module, attribute) -> span name. Module functions are wrapped where
# their callers look them up, which for names imported with `from x import y`
# is the importing module.
SPAN_FUNCTIONS = [
    ("indexing", "encode", "indexing.encode"),
    ("indexing", "decode", "indexing.decode"),
    ("simulator", "dei_extend", "indexing.dei_extend"),
    ("simulator", "run_execution", "simulator.run_execution"),
    ("search", "run_execution", "simulator.run_execution"),
    ("search", "explore", "search.explore"),
    ("cli", "explore", "search.explore"),
    ("search", "dynamic_reduction", "search.dynamic_reduction"),
    ("search", "completeness_check", "search.completeness_check"),
    ("cli", "completeness_check", "search.completeness_check"),
    ("search", "reconstruct_graph", "search.reconstruct_graph"),
    ("corpus", "load_corpus", "corpus.load_corpus"),
    ("cli", "load_corpus", "corpus.load_corpus"),
    ("cli", "_load_trace_file", "cli.trace_load"),
]
# (owner module, class, method) -> span name.
SPAN_METHODS = [
    ("indexing", "CounterState", "claim", "indexing.counter_claim"),
    ("simulator", "ThreadScheduler", "pre_dispatch", "simulator.pre_dispatch"),
    ("simulator", "ExecutionTrace", "to_json_lines", "cli.trace_to_json_lines"),
    ("search", "SearchReport", "to_json", "search.report_json"),
]
# Called several times per RPC: counted, not timed.
COUNTED_FUNCTIONS = [
    ("indexing", "canonical_bytes", "indexing.canonical_bytes"),
    ("indexing", "project", "indexing.project"),
    ("search", "project", "indexing.project"),
]


class _Patches:
    """Attribute replacements that can be undone."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def _replace(self, owner, attr: str, make) -> None:
        if not hasattr(owner, attr):
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _dexi(name: str):
    return sys.modules[f"dexi.{name}"]


class Tracer(_Patches):
    """Spans and counts of the traced passes. `begin_iteration` installs the
    wrappers with fresh counts and `end_iteration` removes them, so untraced
    passes run the unwrapped code."""

    def __init__(self) -> None:
        super().__init__()
        # (span id, parent id, name, start, end, execution ordinal, iteration)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.iteration = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._execution: tuple[int, int] | None = None  # (span id, ordinal)
        self._ordinals = itertools.count()
        self.counts_by_iteration: dict[int, Counter] = {}

    # -- recording

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, execution: bool = False) -> tuple:
        """Open a span. An execution span becomes the parent of spans opened
        on threads that have no span of their own."""
        stack = self._stack()
        current = self._execution
        if stack:
            parent = stack[-1][0]
        else:
            parent = current[0] if current else 0
        span_id = next(self._ids)
        if execution:
            ordinal = next(self._ordinals)
            self._execution = (span_id, ordinal)
        else:
            ordinal = current[1] if current else -1
        stack.append((span_id, name))
        return (span_id, parent, name, time.perf_counter(), ordinal, execution)

    def _exit(self, token: tuple) -> None:
        end = time.perf_counter()
        span_id, parent, name, start, ordinal, execution = token
        self._stack().pop()
        if execution:
            self._execution = None
        self.spans.append((span_id, parent, name, start, end, ordinal, self.iteration))

    def in_span(self, name: str) -> bool:
        return any(n == name for _, n in self._stack())

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        token = self._enter(name)
        try:
            yield
        finally:
            self._exit(token)

    def _timed(self, name: str, fn, execution: bool = False):
        def wrapper(*args, **kwargs):
            token = self._enter(name, execution)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(token)

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _run_execution(self, fn):
        """Span an execution and count what its trace holds."""
        counts = self.counts
        timed = self._timed("simulator.run_execution", fn, execution=True)

        def wrapper(*args, **kwargs):
            trace = timed(*args, **kwargs)
            counts["simulator.executions"] += 1
            counts["simulator.events"] += len(trace.events)
            for event in trace.events:
                if event.kind == "invocation":
                    counts["simulator.rpcs"] += 1
                elif event.kind == "index_rewritten":
                    counts["simulator.rewrites"] += 1
            return trace

        return wrapper

    def _dynamic_reduction(self, fn):
        counts = self.counts
        timed = self._timed("search.dynamic_reduction", fn)

        def wrapper(*args, **kwargs):
            decision = timed(*args, **kwargs)
            counts["search.reduction_calls"] += 1
            counts["search.pruned"] += int(decision.prune)
            return decision

        return wrapper

    def _fault_plan(self, cls):
        """Count the plans the search builds; those `dynamic_reduction` builds
        to look up executed siblings are counted apart."""
        counts = self.counts

        def build(*args, **kwargs):
            counts["search.plans_all"] += 1
            if not self.in_span("search.dynamic_reduction"):
                counts["search.plans_built"] += 1
            return cls(*args, **kwargs)

        return build

    def _path_class(self, path_cls):
        """A Path subclass for `dexi.cli` whose writes of trace files are
        spanned and counted."""
        tracer = self

        class TracedPath(type(path_cls())):
            def write_text(self, data, *args, **kwargs):
                if self.suffix != ".jsonl":
                    return super().write_text(data, *args, **kwargs)
                with tracer.span("cli.trace_file_write"):
                    written = super().write_text(data, *args, **kwargs)
                tracer.counts["cli.trace_files"] += 1
                tracer.counts["cli.trace_bytes"] += len(data.encode("utf-8"))
                return written

        return TracedPath

    # -- installation

    def install(self) -> None:
        mods = {name: _dexi(name) for name in ("indexing", "simulator", "search", "corpus", "cli")}
        counting = {
            "simulator.run_execution": self._run_execution,
            "search.dynamic_reduction": self._dynamic_reduction,
        }
        for mod, attr, name in SPAN_FUNCTIONS:
            self._replace(mods[mod], attr,
                          counting.get(name, lambda fn, n=name: self._timed(n, fn)))
        for mod, cls, attr, name in SPAN_METHODS:
            self._replace(getattr(mods[mod], cls), attr, lambda fn, n=name: self._timed(n, fn))
        for mod, attr, name in COUNTED_FUNCTIONS:
            self._replace(mods[mod], attr, lambda fn, n=name: self._counted(n, fn))
        self._replace(mods["search"], "FaultPlan", self._fault_plan)
        self._replace(mods["cli"], "Path", self._path_class)

    def begin_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self.counts = Counter()
        self.install()

    def end_iteration(self) -> None:
        self.uninstall()
        self.counts_by_iteration[self.iteration] = self.counts

    def spans_of(self, iteration: int) -> list[tuple]:
        return [span for span in self.spans if span[6] == iteration]

    # -- output

    def write(self, path: Path) -> None:
        """Write every span as one CSV row."""
        with path.open("w") as out:
            out.write("id,parent,name,start,end,execution,iteration\n")
            out.writelines("%d,%d,%s,%.9f,%.9f,%d,%d\n" % span for span in self.spans)


class RetainedMemory(_Patches):
    """The memory the first explore's report (or the first directly driven
    execution's trace) holds when the call returns, measured by tracemalloc,
    which stops there so that the rest of the pass runs at full speed."""

    def __init__(self) -> None:
        super().__init__()
        self.retained = 0
        self.executions = 0

    def _probe(self, fn, executions):
        def wrapper(*args, **kwargs):
            if not tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            before = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            self.retained = tracemalloc.get_traced_memory()[0] - before
            self.executions = executions(result)
            tracemalloc.stop()
            return result

        return wrapper

    def install(self) -> None:
        per_report = lambda fn: self._probe(fn, lambda report: report.total_executed)  # noqa: E731
        self._replace(_dexi("search"), "explore", per_report)
        self._replace(_dexi("cli"), "explore", per_report)
        self._replace(_dexi("simulator"), "run_execution", lambda fn: self._probe(fn, lambda _: 1))

    def kib_per_execution(self) -> float:
        return self.retained / max(self.executions, 1) / 1024


# ---------------------------------------------------------------------------
# Derived per-layer numbers


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_time(spans: list[tuple], name: str, child_prefix: str = "") -> float:
    """Sum over spans called `name` of their duration minus the part covered
    by their direct children (only children whose name starts with
    `child_prefix`)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span_id, parent, child, start, end, _, _ in spans:
        if child.startswith(child_prefix):
            children[parent].append((start, end))
    total = 0.0
    for span_id, _, span_name, start, end, _, _ in spans:
        if span_name == name:
            total += (end - start) - _covered(start, end, children.get(span_id, []))
    return total


def total_time(spans: list[tuple], name: str, in_execution: bool | None = None) -> float:
    return sum(
        end - start
        for _, _, span_name, start, end, ordinal, _ in spans
        if span_name == name and (in_execution is None or (ordinal >= 0) == in_execution)
    )


def span_count(spans: list[tuple], name: str) -> int:
    return sum(1 for span in spans if span[2] == name)


def iteration_layers(spans: list[tuple], counts: Counter) -> dict[str, float]:
    """Per-layer numbers of one traced iteration."""
    rpcs = max(counts["simulator.rpcs"], 1)
    executions = max(counts["simulator.executions"], 1)
    plans = counts["search.plans_built"]
    reduction_calls = counts["search.reduction_calls"]
    claims = span_count(spans, "indexing.counter_claim")
    return {
        "indexing.canonical_bytes_per_rpc": counts["indexing.canonical_bytes"] / rpcs,
        "indexing.encode_us_per_rpc":
            total_time(spans, "indexing.encode", in_execution=True) / rpcs * 1e6,
        "indexing.decode_us_per_rpc":
            total_time(spans, "indexing.decode", in_execution=True) / rpcs * 1e6,
        "indexing.dei_extend_us_per_rpc":
            total_time(spans, "indexing.dei_extend", in_execution=True) / rpcs * 1e6,
        "indexing.counter_claim_us":
            total_time(spans, "indexing.counter_claim") / max(claims, 1) * 1e6,
        "indexing.project_calls_per_plan":
            counts["indexing.project"] / max(counts["search.plans_all"], 1),
        "simulator.run_execution_s": total_time(spans, "simulator.run_execution"),
        "simulator.self_s": self_time(spans, "simulator.run_execution", "indexing."),
        "simulator.pre_dispatch_s": total_time(spans, "simulator.pre_dispatch"),
        "simulator.events_per_execution": counts["simulator.events"] / executions,
        "simulator.rewrites_per_execution": counts["simulator.rewrites"] / executions,
        "search.explore_s": total_time(spans, "search.explore"),
        "search.self_s": self_time(spans, "search.explore"),
        "search.plans_built": float(plans),
        "search.plan_yield":
            span_count(spans, "simulator.run_execution") / plans if plans else 0.0,
        "search.dynamic_reduction_s": total_time(spans, "search.dynamic_reduction"),
        "search.reduction_calls": float(reduction_calls),
        "search.prune_ratio":
            counts["search.pruned"] / reduction_calls if reduction_calls else 0.0,
        "search.completeness_check_s": total_time(spans, "search.completeness_check"),
        "search.report_json_s": total_time(spans, "search.report_json"),
        "search.reconstruct_graph_s": total_time(spans, "search.reconstruct_graph"),
        "cli.trace_write_s": total_time(spans, "cli.trace_to_json_lines")
        + total_time(spans, "cli.trace_file_write"),
        "cli.trace_bytes_per_execution":
            counts["cli.trace_bytes"] / max(counts["cli.trace_files"], 1),
        "cli.trace_load_s": total_time(spans, "cli.trace_load"),
        "cli.graph_s": total_time(spans, "bench.graph"),
    }


def execution_latencies_ms(spans: list[tuple]) -> list[float]:
    return [
        (end - start) * 1e3
        for _, _, name, start, end, _, _ in spans
        if name == "simulator.run_execution"
    ]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by `statistics.quantiles`' default method."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]
