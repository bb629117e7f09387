"""Subtree replay: within one exploration, a delivered RPC whose index and
plan faults below it repeat an earlier delivery replays what the callee did
then. Replay must leave every trace byte-equal to a fresh run of its plan."""

from __future__ import annotations

import json

import pytest

from dexi import simulator
from dexi.indexing import config_from_label
from dexi.programs import EntryRequest, parse_application
from dexi.search import FaultCatalog, explore
from dexi.simulator import (
    FaultSpec,
    IdentityTable,
    StepBudgetExceededError,
    run_execution,
)

from helpers import build_nested

SEED = 3


def rpc(service: str, method: str, line: int, assign: str | None = None, **args) -> dict:
    stmt = {"op": "rpc", "service": service, "method": method, "line": line,
            "args": {name: value for name, value in args.items()}}
    if assign:
        stmt["assign"] = assign
    return stmt


def guarded(stmt: dict) -> dict:
    return {"op": "try", "body": [stmt], "catch": []}


def service(name: str, method: str, body: list, params: tuple[str, ...] = ()) -> dict:
    return {"name": name, "endpoints": [
        {"method": method, "params": [{"name": p} for p in params], "body": body}]}


def assert_traces_fresh(app, entry, report, config_label="full") -> None:
    """Every explored trace equals a fresh run of its plan."""
    config = config_from_label(config_label)
    for ex in report.executions:
        fresh = run_execution(app, entry, ex.plan, seed=SEED, config=config)
        assert ex.trace.to_json_lines() == fresh.to_json_lines(), ex.plan.items()


@pytest.fixture
def calls(monkeypatch):
    """Counts of handler runs, recordings and replays during the test."""
    counts = {"handler": 0, "record": 0, "replay": 0}
    for name in ("record", "replay"):
        original = getattr(simulator._Execution, f"_{name}")

        def spy(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(simulator._Execution, f"_{name}", spy)

    def counting(run):
        def counted(ex, ctx):
            counts["handler"] += 1
            return run(ex, ctx)

        return counted

    compile_endpoints = simulator._compile_endpoints

    def compile_counted(app):
        endpoints = compile_endpoints(app)
        for endpoint in endpoints.values():
            endpoint.run = counting(endpoint.run)
        return endpoints

    monkeypatch.setattr(simulator, "_compile_endpoints", compile_counted)
    return counts


class TestTracesMatchFreshRuns:
    @pytest.mark.parametrize("reduction", [False, True], ids=["plain", "reduction"])
    @pytest.mark.parametrize("label", ["full", "3milebeach"])
    def test_corpus(self, corpus, label, reduction):
        for entry in corpus.values():
            report = explore(entry.app, entry.entry_request, FaultCatalog.uniform(entry.app),
                             config=config_from_label(label), reduction_enabled=reduction,
                             seed=SEED)
            assert_traces_fresh(entry.app, entry.entry_request, report, label)

    @pytest.mark.parametrize("reduction", [False, True], ids=["plain", "reduction"])
    def test_nested_app_replays(self, calls, reduction):
        app, entry = build_nested(3, 2)
        report = explore(app, entry, FaultCatalog.uniform(app), reduction_enabled=reduction,
                         seed=SEED, budget=200)
        runs = calls["handler"] - report.total_executed  # less the entry handlers
        delivered = sum(1 for ex in report.executions
                        for e in ex.trace.events if e.kind == "completion")
        assert calls["replay"] > 0 and runs < delivered
        assert_traces_fresh(app, entry, report)
        # Sequence numbers are trace positions, in a fresh and a replayed run.
        fresh = run_execution(app, entry, seed=SEED)
        for trace in [fresh] + [ex.trace for ex in report.executions]:
            seqs = [json.loads(line)["seq"] for line in trace.to_json_lines()[1:]]
            assert seqs == list(range(len(trace.events)))

    def test_replay_appends_the_recorded_events(self, calls):
        # Under the recording caller's task path a replay appends the
        # recorded event objects themselves, so traces share them.
        app, entry = build_nested(2, 2)
        report = explore(app, entry, FaultCatalog.uniform(app), reduction_enabled=True,
                         seed=SEED)
        runs: dict[int, set[int]] = {}
        for number, ex in enumerate(report.executions):
            for event in ex.trace.events:
                runs.setdefault(id(event), set()).add(number)
        assert calls["replay"] > 0
        assert any(len(numbers) > 1 for numbers in runs.values())
        assert_traces_fresh(app, entry, report)


class TestReplayBoundaries:
    def test_map_argument_keeps_its_key_order(self, calls):
        # A response fault gives `b` the same map with its keys swapped. The
        # index of `c.show` ignores key order, but the string it builds does
        # not, so `c` must run again for that plan.
        app = parse_application({"services": [
            service("a", "go", [rpc("b", "get", 2, "m"),
                                rpc("c", "show", 3, "s", m={"var": "m"}),
                                {"op": "return", "value": {"var": "s"}}]),
            service("b", "get", [{"op": "return", "value": {"const": {"x": 1, "y": 2}}}]),
            service("c", "show", [rpc("d", "get", 7),
                                  {"op": "return", "value": {"concat": [{"var": "m"}]}}],
                    params=("m",)),
            service("d", "get", []),
        ]})
        entry = EntryRequest(service="a", method="go", args={})
        catalog = FaultCatalog({
            app.signature("b", "get"): [FaultSpec("reordered", mode="response",
                                                  response={"y": 2, "x": 1})],
            app.signature("c", "show"): [FaultSpec()],
            app.signature("d", "get"): [FaultSpec()],
        })
        report = explore(app, entry, catalog, seed=SEED)
        values = {ex.trace.entry_outcome.get("value") for ex in report.executions}
        assert {"{'x': 1, 'y': 2}", "{'y': 2, 'x': 1}"} <= values
        assert calls["replay"] == 0
        assert_traces_fresh(app, entry, report)

    def test_warnings_replayed_in_order(self, calls):
        # `b` awaits one block at a time, twice at one site, so each RPC of
        # the second block races the first's: `d` warns before `c`. The
        # fault on `e` delivers `b` again under the same key.
        block = [rpc("d", "get", 5, s={"const": "x"}), rpc("c", "get", 6, s={"const": "x"})]
        app = parse_application({"services": [
            service("a", "go", [guarded(rpc("b", "run", 2)), guarded(rpc("e", "get", 3))]),
            service("b", "run", [{"op": "loop", "var": "i", "in": {"const": [1, 2]}, "line": 4,
                                  "body": [{"op": "spawn", "futures": "fs", "line": 4,
                                            "body": block},
                                           {"op": "await_all", "futures": "fs", "line": 7}]}]),
            *(service(name, "get", [], params=("s",)) for name in "cd"),
            service("e", "get", []),
        ]})
        entry = EntryRequest(service="a", method="go", args={})
        report = explore(app, entry, FaultCatalog.uniform(app), seed=SEED)
        baseline = report.executions[0].trace.warnings
        assert [w.split(" at ")[1][:5] for w in baseline] == ["d.get", "c.get"]
        [e_faulted] = [ex.trace for ex in report.executions if len(ex.plan) == 1
                       and ex.trace.events[-1].kind == "fault_injected"
                       and ex.trace.events[-1].callee == "e"]
        assert e_faulted.warnings == baseline
        assert calls["replay"] > 0
        assert_traces_fresh(app, entry, report)

    def test_budget_inside_a_recorded_subtree(self, calls):
        # The entry handler ends with the RPC, so only the replay itself can
        # notice that the budget runs out inside `b`'s subtree.
        app = parse_application({"services": [
            service("a", "go", [rpc("b", "get", 2)]),
            service("b", "get", [rpc("c", "get", 3), rpc("c", "get", 4)]),
            service("c", "get", [{"op": "assign", "var": "v", "value": {"const": 1}},
                                 {"op": "assign", "var": "w", "value": {"const": 2}}]),
        ]})
        entry = EntryRequest(service="a", method="go", args={})
        total = 1 + 2 + 2 * 2
        shared = IdentityTable(app, config_from_label("full"))
        run_execution(app, entry, identities=shared)
        assert calls["record"] == 1
        for budget in range(1, total + 2):
            fresh = shared_run = None
            try:
                run_execution(app, entry, budget=budget)
            except StepBudgetExceededError as exc:
                fresh = str(exc)
            try:
                run_execution(app, entry, identities=shared, budget=budget)
            except StepBudgetExceededError as exc:
                shared_run = str(exc)
            assert fresh == shared_run, budget
            assert (fresh is None) == (budget >= total), budget
        # The entry's one statement fits every budget, so each reaches the
        # replay, which charges its steps through the one budget check.
        assert calls["replay"] == total + 1

    def test_replayed_events_take_the_callers_task_path(self, calls):
        # A fault on `e` spawns one more block first, so the block that calls
        # `b` is block 1 instead of block 0, under one index.
        app = parse_application({"services": [
            service("a", "go", [
                {"op": "try", "body": [rpc("e", "get", 2)],
                 "catch": [{"op": "spawn", "futures": "fs", "line": 3, "body": []}]},
                {"op": "spawn", "futures": "fs", "line": 4, "body": [rpc("b", "run", 5)]},
                {"op": "await_all", "futures": "fs", "line": 6},
            ]),
            service("b", "run", [rpc("c", "get", 8)]),
            *(service(name, "get", []) for name in "ce"),
        ]})
        entry = EntryRequest(service="a", method="go", args={})
        report = explore(app, entry, FaultCatalog.uniform(app), seed=SEED)
        tasks = {e.lineage for ex in report.executions for e in ex.trace.events
                 if e.callee == "c"}
        assert tasks == {(0,), (1,)}
        assert calls["replay"] > 0
        assert_traces_fresh(app, entry, report)

    def test_callee_that_draws_from_the_scheduler_is_never_replayed(self, calls):
        # `b` awaits two blocks at once, which draws their order from the
        # execution's generator; `a` then draws again for its own blocks.
        def two_blocks(line):
            return [*({"op": "spawn", "futures": "fs", "line": line + i,
                       "body": [rpc(name, "get", line + 2 + i)]} for i, name in enumerate("cd")),
                    {"op": "await_all", "futures": "fs", "line": line + 4}]

        app = parse_application({"services": [
            service("a", "go", [guarded(rpc("b", "run", 2)), *two_blocks(3)]),
            service("b", "run", two_blocks(10)),
            *(service(name, "get", []) for name in "cd"),
        ]})
        entry = EntryRequest(service="a", method="go", args={})
        report = explore(app, entry, FaultCatalog.uniform(app), seed=SEED)
        assert report.total_executed > 2
        assert calls["record"] > 0 and calls["replay"] == 0
        assert_traces_fresh(app, entry, report)

    def test_callee_that_opens_a_stream_is_never_replayed(self, calls):
        app = parse_application({"services": [
            service("a", "go", [guarded(rpc("b", "go", 2)), guarded(rpc("e", "get", 3))]),
            service("b", "go", [
                {"op": "open_stream", "service": "c", "method": "handle", "line": 5,
                 "assign": "st"},
                {"op": "stream_send", "stream": "st", "args": {"s": {"const": "x"}}, "line": 6},
                {"op": "close_stream", "stream": "st"},
                rpc("d", "get", 8),
            ]),
            service("c", "handle", [], params=("s",)),
            service("d", "get", []),
            service("e", "get", []),
        ]})
        entry = EntryRequest(service="a", method="go", args={})
        report = explore(app, entry, FaultCatalog.uniform(app), seed=SEED)
        assert report.total_executed > 2
        assert calls["record"] > 0 and calls["replay"] == 0
        assert_traces_fresh(app, entry, report)
