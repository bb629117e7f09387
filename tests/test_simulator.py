"""Simulator behaviour: context propagation, fault injection, scheduling,
budgets, and trace invariants."""

from __future__ import annotations

import gc
import json
import sys
import threading
from dataclasses import replace

import pytest

from dexi import indexing, simulator
from dexi.experiment import build_hello_world_app, hello_world_entry
from dexi.indexing import (
    ArityMismatchError,
    DexiError,
    EMPTY_INDEX,
    config_from_label,
    decode,
    encode,
)
from dexi.programs import (
    Application,
    Const,
    Endpoint,
    EntryRequest,
    Loop,
    ProgramError,
    Return,
    Rpc,
    ServiceProgram,
    Spawn,
    AwaitAll,
    Var,
    parse_application,
)
from dexi.search import FaultCatalog, explore
from dexi.simulator import (
    ExecutionTrace,
    FaultPlan,
    FaultSpec,
    MalformedPlanError,
    MetadataError,
    StepBudgetExceededError,
    propagate_context,
    run_execution,
    run_sequence,
)

from helpers import symbolic


def rpc(service: str, line: int) -> Rpc:
    return Rpc(service=service, method="get", args=(("s", Const("x")),), line=line, assign="r")


def spawn_app(*body) -> Application:
    """`a.go()` runs `body`; `b.get(s)` and `c.get(s)` return `s`."""
    leaf = Endpoint(method="get", params=(("s", "String"),), body=(Return(Var("s")),))
    services = {name: ServiceProgram(name=name, endpoints={"get": leaf}) for name in "bc"}
    services["a"] = ServiceProgram(
        name="a", endpoints={"go": Endpoint(method="go", params=(), body=body)}
    )
    return Application(services=services)


class TestPropagateContext:
    def test_absent_metadata_is_entry_point(self):
        assert propagate_context(None) == EMPTY_INDEX
        assert propagate_context({}) == EMPTY_INDEX

    def test_round_trip_through_metadata(self, corpus):
        entry = corpus["figure-5"]
        trace = run_execution(entry.app, entry.entry_request)
        outer = trace.invocation_deis()[0]
        assert propagate_context({"x-dexi-index": encode(outer)}) == outer

    def test_corrupted_metadata_rejected(self):
        with pytest.raises(MetadataError):
            propagate_context({"x-dexi-index": "garbage"})

    def test_preliminary_marker_restored(self, corpus):
        entry = corpus["figure-5"]
        outer = run_execution(entry.app, entry.entry_request).invocation_deis()[0]
        metadata = {"x-dexi-index": encode(outer), "x-dexi-preliminary": "true"}
        decoded = propagate_context(metadata)
        assert decoded == outer
        assert decoded.last.preliminary
        assert not propagate_context({"x-dexi-index": encode(outer)}).last.preliminary


class TestDigestCollision:
    def test_distinct_signatures_sharing_a_digest_rejected(self, corpus, monkeypatch):
        monkeypatch.setattr(indexing, "_digest", lambda data: "0" * indexing.DIGEST_HEX_LEN)
        entry = corpus["figure-5"]
        with pytest.raises(DexiError, match="digest collision"):
            run_execution(entry.app, entry.entry_request)


class TestDigestsComputedOnce:
    def test_at_most_three_digests_per_rpc(self, corpus, monkeypatch):
        # One each for the signature, the payload and the call stack, when
        # they are built; reading them back computes nothing.
        calls = []
        digest = indexing._digest
        monkeypatch.setattr(indexing, "_digest", lambda data: calls.append(1) or digest(data))
        for entry in corpus.values():
            calls.clear()
            trace = run_execution(entry.app, entry.entry_request)
            assert len(calls) <= 3 * len(trace.invocation_events()), entry.name

    def test_explore_digests_each_invocation_signature_once(self, monkeypatch):
        # Identities are interned for the whole exploration, so a repeated
        # RPC computes no digest.
        app = build_hello_world_app()
        entry = hello_world_entry(6)
        catalog = FaultCatalog.uniform(app)
        calls = []
        digest = indexing._digest
        monkeypatch.setattr(indexing, "_digest", lambda data: calls.append(1) or digest(data))
        report = explore(app, entry, catalog, budget=100)
        events = [e for ex in report.executions for e in ex.trace.invocation_events()]
        distinct = {e.dei.last for e in events}
        assert len(events) > 3 * len(distinct)
        assert len(calls) <= 3 * len(distinct)

    def test_equal_values_of_different_types_keep_distinct_payloads(self):
        # 1 == True == 1.0 in Python, but their canonical bytes differ.
        app = parse_application({"services": [
            {"name": "a", "endpoints": [{"method": "go", "params": [], "body": [
                {"op": "loop", "var": "v", "in": {"const": [1, True, 1.0]}, "line": 2, "body": [
                    {"op": "rpc", "service": "b", "method": "get", "line": 3,
                     "args": {"x": {"var": "v"}}},
                ]},
            ]}]},
            {"name": "b", "endpoints": [{"method": "get", "params": [{"name": "x"}], "body": []}]},
        ]})
        trace = run_execution(app, EntryRequest(service="a", method="go", args={}))
        deis = trace.invocation_deis()
        assert len({d.last.payload_digest for d in deis}) == 3
        assert [d.last.count for d in deis] == [1, 1, 1]

    def test_identities_do_not_outlive_an_explore(self, corpus, monkeypatch):
        entry = corpus["figure-5"]
        catalog = FaultCatalog.uniform(entry.app)
        explore(entry.app, entry.entry_request, catalog)
        monkeypatch.setattr(indexing, "_digest", lambda data: "0" * indexing.DIGEST_HEX_LEN)
        with pytest.raises(DexiError, match="digest collision"):
            explore(entry.app, entry.entry_request, catalog)


class TestIndexesInterned:
    """Within one exploration each distinct index is one object, built once,
    and each distinct metadata text is decoded once."""

    def explore_fanout(self):
        app = build_hello_world_app()
        return explore(app, hello_world_entry(6), FaultCatalog.uniform(app), budget=100)

    def test_each_index_extended_once(self, monkeypatch):
        calls = []
        extend = simulator.dei_extend
        monkeypatch.setattr(
            simulator, "dei_extend", lambda *args: calls.append(1) or extend(*args)
        )
        report = self.explore_fanout()
        distinct = {d for ex in report.executions for d in ex.trace.invocation_deis()}
        assert len(report.executions) == 64
        assert 0 < len(calls) <= len(distinct)

    def test_same_rpc_same_object_across_executions(self):
        first, second = self.explore_fanout().executions[:2]
        by_value = {d: d for d in first.trace.invocation_deis()}
        deis = second.trace.invocation_deis()
        assert deis and all(by_value[d] is d for d in deis)

    def test_each_metadata_text_decoded_once(self, monkeypatch):
        texts = []
        decode = indexing.decode
        monkeypatch.setattr(
            indexing, "decode", lambda text, *args: texts.append(text) or decode(text, *args)
        )
        self.explore_fanout()
        assert texts and len(texts) == len(set(texts))


    def test_marked_path_never_comes_back_unmarked(self):
        # Equality ignores the preliminary marker; the table must not.
        table = simulator.IdentityTable(build_hello_world_app(), indexing.FULL_CONFIG)
        inv = table.invocation("world", "get", {"tag": "t"}, (("hello.py:6", "go"),))
        path = table.index(EMPTY_INDEX, inv, 1)
        marked = table.index(EMPTY_INDEX, inv, 1, preliminary=True)
        assert marked == path and marked.last.preliminary and not path.last.preliminary
        child, marked_child = (table.index(p, inv, 1) for p in (path, marked))
        assert child == marked_child and child is not marked_child
        assert marked_child.has_preliminary() and not child.has_preliminary()


class TestConstants:
    def const_app(self, value, *body) -> Application:
        return parse_application({"services": [
            {"name": "a", "endpoints": [{"method": "go", "params": [], "body": [
                {"op": "assign", "var": "xs", "value": {"const": value}},
                *body,
                {"op": "return", "value": {"var": "xs"}},
            ]}]},
        ]})

    def test_appending_to_a_constant_list_leaves_it_empty(self):
        app = self.const_app([], {"op": "append", "list": "xs", "value": {"const": "x"}})
        entry = EntryRequest(service="a", method="go", args={})
        first, second = (run_execution(app, entry).entry_outcome for _ in range(2))
        assert first == second == {"value": ["x"]}

    def test_nested_constant_list_never_shared(self):
        app = self.const_app([[1], {"k": [2]}])
        entry = EntryRequest(service="a", method="go", args={})
        first, second = (run_execution(app, entry).entry_outcome["value"] for _ in range(2))
        assert first == second == [[1], {"k": [2]}]
        assert first[0] is not second[0]
        assert first[1]["k"] is not second[1]["k"]

    def test_explore_hands_each_execution_a_fresh_constant(self):
        # Every execution of one exploration runs the same compiled program;
        # an append in one must not show in the constant the next one reads.
        app = parse_application({"services": [
            {"name": "a", "endpoints": [{"method": "go", "params": [], "body": [
                {"op": "assign", "var": "xs", "value": {"const": ["c"]}},
                {"op": "append", "list": "xs", "value": {"const": "x"}},
                {"op": "try", "body": [
                    {"op": "rpc", "service": "b", "method": "get", "args": {}, "line": 4},
                ]},
                {"op": "return", "value": {"var": "xs"}},
            ]}]},
            {"name": "b", "endpoints": [{"method": "get", "params": [], "body": []}]},
        ]})
        entry = EntryRequest(service="a", method="go", args={})
        report = explore(app, entry, FaultCatalog.uniform(app))
        outcomes = [ex.trace.entry_outcome for ex in report.executions]
        assert len(outcomes) == 2
        assert outcomes == [{"value": ["c", "x"]}] * 2

    def test_explore_hands_each_execution_the_original_entry_arguments(self):
        # The handler appends to a list nested in its list argument; neither
        # the next execution nor the caller's entry may see the append.
        app = parse_application({"services": [
            {"name": "a", "endpoints": [{"method": "go", "params": [{"name": "xs"}], "body": [
                {"op": "loop", "var": "v", "in": {"var": "xs"}, "line": 2, "body": [
                    {"op": "append", "list": "v", "value": {"const": "x"}},
                ]},
                {"op": "try", "body": [
                    {"op": "rpc", "service": "b", "method": "get", "args": {}, "line": 5},
                ]},
                {"op": "return", "value": {"var": "xs"}},
            ]}]},
            {"name": "b", "endpoints": [{"method": "get", "params": [], "body": []}]},
        ]})
        entry = EntryRequest(service="a", method="go", args={"xs": [["c"]]})
        report = explore(app, entry, FaultCatalog.uniform(app))
        outcomes = [ex.trace.entry_outcome for ex in report.executions]
        assert outcomes == [{"value": [["c", "x"]]}] * 2
        assert entry.args == {"xs": [["c"]]}


class TestRpcBoundaryCopies:
    """Lists and maps are copied where they cross an RPC, so neither side,
    nor the recorded events, sees the other side's appends."""

    def app(self, caller_body, callee_params=(), callee_body=()) -> Application:
        return parse_application({"services": [
            {"name": "a", "endpoints": [{"method": "go", "params": [], "body": caller_body}]},
            {"name": "b", "endpoints": [{"method": "get", "params": list(callee_params),
                                         "body": list(callee_body)}]},
        ]})

    ENTRY = EntryRequest(service="a", method="go", args={})

    def test_callee_append_to_an_argument_stays_with_the_callee(self):
        app = self.app(
            [{"op": "assign", "var": "xs", "value": {"const": ["c"]}},
             {"op": "rpc", "service": "b", "method": "get", "args": {"xs": {"var": "xs"}},
              "line": 3},
             {"op": "return", "value": {"var": "xs"}}],
            [{"name": "xs"}],
            [{"op": "append", "list": "xs", "value": {"const": "x"}}],
        )
        trace = run_execution(app, self.ENTRY)
        assert trace.entry_outcome == {"value": ["c"]}
        [invocation] = trace.invocation_events()
        assert invocation.payload == (("xs", ["c"]),)
        payload = indexing.InvocationPayload.from_mapping(
            app.signature("b", "get"), dict(invocation.payload))
        assert invocation.dei.last.payload_digest == payload.digest

    def test_caller_append_to_a_result_leaves_the_completion_unchanged(self):
        app = self.app(
            [{"op": "rpc", "service": "b", "method": "get", "args": {}, "line": 2,
              "assign": "r"},
             {"op": "append", "list": "r", "value": {"const": "x"}},
             {"op": "return", "value": {"var": "r"}}],
            callee_body=[{"op": "return", "value": {"const": ["c"]}}],
        )
        trace = run_execution(app, self.ENTRY)
        assert trace.entry_outcome == {"value": ["c", "x"]}
        [completion] = [e for e in trace.events if e.kind == "completion"]
        assert completion.outcome == {"value": ["c"]}

    def test_response_fault_hands_out_a_copy(self):
        app = self.app(
            [{"op": "rpc", "service": "b", "method": "get", "args": {}, "line": 2,
              "assign": "r"},
             {"op": "append", "list": "r", "value": {"const": "x"}},
             {"op": "return", "value": {"var": "r"}}],
        )
        [dei] = run_execution(app, self.ENTRY).invocation_deis()
        spec = FaultSpec("bad-gateway", mode="response", response=["c"])
        plan = FaultPlan({dei: spec})
        outcomes = [run_execution(app, self.ENTRY, plan).entry_outcome for _ in range(3)]
        assert outcomes == [{"value": ["c", "x"]}] * 3
        assert spec.response == ["c"]


class TestControlFlow:
    def run_go(self, body, helpers=()):
        app = parse_application({"services": [
            {"name": "a", "helpers": list(helpers),
             "endpoints": [{"method": "go", "params": [], "body": body}]},
        ]})
        return run_execution(app, EntryRequest(service="a", method="go", args={}))

    def test_return_inside_a_loop_inside_a_try_returns_its_value(self):
        trace = self.run_go([
            {"op": "try", "body": [
                {"op": "loop", "var": "i", "in": {"const": [1, 2]}, "line": 2, "body": [
                    {"op": "return", "value": {"var": "i"}},
                ]},
            ], "catch": []},
            {"op": "return", "value": {"const": "after"}},
        ])
        assert trace.entry_outcome == {"value": 1}

    def test_break_in_a_helper_outside_any_loop_is_an_error(self):
        # The helper is called from inside a loop; the break still may not
        # leave the helper.
        with pytest.raises(ProgramError, match="break outside a loop in a.h"):
            self.run_go(
                [{"op": "loop", "var": "i", "in": {"const": [1]}, "line": 2, "body": [
                    {"op": "call", "helper": "h", "args": {}, "line": 3},
                ]}],
                helpers=[{"name": "h", "params": [], "body": [{"op": "break"}]}],
            )

    @pytest.mark.parametrize("scheduler", ["virtual", "threads"])
    def test_self_rpc_without_paths_stops_at_the_recursion_limit(self, scheduler):
        # No path means no index depth to bound the nesting; the
        # interpreter's recursion limit does, as one DexiError.
        app = parse_application({"services": [
            {"name": "a", "endpoints": [{"method": "go", "params": [], "body": [
                {"op": "rpc", "service": "a", "method": "go", "args": {}, "line": 2},
            ]}]},
        ]})
        entry = EntryRequest(service="a", method="go", args={})
        with pytest.raises(DexiError) as raised:
            run_execution(app, entry, scheduler=scheduler,
                          config=config_from_label("no-path-count-stack"))
        assert str(raised.value) == "RPC nesting exceeded the interpreter's recursion limit"


class TestFailedBlockGarbage:
    def test_failed_block_leaves_no_reference_cycle(self):
        # A block's failure is re-raised where it is awaited; neither the
        # stored error nor the re-raised one may tie the handle to frames.
        app = build_hello_world_app()
        entry = hello_world_entry(3)
        first = run_execution(app, entry).invocation_deis()[0]
        plan = FaultPlan({first: FaultSpec()})
        gc.collect()
        gc.disable()
        try:
            trace = run_execution(app, entry, plan)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert trace.entry_outcome == {"fault": "connection-error"}
        assert unreachable == 0


class TestPathAccumulation:
    def test_nested_rpc_extends_callers_index(self, corpus):
        entry = corpus["figure-5"]
        trace = run_execution(entry.app, entry.entry_request)
        deis = trace.invocation_deis()
        # a -> b at line 9 (payload Hello), then b -> c at line 29 under it.
        assert len(deis[0]) == 1
        assert len(deis[1]) == 2
        assert deis[1].prefix() == deis[0]
        # Stacks are service-local (line 29 inside b); the caller's context
        # lives in the path prefix, not the stack.
        assert symbolic(trace, with_payload=True) == (
            ("9", 1, "Hello", False),
            ("29", 1, "Hello", False),
            ("9", 1, "World", False),
            ("29", 1, "World", False),
        )

    def test_helper_frames_in_stack(self, corpus):
        entry = corpus["figure-2"]
        trace = run_execution(entry.app, entry.entry_request)
        assert symbolic(trace) == (("3,10", 1, False), ("4,10", 1, False))


class TestFigure3Executions:
    """The loop-and-fallback app under the payload-excluded instantiation."""

    CFG = config_from_label("filibuster")

    def test_fault_free_multiset(self, corpus):
        entry = corpus["figure-3"]
        trace = run_execution(entry.app, entry.entry_request, config=self.CFG)
        assert symbolic(trace) == (("8", 1, False), ("8", 2, False))

    def test_fallback_after_second_iteration_fault(self, corpus):
        entry = corpus["figure-3"]
        baseline = run_execution(entry.app, entry.entry_request, config=self.CFG)
        second = baseline.invocation_deis()[1]
        plan = FaultPlan({second: FaultSpec()})
        trace = run_execution(entry.app, entry.entry_request, plan, config=self.CFG)
        assert symbolic(trace) == (("8", 1, False), ("8", 2, True), ("16", 1, False))
        assert trace.entry_outcome == {"value": "Hello World"}


class TestFaultInjection:
    def test_fault_only_at_planned_index(self, corpus):
        entry = corpus["cinema-3"]
        baseline = run_execution(entry.app, entry.entry_request)
        movie_first = baseline.invocation_deis()[1]
        plan = FaultPlan({movie_first: FaultSpec()})
        trace = run_execution(entry.app, entry.entry_request, plan)
        injected = [e for e in trace.events if e.kind == "fault_injected"]
        assert len(injected) == 1
        assert injected[0].dei == movie_first
        # Unplanned invocations completed normally.
        completions = [e for e in trace.events if e.kind == "completion"]
        assert all("value" in (e.outcome or {}) for e in completions)

    def test_fault_plan_keys_match_exactly_one_event(self, corpus):
        entry = corpus["cinema-10"]
        baseline = run_execution(entry.app, entry.entry_request)
        target = baseline.invocation_deis()[0]
        plan = FaultPlan({target: FaultSpec()})
        trace = run_execution(entry.app, entry.entry_request, plan)
        hits = [e for e in trace.events if e.kind == "fault_injected"]
        assert [e.dei for e in hits] == [target]

    def test_response_shaping_fault(self, corpus):
        entry = corpus["figure-2"]
        baseline = run_execution(entry.app, entry.entry_request)
        first = baseline.invocation_deis()[0]
        plan = FaultPlan({first: FaultSpec("bad-gateway", mode="response", response="oops")})
        trace = run_execution(entry.app, entry.entry_request, plan)
        assert trace.entry_outcome == {"value": "oops World"}
        injected = [e for e in trace.events if e.kind == "fault_injected"]
        assert injected[0].outcome == {"fault": "bad-gateway", "response": "oops"}

    def test_malformed_plan_key(self, corpus):
        # The plan is a plain value; the execution checks it against the
        # instantiation it runs under, before the first RPC.
        entry = corpus["figure-3"]
        baseline = run_execution(entry.app, entry.entry_request)
        plan = FaultPlan({baseline.invocation_deis()[0]: FaultSpec()})
        with pytest.raises(MalformedPlanError, match="not in the identifier space"):
            run_execution(entry.app, entry.entry_request, plan,
                          config=config_from_label("filibuster"))

    def test_propagated_failure_bubbles_descriptor(self, corpus):
        entry = corpus["cinema-10"]
        baseline = run_execution(entry.app, entry.entry_request)
        nested = next(d for d in baseline.invocation_deis() if len(d) == 2)
        trace = run_execution(entry.app, entry.entry_request, FaultPlan({nested: FaultSpec()}))
        bookings_completion = next(
            e for e in trace.events if e.kind == "completion" and len(e.dei) == 1
            and e.callee == "bookings"
        )
        assert bookings_completion.outcome == {"fault": "connection-error"}
        assert trace.entry_outcome == {"value": "default-booking movie-m1"}


class TestSchedulers:
    def test_seeds_permute_but_multisets_match(self, corpus):
        entry = corpus["figure-4"]
        orders = set()
        multisets = set()
        for seed in range(12):
            trace = run_execution(entry.app, entry.entry_request, seed=seed)
            orders.add(tuple(dict(e.payload)["s"] for e in trace.invocation_events()))
            multisets.add(trace.dei_multiset())
        assert len(multisets) == 1
        assert len(orders) == 2  # both interleavings observed across seeds

    def test_thread_mode_same_multiset(self, corpus):
        entry = corpus["figure-4"]
        virtual = run_execution(entry.app, entry.entry_request, seed=0)
        threaded = run_execution(entry.app, entry.entry_request, scheduler="threads")
        assert virtual.dei_multiset() == threaded.dei_multiset()

    def test_identical_run_config_identical_trace(self, corpus):
        entry = corpus["hello-world-concurrency"]
        a = run_execution(entry.app, entry.entry_request, seed=7)
        b = run_execution(entry.app, entry.entry_request, seed=7)
        assert [e.to_json() for e in a.events] == [e.to_json() for e in b.events]

    def test_sequential_app_traces_seed_invariant(self, corpus):
        entry = corpus["cinema-3"]
        reference = run_execution(entry.app, entry.entry_request, seed=0)
        for seed in (1, 2, 3):
            other = run_execution(entry.app, entry.entry_request, seed=seed)
            assert [e.to_json() for e in other.events] == [
                e.to_json() for e in reference.events
            ]

    @pytest.mark.parametrize("scheduler", ["virtual", "threads"])
    def test_nested_spawn_awaits_its_own_futures(self, scheduler):
        # The inner block spawns into a futures list of the same name; it
        # must get its own list, not append to the enclosing scope's.
        inner = Spawn(futures="fs", body=(Return(Const("inner")),), line=2)
        outer = Spawn(
            futures="fs",
            body=(inner, AwaitAll(futures="fs", line=3, assign="xs"), Return(Var("xs"))),
            line=1,
        )
        app = Application(
            services={
                "a": ServiceProgram(
                    name="a",
                    endpoints={
                        "go": Endpoint(
                            method="go",
                            params=(),
                            body=(outer, AwaitAll(futures="fs", line=4, assign="rs"),
                                  Return(Var("rs"))),
                        )
                    },
                )
            }
        )
        entry = EntryRequest(service="a", method="go", args={})
        trace = run_execution(app, entry, scheduler=scheduler)
        assert trace.entry_outcome == {"value": [["inner"]]}

    @pytest.mark.parametrize("scheduler", ["virtual", "threads"])
    def test_unawaited_block_never_runs(self, scheduler):
        app = spawn_app(Spawn(futures="fs", body=(rpc("b", 2),), line=1),
                        Return(Const("done")))
        trace = run_execution(app, EntryRequest(service="a", method="go", args={}),
                              scheduler=scheduler)
        assert trace.invocation_events() == []
        assert trace.entry_outcome == {"value": "done"}

    @pytest.mark.parametrize("scheduler", ["virtual", "threads"])
    def test_block_starts_when_awaited(self, scheduler):
        # Faulting c aborts the handler before the await, so b never runs:
        # both schedulers explore {}, {b} and {c}.
        app = spawn_app(Spawn(futures="fs", body=(rpc("b", 2),), line=1), rpc("c", 3),
                        AwaitAll(futures="fs", line=4))
        entry = EntryRequest(service="a", method="go", args={})
        report = explore(app, entry, FaultCatalog.uniform(app), scheduler=scheduler)
        assert report.total_executed == 3

    @pytest.mark.parametrize("scheduler,pool_size", [("virtual", 1), ("threads", 1),
                                                     ("threads", 2)])
    def test_block_awaited_by_siblings_runs_once(self, scheduler, pool_size):
        # Three gs blocks await fs from their workers, and so does the entry
        # handler: fs runs once, and a worker that awaits it runs it inline
        # instead of waiting on the pool it occupies.
        app = spawn_app(
            Spawn(futures="fs", body=(rpc("b", 2), Return(Var("r"))), line=1),
            Loop(var="i", items=Const([1, 2, 3]), line=3, body=(
                Spawn(futures="gs", body=(AwaitAll(futures="fs", line=5, assign="xs"),
                                          Return(Var("xs"))), line=4),
            )),
            AwaitAll(futures="gs", line=6, assign="ys"),
            AwaitAll(futures="fs", line=7),
            Return(Var("ys")),
        )
        entry = EntryRequest(service="a", method="go", args={})
        traces = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: traces.append(run_execution(
                app, entry, scheduler=scheduler, pool_size=pool_size)), daemon=True)
            runner.start()
            runner.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive() and len(traces) == 1
        assert len(traces[0].invocation_events()) == 1
        assert traces[0].entry_outcome == {"value": [["x"]] * 3}

    def test_unknown_scheduler_rejected(self, corpus):
        entry = corpus["figure-2"]
        from dexi.indexing import DexiError

        with pytest.raises(DexiError):
            run_execution(entry.app, entry.entry_request, scheduler="fibers")


class TestAmbiguityWarnings:
    def test_identical_concurrent_payloads_warn(self):
        app = Application(
            services={
                "a": ServiceProgram(
                    name="a",
                    endpoints={
                        "go": Endpoint(
                            method="go",
                            params=(),
                            body=(
                                Loop(
                                    var="i",
                                    items=Const([1, 2]),
                                    line=3,
                                    body=(
                                        Spawn(
                                            futures="fs",
                                            line=4,
                                            body=(
                                                Rpc(
                                                    service="b",
                                                    method="echo",
                                                    args=(("s", Const("dup")),),
                                                    line=5,
                                                    assign="r",
                                                ),
                                                Return(Var("r")),
                                            ),
                                        ),
                                    ),
                                ),
                                AwaitAll(futures="fs", line=7, assign="rs"),
                                Return(Const("done")),
                            ),
                        )
                    },
                ),
                "b": ServiceProgram(
                    name="b",
                    endpoints={
                        "echo": Endpoint(
                            method="echo",
                            params=(("s", "String"),),
                            body=(Return(Var("s")),),
                        )
                    },
                ),
            }
        )
        entry = EntryRequest(service="a", method="go", args={})
        trace = run_execution(app, entry)
        assert any("detected-ambiguity" in w for w in trace.warnings)
        # Counts still disambiguate within the execution.
        assert len(set(trace.dei_multiset())) == 2

    def test_sequential_same_payload_does_not_warn(self, corpus):
        entry = corpus["figure-3"]
        request = EntryRequest(
            service="a", method="helloworld", args={"ss": ["same", "same"]}
        )
        trace = run_execution(entry.app, request)
        assert not trace.warnings


class TestBudget:
    def test_runaway_program_stopped(self):
        app = Application(
            services={
                "a": ServiceProgram(
                    name="a",
                    endpoints={
                        "spin": Endpoint(
                            method="spin",
                            params=(),
                            body=(
                                Loop(
                                    var="i",
                                    items=Const(list(range(10_000))),
                                    line=2,
                                    body=(
                                        Rpc(service="b", method="noop", args=(), line=3),
                                    ),
                                ),
                                Return(Const("done")),
                            ),
                        )
                    },
                ),
                "b": ServiceProgram(
                    name="b",
                    endpoints={
                        "noop": Endpoint(method="noop", params=(), body=(Return(Const("ok")),))
                    },
                ),
            }
        )
        entry = EntryRequest(service="a", method="spin", args={})
        with pytest.raises(StepBudgetExceededError):
            run_execution(app, entry, budget=500)

    @pytest.mark.parametrize("scheduler", ["virtual", "threads"])
    def test_budget_counts_every_executed_statement(self, scheduler):
        # greet: loop, 3 spawns, await_all, return; each block: rpc, return;
        # each world.get: return. Unawaited or skipped statements never count.
        app, entry = build_hello_world_app(), hello_world_entry(3)
        statements = 1 + 3 + 1 + 1 + 3 * 2 + 3
        trace = run_execution(app, entry, scheduler=scheduler, budget=statements)
        assert "value" in trace.entry_outcome
        with pytest.raises(StepBudgetExceededError):
            run_execution(app, entry, scheduler=scheduler, budget=statements - 1)


class TestEntryValidation:
    def test_unknown_service(self, corpus):
        entry = corpus["figure-2"]
        with pytest.raises(ProgramError):
            run_execution(entry.app, EntryRequest(service="nope", method="x", args={}))

    def test_unknown_method(self, corpus):
        entry = corpus["figure-2"]
        with pytest.raises(ProgramError):
            run_execution(entry.app, EntryRequest(service="a", method="nope", args={}))

    def test_wrong_args(self, corpus):
        entry = corpus["figure-3"]
        with pytest.raises(ProgramError):
            run_execution(
                entry.app, EntryRequest(service="a", method="helloworld", args={"bogus": 1})
            )

    def test_wrong_rpc_args_at_a_known_call_site(self):
        # Both statements are one call site with equal argument bytes; only
        # the argument name differs, and it must still be checked.
        rpc = {"op": "rpc", "service": "b", "method": "get", "line": 3}
        app = parse_application({"services": [
            {"name": "a", "endpoints": [{"method": "go", "params": [], "body": [
                {**rpc, "args": {"x": {"const": 1}}},
                {**rpc, "args": {"y": {"const": 1}}},
            ]}]},
            {"name": "b", "endpoints": [{"method": "get", "params": [{"name": "x"}], "body": []}]},
        ]})
        with pytest.raises(ArityMismatchError):
            run_execution(app, EntryRequest(service="a", method="go", args={}))


class TestTraceInvariants:
    def test_full_config_deis_unique(self, corpus):
        for entry in corpus.values():
            trace = run_execution(entry.app, entry.entry_request)
            deis = [encode(d) for d in trace.invocation_deis()]
            assert len(deis) == len(set(deis)), entry.name

    def test_every_corpus_baseline_nonempty(self, corpus):
        for entry in corpus.values():
            trace = run_execution(entry.app, entry.entry_request)
            assert trace.invocation_events(), entry.name
            assert "value" in trace.entry_outcome, entry.name

    def test_trace_json_lines_round_trip_deis(self, corpus):
        entry = corpus["cinema-3"]
        trace = run_execution(entry.app, entry.entry_request)
        lines = trace.to_json_lines()
        assert lines[0].startswith('{"')  # header record
        docs = [json.loads(line) for line in lines[1:]]
        for doc, event in zip(docs, trace.events):
            if event.dei is not None:
                assert decode(doc["dei"]) == event.dei

    @pytest.mark.parametrize("label", ["full", "no-count"])
    def test_trace_json_lines_round_trip_with_config(self, corpus, label):
        entry = corpus["figure-6-stream"]
        config = config_from_label(label)
        trace = run_execution(entry.app, entry.entry_request, config=config)
        loaded = ExecutionTrace.from_json_lines(trace.to_json_lines())
        assert loaded.to_json_lines() == trace.to_json_lines()
        assert loaded.config == config

    def test_loading_a_trace_decodes_each_wire_text_once(self, corpus, monkeypatch):
        # Each stream message records its preliminary index beside the final
        # one, so the trace repeats wire texts.
        entry = corpus["figure-6-stream"]
        lines = run_execution(entry.app, entry.entry_request).to_json_lines()
        texts = []
        decode = indexing.decode
        monkeypatch.setattr(
            indexing, "decode", lambda text, *args: texts.append(text) or decode(text, *args)
        )
        loaded = ExecutionTrace.from_json_lines(lines)
        assert texts and len(texts) == len(set(texts))
        assert loaded.to_json_lines() == lines

    def test_preliminary_index_never_survives(self, monkeypatch):
        # A stream message's handler calls out under the message's
        # preliminary index; with rewrites switched off, that index reaches
        # the recorded RPC and the check must stop the execution.
        app = parse_application({"services": [
            {"name": "a", "endpoints": [{"method": "go", "params": [], "body": [
                {"op": "open_stream", "service": "b", "method": "handle", "line": 2,
                 "assign": "st"},
                {"op": "stream_send", "stream": "st", "args": {"s": {"const": "x"}}, "line": 3},
                {"op": "close_stream", "stream": "st"},
            ]}]},
            {"name": "b", "endpoints": [{"method": "handle", "params": [{"name": "s"}], "body": [
                {"op": "rpc", "service": "c", "method": "get", "args": {}, "line": 7},
            ]}]},
            {"name": "c", "endpoints": [{"method": "get", "params": [], "body": []}]},
        ]})
        entry = EntryRequest(service="a", method="go", args={})
        run_execution(app, entry)
        monkeypatch.setattr(simulator, "_apply_rewrites", lambda dei, rewrites: dei)
        with pytest.raises(DexiError, match="preliminary index survived finalization"):
            run_execution(app, entry)

    def test_duplicate_full_index_rejected(self, monkeypatch):
        app = parse_application({"services": [
            {"name": "a", "endpoints": [{"method": "go", "params": [], "body": [
                {"op": "loop", "var": "i", "in": {"const": [1, 2]}, "line": 2, "body": [
                    {"op": "rpc", "service": "b", "method": "get", "args": {}, "line": 3},
                ]},
            ]}]},
            {"name": "b", "endpoints": [{"method": "get", "params": [], "body": []}]},
        ]})
        entry = EntryRequest(service="a", method="go", args={})
        run_execution(app, entry)
        monkeypatch.setattr(indexing.CounterState, "claim", lambda *args: (1, False))
        with pytest.raises(DexiError, match="duplicate full index within one trace"):
            run_execution(app, entry)

    def test_header_without_config_loads_as_full(self, corpus):
        entry = corpus["figure-5"]
        lines = run_execution(entry.app, entry.entry_request).to_json_lines()
        header = json.loads(lines[0])
        del header["config"]
        lines[0] = json.dumps(header)
        assert ExecutionTrace.from_json_lines(lines).config == indexing.FULL_CONFIG


def stream_fanout_app(words: list[str]) -> Application:
    """One stream, one concurrent send per word."""
    send = {"op": "stream_send", "stream": "st", "args": {"s": {"var": "w"}}, "line": 6,
            "assign": "r"}
    return parse_application({"services": [
        {"name": "a", "endpoints": [{"method": "go", "params": [], "body": [
            {"op": "open_stream", "service": "b", "method": "handle", "line": 3, "assign": "st"},
            {"op": "loop", "var": "w", "in": {"const": words}, "line": 9, "body": [
                {"op": "spawn", "futures": "fs", "line": 10,
                 "body": [send, {"op": "return", "value": {"var": "r"}}]}]},
            {"op": "await_all", "futures": "fs", "line": 11, "assign": "rs"},
            {"op": "return", "value": {"var": "rs"}},
        ]}]},
        {"name": "b", "endpoints": [{"method": "handle", "params": [{"name": "s"}],
                                     "body": [{"op": "return", "value": {"var": "s"}}]}]},
    ]})


class TestTraceCodecMemo:
    # Python equates 1, 1.0 and True, and 0.0 and -0.0; JSON writes each
    # differently, so the encode memo must never merge them.
    VALUES = [1, 1.0, True, 0.0, -0.0, "1", [1], {"k": 1}, None]

    def test_shared_encode_memo_never_merges_distinct_lines(self, corpus):
        entry = corpus["figure-2"]
        base = run_execution(entry.app, entry.entry_request)
        encoded: dict = {}
        for value in self.VALUES * 2:
            events = tuple(
                e._replace(payload=(("s", value),), outcome={"value": value})
                for e in base.events
            )
            trace = replace(base, events=events)
            assert trace.to_json_lines(encoded) == trace.to_json_lines(), value
        # Loaded traces may hold any JSON value in `seq` and `task` too.
        for seq in (1, 1.0, True) * 2:
            events = tuple(e._replace(sequence_number=seq, lineage=(seq,)) for e in base.events)
            trace = replace(base, events=events)
            assert trace.to_json_lines(encoded) == trace.to_json_lines(), seq

    def test_shared_encode_memo_matches_fresh_encodes(self, corpus):
        apps = [(e.name, e.app, e.entry_request) for e in corpus.values()]
        apps.append(("stream-fanout-4", stream_fanout_app(["w1", "w2", "w3", "w4"]),
                     EntryRequest(service="a", method="go", args={})))
        for name, app, entry in apps:
            report = explore(app, entry, FaultCatalog.uniform(app), seed=3)
            encoded: dict = {}
            for ex in report.executions:
                assert ex.trace.to_json_lines(encoded) == ex.trace.to_json_lines(), name
            lines = sum(len(ex.trace.events) for ex in report.executions)
            assert len(encoded) < lines, name


class TestRunSequence:
    def test_execution_runs_under_its_tables_instantiation(self, corpus):
        entry = corpus["cinema-10"]
        table = simulator.IdentityTable(entry.app, config_from_label("3milebeach"))
        trace = run_execution(entry.app, entry.entry_request, identities=table)
        assert trace.config == table.config
        with pytest.raises(DexiError, match="identity table built for"):
            run_execution(entry.app, entry.entry_request, config=indexing.FULL_CONFIG,
                          identities=table)

    def test_entries_share_counter_state(self, corpus):
        entry = corpus["figure-2"]
        traces = run_sequence(entry.app, [entry.entry_request, entry.entry_request])
        first, second = traces
        assert [d.last.count for d in first.invocation_deis()] == [1, 1]
        # Same sites and payloads again: counts continue rather than reset.
        assert [d.last.count for d in second.invocation_deis()] == [2, 2]
