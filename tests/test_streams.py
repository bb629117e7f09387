"""Streaming RPCs: preliminary indexes numbered from the execution's counter
at the stream's base key, and the rewrite to final indexes before a trace is
finalized."""

from __future__ import annotations

import sys
import threading

import pytest

from dexi.indexing import CONFIG_LABELS, EMPTY_PAYLOAD
from dexi.programs import (
    Application,
    AwaitAll,
    CloseStream,
    Concat,
    Const,
    Endpoint,
    EntryRequest,
    Loop,
    OpenStream,
    Return,
    Rpc,
    ServiceProgram,
    Spawn,
    StreamSend,
    Var,
)
from dexi.search import FaultCatalog, completeness_check, explore
from dexi.simulator import (
    FaultPlan,
    FaultSpec,
    StreamStateError,
    _apply_rewrites,
    run_execution,
)
from helpers import brute_force_execution_set, explore_execution_keys


def stream_events(trace, kind):
    return [e for e in trace.events if e.kind == kind]


class TestFigure6:
    def test_preliminary_base_uses_empty_payload_and_open_site(self, corpus):
        entry = corpus["figure-6-stream"]
        trace = run_execution(entry.app, entry.entry_request)
        opened = stream_events(trace, "stream_opened")
        assert len(opened) == 1
        base = opened[0].preliminary_dei
        assert base.last.count == 1  # x = 1 here: first stream at this site
        assert base.last.payload_digest == EMPTY_PAYLOAD.digest
        assert base.last.detail.callstack.render() == "3"

    def test_implicit_indexes_increment_from_base(self, corpus):
        entry = corpus["figure-6-stream"]
        trace = run_execution(entry.app, entry.entry_request)
        sends = [e for e in trace.invocation_events() if e.preliminary_dei is not None]
        implicit_counts = sorted(e.preliminary_dei.last.count for e in sends)
        assert implicit_counts == [2, 3]  # x+1, x+2

    def test_final_indexes_carry_send_site_and_payload(self, corpus):
        entry = corpus["figure-6-stream"]
        trace = run_execution(entry.app, entry.entry_request)
        finals = {
            (e.dei.last.detail.payload.values[0], e.dei.last.detail.callstack.render(),
             e.dei.last.count)
            for e in trace.invocation_events()
        }
        assert finals == {("Hello", "6", 1), ("World", "6", 1)}

    def test_rewrite_map_recorded(self, corpus):
        entry = corpus["figure-6-stream"]
        trace = run_execution(entry.app, entry.entry_request)
        rewrites = stream_events(trace, "index_rewritten")
        assert len(rewrites) == 2
        finals = {e.dei.last.detail.payload.values[0] for e in rewrites}
        assert finals == {"Hello", "World"}
        for event in rewrites:
            assert event.preliminary_dei.last.preliminary
            assert not event.dei.has_preliminary()

    def test_no_preliminary_index_survives_finalization(self, corpus):
        entry = corpus["figure-6-stream"]
        for seed in range(6):
            trace = run_execution(entry.app, entry.entry_request, seed=seed)
            for event in trace.events:
                if event.kind == "index_rewritten":
                    continue
                if event.dei is not None:
                    assert not event.dei.has_preliminary()

    @pytest.mark.parametrize("label", sorted(CONFIG_LABELS))
    def test_implicit_index_differs_from_final(self, corpus, label):
        entry = corpus["figure-6-stream"]
        trace = run_execution(entry.app, entry.entry_request, config=CONFIG_LABELS[label])
        rewrites = stream_events(trace, "index_rewritten")
        assert len(rewrites) == 2
        for event in rewrites:
            assert event.preliminary_dei != event.dei

    def test_multisets_deterministic_across_seeds(self, corpus):
        entry = corpus["figure-6-stream"]
        multisets = {
            run_execution(entry.app, entry.entry_request, seed=s).dei_multiset()
            for s in range(10)
        }
        assert len(multisets) == 1


def build_two_stream_app() -> tuple[Application, EntryRequest]:
    """Opens two streams sequentially at the same site, one message each."""
    body = (
        OpenStream(service="b", method="handle", line=3, assign="st"),
        StreamSend(stream="st", args=(("s", Const("first")),), line=5, assign="r1"),
        CloseStream(stream="st"),
        OpenStream(service="b", method="handle", line=3, assign="st2"),
        StreamSend(stream="st2", args=(("s", Const("second")),), line=5, assign="r2"),
        CloseStream(stream="st2"),
        Return(Concat((Var("r1"), Const(" "), Var("r2")))),
    )
    app = Application(
        services={
            "a": ServiceProgram(
                name="a", endpoints={"go": Endpoint(method="go", params=(), body=body)}
            ),
            "b": ServiceProgram(
                name="b",
                endpoints={
                    "handle": Endpoint(
                        method="handle", params=(("s", "String"),), body=(Return(Var("s")),)
                    )
                },
            ),
        }
    )
    return app, EntryRequest(service="a", method="go", args={})


class TestTwoStreamsSameSite:
    def test_bases_and_implicit_indexes_all_distinct(self):
        app, entry = build_two_stream_app()
        trace = run_execution(app, entry)
        opened = stream_events(trace, "stream_opened")
        assert len(opened) == 2
        base_counts = [e.preliminary_dei.last.count for e in opened]
        assert base_counts[0] != base_counts[1]
        implicit = [
            e.preliminary_dei.last.count
            for e in trace.invocation_events()
            if e.preliminary_dei is not None
        ]
        all_counts = base_counts + implicit
        assert len(all_counts) == len(set(all_counts))
        assert trace.entry_outcome == {"value": "first second"}


def build_nested_stream_app() -> tuple[Application, EntryRequest]:
    """Three services: a streams to b; b's handler issues a normal RPC to c,
    so c's index is prefixed by the preliminary stream index until rewrite."""
    a_body = (
        OpenStream(service="b", method="handle", line=3, assign="st"),
        Spawn(
            futures="fs",
            line=4,
            body=(
                StreamSend(stream="st", args=(("s", Const("Hello")),), line=6, assign="r"),
                Return(Var("r")),
            ),
        ),
        AwaitAll(futures="fs", line=8, assign="rs"),
        Return(Const("done")),
    )
    b_body = (
        Rpc(service="c", method="decorate", args=(("s", Var("s")),), line=21, assign="d"),
        Return(Var("d")),
    )
    app = Application(
        services={
            "a": ServiceProgram(
                name="a", endpoints={"go": Endpoint(method="go", params=(), body=a_body)}
            ),
            "b": ServiceProgram(
                name="b",
                endpoints={
                    "handle": Endpoint(method="handle", params=(("s", "String"),), body=b_body)
                },
            ),
            "c": ServiceProgram(
                name="c",
                endpoints={
                    "decorate": Endpoint(
                        method="decorate",
                        params=(("s", "String"),),
                        body=(Return(Concat((Const("*"), Var("s"), Const("*")))),),
                    )
                },
            ),
        }
    )
    return app, EntryRequest(service="a", method="go", args={})


class TestNestedStreamRewrite:
    def test_downstream_prefix_rewritten_to_final(self):
        app, entry = build_nested_stream_app()
        trace = run_execution(app, entry)
        downstream = [e for e in trace.invocation_events() if e.callee == "c"]
        assert len(downstream) == 1
        dei = downstream[0].dei
        assert len(dei) == 2
        assert not dei.has_preliminary()
        # The rewritten prefix is the final send index (payload Hello, line 6).
        prefix = dei.prefix().last
        assert prefix.detail.payload.values == ("Hello",)
        assert prefix.detail.callstack.render() == "6"

    def test_fault_on_downstream_final_index(self):
        app, entry = build_nested_stream_app()
        baseline = run_execution(app, entry)
        target = next(e.dei for e in baseline.invocation_events() if e.callee == "c")
        trace = run_execution(app, entry, FaultPlan({target: FaultSpec()}))
        injected = [e for e in trace.events if e.kind == "fault_injected"]
        assert len(injected) == 1
        assert injected[0].callee == "c"


class TestRewriteLookup:
    def test_index_without_a_queued_prefix_comes_back_as_itself(self):
        app, entry = build_nested_stream_app()
        trace = run_execution(app, entry)
        rewrites = {e.preliminary_dei: e.dei for e in stream_events(trace, "index_rewritten")}
        downstream = next(e.dei for e in trace.invocation_events() if e.callee == "c")
        assert rewrites and not downstream.has_preliminary()
        for dei in (downstream, downstream.prefix()):
            assert _apply_rewrites(dei, rewrites) is dei

    def test_prefix_unmarked_by_the_wire_is_still_rewritten(self):
        # b handles stream messages and calls c, which calls d. The wire
        # marks only the last entry of a path, so d's caller path arrives
        # with the message's preliminary entry unmarked.
        def rpc(service, line):
            return Rpc(service=service, method="get", args=(), line=line)

        a_body = (
            OpenStream(service="b", method="handle", line=2, assign="st"),
            StreamSend(stream="st", args=(("s", Const("x")),), line=3),
            StreamSend(stream="st", args=(("s", Const("y")),), line=4),
            CloseStream(stream="st"),
        )
        app = Application(services={
            "a": _service("a", "go", (), a_body),
            "b": _service("b", "handle", (("s", "String"),), (rpc("c", 7),)),
            "c": _service("c", "get", (), (rpc("d", 9),)),
            "d": _service("d", "get", (), ()),
        })
        trace = run_execution(app, EntryRequest(service="a", method="go", args={}))
        by_callee = {}
        for event in trace.invocation_events():
            by_callee.setdefault(event.callee, []).append(event.dei)
        assert [len(by_callee[s]) for s in "bcd"] == [2, 2, 2]
        for b, c, d in zip(by_callee["b"], by_callee["c"], by_callee["d"]):
            assert c.prefix() == b and d.prefix() == c
            assert not d.has_preliminary()


def _service(name: str, method: str, params: tuple, body: tuple) -> ServiceProgram:
    return ServiceProgram(
        name=name, endpoints={method: Endpoint(method=method, params=params, body=body)}
    )


def _decorator(name: str) -> ServiceProgram:
    return _service(
        name, "decorate", (("s", "String"),), (Return(Concat((Const("*"), Var("s"), Const("*")))),)
    )


def build_overlapping_streams_app() -> tuple[Application, EntryRequest]:
    """a opens two streams to b at one site and interleaves their messages
    (s1, s2, s1, s2); b's handler calls c with the message payload."""
    a_body = (
        OpenStream(service="b", method="handle", line=3, assign="s1"),
        OpenStream(service="b", method="handle", line=3, assign="s2"),
        StreamSend(stream="s1", args=(("s", Const("m1")),), line=5),
        StreamSend(stream="s2", args=(("s", Const("n1")),), line=5),
        StreamSend(stream="s1", args=(("s", Const("m2")),), line=5),
        StreamSend(stream="s2", args=(("s", Const("n2")),), line=5),
        CloseStream(stream="s1"),
        CloseStream(stream="s2"),
        Return(Const("done")),
    )
    b_body = (
        Rpc(service="c", method="decorate", args=(("s", Var("s")),), line=21, assign="d"),
        Return(Var("d")),
    )
    app = Application(
        services={
            "a": _service("a", "go", (), a_body),
            "b": _service("b", "handle", (("s", "String"),), b_body),
            "c": _decorator("c"),
        }
    )
    return app, EntryRequest(service="a", method="go", args={})


def build_stream_chain_app() -> tuple[Application, EntryRequest]:
    """a streams two messages to b; each b handler streams its message to c,
    and c's handler calls d."""
    a_body = (
        OpenStream(service="b", method="handle", line=3, assign="st"),
        StreamSend(stream="st", args=(("s", Const("Hello")),), line=5, assign="r1"),
        StreamSend(stream="st", args=(("s", Const("World")),), line=6, assign="r2"),
        CloseStream(stream="st"),
        Return(Concat((Var("r1"), Const(" "), Var("r2")))),
    )
    b_body = (
        OpenStream(service="c", method="handle", line=13, assign="st"),
        StreamSend(stream="st", args=(("s", Var("s")),), line=15, assign="r"),
        CloseStream(stream="st"),
        Return(Var("r")),
    )
    c_body = (
        Rpc(service="d", method="decorate", args=(("s", Var("s")),), line=21, assign="r"),
        Return(Var("r")),
    )
    app = Application(
        services={
            "a": _service("a", "go", (), a_body),
            "b": _service("b", "handle", (("s", "String"),), b_body),
            "c": _service("c", "handle", (("s", "String"),), c_body),
            "d": _decorator("d"),
        }
    )
    return app, EntryRequest(service="a", method="go", args={})


def assert_matches_oracle(app, entry, executions, config, scheduler):
    catalog = FaultCatalog.uniform(app)
    report = explore(app, entry, catalog, config=config, scheduler=scheduler)
    oracle = brute_force_execution_set(app, entry, catalog, config=config)
    assert explore_execution_keys(report) == set(oracle)
    assert len(oracle) == executions
    assert completeness_check(report, catalog) == []


class TestOverlappingStreamsSameSite:
    @pytest.mark.parametrize("scheduler", ["virtual", "threads"])
    def test_downstream_prefix_is_its_own_message(self, scheduler):
        app, entry = build_overlapping_streams_app()
        trace = run_execution(app, entry, scheduler=scheduler)
        downstream = [e for e in trace.invocation_events() if e.callee == "c"]
        assert len(downstream) == 4
        for event in downstream:
            assert event.dei.prefix().last.detail.payload.values == (dict(event.payload)["s"],)
        virtual = run_execution(app, entry)
        assert trace.dei_multiset() == virtual.dei_multiset()

    @pytest.mark.parametrize("scheduler", ["virtual", "threads"])
    @pytest.mark.parametrize("label", sorted(CONFIG_LABELS))
    def test_explore_matches_oracle(self, label, scheduler):
        app, entry = build_overlapping_streams_app()
        assert_matches_oracle(app, entry, 9, CONFIG_LABELS[label], scheduler)


class TestStreamChain:
    @pytest.mark.parametrize("scheduler", ["virtual", "threads"])
    @pytest.mark.parametrize("label", sorted(CONFIG_LABELS))
    def test_runs_and_matches_oracle(self, label, scheduler):
        app, entry = build_stream_chain_app()
        config = CONFIG_LABELS[label]
        trace = run_execution(app, entry, config=config, scheduler=scheduler)
        assert trace.entry_outcome == {"value": "*Hello* *World*"}
        for event in stream_events(trace, "index_rewritten"):
            assert not event.dei.has_preliminary()
        assert_matches_oracle(app, entry, 7, config, scheduler)


class TestConcurrentSends:
    def test_rewrite_log_in_count_order_under_threads(self):
        # Sixteen blocks send on one stream from four workers, switching
        # threads every microsecond: each message still gets its own count
        # at the base key, and the rewrite log lists them in count order.
        words = [f"w{i:02d}" for i in range(16)]
        a_body = (
            OpenStream(service="b", method="handle", line=3, assign="st"),
            Loop(var="w", items=Const(words), line=4, body=(
                Spawn(futures="fs", line=5, body=(
                    StreamSend(stream="st", args=(("s", Var("w")),), line=6, assign="r"),
                    Return(Var("r")),
                )),
            )),
            AwaitAll(futures="fs", line=8, assign="rs"),
            CloseStream(stream="st"),
            Return(Const("done")),
        )
        b_body = (
            Rpc(service="c", method="decorate", args=(("s", Var("s")),), line=21, assign="d"),
            Return(Var("d")),
        )
        app = Application(services={
            "a": _service("a", "go", (), a_body),
            "b": _service("b", "handle", (("s", "String"),), b_body),
            "c": _decorator("c"),
        })
        entry = EntryRequest(service="a", method="go", args={})
        traces = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: traces.append(run_execution(
                app, entry, scheduler="threads", pool_size=4)), daemon=True)
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive() and len(traces) == 1
        trace = traces[0]
        assert trace.entry_outcome == {"value": "done"}
        rewritten = stream_events(trace, "index_rewritten")
        assert [e.preliminary_dei.last.count for e in rewritten] == list(range(2, 18))
        finals = {e.preliminary_dei: e.dei for e in rewritten}
        sends = [e for e in trace.invocation_events() if e.callee == "b"]
        assert len(sends) == 16
        assert all(finals[e.preliminary_dei] == e.dei for e in sends)
        downstream = [e for e in trace.invocation_events() if e.callee == "c"]
        assert {e.dei.prefix() for e in downstream} == set(finals.values())


class TestStreamErrors:
    def test_send_on_closed_stream(self):
        body = (
            OpenStream(service="b", method="handle", line=3, assign="st"),
            CloseStream(stream="st"),
            StreamSend(stream="st", args=(("s", Const("late")),), line=5),
            Return(Const("unreached")),
        )
        app = Application(
            services={
                "a": ServiceProgram(
                    name="a", endpoints={"go": Endpoint(method="go", params=(), body=body)}
                ),
                "b": ServiceProgram(
                    name="b",
                    endpoints={
                        "handle": Endpoint(
                            method="handle", params=(("s", "String"),), body=(Return(Var("s")),)
                        )
                    },
                ),
            }
        )
        with pytest.raises(StreamStateError):
            run_execution(app, EntryRequest(service="a", method="go", args={}))

    def test_open_to_unknown_service_at_dispatch(self):
        from dexi.programs import ProgramError

        app = Application(
            services={
                "a": ServiceProgram(
                    name="a",
                    endpoints={
                        "go": Endpoint(
                            method="go",
                            params=(),
                            body=(OpenStream(service="ghost", method="x", line=3, assign="st"),),
                        )
                    },
                )
            }
        )
        with pytest.raises(ProgramError):
            run_execution(app, EntryRequest(service="a", method="go", args={}))

    def test_finalize_with_zero_sends_empty_map(self):
        body = (
            OpenStream(service="b", method="handle", line=3, assign="st"),
            Return(Const("no sends")),
        )
        app = Application(
            services={
                "a": ServiceProgram(
                    name="a", endpoints={"go": Endpoint(method="go", params=(), body=body)}
                ),
                "b": ServiceProgram(
                    name="b",
                    endpoints={
                        "handle": Endpoint(
                            method="handle", params=(("s", "String"),), body=(Return(Var("s")),)
                        )
                    },
                ),
            }
        )
        trace = run_execution(app, EntryRequest(service="a", method="go", args={}))
        assert stream_events(trace, "index_rewritten") == []
        assert len(stream_events(trace, "stream_opened")) == 1
