"""Events shared within an exploration: each event whose record its key fully
determines is one object in every trace that holds it, and every trace still
writes the bytes of a fresh run of its plan. An event with a value other than
a string in its payload or outcome is never shared."""

from __future__ import annotations

import json

import pytest

from dexi.experiment import build_hello_world_app, hello_world_entry
from dexi.indexing import config_from_label
from dexi.programs import EntryRequest, parse_application
from dexi.search import FaultCatalog, explore
from dexi.simulator import FaultSpec

from helpers import build_nested
from test_replay import SEED, assert_traces_fresh, rpc, service


def record(event) -> str:
    """The event's trace line, without its position."""
    return json.dumps(event.to_json(0), sort_keys=True)


def objects_by_record(report, keep=lambda event: True) -> dict[str, set[int]]:
    """The objects of each distinct record among the events `keep` selects."""
    objects: dict[str, set[int]] = {}
    for ex in report.executions:
        for event in ex.trace.events:
            if keep(event):
                objects.setdefault(record(event), set()).add(id(event))
    return objects


def texts_only(event) -> bool:
    values = [value for _, value in event.payload or ()]
    values += list((event.outcome or {}).values())
    return all(type(value) is str for value in values)


def test_fanout_holds_one_object_per_distinct_record():
    app, entry = build_hello_world_app(), hello_world_entry(4)
    report = explore(app, entry, FaultCatalog.uniform(app), seed=SEED)
    assert report.total_executed == 16
    objects = objects_by_record(report)
    # Each of the 4 RPCs is invoked, and then completes or fails.
    assert len(objects) == 12
    assert all(len(ids) == 1 for ids in objects.values())
    assert sum(len(ex.trace.events) for ex in report.executions) == 16 * 8
    assert_traces_fresh(app, entry, report)


def test_replayed_subtrees_hold_one_object_per_distinct_record():
    app, entry = build_nested(3, 2)
    report = explore(app, entry, FaultCatalog.uniform(app), reduction_enabled=True, seed=SEED)
    objects = objects_by_record(report)
    assert all(len(ids) == 1 for ids in objects.values())
    assert sum(len(ex.trace.events) for ex in report.executions) > len(objects)
    assert_traces_fresh(app, entry, report)


# `b` answers "x", or a response fault answers 1, 1.0, True or a map; `a`
# passes the answer on to `c`, which returns it.
UNKEYABLE = [1, 1.0, True, {"k": "x"}]


@pytest.mark.parametrize("label", ["full", "filibuster"])
def test_values_other_than_strings_stay_unshared(label):
    app = parse_application({"services": [
        service("a", "go", [rpc("b", "get", 2, "r"), rpc("c", "show", 3, "s", v={"var": "r"}),
                            {"op": "return", "value": {"var": "s"}}]),
        service("b", "get", [{"op": "return", "value": {"const": "x"}}]),
        service("c", "show", [{"op": "return", "value": {"var": "v"}}], params=("v",)),
    ]})
    entry = EntryRequest(service="a", method="go", args={})
    catalog = FaultCatalog({
        app.signature("b", "get"): [FaultSpec(f"as-{i}", mode="response", response=value)
                                    for i, value in enumerate(UNKEYABLE)],
        app.signature("c", "show"): [FaultSpec()],
    })
    config = config_from_label(label)
    report = explore(app, entry, catalog, config=config, seed=SEED)
    assert_traces_fresh(app, entry, report, label)
    # `c` sees every value, and its records keep them apart.
    sent = {json.dumps(dict(e.payload)["v"]) for ex in report.executions
            for e in ex.trace.events if e.kind == "invocation" and e.callee == "c"}
    assert sent == {'"x"', "1", "1.0", "true", '{"k": "x"}'}
    uses: dict[int, int] = {}
    for ex in report.executions:
        for event in ex.trace.events:
            uses[id(event)] = uses.get(id(event), 0) + 1
    for ex in report.executions:
        for event in ex.trace.events:
            if not texts_only(event):
                assert uses[id(event)] == 1, record(event)
    # Without masked payloads, every event of strings alone is shared.
    if config.include_payload:
        shared = objects_by_record(report, texts_only)
        assert shared and all(len(ids) == 1 for ids in shared.values())
