"""Shared fixtures, the independent brute-force search oracle, and the
scan-based reference for dynamic reduction."""

from __future__ import annotations

import itertools
import json
from typing import Any

from dexi import indexing
from dexi.indexing import FULL_CONFIG, DistributedExecutionIndex, InstantiationConfig
from dexi.programs import (
    Application,
    Assign,
    Concat,
    Const,
    Endpoint,
    EntryRequest,
    Return,
    Rpc,
    ServiceProgram,
    Try,
    Var,
)
from dexi.search import (
    FaultCatalog,
    ReductionDecision,
    SearchReport,
    _plan_json,
)
from dexi.simulator import ExecutionTrace, FaultPlan, FaultSpec, run_execution


def leaf_service(name: str, prefix: str) -> ServiceProgram:
    return ServiceProgram(
        name=name,
        endpoints={
            "get": Endpoint(
                method="get",
                params=(("req", "String"),),
                body=(Return(Concat((Const(prefix + ":"), Var("req")))),),
            )
        },
    )


def guarded_rpc(callee: str, line: int, default: str, assign: str) -> Try:
    return Try(
        body=(
            Rpc(service=callee, method="get", args=(("req", Var("req")),), line=line, assign=assign),
        ),
        catch=(Assign(var=assign, value=Const(default)),),
    )


def build_figure1() -> tuple[Application, EntryRequest]:
    """Fan-out topology: A calls B, C, D with per-call defaults; B calls E
    and propagates E's failure (B encapsulates E)."""
    a = ServiceProgram(
        name="a",
        endpoints={
            "front": Endpoint(
                method="front",
                params=(("req", "String"),),
                body=(
                    guarded_rpc("b", 3, "b-default", "rb"),
                    guarded_rpc("c", 5, "c-default", "rc"),
                    guarded_rpc("d", 7, "d-default", "rd"),
                    Return(Concat((Var("rb"), Const(" "), Var("rc"), Const(" "), Var("rd")))),
                ),
            )
        },
    )
    b = ServiceProgram(
        name="b",
        endpoints={
            "get": Endpoint(
                method="get",
                params=(("req", "String"),),
                body=(
                    Rpc(service="e", method="get", args=(("req", Var("req")),), line=12, assign="re"),
                    Return(Concat((Const("b["), Var("re"), Const("]")))),
                ),
            )
        },
    )
    app = Application(
        services={
            "a": a,
            "b": b,
            "c": leaf_service("c", "c"),
            "d": leaf_service("d", "d"),
            "e": leaf_service("e", "e"),
        }
    )
    return app, EntryRequest(service="a", method="front", args={"req": "r1"})


def build_nested(mids: int = 2, leaves: int = 2) -> tuple[Application, EntryRequest]:
    """Three tiers: `front` calls each mid inside try/catch, and each mid
    calls every leaf without one, so a leaf failure surfaces as its mid's."""
    front = ServiceProgram(
        name="front",
        endpoints={
            "get": Endpoint(
                method="get",
                params=(("req", "String"),),
                body=tuple(
                    guarded_rpc(f"mid{i}", 10 + i, "fallback", f"r{i}") for i in range(mids)
                )
                + (Return(Concat(tuple(Var(f"r{i}") for i in range(mids)))),),
            )
        },
    )
    services = {"front": front}
    for i in range(mids):
        calls = tuple(
            Rpc(service=f"leaf{j}", method="get", args=(("req", Var("req")),), line=20 + j,
                assign=f"x{j}")
            for j in range(leaves)
        )
        services[f"mid{i}"] = ServiceProgram(
            name=f"mid{i}",
            endpoints={
                "get": Endpoint(
                    method="get",
                    params=(("req", "String"),),
                    body=calls + (Return(Concat(tuple(Var(f"x{j}") for j in range(leaves)))),),
                )
            },
        )
    for j in range(leaves):
        services[f"leaf{j}"] = leaf_service(f"leaf{j}", f"leaf{j}")
    app = Application(services=services)
    return app, EntryRequest(service="front", method="get", args={"req": "r1"})


def symbolic(trace: ExecutionTrace, with_payload: bool = False) -> tuple:
    """Render a trace as the compact (stack-lines, count[, payload], faulted)
    tuples used for comparison against hand-written execution sequences."""
    faulted = {
        ev.dei for ev in trace.events if ev.kind == "fault_injected" and ev.dei is not None
    }
    out = []
    for ev in trace.invocation_events():
        entry = ev.dei.last
        lines = entry.detail.callstack.render() if entry.detail else "?"
        item: tuple[Any, ...] = (lines, entry.count)
        if with_payload:
            values = entry.detail.payload.values if entry.detail else ()
            item += (values[0] if values else None,)
        item += (ev.dei in faulted,)
        out.append(item)
    return tuple(out)


# One fault type as an exception and as a shaped response.
MIXED_MODES = (FaultSpec("x"), FaultSpec("x", mode="response", response="R"))


def fault_key(spec: FaultSpec) -> str:
    """A whole fault, type, mode and response, as the sorted JSON of its
    descriptor: the `outcome` of the `fault_injected` event it records."""
    return json.dumps(spec.descriptor(), sort_keys=True)


def _fault_points(
    discovered: set[DistributedExecutionIndex], catalog: FaultCatalog
) -> list[tuple[DistributedExecutionIndex, tuple[FaultSpec, ...]]]:
    points = []
    for dei in sorted(discovered, key=indexing.encode):
        specs = catalog.faults_for_digest(dei.last.signature_digest)
        points.append((dei, specs))
    return points


def brute_force_execution_set(
    app: Application,
    entry: EntryRequest,
    catalog: FaultCatalog,
    config: InstantiationConfig = FULL_CONFIG,
    seed: int = 0,
    max_plans: int = 5000,
) -> dict[frozenset, ExecutionTrace]:
    """Replay every sub-assignment of discovered fault points to a fixpoint.

    Independent oracle for the worklist search: enumerates all combinations
    (including unreachable ones), keys each run by the faults that actually
    fired, and iterates until discovery stops growing. Returns the distinct
    effective executions.
    """
    discovered: set[DistributedExecutionIndex] = set()
    tried: set[frozenset] = set()
    effective: dict[frozenset, ExecutionTrace] = {}

    def run_one(plan_map: dict[DistributedExecutionIndex, FaultSpec]) -> None:
        plan = FaultPlan(plan_map)
        trace = run_execution(app, entry, plan, seed=seed, config=config)
        fired = frozenset(
            (ev.dei, json.dumps(ev.outcome, sort_keys=True))
            for ev in trace.events
            if ev.kind == "fault_injected" and ev.dei is not None and ev.outcome
        )
        effective.setdefault(fired, trace)
        for dei in trace.invocation_deis():
            discovered.add(dei)

    run_one({})
    tried.add(frozenset())
    while True:
        candidates = []
        points = _fault_points(discovered, catalog)
        choice_lists = [[None] + [(dei, s) for s in specs] for dei, specs in points]
        for combo in itertools.product(*choice_lists):
            chosen = [c for c in combo if c is not None]
            if not chosen:
                continue
            plan_map = {dei: spec for dei, spec in chosen}
            key = frozenset((d, fault_key(s)) for d, s in plan_map.items())
            if key not in tried:
                candidates.append((key, plan_map))
        if not candidates:
            return effective
        if len(tried) + len(candidates) > max_plans:
            raise RuntimeError("oracle exceeded its plan budget")
        for key, plan_map in candidates:
            tried.add(key)
            run_one(plan_map)


def explore_execution_keys(report) -> set[frozenset]:
    """Effective-plan keys of an exploration report (for oracle comparison)."""
    return {frozenset((dei, fault_key(spec)) for dei, spec in ex.plan.items())
            for ex in report.executions}


def rpc_site_count(app: Application) -> int:
    from dexi.programs import OpenStream, Rpc as RpcStmt, iter_statements

    sites = 0
    for _, _, stmt in iter_statements(app):
        if isinstance(stmt, (RpcStmt, OpenStream)):
            sites += 1
    return sites


def _surface_of_enclosing(
    trace: ExecutionTrace, enclosing: DistributedExecutionIndex
) -> dict[str, Any] | None:
    """The enclosing RPC's observed outcome (completion or injected fault)."""
    for event in trace.events:
        if event.dei == enclosing and event.kind in ("completion", "fault_injected"):
            if event.kind == "fault_injected":
                return {"fault": event.outcome.get("fault")} if event.outcome else None
            if event.outcome and "fault" in event.outcome:
                return {"fault": event.outcome["fault"]}
            return event.outcome
    return None


def reference_dynamic_reduction(candidate: FaultPlan, history: SearchReport) -> ReductionDecision:
    """Dynamic reduction as first written: for every candidate it rebuilds
    the plan-key map and scans the whole history for each nested fault
    point and whole fault (type, mode and response). The search's indexed
    version must decide exactly as this does."""
    items = candidate.items()
    if len(items) < 2:
        return ReductionDecision(prune=False)
    executed = {ex.plan.key(): ex for ex in history.executions}
    for dei, spec in items:
        if len(dei) < 2:
            continue
        enclosing = dei.prefix()
        surface = None
        for ex in history.executions:
            injected = ex.plan.match(dei)
            if injected is not None and fault_key(injected) == fault_key(spec):
                surface = _surface_of_enclosing(ex.trace, enclosing)
                if surface is not None:
                    break
        if surface is None or "fault" not in surface:
            continue
        co_faults = {d: s for d, s in items if d != dei}
        sibling = FaultPlan({**co_faults, enclosing: FaultSpec(surface["fault"])})
        previous = executed.get(sibling.key())
        if previous is None:
            continue
        prev_surface = _surface_of_enclosing(previous.trace, enclosing)
        if prev_surface == surface:
            return ReductionDecision(
                prune=True,
                reason=(
                    "encapsulation: fault on nested RPC "
                    f"{indexing.encode(dei)} is redundant with executed plan "
                    f"{_plan_json(previous.plan)} (equivalent surface "
                    f"{json.dumps(surface, sort_keys=True)} of enclosing RPC "
                    f"{indexing.encode(enclosing)})"
                ),
            )
    return ReductionDecision(prune=False)
