"""Systematic exploration of the inter-service fault space.

Starting from a fault-free baseline, the engine maintains a worklist of fault
plans keyed by discovered execution indexes. Each executed trace extends its
plan with one additional fault on an RPC that is not causally before any of
the plan's injections, which enumerates every reachable fault combination
without ever scheduling a plan whose faults cannot all fire. Optional dynamic
reduction prunes combinations that service encapsulation makes provably
redundant.
"""

from __future__ import annotations

import json
from collections import deque
from functools import cached_property
from typing import Any, Iterable, Mapping, NamedTuple

from . import indexing
from .indexing import (
    DexiError,
    DistributedExecutionIndex,
    FULL_CONFIG,
    InstantiationConfig,
    Record,
    Signature,
    project,
    related,
)
from .programs import Application, EntryRequest, OpenStream, Rpc, iter_statements
from .simulator import (
    CONNECTION_ERROR,
    ExecutionTrace,
    FaultPlan,
    FaultSpec,
    IdentityTable,
    fault_point,
    run_execution,
)


class CatalogError(DexiError):
    """A reachable signature has no declared faults."""


class BudgetExceededError(DexiError):
    """Exploration did not terminate within the execution budget."""


class FaultCatalog:
    """Declared faults applicable to each RPC signature."""

    def __init__(self, by_signature: Mapping[Signature, Iterable[FaultSpec]]) -> None:
        self._faults = {sig: tuple(specs) for sig, specs in by_signature.items()}
        self._by_digest = {sig.digest: tuple(specs) for sig, specs in self._faults.items()}

    @classmethod
    def uniform(cls, app: Application) -> FaultCatalog:
        """A connection error declared for every reachable signature."""
        spec = FaultSpec(CONNECTION_ERROR)
        table: dict[Signature, tuple[FaultSpec, ...]] = {}
        # Stream sends share their stream target's signature, so Rpc and
        # OpenStream statements cover every reachable signature.
        for _, _, stmt in iter_statements(app):
            if isinstance(stmt, (Rpc, OpenStream)):
                table[app.signature(stmt.service, stmt.method)] = (spec,)
        return cls(table)

    def faults_for_digest(self, signature_digest: str, context: str = "") -> tuple[FaultSpec, ...]:
        try:
            return self._by_digest[signature_digest]
        except KeyError:
            raise CatalogError(
                f"no declared faults for reachable signature {context or signature_digest}"
            ) from None

    def signatures(self) -> list[Signature]:
        return list(self._faults)


class ExecutedPlan:
    def __init__(self, plan: FaultPlan, trace: ExecutionTrace) -> None:
        self.plan = plan
        self.trace = trace

    @cached_property
    def surfaces(self) -> dict[DistributedExecutionIndex | None, dict[str, Any] | None]:
        """Each index's surface: what the RPC showed its caller at its first
        completion or injected fault, a failure reduced to `{"fault": ...}`.
        Built in one pass over the trace, when reduction first reads it."""
        surfaces: dict[DistributedExecutionIndex | None, dict[str, Any] | None] = {}
        for event in self.trace.events:
            outcome = event.outcome
            if event.kind not in ("completion", "fault_injected") or event.dei in surfaces:
                continue
            if outcome and "fault" in outcome and len(outcome) > 1:
                outcome = {"fault": outcome["fault"]}
            surfaces[event.dei] = outcome
        return surfaces


class PrunedPlan(NamedTuple):
    plan: FaultPlan
    reason: str


class SearchReport:
    """Everything one exploration produced."""

    def __init__(self, config: InstantiationConfig, reduction_enabled: bool) -> None:
        self.config = config
        self.reduction_enabled = reduction_enabled
        self.executions: list[ExecutedPlan] = []
        self.pruned: list[PrunedPlan] = []
        self.discovered_deis: set[DistributedExecutionIndex] = set()
        # Indexes over `executions` for dynamic reduction, brought up to date
        # by `_index_executions`.
        self._by_plan_key: dict[frozenset, ExecutedPlan] = {}
        self._nested_surfaces: dict[tuple, dict[str, Any]] = {}
        self._indexed: tuple[list[ExecutedPlan] | None, int] = (None, 0)

    def _index_executions(self) -> None:
        """Index the executions appended since the last call.

        `_by_plan_key` maps a plan key to its (last) execution. For each
        nested `fault_point`, `_nested_surfaces` keeps the enclosing RPC's
        surface from the first execution, in history order, that injects
        that fault there and whose trace shows a surface. A
        history that was replaced or shortened since the last call is
        indexed again from the start.
        """
        indexed_list, start = self._indexed
        if indexed_list is not self.executions or start > len(self.executions):
            self._by_plan_key.clear()
            self._nested_surfaces.clear()
            start = 0
        for ex in self.executions[start:]:
            self._by_plan_key[ex.plan.key()] = ex
            for dei, spec in ex.plan.items():
                if len(dei) < 2:
                    continue
                point = fault_point(dei, spec)
                if point not in self._nested_surfaces:
                    surface = ex.surfaces.get(dei.prefix())
                    if surface is not None:
                        self._nested_surfaces[point] = surface
        self._indexed = (self.executions, len(self.executions))

    @property
    def total_executed(self) -> int:
        return len(self.executions)

    def entry_outcomes(self) -> set[str]:
        return {
            json.dumps(ex.trace.entry_outcome, sort_keys=True) for ex in self.executions
        }

    def warnings(self) -> list[str]:
        return list(dict.fromkeys(w for ex in self.executions for w in ex.trace.warnings))

    def to_json(self) -> dict[str, Any]:
        return {
            "reduction": self.reduction_enabled,
            "total_executed": self.total_executed,
            "discovered_deis": sorted(indexing.encode(d) for d in self.discovered_deis),
            "executions": [
                {
                    "plan": _plan_json(ex.plan),
                    "entry_outcome": ex.trace.entry_outcome,
                    "events": len(ex.trace.events),
                }
                for ex in self.executions
            ],
            "pruned": [
                {"plan": _plan_json(p.plan), "reason": p.reason} for p in self.pruned
            ],
            "warnings": self.warnings(),
        }


def _plan_json(plan: FaultPlan) -> list[dict[str, Any]]:
    items = []
    for dei, spec in plan.items():
        item = {"dei": indexing.encode(dei), "fault": spec.fault_type}
        if spec.mode == "response":
            item["response"] = spec.response
        items.append(item)
    return sorted(items, key=lambda d: (d["dei"], d["fault"]))


# One encoder for the surfaces that prune reasons quote.
_SURFACE_JSON = json.JSONEncoder(sort_keys=True)


class ReductionDecision(NamedTuple):
    prune: bool
    reason: str = ""


def dynamic_reduction(candidate: FaultPlan, history: SearchReport) -> ReductionDecision:
    """Decide whether service encapsulation makes a candidate plan redundant.

    A candidate that faults an RPC r nested under an enclosing RPC r' is
    pruned when an already-executed plan combines the candidate's other
    faults with a fault on r' whose observed surface equals the surface the
    same fault on r (the same `fault_point`: type, mode and response) gave
    r' in an earlier trace: everything above r' saw the same inputs in that
    execution, so re-running it cannot observe anything new. Single-fault
    plans are never pruned, and when the surfaces cannot be matched up from
    history the candidate is kept.
    """
    items = candidate.items()
    if len(items) < 2:
        return ReductionDecision(prune=False)
    history._index_executions()
    for dei, spec in items:
        if len(dei) < 2:
            continue
        point = fault_point(dei, spec)
        surface = history._nested_surfaces.get(point)
        if surface is None or "fault" not in surface:
            # The enclosing RPC absorbed the nested failure (or was never
            # observed); its surface cannot match an injected fault, so keep.
            continue
        enclosing = dei.prefix()
        # The sibling swaps this fault for the surface's fault on the
        # enclosing RPC; only its key is looked up, so none is built.
        sibling = (candidate.key() - {point}
                   | {fault_point(enclosing, FaultSpec(surface["fault"]))})
        previous = history._by_plan_key.get(sibling)
        if previous is None:
            continue
        if previous.surfaces.get(enclosing) == surface:
            return ReductionDecision(
                prune=True,
                reason=(
                    "encapsulation: fault on nested RPC "
                    f"{indexing.encode(dei)} is redundant with executed plan "
                    f"{_plan_json(previous.plan)} (equivalent surface "
                    f"{_SURFACE_JSON.encode(surface)} of enclosing RPC "
                    f"{indexing.encode(enclosing)})"
                ),
            )
    return ReductionDecision(prune=False)


def explore(
    app: Application,
    entry: EntryRequest,
    catalog: FaultCatalog,
    *,
    config: InstantiationConfig = FULL_CONFIG,
    reduction_enabled: bool = False,
    scheduler: str = "virtual",
    seed: int = 0,
    budget: int = 1000,
) -> SearchReport:
    """Exhaust the fault space reachable from the entry request.

    The worklist is breadth-first by combination size (singletons first);
    coarser instantiations explore over their own degraded identifier space,
    which reproduces the unsound and incomplete behaviour those schemes have.
    """
    report = SearchReport(config=config, reduction_enabled=reduction_enabled)
    options = dict(seed=seed, scheduler=scheduler, identities=IdentityTable(app, config))
    worklist: deque[FaultPlan] = deque([FaultPlan()])
    seen: set[frozenset] = {FaultPlan().key()}
    while worklist:
        plan = worklist.popleft()
        if reduction_enabled and len(plan):
            decision = dynamic_reduction(plan, report)
            if decision.prune:
                report.pruned.append(PrunedPlan(plan=plan, reason=decision.reason))
                continue
        if report.total_executed >= budget:
            raise BudgetExceededError(
                f"exploration exceeded its budget of {budget} executions"
            )
        trace = run_execution(app, entry, plan, **options)
        report.executions.append(ExecutedPlan(plan=plan, trace=trace))
        # Extend only with RPCs that are not causally before an injected
        # fault (at a lower position, on a related task path): failing an
        # earlier RPC could make the planned faults unreachable, and causal
        # (rather than observed) order keeps the generated plan set
        # identical across schedules.
        injected = [(seq, e.lineage) for seq, e in enumerate(trace.events)
                    if e.kind == "fault_injected"]
        for seq, event in enumerate(trace.events):
            if event.kind != "invocation":
                continue
            report.discovered_deis.add(event.dei)
            if event.dei in plan:
                continue
            if any(seq < at and related(event.lineage, task) for at, task in injected):
                continue
            faults = catalog.faults_for_digest(
                event.dei.last.signature_digest,
                context=f"{event.callee}.{event.method}",
            )
            for spec in faults:
                # Most extensions repeat a queued plan: build only new ones.
                key = plan.extended_key(event.dei, spec)
                if key not in seen:
                    seen.add(key)
                    extended = dict(plan.items())
                    extended[event.dei] = spec
                    worklist.append(FaultPlan(extended))
    return report


class Violation(Record):
    kind: str
    detail: str

    def to_json(self) -> dict[str, str]:
        return {"kind": self.kind, "detail": self.detail}


def completeness_check(
    report: SearchReport,
    catalog: FaultCatalog,
    reference_deis: Iterable[DistributedExecutionIndex] | None = None,
) -> list[Violation]:
    """Verify the exploration covered its own discovered fault space.

    Every (discovered index, applicable fault) point must have been injected
    in some executed plan, or belong to a pruned plan; every executed trace's
    indexes must be in the discovered set. With `reference_deis` (indexes
    discovered under a finer instantiation), also reports fault points the
    report's coarser identifier space cannot target individually.
    """
    violations: list[Violation] = []
    # Points are keyed as plan keys are: two responses of one type differ.
    injected: set[tuple] = set()
    for ex in report.executions:
        for event in ex.trace.events:
            if event.kind == "fault_injected":
                injected.add(fault_point(event.dei, ex.plan.match(event.dei)))
    pruned_points = {point for pruned in report.pruned for point in pruned.plan.key()}
    for dei in report.discovered_deis:
        try:
            faults = catalog.faults_for_digest(dei.last.signature_digest)
        except CatalogError as exc:
            violations.append(Violation(kind="catalog-gap", detail=str(exc)))
            continue
        for spec in faults:
            point = fault_point(dei, spec)
            if point not in injected and point not in pruned_points:
                violations.append(
                    Violation(
                        kind="missing-fault-point",
                        detail=(
                            f"fault {spec.fault_type} on {indexing.encode(dei)} was "
                            "neither executed nor pruned"
                        ),
                    )
                )
    for ex in report.executions:
        for dei in ex.trace.invocation_deis():
            if dei not in report.discovered_deis:
                violations.append(
                    Violation(
                        kind="undiscovered-dei",
                        detail=f"trace index {indexing.encode(dei)} missing from discovery",
                    )
                )
    if reference_deis is not None:
        groups: dict[DistributedExecutionIndex, list[DistributedExecutionIndex]] = {}
        for dei in reference_deis:
            groups.setdefault(project(dei, report.config), []).append(dei)
        for members in groups.values():
            if len(members) > 1:
                rendered = ", ".join(sorted(indexing.encode(m) for m in members))
                violations.append(
                    Violation(
                        kind="collapsed-fault-points",
                        detail=(
                            "instantiation cannot target these indexes "
                            f"individually: {rendered}"
                        ),
                    )
                )
    return violations


class GraphEdge(Record):
    source: str
    target: str
    witnesses: tuple[str, ...]


class ApplicationGraph(Record):
    nodes: tuple[str, ...]
    edges: tuple[GraphEdge, ...]

    def edge_pairs(self) -> set[tuple[str, str]]:
        return {(e.source, e.target) for e in self.edges}

    def to_json(self) -> dict[str, Any]:
        return {
            "nodes": list(self.nodes),
            "edges": [
                {"source": e.source, "target": e.target, "witnesses": list(e.witnesses)}
                for e in self.edges
            ],
        }


def reconstruct_graph(traces: Iterable[ExecutionTrace]) -> ApplicationGraph:
    """Rebuild the service call graph from indexes alone.

    The index of a nested RPC carries the index of its enclosing RPC as a
    prefix, so each edge's source is the target of the witness's longest
    strict prefix; indexes with an empty prefix were issued by the handler
    the entry harness called.
    """
    target_of: dict[DistributedExecutionIndex, str] = {}
    observations: list[tuple[DistributedExecutionIndex, str]] = []
    nodes: set[str] = set()
    for trace in traces:
        nodes.add(trace.entry_request.service)
        for event in trace.invocation_events():
            target_of[event.dei] = event.callee
            observations.append((event.dei, trace.entry_request.service))
            nodes.add(event.callee)
    edges: dict[tuple[str, str], set[str]] = {}
    for dei, entry_service in observations:
        # No RPC has the empty index: a top-level RPC's source is the entry service.
        source = target_of.get(dei.prefix(), entry_service)
        edges.setdefault((source, target_of[dei]), set()).add(indexing.encode(dei))
    return ApplicationGraph(
        nodes=tuple(sorted(nodes)),
        edges=tuple(
            GraphEdge(source=s, target=t, witnesses=tuple(sorted(w)))
            for (s, t), w in sorted(edges.items())
        ),
    )
