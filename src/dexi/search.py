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
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from . import indexing
from .indexing import (
    DexiError,
    DistributedExecutionIndex,
    FULL_CONFIG,
    InstantiationConfig,
    Signature,
    project,
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


@dataclass(frozen=True)
class ExecutedPlan:
    plan: FaultPlan
    trace: ExecutionTrace


@dataclass(frozen=True)
class PrunedPlan:
    plan: FaultPlan
    reason: str


@dataclass
class SearchReport:
    """Everything one exploration produced."""

    config: InstantiationConfig
    reduction_enabled: bool
    executions: list[ExecutedPlan] = field(default_factory=list)
    pruned: list[PrunedPlan] = field(default_factory=list)
    discovered_deis: set[DistributedExecutionIndex] = field(default_factory=set)
    # Indexes over `executions` for dynamic reduction, brought up to date by
    # `_index_executions`.
    _by_plan_key: dict[frozenset, ExecutedPlan] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _nested_surfaces: dict[tuple[DistributedExecutionIndex, str], dict[str, Any]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _enclosing_surfaces: dict[
        tuple[int, DistributedExecutionIndex], tuple[ExecutedPlan, dict[str, Any] | None]
    ] = field(default_factory=dict, init=False, repr=False, compare=False)
    _indexed: tuple[list[ExecutedPlan] | None, int] = field(
        default=(None, 0), init=False, repr=False, compare=False
    )

    def _index_executions(self) -> None:
        """Index the executions appended since the last call.

        `_by_plan_key` maps a plan key to its (last) execution. For each
        nested fault point and fault type, `_nested_surfaces` keeps the
        enclosing RPC's surface from the first execution, in history order,
        that injects that fault there and whose trace shows a surface.
        `_enclosing_surfaces` keeps what `_surface_in` read, by execution
        identity and enclosing index. A history that was replaced or
        shortened since the last call is indexed again from the start.
        """
        indexed_list, start = self._indexed
        if indexed_list is not self.executions or start > len(self.executions):
            self._by_plan_key.clear()
            self._nested_surfaces.clear()
            self._enclosing_surfaces.clear()
            start = 0
        for ex in self.executions[start:]:
            self._by_plan_key[ex.plan.key()] = ex
            for dei, spec in ex.plan.items():
                if len(dei) < 2:
                    continue
                key = (dei, spec.fault_type)
                if key not in self._nested_surfaces:
                    surface = _surface_of_enclosing(ex.trace, dei.prefix())
                    if surface is not None:
                        self._nested_surfaces[key] = surface
        self._indexed = (self.executions, len(self.executions))

    def _surface_in(
        self, ex: ExecutedPlan, enclosing: DistributedExecutionIndex
    ) -> dict[str, Any] | None:
        """The surface of `enclosing` in `ex`'s trace, read once per pair.
        The memo keeps `ex` beside its surface, so no other execution can
        take its id while the entry stands."""
        key = (id(ex), enclosing)
        kept = self._enclosing_surfaces.get(key)
        if kept is None:
            kept = self._enclosing_surfaces[key] = (ex, _surface_of_enclosing(ex.trace, enclosing))
        return kept[1]

    @property
    def total_executed(self) -> int:
        return len(self.executions)

    def entry_outcomes(self) -> set[str]:
        return {
            json.dumps(ex.trace.entry_outcome, sort_keys=True) for ex in self.executions
        }

    def warnings(self) -> list[str]:
        seen: list[str] = []
        for ex in self.executions:
            for w in ex.trace.warnings:
                if w not in seen:
                    seen.append(w)
        return seen

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


@dataclass(frozen=True)
class ReductionDecision:
    prune: bool
    reason: str = ""


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


def dynamic_reduction(candidate: FaultPlan, history: SearchReport) -> ReductionDecision:
    """Decide whether service encapsulation makes a candidate plan redundant.

    A candidate that faults an RPC r nested under an enclosing RPC r' is
    pruned when an already-executed plan combines the candidate's other
    faults with a fault on r' whose observed surface equals the surface the
    same fault on r gave r' in an earlier trace: everything above r' saw the
    same inputs in that execution, so re-running it cannot observe anything
    new. Single-fault plans are never pruned, and when the surfaces cannot
    be matched up from history the candidate is kept.
    """
    items = candidate.items()
    if len(items) < 2:
        return ReductionDecision(prune=False)
    history._index_executions()
    for dei, spec in items:
        if len(dei) < 2:
            continue
        surface = history._nested_surfaces.get((dei, spec.fault_type))
        if surface is None or "fault" not in surface:
            # The enclosing RPC absorbed the nested failure (or was never
            # observed); its surface cannot match an injected fault, so keep.
            continue
        enclosing = dei.prefix()
        # The sibling swaps this fault for the surface's fault on the
        # enclosing RPC; only its key is looked up, so none is built.
        sibling = (candidate.key() - {fault_point(dei, spec)}
                   | {fault_point(enclosing, FaultSpec(surface["fault"]))})
        previous = history._by_plan_key.get(sibling)
        if previous is None:
            continue
        prev_surface = history._surface_in(previous, enclosing)
        if prev_surface == surface:
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
        for dei in trace.invocation_deis():
            report.discovered_deis.add(dei)
        # Extend only with RPCs that are not causally before an injected
        # fault: failing an earlier RPC could make the planned faults
        # unreachable, and causal (rather than observed) order keeps the
        # generated plan set identical across schedules.
        fault_events = [e for e in trace.events if e.kind == "fault_injected"]
        for event in trace.invocation_events():
            if event.dei is None or event.dei in plan:
                continue
            if any(event.causally_precedes(f) for f in fault_events):
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


@dataclass(frozen=True)
class Violation:
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
            if event.kind == "fault_injected" and event.dei is not None:
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


@dataclass(frozen=True)
class GraphEdge:
    source: str
    target: str
    witnesses: tuple[str, ...]


@dataclass(frozen=True)
class ApplicationGraph:
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
            if event.dei is None:
                continue
            target_of[event.dei] = event.callee
            observations.append((event.dei, trace.entry_request.service))
            nodes.add(event.callee)
    edges: dict[tuple[str, str], set[str]] = {}
    for dei, entry_service in observations:
        prefix = dei.prefix()
        if len(prefix) == 0:
            source = entry_service
        else:
            source = target_of.get(prefix, entry_service)
        target = target_of[dei]
        edges.setdefault((source, target), set()).add(indexing.encode(dei))
    return ApplicationGraph(
        nodes=tuple(sorted(nodes)),
        edges=tuple(
            GraphEdge(source=s, target=t, witnesses=tuple(sorted(w)))
            for (s, t), w in sorted(edges.items())
        ),
    )
