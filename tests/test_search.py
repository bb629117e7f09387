"""Search engine: exploration counts, dynamic reduction, completeness
checking, and graph reconstruction."""

from __future__ import annotations

import json
import re

import pytest

from dexi import indexing, search
from dexi.experiment import build_hello_world_app
from dexi.indexing import CONFIG_LABELS, FULL_CONFIG, config_from_label
from dexi.programs import Application, Const, Endpoint, EntryRequest, Return, ServiceProgram
from dexi.search import (
    BudgetExceededError,
    CatalogError,
    ExecutedPlan,
    FaultCatalog,
    ReductionDecision,
    SearchReport,
    completeness_check,
    dynamic_reduction,
    explore,
    reconstruct_graph,
)
from dexi.simulator import ExecutionTrace, FaultPlan, FaultSpec, RpcEvent, run_execution

from helpers import (
    MIXED_MODES,
    _surface_of_enclosing,
    build_figure1,
    build_nested,
    reference_dynamic_reduction,
    symbolic,
)


class TestExploreCounts:
    @pytest.mark.parametrize(
        "name,label,expected",
        [
            ("cinema-3", "full", 7),
            ("cinema-3", "no-count", 4),
            ("cinema-3", "no-stack", 7),
            ("cinema-9", "full", 5),
            ("cinema-9", "no-count-stack", 3),
            ("cinema-10", "full", 6),
            ("cinema-10", "no-path-count-stack", 5),
            ("figure-3", "filibuster", 5),
        ],
    )
    def test_expected_counts(self, corpus, name, label, expected):
        entry = corpus[name]
        catalog = FaultCatalog.uniform(entry.app)
        report = explore(
            entry.app, entry.entry_request, catalog, config=config_from_label(label)
        )
        assert report.total_executed == expected

    def test_degraded_runs_report_collisions(self, corpus):
        entry = corpus["cinema-3"]
        catalog = FaultCatalog.uniform(entry.app)
        report = explore(
            entry.app, entry.entry_request, catalog, config=config_from_label("no-count")
        )
        assert any("collision" in w for w in report.warnings())

    def test_plans_pairwise_distinct(self, corpus):
        entry = corpus["figure-5"]
        catalog = FaultCatalog.uniform(entry.app)
        report = explore(entry.app, entry.entry_request, catalog)
        keys = [frozenset(ex.plan.key()) for ex in report.executions]
        assert len(keys) == len(set(keys))

    def test_discovered_deis_all_witnessed(self, corpus):
        entry = corpus["cinema-10"]
        catalog = FaultCatalog.uniform(entry.app)
        report = explore(entry.app, entry.entry_request, catalog)
        witnessed = set()
        for ex in report.executions:
            witnessed.update(ex.trace.invocation_deis())
        assert report.discovered_deis == witnessed

    def test_budget_enforced(self, corpus):
        entry = corpus["figure-5"]
        catalog = FaultCatalog.uniform(entry.app)
        with pytest.raises(BudgetExceededError):
            explore(entry.app, entry.entry_request, catalog, budget=3)

    def test_catalog_gap_raises(self, corpus):
        entry = corpus["figure-2"]
        with pytest.raises(CatalogError):
            explore(entry.app, entry.entry_request, FaultCatalog({}))


class TestFigure3Enumeration:
    """The five executions of the loop-and-fallback app, as sequences."""

    EXPECTED = {
        (("8", 1, False), ("8", 2, False)),
        (("8", 1, False), ("8", 2, True), ("16", 1, False)),
        (("8", 1, False), ("8", 2, True), ("16", 1, True)),
        (("8", 1, True), ("16", 1, False)),
        (("8", 1, True), ("16", 1, True)),
    }

    def test_exactly_five_matching_sequences(self, corpus):
        entry = corpus["figure-3"]
        catalog = FaultCatalog.uniform(entry.app)
        report = explore(
            entry.app, entry.entry_request, catalog, config=config_from_label("filibuster")
        )
        assert report.total_executed == 5
        assert {symbolic(ex.trace) for ex in report.executions} == self.EXPECTED


class TestDynamicReduction:
    def test_figure1_d_and_e_pruned(self):
        app, entry = build_figure1()
        catalog = FaultCatalog.uniform(app)
        report = explore(app, entry, catalog, reduction_enabled=True, budget=100)
        assert report.pruned, "expected at least one pruned plan"
        assert all("encapsulation" in p.reason for p in report.pruned)
        pruned_callees = set()
        for pruned in report.pruned:
            for dei, _ in pruned.plan.items():
                pruned_callees.add(len(dei))
        assert 2 in pruned_callees  # the nested b->e fault is in every pruned plan

    def test_reduction_preserves_outcomes_and_discovery(self):
        app, entry = build_figure1()
        catalog = FaultCatalog.uniform(app)
        off = explore(app, entry, catalog, reduction_enabled=False, budget=100)
        on = explore(app, entry, catalog, reduction_enabled=True, budget=100)
        assert on.total_executed <= off.total_executed
        assert on.total_executed < off.total_executed  # it actually pruned
        assert on.discovered_deis == off.discovered_deis
        assert on.entry_outcomes() == off.entry_outcomes()

    def test_single_fault_never_pruned(self, corpus):
        app, entry = build_figure1()
        catalog = FaultCatalog.uniform(app)
        report = explore(app, entry, catalog, reduction_enabled=True, budget=100)
        for pruned in report.pruned:
            assert len(pruned.plan) >= 2
        # Every discovered index still had its singleton executed.
        singles = {
            next(iter(ex.plan.items()))[0]
            for ex in report.executions
            if len(ex.plan) == 1
        }
        assert report.discovered_deis == singles

    def test_reduction_safety_on_corpus(self, corpus):
        for entry in corpus.values():
            catalog = FaultCatalog.uniform(entry.app)
            off = explore(entry.app, entry.entry_request, catalog, reduction_enabled=False)
            on = explore(entry.app, entry.entry_request, catalog, reduction_enabled=True)
            assert on.total_executed <= off.total_executed, entry.name
            assert on.discovered_deis == off.discovered_deis, entry.name
            assert on.entry_outcomes() == off.entry_outcomes(), entry.name

    def test_decision_is_conservative_without_history(self, corpus):
        app, entry = build_figure1()
        baseline = run_execution(app, entry)
        deis = baseline.invocation_deis()
        nested = next(d for d in deis if len(d) == 2)
        other = next(d for d in deis if len(d) == 1 and d != nested.prefix())
        candidate = FaultPlan({nested: FaultSpec(), other: FaultSpec()})
        from dexi.search import SearchReport
        from dexi.indexing import FULL_CONFIG

        empty_history = SearchReport(config=FULL_CONFIG, reduction_enabled=True)
        decision = dynamic_reduction(candidate, empty_history)
        assert not decision.prune


class TestCompleteness:
    def test_completed_run_has_no_violations(self, corpus):
        for name in ("cinema-3", "cinema-10", "figure-3"):
            entry = corpus[name]
            catalog = FaultCatalog.uniform(entry.app)
            report = explore(entry.app, entry.entry_request, catalog)
            assert completeness_check(report, catalog) == [], name

    def test_reduced_run_still_complete(self):
        app, entry = build_figure1()
        catalog = FaultCatalog.uniform(app)
        report = explore(app, entry, catalog, reduction_enabled=True, budget=100)
        assert completeness_check(report, catalog) == []

    def test_deleted_execution_reported(self, corpus):
        entry = corpus["cinema-3"]
        catalog = FaultCatalog.uniform(entry.app)
        report = explore(entry.app, entry.entry_request, catalog)
        victim = next(ex for ex in report.executions if len(ex.plan) == 1)
        target = next(iter(ex_dei for ex_dei, _ in victim.plan.items()))
        report.executions = [
            ex for ex in report.executions if ex.plan.match(target) is None
        ]
        violations = completeness_check(report, catalog)
        assert violations
        assert any(v.kind == "missing-fault-point" for v in violations)

    @pytest.mark.parametrize("kind", ["catalog-gap", "undiscovered-dei"])
    def test_coverage_gap_reported(self, corpus, kind):
        entry = corpus["cinema-3"]
        catalog = FaultCatalog.uniform(entry.app)
        report = explore(entry.app, entry.entry_request, catalog)
        dei = min(report.discovered_deis, key=indexing.encode)
        if kind == "catalog-gap":  # no faults declared for one reachable signature
            catalog = FaultCatalog({sig: [FaultSpec()] for sig in catalog.signatures()
                                    if sig.digest != dei.last.signature_digest})
        else:
            report.discovered_deis.discard(dei)
        violations = completeness_check(report, catalog)
        assert violations and {v.kind for v in violations} == {kind}

    def test_two_responses_of_one_fault_type_are_two_points(self):
        app = build_hello_world_app()
        entry = EntryRequest(service="hello", method="greet", args={"tags": ["a"]})
        specs = [FaultSpec("bad-gateway", mode="response", response=r)
                 for r in ("first", "second")]
        catalog = FaultCatalog({app.signature("world", "get"): specs})
        report = explore(app, entry, catalog)
        outcomes = [ex.trace.entry_outcome for ex in report.executions]
        assert outcomes == [{"value": v} for v in ("world-a", "first", "second")]
        assert [[p.get("response") for p in ex["plan"]]
                for ex in report.to_json()["executions"]] == [[], ["first"], ["second"]]
        assert completeness_check(report, catalog) == []
        report.executions.pop()
        [violation] = completeness_check(report, catalog)
        assert violation.kind == "missing-fault-point"

    def test_degraded_run_vs_full_reference_reports_collapsed_points(self, corpus):
        entry = corpus["cinema-3"]
        catalog = FaultCatalog.uniform(entry.app)
        full = explore(entry.app, entry.entry_request, catalog)
        degraded = explore(
            entry.app, entry.entry_request, catalog, config=config_from_label("no-count")
        )
        violations = completeness_check(degraded, catalog, reference_deis=full.discovered_deis)
        collapsed = [v for v in violations if v.kind == "collapsed-fault-points"]
        # The retry attempt collapses onto the first attempt and cannot be
        # targeted individually without counts.
        assert len(collapsed) == 1
        assert len(full.discovered_deis) - len(degraded.discovered_deis) == 1

    def test_full_reference_against_itself_is_clean(self, corpus):
        entry = corpus["cinema-3"]
        catalog = FaultCatalog.uniform(entry.app)
        full = explore(entry.app, entry.entry_request, catalog)
        violations = completeness_check(full, catalog, reference_deis=full.discovered_deis)
        assert violations == []

    def test_count_mask_collapses_loop_iterations(self, corpus):
        # Projecting the fully-instantiated discovery of the retry-loop app
        # without counts merges the two attempts: one fewer fault point, and
        # the degraded exploration needs only 4 executions.
        from dexi.indexing import project

        entry = corpus["cinema-3"]
        catalog = FaultCatalog.uniform(entry.app)
        full = explore(entry.app, entry.entry_request, catalog)
        cfg = config_from_label("no-count")
        projected = {project(d, cfg) for d in full.discovered_deis}
        assert len(full.discovered_deis) == 4
        assert len(projected) == 3
        degraded = explore(entry.app, entry.entry_request, catalog, config=cfg)
        assert degraded.total_executed == 1 + len(projected)


class TestGraphReconstruction:
    def test_figure1_edges_from_baseline(self):
        app, entry = build_figure1()
        trace = run_execution(app, entry)
        graph = reconstruct_graph([trace])
        assert graph.edge_pairs() == {("a", "b"), ("a", "c"), ("a", "d"), ("b", "e")}
        assert all(edge.witnesses for edge in graph.edges)

    def test_cinema10_edges_need_fault_traces(self, corpus):
        entry = corpus["cinema-10"]
        catalog = FaultCatalog.uniform(entry.app)
        report = explore(entry.app, entry.entry_request, catalog)
        graph = reconstruct_graph([ex.trace for ex in report.executions])
        assert graph.edge_pairs() == {
            ("users", "bookings"),
            ("bookings", "movies"),
            ("users", "movies"),
        }

    def test_single_service_app_empty_edges(self):
        app = Application(
            services={
                "solo": ServiceProgram(
                    name="solo",
                    endpoints={
                        "ping": Endpoint(method="ping", params=(), body=(Return(Const("pong")),))
                    },
                )
            }
        )
        trace = run_execution(app, EntryRequest(service="solo", method="ping", args={}))
        graph = reconstruct_graph([trace])
        assert graph.edge_pairs() == set()
        assert graph.nodes == ("solo",)

    def test_stable_ordering(self, corpus):
        entry = corpus["cinema-10"]
        catalog = FaultCatalog.uniform(entry.app)
        report = explore(entry.app, entry.entry_request, catalog)
        traces = [ex.trace for ex in report.executions]
        a = reconstruct_graph(traces).to_json()
        b = reconstruct_graph(list(reversed(traces))).to_json()
        assert a == b


def _run_against_reference(monkeypatch, app, entry, config, catalog=None):
    """Explore with reduction, checking every decision against the
    scan-based reference on the same history."""
    indexed = search.dynamic_reduction
    checked = []

    def both(candidate, history):
        decision = indexed(candidate, history)
        assert decision == reference_dynamic_reduction(candidate, history)
        checked.append(decision)
        return decision

    monkeypatch.setattr(search, "dynamic_reduction", both)
    catalog = catalog or FaultCatalog.uniform(app)
    report = explore(app, entry, catalog, config=config, reduction_enabled=True)
    assert len(checked) == len(report.executions) + len(report.pruned) - 1
    return report


class TestIndexedReduction:
    @pytest.mark.parametrize("label", sorted(CONFIG_LABELS))
    def test_matches_reference_on_corpus(self, corpus, monkeypatch, label):
        for entry in corpus.values():
            _run_against_reference(
                monkeypatch, entry.app, entry.entry_request, config_from_label(label)
            )

    @pytest.mark.parametrize(
        "mids,faults,counts",
        [(2, (FaultSpec("connection-error"),), (12, 4)),
         (2, (FaultSpec("connection-error"), FaultSpec("timeout")), (33, 16)),
         (2, MIXED_MODES, (57, 20)),
         (3, MIXED_MODES, (385, 140))],
        ids=["one-fault", "two-faults", "mixed-modes", "mixed-modes-3-mids"],
    )
    def test_matches_reference_on_nested_app(self, monkeypatch, mids, faults, counts):
        # With two faults per RPC, a nested point is injected with different
        # faults, so its enclosing RPC shows different surfaces across the
        # history and the first one must be the one kept. Under a response
        # fault the mid succeeds, so its surface must not stand in for the
        # exception fault's of the same type.
        app, entry = build_nested(mids=mids, leaves=2)
        catalog = FaultCatalog({sig: faults for sig in FaultCatalog.uniform(app).signatures()})
        report = _run_against_reference(monkeypatch, app, entry, FULL_CONFIG, catalog)
        assert (report.total_executed, len(report.pruned)) == counts
        # Reduction safety: the pruned plans reach no entry outcome of their own.
        assert report.entry_outcomes() == explore(app, entry, catalog).entry_outcomes()

    def test_pruned_reason_cites_the_injected_fault(self):
        # Each reason's surface must come from the fault type the pruned
        # plan injects at the nested RPC it names, not from another one.
        app, entry = build_nested(mids=2, leaves=2)
        catalog = FaultCatalog(
            {sig: (FaultSpec("connection-error"), FaultSpec("timeout"))
             for sig in FaultCatalog.uniform(app).signatures()}
        )
        report = explore(app, entry, catalog, reduction_enabled=True)
        assert (report.total_executed, len(report.pruned)) == (33, 16)
        cited = re.compile(r"nested RPC (\[[^\]]*\]) .*\(equivalent surface (\{[^}]*\})")
        for pruned in report.pruned:
            nested, surface = cited.search(pruned.reason).groups()
            injected = {indexing.encode(d): spec for d, spec in pruned.plan.items()}[nested]
            assert json.loads(surface) == {"fault": injected.fault_type}

    def test_history_appended_directly_catches_up(self):
        app, entry = build_nested(mids=2, leaves=2)
        explored = explore(app, entry, FaultCatalog.uniform(app), reduction_enabled=True)
        candidates = [p.plan for p in explored.pruned]
        manual = SearchReport(config=FULL_CONFIG, reduction_enabled=True)
        # Decide between appends, so each call indexes only the new tail.
        for ex in explored.executions:
            for plan in candidates:
                assert dynamic_reduction(plan, manual) == reference_dynamic_reduction(plan, manual)
            manual.executions.append(ex)
        for pruned in explored.pruned:
            assert dynamic_reduction(pruned.plan, manual) == ReductionDecision(
                prune=True, reason=pruned.reason
            )
        # A replaced, shorter history is indexed again from the start.
        manual.executions = [ex for ex in explored.executions if len(ex.plan) < 2]
        for plan in candidates:
            assert dynamic_reduction(plan, manual) == reference_dynamic_reduction(plan, manual)

    def test_surface_map_built_once(self):
        app, entry = build_nested(mids=3, leaves=2)
        explored = explore(app, entry, FaultCatalog.uniform(app), reduction_enabled=True)
        history = SearchReport(config=FULL_CONFIG, reduction_enabled=True)
        history.executions = explored.executions
        plans = [p.plan for p in explored.pruned] + [ex.plan for ex in explored.executions]
        decisions = [dynamic_reduction(plan, history) for plan in plans]
        assert decisions == [reference_dynamic_reduction(plan, history) for plan in plans]
        assert sum(d.prune for d in decisions) == len(explored.pruned)
        maps = [ex.surfaces for ex in history.executions]
        assert [dynamic_reduction(plan, history) for plan in plans] == decisions
        assert all(ex.surfaces is built for ex, built in zip(history.executions, maps))
        for ex in history.executions:
            for dei in {e.dei for e in ex.trace.events if e.dei is not None}:
                assert ex.surfaces.get(dei) == _surface_of_enclosing(ex.trace, dei)
        # A replaced history is indexed again: the baseline alone prunes nothing.
        history.executions = history.executions[:1]
        assert not any(dynamic_reduction(plan, history).prune for plan in plans)

    def test_surface_map_keeps_the_first_outcome(self):
        app, entry = build_figure1()
        dei = run_execution(app, entry).invocation_deis()[0]
        trace = ExecutionTrace(
            events=tuple(
                RpcEvent("completion", "a", "b", "get", dei=dei, outcome=outcome)
                for outcome in [{"value": "b[e:r1]"}, {"fault": "timeout"}]
            ),
            entry_request=entry, entry_outcome={"value": ""}, seed=0,
            scheduler_mode="virtual", config=FULL_CONFIG,
        )
        surfaces = ExecutedPlan(plan=FaultPlan(), trace=trace).surfaces
        assert surfaces[dei] == _surface_of_enclosing(trace, dei) == {"value": "b[e:r1]"}

    def test_plan_key_computed_once(self):
        app, entry = build_figure1()
        deis = run_execution(app, entry).invocation_deis()
        plan = FaultPlan({deis[0]: FaultSpec(), deis[1]: FaultSpec("timeout")})
        assert plan.key() is plan.key()
        assert plan.key() == frozenset(
            (dei, spec.fault_type, spec.mode) for dei, spec in plan.items()
        )
