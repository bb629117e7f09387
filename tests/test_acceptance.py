"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing a pass/fail line (run with -s to stream them)."""

from __future__ import annotations

import re
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from dexi.indexing import config_from_label
from dexi.search import FaultCatalog, explore
from dexi.simulator import run_execution
from dexi.experiment import run_nondeterminism_experiment

from helpers import (
    brute_force_execution_set,
    build_figure1,
    explore_execution_keys,
    rpc_site_count,
    symbolic,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS", flush=True)


def test_criterion_1_table_reproduction(corpus):
    expectations = [
        ("cinema-3", "full", 7),
        ("cinema-3", "no-count", 4),
        ("cinema-9", "full", 5),
        ("cinema-9", "no-count-stack", 3),
        ("cinema-10", "full", 6),
        ("cinema-10", "no-path-count-stack", 5),
    ]
    with criterion(1, "execution-count table reproduction"):
        started = time.monotonic()
        for name, label, expected in expectations:
            entry = corpus[name]
            catalog = FaultCatalog.uniform(entry.app)
            for attempt in range(2):  # deterministic: same count on repeat runs
                report = explore(
                    entry.app,
                    entry.entry_request,
                    catalog,
                    config=config_from_label(label),
                    seed=attempt,
                )
                assert report.total_executed == expected, (name, label)
        assert time.monotonic() - started < 10.0


def test_criterion_2_loop_fallback_enumeration(corpus):
    expected = {
        (("8", 1, False), ("8", 2, False)),
        (("8", 1, False), ("8", 2, True), ("16", 1, False)),
        (("8", 1, False), ("8", 2, True), ("16", 1, True)),
        (("8", 1, True), ("16", 1, False)),
        (("8", 1, True), ("16", 1, True)),
    }
    with criterion(2, "five executions of the loop-and-fallback app"):
        entry = corpus["figure-3"]
        catalog = FaultCatalog.uniform(entry.app)
        report = explore(
            entry.app, entry.entry_request, catalog, config=config_from_label("filibuster")
        )
        assert report.total_executed == 5
        observed = {symbolic(ex.trace) for ex in report.executions}
        assert observed == expected


def test_criterion_3_determinism_under_concurrency(corpus):
    with criterion(3, "identical index multisets across 100 mixed-scheduler runs"):
        for name in ("figure-4", "hello-world-concurrency"):
            entry = corpus[name]
            multisets = set()
            runs = 0
            for seed in range(90):
                multisets.add(
                    run_execution(entry.app, entry.entry_request, seed=seed).dei_multiset()
                )
                runs += 1
            for _ in range(10):
                multisets.add(
                    run_execution(
                        entry.app, entry.entry_request, scheduler="threads"
                    ).dei_multiset()
                )
                runs += 1
            assert runs == 100
            assert len(multisets) == 1, name


def test_criterion_4_nondeterminism_exists():
    with criterion(4, "creation order rarely survives 64-way fan-out on 2 workers"):
        result = run_nondeterminism_experiment(64, 2, 100)
        assert result.match_fraction <= 0.2
        assert result.deterministic  # payload-inclusive indexes still stable


def test_criterion_5_stream_rewriting(corpus):
    with criterion(5, "stream indexes rewritten to final form"):
        entry = corpus["figure-6-stream"]
        for seed in range(5):
            trace = run_execution(entry.app, entry.entry_request, seed=seed)
            for event in trace.events:
                if event.kind != "index_rewritten" and event.dei is not None:
                    assert not event.dei.has_preliminary()
            rewrites = [e for e in trace.events if e.kind == "index_rewritten"]
            finals = {
                (
                    e.dei.last.detail.payload.values[0],
                    e.dei.last.detail.callstack.render(),
                    e.dei.last.count,
                )
                for e in rewrites
            }
            assert finals == {("Hello", "6", 1), ("World", "6", 1)}


def test_criterion_6_oracle_equivalence(corpus):
    with criterion(6, "worklist search equals brute-force fixpoint enumeration"):
        started = time.monotonic()
        covered = 0
        for entry in corpus.values():
            if rpc_site_count(entry.app) > 3:
                continue
            covered += 1
            catalog = FaultCatalog.uniform(entry.app)
            report = explore(entry.app, entry.entry_request, catalog, budget=2000)
            oracle = brute_force_execution_set(entry.app, entry.entry_request, catalog)
            assert explore_execution_keys(report) == set(oracle), entry.name
        assert covered >= 7
        assert time.monotonic() - started < 30.0


def test_criterion_7_reduction_safety(corpus):
    with criterion(7, "dynamic reduction is outcome-preserving and actually prunes"):
        for entry in corpus.values():
            catalog = FaultCatalog.uniform(entry.app)
            off = explore(entry.app, entry.entry_request, catalog, reduction_enabled=False)
            on = explore(entry.app, entry.entry_request, catalog, reduction_enabled=True)
            assert on.discovered_deis == off.discovered_deis, entry.name
            assert on.entry_outcomes() == off.entry_outcomes(), entry.name
            assert on.total_executed <= off.total_executed, entry.name
        app, request = build_figure1()
        catalog = FaultCatalog.uniform(app)
        reduced = explore(app, request, catalog, reduction_enabled=True, budget=100)
        assert reduced.pruned
        assert all("encapsulation" in p.reason for p in reduced.pruned)


def test_criterion_8_property_suites_standalone(property_outcomes):
    with criterion(8, "property suites pass standalone at 1000 cases each"):
        # Every property the module collects on its own must pass: a failure,
        # error, skip, xfail or deselection fails this criterion.
        module = str(Path(__file__).parent / "test_properties.py")
        listing = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", module],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert listing.returncode == 0, listing.stdout + listing.stderr
        ids = {line.partition("::")[2] for line in listing.stdout.splitlines() if "::" in line}
        assert ids, listing.stdout
        if ids <= property_outcomes.keys():
            # This session already ran the whole module at its own settings
            # (conftest.py runs this criterion last), so read its outcomes.
            failed = {i: property_outcomes[i] for i in sorted(ids) if property_outcomes[i] != "passed"}
            assert not failed, failed
            return
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", module],
            capture_output=True,
            text=True,
            timeout=900,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        summary = re.search(r"^=+ (.*) in [\d.]+s\b.* =+$", proc.stdout, re.M)
        assert summary, proc.stdout
        assert re.fullmatch(rf"{len(ids)} passed(, \d+ warnings?)?", summary[1]), proc.stdout
