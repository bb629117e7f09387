"""Worklist search vs the brute-force fixpoint enumerator.

The oracle replays every sub-assignment of discovered fault points and
deduplicates runs by the faults that actually fired; the worklist search must
produce exactly that execution set on every small app.
"""

from __future__ import annotations

import pytest

from dexi.search import FaultCatalog, explore
from dexi.simulator import FaultSpec

from helpers import (
    MIXED_MODES,
    brute_force_execution_set,
    build_figure1,
    explore_execution_keys,
    fault_key,
    rpc_site_count,
)


def assert_oracle_equivalence(app, entry, catalog):
    report = explore(app, entry, catalog, budget=2000)
    oracle = brute_force_execution_set(app, entry, catalog)
    explored = explore_execution_keys(report)
    assert explored == set(oracle)
    # Trace agreement per effective plan, not just plan-set equality.
    by_key = {
        frozenset((d, fault_key(s)) for d, s in ex.plan.items()): ex.trace
        for ex in report.executions
    }
    for key, oracle_trace in oracle.items():
        assert by_key[key].dei_multiset() == oracle_trace.dei_multiset()


def small_corpus_entries(corpus):
    return [e for e in corpus.values() if rpc_site_count(e.app) <= 3]


def test_small_corpus_selector_is_nontrivial(corpus):
    names = {e.name for e in small_corpus_entries(corpus)}
    assert "figure-3" in names and "figure-5" in names and "cinema-3" in names


@pytest.mark.parametrize(
    "name",
    [
        "figure-2",
        "figure-3",
        "figure-4",
        "figure-5",
        "figure-6-stream",
        "cinema-3",
        "cinema-9",
        "hello-world-concurrency",
    ],
)
def test_explore_matches_brute_force(corpus, name):
    entry = corpus[name]
    assert rpc_site_count(entry.app) <= 3
    catalog = FaultCatalog.uniform(entry.app)
    assert_oracle_equivalence(entry.app, entry.entry_request, catalog)


def test_figure1_matches_brute_force():
    app, entry = build_figure1()
    catalog = FaultCatalog.uniform(app)
    assert_oracle_equivalence(app, entry, catalog)
    mixed = FaultCatalog({sig: MIXED_MODES for sig in catalog.signatures()})
    assert_oracle_equivalence(app, entry, mixed)


def test_multiple_fault_types_per_signature(corpus):
    entry = corpus["figure-2"]
    catalog = FaultCatalog.uniform(entry.app)
    sig = catalog.signatures()[0]
    # Two types, then one type in both modes: the oracle keys the whole
    # fault, so an exception and a response of one type are two points.
    for specs in ((FaultSpec("connection-error"), FaultSpec("deadline-exceeded")), MIXED_MODES):
        assert_oracle_equivalence(entry.app, entry.entry_request, FaultCatalog({sig: specs}))
