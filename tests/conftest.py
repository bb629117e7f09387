from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dexi.corpus import load_corpus

PROPERTY_MODULE = "test_properties.py"
CRITERION_8 = "test_criterion_8_property_suites_standalone"

# Outcome of each property test run in this session, keyed by its id within
# the module ("TestPrefixLaws::test_reflexive"): "passed" only if every phase
# passed, otherwise the first phase outcome that was not a pass.
_property_outcomes: dict[str, str] = {}


def pytest_collection_modifyitems(items):
    # Criterion 8 checks the outcomes of the property tests run in this
    # session instead of running the suite a second time, so it runs last.
    items.sort(key=lambda item: item.name == CRITERION_8)


def pytest_runtest_logreport(report):
    path, _, test_id = report.nodeid.partition("::")
    if not path.endswith(PROPERTY_MODULE):
        return
    if (report.when == "call" or not report.passed) and _property_outcomes.get(test_id, "passed") == "passed":
        _property_outcomes[test_id] = report.outcome


@pytest.fixture
def property_outcomes():
    return _property_outcomes


@pytest.fixture(scope="session")
def corpus():
    return {entry.name: entry for entry in load_corpus()}
