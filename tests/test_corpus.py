"""Corpus loading and validation."""

from __future__ import annotations

import json

import pytest

from dexi.corpus import CorpusError, default_corpus_dir, load_corpus
from dexi.simulator import run_execution

BUNDLED = [
    "cinema-10",
    "cinema-3",
    "cinema-9",
    "figure-2",
    "figure-3",
    "figure-4",
    "figure-5",
    "figure-6-stream",
    "hello-world-concurrency",
]


def test_bundled_corpus_loads_all_entries():
    entries = load_corpus()
    assert [e.name for e in entries] == BUNDLED


def test_default_dir_exists():
    assert default_corpus_dir().is_dir()


def test_empty_directory_gives_empty_list(tmp_path):
    assert load_corpus(tmp_path) == []


def test_missing_directory_rejected(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "nope")


def test_duplicate_name_rejected(tmp_path):
    doc = json.loads((default_corpus_dir() / "figure-2.json").read_text())
    (tmp_path / "one.json").write_text(json.dumps(doc))
    (tmp_path / "two.json").write_text(json.dumps(doc))
    with pytest.raises(CorpusError, match="duplicate"):
        load_corpus(tmp_path)


def test_malformed_document_names_file(tmp_path):
    (tmp_path / "broken.json").write_text('{"name": "broken"}')
    with pytest.raises(CorpusError, match="broken"):
        load_corpus(tmp_path)


def test_invalid_json_rejected(tmp_path):
    (tmp_path / "bad.json").write_text("{nope")
    with pytest.raises(CorpusError, match="bad.json"):
        load_corpus(tmp_path)


def test_unknown_expected_count_label_rejected(tmp_path):
    doc = json.loads((default_corpus_dir() / "figure-2.json").read_text())
    doc["expected_counts"] = {"sideways": 1}
    (tmp_path / "figure-2.json").write_text(json.dumps(doc))
    with pytest.raises(CorpusError, match="sideways"):
        load_corpus(tmp_path)


def test_every_entry_fault_free_execution_terminates(corpus):
    for entry in corpus.values():
        trace = run_execution(entry.app, entry.entry_request)
        assert trace.invocation_events(), entry.name
