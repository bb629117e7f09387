"""Loading of the bundled declarative example applications.

Corpus documents are JSON files: services with endpoint statement trees, one
entry request, and optionally the execution counts the exploration is expected
to reproduce under named instantiation configs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from .indexing import CONFIG_LABELS, EMPTY_MAP, DexiError, Record
from .programs import (Application, EntryRequest, parse_application, read_field,
                       read_positive)


class CorpusError(DexiError):
    """A corpus document is missing, malformed, or inconsistent."""


class CorpusEntry(Record):
    name: str
    app: Application
    entry_request: EntryRequest
    expected_counts: Mapping[str, int] = EMPTY_MAP
    description: str = ""


def default_corpus_dir() -> Path:
    """The bundled corpus directory."""
    return Path(__file__).resolve().parents[2] / "corpus"


def load_entry(path: Path) -> CorpusEntry:
    """Load one corpus document. Any fault in it is a `CorpusError` naming
    the file and, for a fault in a field, the field's JSON path."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise CorpusError(f"{path.name}: cannot read corpus document: {exc}") from None
    try:
        if type(doc) is not dict:
            raise CorpusError("document is not a JSON object")
        name = read_field(doc, "name", str)
        app = parse_application(doc)
        entry_doc = read_field(doc, "entry", dict)
        entry = EntryRequest(read_field(entry_doc, "service", str, "entry"),
                             read_field(entry_doc, "method", str, "entry"),
                             read_field(entry_doc, "args", dict, "entry", {}))
        app.validate_entry(entry)
        counts = read_field(doc, "expected_counts", dict, "", {})
        expected = {label: read_positive(counts, label, "expected_counts") for label in counts}
        for label in expected:
            if label not in CONFIG_LABELS:
                raise CorpusError(f"expected_counts.{label}: unknown config label")
        description = read_field(doc, "description", str, "", "")
    except DexiError as exc:
        raise CorpusError(f"{path.name}: {exc}") from None
    return CorpusEntry(name, app, entry, expected, description)


def load_corpus(path: Path | str | None = None) -> list[CorpusEntry]:
    """Load every corpus document under `path`, sorted by name."""
    directory = Path(path) if path is not None else default_corpus_dir()
    if not directory.is_dir():
        raise CorpusError(f"corpus directory {directory} does not exist")
    entries: dict[str, CorpusEntry] = {}
    for doc_path in sorted(directory.glob("*.json")):
        entry = load_entry(doc_path)
        if entry.name in entries:
            raise CorpusError(f"duplicate corpus entry name {entry.name!r}")
        entries[entry.name] = entry
    return sorted(entries.values(), key=lambda e: e.name)
