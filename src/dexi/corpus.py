"""Loading of the bundled declarative example applications.

Corpus documents are JSON files: services with endpoint statement trees, one
entry request, and optionally the execution counts the exploration is expected
to reproduce under named instantiation configs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .indexing import CONFIG_LABELS, DexiError
from .programs import Application, EntryRequest, parse_application


class CorpusError(DexiError):
    """A corpus document is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    app: Application
    entry_request: EntryRequest
    expected_counts: Mapping[str, int] = field(default_factory=dict)
    description: str = ""


def default_corpus_dir() -> Path:
    """The bundled corpus directory."""
    return Path(__file__).resolve().parents[2] / "corpus"


def load_entry(path: Path) -> CorpusEntry:
    """Load one corpus document. Any fault in it is a `CorpusError` naming
    the file."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CorpusError(f"cannot read corpus document {path.name}: {exc}") from exc
    try:
        name = doc["name"]
        if not isinstance(name, str):
            raise TypeError(f"'name' must be a string, not {type(name).__name__}")
        app = parse_application(doc)
        entry_doc = doc["entry"]
        entry = EntryRequest(
            service=entry_doc["service"],
            method=entry_doc["method"],
            args=dict(entry_doc.get("args", {})),
        )
        app.validate_entry(entry)
        counts = doc.get("expected_counts", {})
        if not isinstance(counts, dict):
            raise TypeError(f"'expected_counts' must be a map, not {type(counts).__name__}")
        expected = {str(k): int(v) for k, v in counts.items()}
        for label in expected:
            if label not in CONFIG_LABELS:
                raise CorpusError(f"unknown config label {label!r} in expected_counts")
    except CorpusError:
        raise
    except (KeyError, TypeError, ValueError, DexiError) as exc:
        raise CorpusError(f"corpus entry {path.name} is malformed: {exc}") from exc
    return CorpusEntry(
        name=name,
        app=app,
        entry_request=entry,
        expected_counts=expected,
        description=doc.get("description", ""),
    )


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


def corpus_entry(name: str, path: Path | str | None = None) -> CorpusEntry:
    for entry in load_corpus(path):
        if entry.name == name:
            return entry
    raise CorpusError(f"no corpus entry named {name!r}")
