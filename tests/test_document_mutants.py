"""Every corpus document and one trace file, each with one field deleted or
replaced by a value of another kind: dexi runs the mutant, or exits 2 with one
`error:` line that names the file and a JSON path. It never ends in a
traceback. A corpus mutant may also load and then fail as it runs (a stream
send whose arguments do not match its target's parameters, a stream variable
that holds no open stream, a budget run out): that error line names the entry.

Tier-1 runs every trace mutant and a fixed stride of the corpus mutants.
`python tests/test_document_mutants.py` runs every mutant of both.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dexi.cli import main  # noqa: E402
from dexi.corpus import default_corpus_dir  # noqa: E402

# Null, numbers, a bool, strings, lists and maps.
WRONG_VALUES = [None, True, 0, -1, 2.5, "", "x", [], ["x"], [{}], {}, {"x": "x"}]
DELETED = object()

# A JSON path as error lines name it: `services[0].endpoints`, `expected_counts.full`.
PATH = r"[\w-]+(?:\[\d+\]|\.[\w-]+)*"

# Tier-1 runs every STRIDE-th corpus mutant.
STRIDE = 12


def _paths(doc, path=()):
    """The path of every value inside `doc`, the root excluded, in document order."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def mutations(text: str) -> list[tuple]:
    """(path, original value, new value) for each value inside the JSON
    `text`, deleted (the new value is DELETED) or replaced by each of
    WRONG_VALUES."""
    doc = json.loads(text)
    return [(path, reduce(getitem, path, doc), value)
            for path in _paths(doc) for value in [DELETED, *WRONG_VALUES]]


def mutated(text: str, path: tuple, value) -> str:
    """The JSON `text` with the value at `path` deleted or replaced by `value`."""
    doc = json.loads(text)
    parent = reduce(getitem, path[:-1], doc)
    if value is DELETED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


def _shown(path: tuple, value) -> str:
    return f"{list(path)} {'deleted' if value is DELETED else json.dumps(value)}"


def run(argv: list[str]) -> tuple[int, list[str]]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main(argv)
    return status, err.getvalue().splitlines()


def fault(status: int, err: list[str], error: str) -> str | None:
    """What is wrong with a mutant's outcome, or None: it exits 0, or exits 2
    with exactly one line that matches the regex `error`."""
    if status == 0 or (status == 2 and len(err) == 1 and re.fullmatch(error, err[0])):
        return None
    return f"exit {status}: {err}"


def _wrong_value_accepted(path: tuple, original, value, status: int) -> bool:
    """A `var`, `line` or `expected_counts` value of another JSON kind, or a
    `line` or `expected_counts` integer below 1, that ran: each must be an
    error."""
    counted = path[-1] == "line" or path[0] == "expected_counts"
    if status != 0 or value is DELETED or not (counted or path[-1] == "var"):
        return False
    return type(value) is not type(original) or (counted and type(value) is int and value < 1)


def corpus_mutants(workdir: Path, stride: int = 1) -> tuple[dict[int, int], list[str]]:
    """Run every `stride`-th corpus mutant through `dexi explore`: the
    count of mutants per exit code, and each fault found."""
    statuses: dict[int, int] = {}
    faults = []
    corpus = workdir / "corpus"
    corpus.mkdir()
    texts = {doc.name: doc.read_text() for doc in sorted(default_corpus_dir().glob("*.json"))}
    every = [(name, *m) for name, text in texts.items() for m in mutations(text)]
    for name, path, original, value in every[::stride]:
        (corpus / name).write_text(mutated(texts[name], path, value))
        try:
            status, err = run(["explore", "--corpus", str(corpus), "--budget", "64",
                               "--out", str(workdir / "report.json")])
        except Exception as exc:  # a traceback: record it and go on
            status, err = None, [f"{type(exc).__name__}: {exc}"]
        (corpus / name).unlink()
        statuses[status] = statuses.get(status, 0) + 1
        entry = re.escape(name.removesuffix(".json"))
        problem = fault(status, err, rf"error: (?:{re.escape(name)}: {PATH}|{entry}): .+")
        if problem is None and _wrong_value_accepted(path, original, value, status):
            problem = "a value of another kind, or out of range, ran"
        if problem is not None:
            faults.append(f"{name} {_shown(path, value)}: {problem}")
    return statuses, faults


def trace_mutants(workdir: Path) -> tuple[dict[int, int], list[str]]:
    """Run every mutant of the first `figure-6-stream` trace file through
    `dexi graph`: the count of mutants per exit code, and each fault found."""
    traces = workdir / "traces"
    status, err = run(["explore", "--entry", "figure-6-stream", "--out",
                       str(workdir / "report.json"), "--traces-out", str(traces)])
    assert status == 0, err
    trace = sorted(traces.glob("*.jsonl"))[0]
    lines = trace.read_text().splitlines()
    statuses: dict[int, int] = {}
    faults = []
    for number, line in enumerate(lines, 1):
        for path, _, value in mutations(line):
            bad = workdir / "mutant.jsonl"
            mutant = mutated(line, path, value)
            bad.write_text("\n".join([*lines[:number - 1], mutant, *lines[number:]]) + "\n")
            try:
                status, err = run(["graph", str(bad), "--out", str(workdir / "graph.json")])
            except Exception as exc:  # a traceback: record it and go on
                status, err = None, [f"{type(exc).__name__}: {exc}"]
            statuses[status] = statuses.get(status, 0) + 1
            problem = fault(status, err, rf"error: {re.escape(str(bad))}: line {number}: {PATH}: .+")
            if problem is not None:
                faults.append(f"line {number} {_shown(path, value)}: {problem}")
    return statuses, faults


def test_corpus_mutants_stride(tmp_path):
    statuses, faults = corpus_mutants(tmp_path, STRIDE)
    assert sum(statuses.values()) > 900
    assert not faults, "\n".join(faults[:20])


def test_trace_mutants(tmp_path):
    statuses, faults = trace_mutants(tmp_path)
    assert statuses.get(2, 0) > 0
    assert not faults, "\n".join(faults[:20])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        found = []
        for what, enumerate_ in (("corpus", corpus_mutants), ("trace", trace_mutants)):
            statuses, faults = enumerate_(Path(scratch))
            found += faults
            print(f"{what} mutants: {sum(statuses.values())}, by exit code: "
                  f"{dict(sorted(statuses.items(), key=str))}, faults: {len(faults)}")
        print("\n".join(found))
        sys.exit(1 if found else 0)
