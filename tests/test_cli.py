"""Command-line interface: exit codes, report files, summaries, determinism."""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dexi
from dexi.cli import main
from dexi.corpus import default_corpus_dir
from dexi.indexing import DexiError


def run_cli(args) -> int:
    return main([str(a) for a in args])


class TestExplore:
    def test_cinema3_full_summary(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        status = run_cli(["explore", "--entry", "cinema-3", "--config", "full", "--out", out])
        assert status == 0
        captured = capsys.readouterr().err
        assert "cinema-3" in captured
        report = json.loads(out.read_text())
        assert report["entries"][0]["total_executed"] == 7
        assert report["entries"][0]["completeness_violations"] == []

    def test_cinema3_degraded_summary_with_warnings(self, tmp_path):
        out = tmp_path / "report.json"
        status = run_cli(
            ["explore", "--entry", "cinema-3", "--config", "no-count", "--out", out]
        )
        assert status == 0
        report = json.loads(out.read_text())
        assert report["entries"][0]["total_executed"] == 4
        assert any("collision" in w for w in report["entries"][0]["warnings"])

    def test_unknown_entry_diagnostic(self, tmp_path, capsys):
        status = run_cli(["explore", "--entry", "cinema-99"])
        assert status != 0
        assert "cinema-99" in capsys.readouterr().err

    def test_unknown_corpus_dir(self, tmp_path, capsys):
        status = run_cli(["explore", "--corpus", tmp_path / "missing"])
        assert status != 0

    def test_unknown_entry_is_one_error_line(self, capsys):
        assert run_cli(["explore", "--entry", "nope"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: unknown corpus entry nope"]

    def test_missing_corpus_is_one_error_line(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert run_cli(["explore", "--corpus", missing]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: corpus directory {missing} does not exist"
        ]

    def test_budget_exhaustion_nonzero(self, tmp_path, capsys):
        status = run_cli(["explore", "--entry", "figure-5", "--budget", 2])
        assert status != 0
        assert "budget" in capsys.readouterr().err

    def test_byte_identical_reports_for_same_run_config(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert (
                run_cli(
                    [
                        "explore",
                        "--entry", "hello-world-concurrency",
                        "--config", "full",
                        "--seed", 5,
                        "--out", out,
                    ]
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_reduction_flag(self, tmp_path):
        out = tmp_path / "report.json"
        status = run_cli(
            ["explore", "--entry", "cinema-10", "--reduction", "--out", out]
        )
        assert status == 0
        report = json.loads(out.read_text())
        assert report["entries"][0]["total_executed"] <= 6

    def test_all_entries_by_default(self, tmp_path):
        out = tmp_path / "report.json"
        status = run_cli(["explore", "--out", out, "--budget", 300])
        assert status == 0
        report = json.loads(out.read_text())
        assert len(report["entries"]) == 9

    def test_thread_scheduler_mode(self, tmp_path):
        out = tmp_path / "report.json"
        status = run_cli(
            ["explore", "--entry", "figure-4", "--scheduler", "threads", "--out", out]
        )
        assert status == 0
        report = json.loads(out.read_text())
        assert report["entries"][0]["total_executed"] == 4


class TestGraph:
    def test_graph_from_trace_files(self, tmp_path):
        traces_dir = tmp_path / "traces"
        assert (
            run_cli(
                [
                    "explore",
                    "--entry", "cinema-10",
                    "--out", tmp_path / "r.json",
                    "--traces-out", traces_dir,
                ]
            )
            == 0
        )
        files = sorted(traces_dir.glob("*.jsonl"))
        assert len(files) == 6
        out = tmp_path / "graph.json"
        assert run_cli(["graph", *files, "--out", out]) == 0
        graph = json.loads(out.read_text())
        pairs = {(e["source"], e["target"]) for e in graph["edges"]}
        assert pairs == {
            ("users", "bookings"),
            ("bookings", "movies"),
            ("users", "movies"),
        }

    def test_rerun_replaces_the_entrys_trace_files(self, tmp_path):
        # Otherwise `dexi graph DIR/*.jsonl` would read two runs at once.
        traces_dir = tmp_path / "traces"
        traces_dir.mkdir()
        kept = [traces_dir / name for name in
                ("cinema-3-0001.jsonl", "cinema-10-extra.jsonl", "cinema-10-0001.txt")]
        for path in kept:
            path.write_text("keep\n")
        argv = ["explore", "--entry", "cinema-10", "--out", tmp_path / "r.json",
                "--traces-out", traces_dir]
        assert run_cli(argv) == 0
        assert len(list(traces_dir.glob("cinema-10-0*.jsonl"))) == 6
        assert run_cli([*argv, "--reduction"]) == 0
        names = sorted(p.name for p in traces_dir.glob("cinema-10-*.jsonl"))
        assert names == [f"cinema-10-{i:04d}.jsonl" for i in range(5)] + ["cinema-10-extra.jsonl"]
        assert all(path.read_text() == "keep\n" for path in kept)

    def test_graph_decodes_each_wire_text_once(self, tmp_path, monkeypatch, capsys):
        from dexi import indexing
        from dexi.search import reconstruct_graph
        from dexi.simulator import ExecutionTrace

        traces_dir = tmp_path / "traces"
        argv = ["explore", "--entry", "cinema-10", "--out", tmp_path / "r.json",
                "--traces-out", traces_dir]
        assert run_cli(argv) == 0
        files = sorted(traces_dir.glob("*.jsonl"))
        texts = []
        decode = indexing.decode
        monkeypatch.setattr(
            indexing, "decode", lambda text, *args: texts.append(text) or decode(text, *args)
        )
        out = tmp_path / "graph.json"
        assert run_cli(["graph", *files, "--out", out]) == 0
        assert texts and len(texts) == len(set(texts))
        # The same graph as traces loaded one by one, without sharing.
        monkeypatch.setattr(indexing, "decode", decode)
        graph = reconstruct_graph(
            [ExecutionTrace.from_json_lines(f.read_text().splitlines()) for f in files]
        )
        assert out.read_text() == json.dumps(graph.to_json(), sort_keys=True, indent=2) + "\n"
        # Loaded with one memo, as `dexi graph` loads them, and written with
        # one, as `--traces-out` writes them: the files come back byte-equal.
        decoded, records, encoded = {}, {}, {}
        loaded = []
        for f in files:
            loaded.append(
                ExecutionTrace.from_json_lines(f.read_text().splitlines(), decoded, records)
            )
            assert "\n".join(loaded[-1].to_json_lines(encoded)) + "\n" == f.read_text()
        # Each distinct event line built one event, which the traces share.
        distinct = {line for f in files for line in f.read_text().splitlines()[1:]}
        assert records.keys() == distinct
        assert len({id(e) for trace in loaded for e in trace.events}) == len(distinct)
        assert sum(len(trace.events) for trace in loaded) > len(distinct)
        # A malformed line is never kept: it fails in every file that holds
        # it, and `dexi graph` names the first.
        text = files[0].read_text()
        number = len(text.splitlines()) + 1
        bad = [tmp_path / "bad-1.jsonl", tmp_path / "bad-2.jsonl"]
        for path in bad:
            path.write_text(text + '{"kind": "invocation", "caller": "a"}\n')
            with pytest.raises(DexiError, match=f"^line {number}: seq: missing$"):
                ExecutionTrace.from_json_lines(path.read_text().splitlines(), decoded, records)
        capsys.readouterr()
        assert run_cli(["graph", *files, *bad]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad[0]}: line {number}: seq: missing"
        ]

    HEADER = '{"kind": "trace_header", "entry": {"service": "a", "method": "m", "args": {}}'

    @pytest.mark.parametrize(
        "text,error",
        [
            ("not json\n", "line 1: "),
            ('{"kind": "trace_header", "seed": 0}\n', "line 1: entry: missing"),
            ('[1, 2]\n', "line 1: record is not a JSON object"),
            (HEADER + '}\n{"kind": "invocation", "caller": "a", "callee": "b", "method": "m"}\n',
             "line 2: seq: missing"),
            ("[" * 100_000 + "]" * 100_000 + "\n", "line 1: "),
            (HEADER + ', "config": {"include_payload": "no"}}\n',
             "line 1: config.include_payload: expected a bool, got a string"),
            (HEADER + ', "warnings": "ab"}\n', "line 1: warnings: expected a list, got a string"),
            (HEADER + ', "seed": "x"}\n', "line 1: seed: expected an integer, got a string"),
            (HEADER + '}\n{"kind": "invocation", "seq": 0, "dei": "[]"}\n', "line 2: dei: "),
            (HEADER + '}\n{"kind": "bogus", "seq": 0}\n', "line 2: kind: "),
            (HEADER + '}\n{"kind": "invocation", "seq": 0, "caller": "a", "callee": "b", '
                      '"method": "m"}\n', "line 2: dei: missing"),
        ],
        ids=["not-json", "header-without-entry", "list-record", "event-without-seq", "deep",
             "config-value-str", "warnings-str", "seed-str", "empty-dei", "unknown-kind",
             "invocation-without-dei"],
    )
    def test_undecodable_trace_rejected(self, tmp_path, capsys, text, error):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text)
        assert run_cli(["graph", bad]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {bad}: {error}")

    @pytest.mark.parametrize("value", [["b"], None], ids=["list", "null"])
    @pytest.mark.parametrize("field", ["entry.service", "entry.method", "caller", "callee",
                                       "method"])
    def test_non_string_name_rejected(self, tmp_path, capsys, field, value):
        assert run_cli(["explore", "--entry", "figure-6-stream", "--out", tmp_path / "r.json",
                        "--traces-out", tmp_path]) == 0
        trace = sorted(tmp_path.glob("*.jsonl"))[0]
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        # The header is line 1; the first event with the field is changed.
        if field.startswith("entry."):
            number, record = 1, records[0]["entry"]
        else:
            number = next(n for n, r in enumerate(records[1:], 2) if field in r)
            record = records[number - 1]
        record[field.removeprefix("entry.")] = value
        trace.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        assert run_cli(["graph", trace]) == 2
        kind = "a list" if value else "null"
        assert capsys.readouterr().err.splitlines() == [
            f"error: {trace}: line {number}: {field}: expected a string, got {kind}"
        ]

    @pytest.mark.parametrize("place", ["repeated", "at-the-end"])
    def test_one_header_on_the_first_line(self, tmp_path, capsys, place):
        assert run_cli(["explore", "--entry", "figure-2", "--out", tmp_path / "r.json",
                        "--traces-out", tmp_path]) == 0
        trace = tmp_path / "figure-2-0000.jsonl"
        header, *events = trace.read_text().splitlines()
        if place == "repeated":
            lines, number = [header, header, *events], 2
        else:
            lines, number = [*events, header], 1
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli(["graph", trace]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f'error: {trace}: line {number}: kind: a trace has one "trace_header" record, '
            "on its first line"
        ]

    def test_graph_parses_each_distinct_header_once(self, tmp_path, monkeypatch, capsys):
        from dexi import simulator

        traces_dir = tmp_path / "traces"
        assert run_cli(["explore", "--entry", "cinema-10", "--out", tmp_path / "r.json",
                        "--traces-out", traces_dir]) == 0
        files = sorted(traces_dir.glob("*.jsonl"))
        headers = {f.read_text().splitlines()[0] for f in files}
        assert len(headers) < len(files)
        parsed = []
        header = simulator._header
        monkeypatch.setattr(simulator, "_header", lambda doc: parsed.append(doc) or header(doc))
        assert run_cli(["graph", *files, "--out", tmp_path / "g.json"]) == 0
        assert len(parsed) == len(headers)
        # A malformed header is never kept: it fails in every file that holds it.
        bad = tmp_path / "bad.jsonl"
        doc = json.loads(files[0].read_text().splitlines()[0])
        doc["seed"] = "x"
        bad.write_text(json.dumps(doc) + "\n")
        memo: dict = {}
        for _ in range(2):
            with pytest.raises(DexiError, match="^line 1: seed: expected an integer"):
                dexi.cli._load_trace_file(bad, headers=memo)
        assert not memo
        capsys.readouterr()
        assert run_cli(["graph", *files, bad, bad]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: line 1: seed: expected an integer, got a string"
        ]


class TestUnwritablePaths:
    @pytest.mark.parametrize("where", ["missing-dir", "is-a-dir"])
    @pytest.mark.parametrize("command", [
        ["explore", "--entry", "cinema-3"],
        ["nondeterminism", "--n", "2", "--iterations", "2"],
        ["graph"],
    ], ids=["explore", "nondeterminism", "graph"])
    def test_out_path_is_one_error_line(self, tmp_path, capfd, command, where):
        if command == ["graph"]:
            trace_dir = tmp_path / "traces"
            assert run_cli(["explore", "--entry", "cinema-3", "--out", tmp_path / "r.json",
                            "--traces-out", trace_dir]) == 0
            command = ["graph", *sorted(trace_dir.glob("*.jsonl"))]
            capfd.readouterr()
        out = tmp_path / "no" / "such" / "r.json" if where == "missing-dir" else tmp_path
        assert run_cli([*command, "--out", out]) == 2
        errors = [line for line in capfd.readouterr().err.splitlines() if "error" in line]
        assert len(errors) == 1 and errors[0].startswith(f"error: {out}: ")

    def test_traces_out_is_a_file(self, tmp_path, capfd):
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = ["explore", "--entry", "cinema-3", "--out", tmp_path / "r.json",
                "--traces-out", taken]
        assert run_cli(argv) == 2
        err = capfd.readouterr().err
        assert err.splitlines() == [f"error: {taken}: File exists"]

    def test_cli_subprocess_prints_no_traceback(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(dexi.__file__).parent.parent)}
        out = tmp_path / "no" / "such" / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "dexi.cli", "explore", "--entry", "cinema-3", "--out", out],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {out}: No such file or directory"]
        assert not proc.stdout


def self_rpc_entry(name: str, nested: bool) -> dict:
    """An endpoint that RPCs itself: directly, or from a spawned block in a
    loop of a helper called inside a try."""
    rpc = {"op": "rpc", "service": "a", "method": "go", "args": {}, "line": 9, "assign": "r"}
    helpers = []
    if nested:
        helpers = [{"name": "again", "params": [], "body": [
            {"op": "loop", "var": "i", "in": {"const": [1]}, "line": 7, "body": [
                {"op": "spawn", "futures": "fs", "line": 8,
                 "body": [rpc, {"op": "return", "value": {"var": "r"}}]},
            ]},
            {"op": "await_all", "futures": "fs", "line": 11, "assign": "r"},
            {"op": "return", "value": {"var": "r"}},
        ]}]
        rpc = {"op": "try",
               "body": [{"op": "call", "helper": "again", "args": {}, "line": 3, "assign": "r"}],
               "catch": [{"op": "assign", "var": "r", "value": {"const": "caught"}}]}
    body = [rpc, {"op": "return", "value": {"var": "r"}}]
    return {
        "name": name,
        "services": [{"name": "a", "helpers": helpers,
                      "endpoints": [{"method": "go", "params": [], "body": body}]}],
        "entry": {"service": "a", "method": "go", "args": {}},
    }


class TestNestingBound:
    @pytest.mark.parametrize("scheduler", ["virtual", "threads"])
    @pytest.mark.parametrize("nested", [False, True], ids=["plain", "nested"])
    @pytest.mark.parametrize(
        "config,reason",
        [("full", "would nest deeper than 32 calls"),
         ("no-path-count-stack", "exceeded the interpreter's recursion limit")],
        ids=["full", "no-path-count-stack"],
    )
    def test_self_rpc_is_one_error_line(self, tmp_path, capsys, scheduler, nested, config, reason):
        (tmp_path / "self.json").write_text(json.dumps(self_rpc_entry("self-rpc", nested)))
        status = run_cli(
            ["explore", "--corpus", tmp_path, "--scheduler", scheduler, "--config", config]
        )
        assert status == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: self-rpc: RPC ")
        assert err[0].endswith(reason)


def one_handler_entry(name: str, body: list) -> dict:
    """Service `a` runs `body` as its entry handler; `b.get(x)` is a target
    for its RPCs and streams."""
    return {
        "name": name,
        "services": [
            {"name": "a", "endpoints": [{"method": "go", "params": [], "body": body}]},
            {"name": "b", "endpoints": [{"method": "get", "params": [{"name": "x"}], "body": []}]},
        ],
        "entry": {"service": "a", "method": "go", "args": {}},
    }


def assign(var: str, value) -> dict:
    return {"op": "assign", "var": var, "value": {"const": value}}


SPAWN_FS = {"op": "spawn", "futures": "fs", "line": 2, "body": []}


def decide(cond: dict, holds: bool) -> dict:
    """An `if` on `cond` that raises a `service-error` in the branch `cond`
    leads to when it `holds`, and returns a value in the other one."""
    raised, returned = [{"op": "raise"}], [{"op": "return", "value": {"const": "wrong branch"}}]
    return {"op": "if", "cond": cond, "then": raised if holds else returned,
            "else": returned if holds else raised}


def await_cycle_body() -> list:
    """Each `l1` block awaits the `l2` list, whose second block awaits `l1`."""
    def spawn(futures, line, body):
        return {"op": "spawn", "futures": futures, "line": line, "body": body}

    def await_all(futures, line):
        return {"op": "await_all", "futures": futures, "line": line}

    return [
        spawn("l2", 2, [{"op": "rpc", "service": "b", "method": "get", "line": 3,
                         "args": {"x": {"const": "x"}}}]),
        spawn("l1", 4, [await_all("l2", 5)]),
        spawn("l1", 6, [await_all("l2", 7)]),
        spawn("l2", 8, [await_all("l1", 9)]),
        await_all("l1", 10),
        {"op": "return", "value": {"const": "done"}},
    ]


class TestAwaitCycle:
    @pytest.mark.parametrize("seed", range(4))
    def test_cycle_is_one_error_line(self, tmp_path, capsys, seed):
        (tmp_path / "cycle.json").write_text(
            json.dumps(one_handler_entry("cycle", await_cycle_body())))
        status = run_cli(["explore", "--corpus", tmp_path, "--seed", seed,
                          "--out", tmp_path / "report.json"])
        assert status == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: cycle: await cycle: ")


class TestMalformedCorpus:
    @pytest.mark.parametrize("field,value,kind", [
        ("expected_counts", None, "a map, got null"),
        ("name", None, "a string, got null"),
        ("name", ["x"], "a string, got a list"),
    ], ids=["counts-null", "name-null", "name-list"])
    def test_wrong_field_type_is_one_error_line(self, tmp_path, capsys, field, value, kind):
        doc = json.loads((default_corpus_dir() / "figure-2.json").read_text())
        doc[field] = value
        (tmp_path / "x.json").write_text(json.dumps(doc))
        assert run_cli(["explore", "--corpus", tmp_path, "--out", tmp_path / "r.json"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: x.json: {field}: expected {kind}"]

    # Paths into a document's first endpoint body, and to figure-4's RPC in
    # its loop, as tuples of keys and as the JSON paths errors name.
    BODY = ("services", 0, "endpoints", 0, "body")
    RPC = BODY + (1, "body", 0, "body", 0)
    B = "services[0].endpoints[0].body"
    R = B + "[1].body[0].body[0]"

    @pytest.mark.parametrize("document,path,value,message", [
        ("figure-4", RPC + ("args",), None, f"{R}.args: expected a map, got null"),
        ("figure-4", ("services", 0, "endpoints"), "x",
         "services[0].endpoints: expected a list, got a string"),
        ("figure-4", ("services", 1, "helpers"), ["x"],
         "services[1].helpers[0]: expected a map, got a string"),
        ("figure-4", BODY + (3, "value", "join", "sep"), None,
         f"{B}[3].value.join.sep: expected a string, got null"),
        ("figure-4", BODY + (0, "var"), ["x"], f"{B}[0].var: expected a string, got a list"),
        ("figure-4", BODY + (1, "var"), ["x"], f"{B}[1].var: expected a string, got a list"),
        ("figure-4", BODY + (1, "body", 0, "futures"), ["x"],
         f"{B}[1].body[0].futures: expected a string, got a list"),
        ("figure-4", RPC + ("assign",), ["x"], f"{R}.assign: expected a string, got a list"),
        ("figure-4", BODY + (2, "futures"), ["x"], f"{B}[2].futures: expected a string, got a list"),
        ("figure-4", BODY + (2, "assign"), ["x"], f"{B}[2].assign: expected a string, got a list"),
        ("figure-3", BODY + (2, "body", 0, "body", 1, "list"), ["x"],
         f"{B}[2].body[0].body[1].list: expected a string, got a list"),
        ("figure-6-stream", BODY + (0, "assign"), ["x"],
         f"{B}[0].assign: expected a string, got a list"),
        ("figure-6-stream", BODY + (2, "body", 0, "body", 0, "stream"), ["x"],
         f"{B}[2].body[0].body[0].stream: expected a string, got a list"),
        ("figure-4", BODY + (1, "in", "var"), ["x"], f"{B}[1].in.var: expected a string, got a list"),
        ("cinema-3", BODY + (1, "cond", "not", "is_set"), 3,
         f"{B}[1].cond.not.is_set: expected a string, got an integer"),
        ("figure-4", RPC + ("line",), True, f"{R}.line: expected an integer, got a bool"),
        ("figure-4", RPC + ("line",), 2.5, f"{R}.line: expected an integer, got a number"),
        ("figure-4", ("expected_counts", "full"), "4",
         "expected_counts.full: expected an integer, got a string"),
        ("figure-4", RPC + ("line",), -1, f"{R}.line: expected a positive integer, got -1"),
        ("figure-4", ("expected_counts", "full"), 0,
         "expected_counts.full: expected a positive integer, got 0"),
        ("figure-4", RPC + ("args",), {"t": {"var": "s"}},
         f"{R}.args: expected the parameters ['s'] of b.echo, got ['t']"),
        ("figure-2", BODY + (0, "args"), {"t": {"const": "Hello"}},
         f"{B}[0].args: expected the parameters ['s'] of a.echo, got ['t']"),
        ("figure-2", ("services", 0, "helpers", 0, "params"), ["q"],
         f"{B}[0].args: expected the parameters ['q'] of a.echo, got ['s']"),
        ("figure-4", BODY + (1, "line"), 0, f"{B}[1].line: expected a positive integer, got 0"),
        ("figure-4", BODY + (1, "body", 0, "line"), -1,
         f"{B}[1].body[0].line: expected a positive integer, got -1"),
        ("figure-4", BODY + (2, "line"), 0, f"{B}[2].line: expected a positive integer, got 0"),
        ("figure-4", ("services", 1, "name"), "a", "services[1].name: service 'a' declared twice"),
        ("figure-4", ("services", 1, "endpoints"), [{"method": "echo", "body": []}] * 2,
         "services[1].endpoints[1].method: endpoint 'echo' declared twice"),
        ("figure-4", ("services", 1, "helpers"), [{"name": "h", "body": []}] * 2,
         "services[1].helpers[1].name: helper 'h' declared twice"),
    ], ids=["rpc-args-null", "endpoints-str", "helpers-of-str", "join-sep-null", "assign-var-list",
            "loop-var-list", "spawn-futures-list", "rpc-assign-list", "await-futures-list",
            "await-assign-list", "append-list-list", "open-stream-assign-list",
            "stream-send-stream-list", "var-expr-list", "is-set-int", "line-bool", "line-float",
            "count-str", "line-negative", "count-zero", "rpc-args-renamed", "call-args-renamed",
            "helper-params-renamed", "loop-line-zero", "spawn-line-negative", "await-line-zero",
            "service-twice", "endpoint-twice", "helper-twice"])
    def test_parser_names_the_wrong_field(self, tmp_path, capsys, document, path, value, message):
        doc = json.loads((default_corpus_dir() / f"{document}.json").read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        (tmp_path / "x.json").write_text(json.dumps(doc))
        assert run_cli(["explore", "--corpus", tmp_path, "--out", tmp_path / "r.json"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: x.json: {message}"]

    @pytest.mark.parametrize("text,error", [
        ("[" * 100_000 + "]" * 100_000, "cannot read corpus document: maximum recursion depth"),
        (json.dumps(one_handler_entry("deep", functools.reduce(
            lambda body, _: [{"op": "try", "body": body}], range(330), []))),
         "services: statements nest deeper than the parser can read"),
    ], ids=["deep-array", "deep-try"])
    def test_nesting_too_deep_is_one_error_line(self, tmp_path, capsys, text, error):
        (tmp_path / "x.json").write_text(text)
        assert run_cli(["explore", "--corpus", tmp_path, "--out", tmp_path / "r.json"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: x.json: {error}")


class TestAwaitCycleAcrossWorkers:
    def test_cycle_is_an_error_under_threads(self):
        # Each `l1` block first makes an RPC, so the two workers run one
        # `l1` block each and can meet in the cycle from both ends. A hang
        # cannot be interrupted inside pytest, hence the subprocess.
        body = await_cycle_body()
        rpc = {"op": "rpc", "service": "b", "method": "get", "line": 11,
               "args": {"x": {"const": "x"}}}
        for statement in body:
            if statement.get("futures") == "l1" and statement["op"] == "spawn":
                statement["body"].insert(0, rpc)
        script = f"""
import json
from dexi.indexing import DexiError
from dexi.programs import EntryRequest, parse_application
from dexi.simulator import run_execution
app = parse_application(json.loads({json.dumps(json.dumps(one_handler_entry("cycle", body)))}))
for _ in range(50):
    try:
        run_execution(app, EntryRequest("a", "go", {{}}), scheduler="threads", pool_size=2)
    except DexiError as exc:
        assert str(exc).startswith("await cycle: "), exc
    else:
        raise AssertionError("no await cycle error")
print("50 cycles")
"""
        env = {**os.environ, "PYTHONPATH": str(Path(dexi.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "50 cycles\n"


class TestCorpusValues:
    """A corpus program that uses a value as the wrong kind ends its handler
    with a service error; a misplaced break, or a futures list or stream sent
    across an RPC boundary, ends the run with one stable error line. The
    `eq` and `list` cases raise the service error only in the branch their
    value leads to."""

    @pytest.mark.parametrize(
        "body,error",
        [
            ([assign("fs", "abc"), {"op": "await_all", "futures": "fs", "line": 2}], None),
            ([assign("fs", [1]), {"op": "await_all", "futures": "fs", "line": 2}], None),
            ([{"op": "loop", "var": "i", "in": {"const": 3}, "line": 2, "body": []}], None),
            ([{"op": "return", "value": {"join": {"list": {"const": 3}}}}], None),
            ([{"op": "return", "value": {"first": {"const": 3}}}], None),
            ([assign("xs", "abc"), {"op": "append", "list": "xs", "value": {"const": 1}}], None),
            ([assign("fs", "abc"), {"op": "spawn", "futures": "fs", "line": 2, "body": []}], None),
            ([{"op": "break"}], "break outside a loop in a.go"),
            ([{"op": "loop", "var": "i", "in": {"const": [1]}, "line": 2, "body": [
                {"op": "spawn", "futures": "fs", "line": 3, "body": [{"op": "break"}]}]},
              {"op": "await_all", "futures": "fs", "line": 4}], "break outside a loop in a.go"),
            ([SPAWN_FS, {"op": "return", "value": {"var": "fs"}}],
             "a.go returns a futures list, which cannot cross an RPC boundary"),
            ([SPAWN_FS, {"op": "rpc", "service": "b", "method": "get", "line": 3,
                         "args": {"x": {"var": "fs"}}}],
             "argument 'x' of b.get holds a futures list, which cannot cross an RPC boundary"),
            ([{"op": "open_stream", "service": "b", "method": "get", "line": 2, "assign": "st"},
              {"op": "return", "value": {"var": "st"}}],
             "a.go returns a stream, which cannot cross an RPC boundary"),
            ([{"op": "return", "value": {"first": {"const": []}}}], None),
            ([decide({"eq": [{"const": 1}, {"const": 1}]}, True)], None),
            ([decide({"eq": [{"const": 1}, {"const": 2}]}, False)], None),
            ([decide({"eq": [{"join": {"list": {"list": [{"const": "a"}, {"const": 2}]},
                                       "sep": "-"}},
                             {"const": "a-2"}]}, True)], None),
            ([assign("st", "abc"), {"op": "stream_send", "stream": "st", "args": {}, "line": 2}],
             "variable 'st' is not an open stream"),
        ],
        ids=["await-str", "await-ints", "loop-int", "join-int", "first-int", "append-str",
             "spawn-str", "break", "break-in-block", "return-futures", "rpc-arg-futures",
             "return-stream", "first-empty", "eq-true", "eq-false", "list-join", "send-non-stream"],
    )
    def test_no_traceback(self, tmp_path, body, error):
        (tmp_path / "probe.json").write_text(json.dumps(one_handler_entry("probe", body)))
        out = tmp_path / "report.json"
        env = {**os.environ, "PYTHONPATH": str(Path(dexi.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "dexi.cli", "explore", "--corpus", tmp_path, "--out", out],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert "Traceback" not in proc.stderr
        if error is None:
            assert proc.returncode == 0, proc.stderr
            [execution] = json.loads(out.read_text())["entries"][0]["executions"]
            assert execution["entry_outcome"] == {"fault": "service-error"}
        else:
            assert proc.returncode == 2
            assert proc.stderr.splitlines() == [f"error: probe: {error}"]


class TestNondeterminism:
    def test_small_run_writes_report(self, tmp_path):
        out = tmp_path / "nd.json"
        status = run_cli(
            ["nondeterminism", "--n", 2, "--pool", 2, "--iterations", 5, "--out", out]
        )
        assert status == 0
        report = json.loads(out.read_text())
        assert report["results"][0]["n_rpcs"] == 2
        assert report["results"][0]["deterministic"] is True

    def test_single_task_matches_always(self, tmp_path, capsys):
        status = run_cli(["nondeterminism", "--n", 1, "--iterations", 5])
        assert status == 0
        assert "order-match=1.00" in capsys.readouterr().err

    def test_invalid_parameters(self):
        assert run_cli(["nondeterminism", "--n", 0, "--iterations", 5]) != 0


class TestParser:
    def test_budget_must_be_positive(self):
        with pytest.raises(SystemExit):
            run_cli(["explore", "--budget", 0])

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["explore", "--config", "sideways"])
