"""`Record`: the frozen value type of the classes dexi builds at load time.

It must behave as the frozen dataclasses it replaced, and must stay free of
generated methods, which are what it saves on import.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil

import pytest

import dexi
from dexi import corpus, experiment, indexing, programs, search, simulator
from dexi.corpus import CorpusEntry
from dexi.indexing import InstantiationConfig, Record
from dexi.programs import (Application, Break, Const, EntryRequest, IsSet, Rpc,
                           ServiceProgram, Var)

# Every class built from `Record`, by module.
RECORDS = {
    programs: ["Expr", "Const", "Var", "Concat", "Join", "ListExpr", "First", "IsSet", "Not",
               "Eq", "Stmt", "Assign", "Append", "Rpc", "CallHelper", "Loop", "If", "Try",
               "Break", "Return", "Raise", "Spawn", "AwaitAll", "OpenStream", "StreamSend",
               "CloseStream", "Endpoint", "Helper", "ServiceProgram", "EntryRequest",
               "Application"],
    indexing: ["InstantiationConfig"],
    search: ["Violation", "GraphEdge", "ApplicationGraph"],
    simulator: ["FaultSpec"],
    experiment: ["IterationRecord", "NondeterminismResult"],
    corpus: ["CorpusEntry"],
}

# What `@dataclass` would generate in the class; `Record` holds each once.
GENERATED = ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__")


def _subclasses(cls: type) -> list[type]:
    return [sub for direct in cls.__subclasses__() for sub in [direct, *_subclasses(direct)]]


def test_records_generate_no_methods():
    listed = [getattr(module, name) for module, names in RECORDS.items() for name in names]
    assert all(issubclass(cls, Record) and not dataclasses.is_dataclass(cls) for cls in listed)
    assert set(listed) <= set(_subclasses(Record))
    own = {f"{cls.__module__}.{cls.__qualname__}.{name}"
           for cls in _subclasses(Record) for name in GENERATED if name in cls.__dict__}
    assert not own, "a record class defines its own methods; is it a @dataclass again?"


# The only dataclasses: their derived fields take no part in equality.
INDEX_TYPES = {"Signature", "InvocationPayload", "CallStackDigest", "InvocationSignature",
               "IndexEntry", "DistributedExecutionIndex"}


def test_only_the_index_types_are_dataclasses():
    modules = [dexi] + [importlib.import_module(f"dexi.{info.name}")
                        for info in pkgutil.iter_modules(dexi.__path__)]
    classes = {value for module in modules for value in vars(module).values()
               if isinstance(value, type) and value.__module__.startswith("dexi")}
    assert {f"{cls.__module__}.{cls.__qualname__}"
            for cls in classes if dataclasses.is_dataclass(cls)} == {
        f"dexi.indexing.{name}" for name in INDEX_TYPES}


class TestConstruction:
    def test_positional_keyword_and_default(self):
        a = Rpc("b", "get", (), 3)
        assert (a.service, a.method, a.args, a.line, a.assign) == ("b", "get", (), 3, None)
        assert Rpc(line=3, method="get", service="b", args=()) == a
        assert Rpc("b", "get", (), 3, assign="r").assign == "r"
        assert Break() == Break()

    @pytest.mark.parametrize("args,kwargs,message", [
        (("b", "get", ()), {}, "missing field 'line'"),
        (("b", "get", (), 3), {"colour": 1}, r"unknown or repeated \['colour'\]"),
        (("b", "get", (), 3), {"method": "put"}, r"unknown or repeated \['method'\]"),
        (("b", "get", (), 3, None, "x"), {}, "got 6 positional"),
    ], ids=["missing", "unknown", "repeated", "extra"])
    def test_wrong_fields_raise(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            Rpc(*args, **kwargs)

    def test_fields_in_declaration_order(self):
        # The trace header writes `vars(config)`.
        assert vars(InstantiationConfig(include_count=False)) == {
            "include_payload": True, "include_callstack": True,
            "include_count": False, "include_path": True,
        }
        assert list(vars(InstantiationConfig(include_count=False))) == [
            "include_payload", "include_callstack", "include_count", "include_path"]


class TestValue:
    def test_frozen(self):
        var = Var("x")
        with pytest.raises(AttributeError):
            var.name = "y"
        with pytest.raises(AttributeError):
            var.other = 1
        with pytest.raises(AttributeError):
            del var.name
        assert var == Var("x")

    def test_equal_by_class_and_fields(self):
        assert Var("x") != IsSet("x")
        assert Const(1) != Var(1)
        assert Var("x").__eq__(IsSet("x")) is NotImplemented
        assert Var("x") == Var("x") and hash(Var("x")) == hash(Var("x"))
        assert Var("x") != Var("y")
        assert len({Const(1), Const(1), Var(1)}) == 2

    def test_repr(self):
        assert repr(Rpc("b", "get", (), 3)) == (
            "Rpc(service='b', method='get', args=(), line=3, assign=None)")
        assert repr(Break()) == "Break()"

    def test_positional_class_pattern(self):
        match Var("x"):
            case IsSet(name):
                matched = ("is_set", name)
            case Var(name):
                matched = ("var", name)
        assert matched == ("var", "x")
        match Rpc("b", "get", (), 3):
            case Rpc(service, method, _, line):
                assert (service, method, line) == ("b", "get", 3)

    def test_shared_empty_maps_cannot_change(self):
        svc = ServiceProgram("a", {})
        entry = CorpusEntry("e", Application({"a": svc}), EntryRequest("a", "m", {}))
        assert svc.helpers is ServiceProgram("b", {}).helpers
        assert entry.expected_counts is indexing.EMPTY_MAP
        for empty in (svc.helpers, entry.expected_counts):
            assert dict(empty) == {}
            with pytest.raises(TypeError):
                empty["x"] = 1
