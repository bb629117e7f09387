"""Identifier types and operations: signatures, counters, extension,
prefixes, projection, and the wire encoding."""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from dexi.indexing import (
    ArityMismatchError,
    CallStackDigest,
    CounterState,
    DecodeError,
    DexiError,
    DistributedExecutionIndex,
    EMPTY_INDEX,
    EMPTY_PAYLOAD,
    EMPTY_STACK,
    FULL_CONFIG,
    IndexEntry,
    InstantiationConfig,
    InvalidCountError,
    InvocationPayload,
    InvocationSignature,
    Signature,
    canonical_bytes,
    config_from_label,
    counter_next,
    decode,
    dei_extend,
    encode,
    is_prefix,
    make_invocation_signature,
    project,
    project_assignment,
)
from dexi.simulator import _mark_last_preliminary

ECHO_SIG = Signature("b", "echo", (("s", "String"),))


def inv(payload_value: str | None, *lines: int, sig: Signature = ECHO_SIG) -> InvocationSignature:
    payload = (
        InvocationPayload.from_mapping(sig, {"s": payload_value})
        if payload_value is not None
        else EMPTY_PAYLOAD
    )
    frames = tuple((f"a.py:{line}", "helloworld") for line in lines)
    stack = CallStackDigest(frames)
    return InvocationSignature(signature=sig, payload=payload, callstack=stack)


class TestCanonicalBytes:
    def test_sorted_keys(self):
        assert canonical_bytes({"b": 1, "a": 2}) == canonical_bytes({"a": 2, "b": 1})

    def test_equal_values_equal_bytes(self):
        assert canonical_bytes(["x", 1, {"k": True}]) == canonical_bytes(["x", 1, {"k": True}])

    def test_distinct_values_distinct_bytes(self):
        assert canonical_bytes("Hello") != canonical_bytes("World")


class TestSignature:
    def test_component_equality(self):
        assert ECHO_SIG == Signature("b", "echo", (("s", "String"),))
        assert ECHO_SIG != Signature("b", "echo", (("s", "Int"),))
        assert ECHO_SIG != Signature("b", "echo2", (("s", "String"),))

    def test_parameter_order_significant(self):
        two = Signature("b", "m", (("x", "A"), ("y", "B")))
        swapped = Signature("b", "m", (("y", "B"), ("x", "A")))
        assert two != swapped
        assert two.digest != swapped.digest


class TestMakeInvocationSignature:
    def test_first_concurrent_rpc_components(self):
        # The first async RPC: payload (s, Hello), stack at line 7.
        payload = InvocationPayload.from_mapping(ECHO_SIG, {"s": "Hello"})
        stack = CallStackDigest((("a.py:7", "helloworld"),))
        made = make_invocation_signature(ECHO_SIG, payload, stack)
        assert made.signature == ECHO_SIG
        assert made.payload.values == ("Hello",)
        assert made.callstack.render() == "7"

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            make_invocation_signature(ECHO_SIG, EMPTY_PAYLOAD, EMPTY_STACK)

    def test_deterministic(self):
        a = inv("Hello", 7)
        b = inv("Hello", 7)
        assert a == b
        assert hash(a) == hash(b)
        assert a.digest_triple() == b.digest_triple()


class TestCounter:
    def test_sequential_same_key(self):
        state = CounterState()
        key = inv("x", 8)
        assert counter_next(state, EMPTY_INDEX, key) == 1
        assert counter_next(state, EMPTY_INDEX, key) == 2

    def test_fresh_key_starts_at_one(self):
        state = CounterState()
        assert counter_next(state, EMPTY_INDEX, inv("z", 3)) == 1

    def test_distinct_payloads_distinct_keys(self):
        state = CounterState()
        assert counter_next(state, EMPTY_INDEX, inv("Hello", 7)) == 1
        assert counter_next(state, EMPTY_INDEX, inv("World", 7)) == 1

    def test_path_relative(self):
        state = CounterState()
        path = dei_extend(EMPTY_INDEX, inv("H", 9), 1)
        assert counter_next(state, EMPTY_INDEX, inv("H", 29)) == 1
        assert counter_next(state, path, inv("H", 29)) == 1

    def test_atomic_under_threads(self):
        state = CounterState()
        key = inv("same", 5)
        results: list[int] = []
        lock = threading.Lock()

        def worker():
            for _ in range(200):
                value = counter_next(state, EMPTY_INDEX, key)
                with lock:
                    results.append(value)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(results) == list(range(1, 1601))

    def test_concurrent_claim_detection(self):
        state = CounterState()
        key = inv("dup", 5)
        _, raced1 = state.claim(EMPTY_INDEX, key, lineage=(0,))
        _, raced2 = state.claim(EMPTY_INDEX, key, lineage=(1,))
        assert not raced1
        assert raced2  # sibling tasks, unrelated lineages
        _, raced3 = state.claim(EMPTY_INDEX, key, lineage=(1, 0))
        assert not raced3  # descendant of the previous claimant


class TestDeiExtend:
    def test_extend_empty(self):
        d = dei_extend(EMPTY_INDEX, inv("W", 9), 1)
        assert len(d) == 1
        assert d.last.count == 1

    def test_extend_nested(self):
        outer = dei_extend(EMPTY_INDEX, inv("W", 9), 1)
        nested = dei_extend(outer, inv("W", 29), 1)
        assert len(nested) == 2
        assert nested.prefix() == outer
        assert outer.entries == nested.entries[:1]

    def test_value_semantics(self):
        base = dei_extend(EMPTY_INDEX, inv("W", 9), 1)
        before = base.entries
        dei_extend(base, inv("W", 29), 1)
        assert base.entries == before

    def test_count_zero_rejected(self):
        with pytest.raises(InvalidCountError):
            dei_extend(EMPTY_INDEX, inv("W", 9), 0)


class TestIndexHash:
    def test_equal_indexes_hash_equal(self):
        dei = dei_extend(dei_extend(EMPTY_INDEX, inv("H", 9), 1), inv("W", 29), 2)
        marked = DistributedExecutionIndex(
            dei.entries[:-1] + (replace(dei.last, preliminary=True),)
        )
        for other in (decode(encode(dei)), marked):
            assert other == dei
            assert hash(other) == hash(dei)
            assert hash(other.last) == hash(dei.last)

    def test_replace_recomputes_hash(self):
        dei = dei_extend(EMPTY_INDEX, inv("H", 9), 1)
        entry = replace(dei.last, count=2)
        fresh = IndexEntry(
            entry.signature_digest, entry.payload_digest, entry.callstack_digest, 2
        )
        assert entry == fresh and hash(entry) == hash(fresh)
        assert hash(entry) != hash(dei.last)
        moved = replace(dei, entries=(entry,))
        assert moved == DistributedExecutionIndex((fresh,))
        assert hash(moved) == hash(DistributedExecutionIndex((fresh,)))
        assert hash(moved) != hash(dei)

    def test_preliminary_marker_computed_for_every_copy(self):
        # `has_preliminary` is computed on construction, so every way of
        # building an index must compute its own.
        dei = dei_extend(dei_extend(EMPTY_INDEX, inv("H", 9), 1), inv("W", 29), 2)
        marked = _mark_last_preliminary(dei)
        assert marked.has_preliminary() and not dei.has_preliminary()
        assert replace(dei, entries=marked.entries).has_preliminary()
        assert not replace(marked, entries=dei.entries).has_preliminary()
        assert not decode(encode(marked)).has_preliminary()
        assert dei_extend(marked, inv("X", 31), 1).has_preliminary()
        assert marked.prefix().has_preliminary() is False

    def test_prefix_kept_once(self):
        # `prefix` keeps its result: one index returns one prefix object,
        # equal to and hashing as a freshly built one, and every copy of
        # the index computes its own.
        dei = dei_extend(dei_extend(EMPTY_INDEX, inv("H", 9), 1), inv("W", 29), 2)
        before = hash(dei)
        assert dei.prefix() is dei.prefix()
        fresh = DistributedExecutionIndex(dei.entries[:-1])
        assert dei.prefix() == fresh and hash(dei.prefix()) == hash(fresh)
        assert dei.prefix().prefix() is dei.prefix().prefix() == EMPTY_INDEX
        assert hash(dei) == before and dei == decode(encode(dei))
        moved = replace(dei, entries=(dei.last,))
        assert moved.prefix() == EMPTY_INDEX and moved.prefix() is not dei.prefix()
        with pytest.raises(DexiError, match="no enclosing prefix"):
            EMPTY_INDEX.prefix()

    def test_encode_never_stale(self):
        # `encode` keeps each index's text; every copy must compute its own.
        def wire(dei):
            return "[" + "::".join(
                f"sig:{e.signature_digest},pay:{e.payload_digest},"
                f"stk:{e.callstack_digest}|{e.count}" for e in dei.entries
            ) + "]"

        dei = dei_extend(dei_extend(EMPTY_INDEX, inv("H", 9), 1), inv("W", 29), 2)
        assert encode(dei) == wire(dei)
        copies = [
            dei_extend(dei, inv("X", 31), 3),
            decode(encode(dei)),
            replace(dei, entries=dei.entries[:1]),
            replace(dei, entries=(replace(dei.last, count=7),)),
            _mark_last_preliminary(dei),
        ]
        for copy in copies:
            assert encode(dei) == wire(dei)
            assert encode(copy) == wire(copy)
        assert len({encode(c) for c in copies}) == 4


class TestIsPrefix:
    def test_proper_prefix(self):
        outer = dei_extend(EMPTY_INDEX, inv("H", 9), 1)
        nested = dei_extend(outer, inv("H", 29), 1)
        assert is_prefix(outer, nested)
        assert not is_prefix(nested, outer)

    def test_empty_prefix_of_anything(self):
        d = dei_extend(EMPTY_INDEX, inv("H", 9), 1)
        assert is_prefix(EMPTY_INDEX, d)
        assert is_prefix(EMPTY_INDEX, EMPTY_INDEX)

    def test_different_call_site_not_prefix(self):
        # A retry issued from line 19 is not the line-9 prefix.
        full = dei_extend(dei_extend(EMPTY_INDEX, inv("W", 9), 1), inv("W", 29), 1)
        other = dei_extend(EMPTY_INDEX, inv("W", 19), 1)
        assert not is_prefix(other, full)

    def test_reflexive(self):
        d = dei_extend(EMPTY_INDEX, inv("H", 9), 1)
        assert is_prefix(d, d)


class TestProject:
    def test_payload_mask_merges_concurrent_identifiers(self):
        hello = dei_extend(EMPTY_INDEX, inv("Hello", 7), 1)
        world = dei_extend(EMPTY_INDEX, inv("World", 7), 1)
        cfg = InstantiationConfig(include_payload=False)
        assert project(hello, cfg) == project(world, cfg)

    def test_all_true_is_identity(self):
        d = dei_extend(dei_extend(EMPTY_INDEX, inv("H", 9), 1), inv("H", 29), 2)
        assert project(d, FULL_CONFIG) == d

    def test_idempotent(self):
        d = dei_extend(dei_extend(EMPTY_INDEX, inv("H", 9), 1), inv("H", 29), 2)
        for label in ("no-count", "no-stack", "no-count-stack", "no-path-count-stack",
                      "3milebeach", "filibuster"):
            cfg = config_from_label(label)
            once = project(d, cfg)
            assert project(once, cfg) == once

    def test_path_mask_keeps_last_entry(self):
        d = dei_extend(dei_extend(EMPTY_INDEX, inv("H", 9), 1), inv("H", 29), 2)
        cfg = InstantiationConfig(include_path=False)
        projected = project(d, cfg)
        assert len(projected) == 1
        assert projected.last == d.last

    def test_count_mask(self):
        first = dei_extend(EMPTY_INDEX, inv("x", 8), 1)
        second = dei_extend(EMPTY_INDEX, inv("x", 8), 2)
        cfg = config_from_label("no-count")
        assert project(first, cfg) == project(second, cfg)


class TestProjectAssignment:
    def test_counts_recomputed_under_coarser_key(self):
        # Two concurrent RPCs distinct only by payload: the payload-excluded
        # scheme numbers them 1 and 2 in assignment order.
        hello = dei_extend(EMPTY_INDEX, inv("Hello", 7), 1)
        world = dei_extend(EMPTY_INDEX, inv("World", 7), 1)
        cfg = config_from_label("filibuster")
        projected = project_assignment([hello, world], cfg)
        counts = [d.last.count for d in projected]
        assert counts == [1, 2]
        assert projected[0].last.payload_digest == EMPTY_PAYLOAD.digest

    def test_orders_matter_not_values(self):
        hello = dei_extend(EMPTY_INDEX, inv("Hello", 7), 1)
        world = dei_extend(EMPTY_INDEX, inv("World", 7), 1)
        cfg = config_from_label("filibuster")
        a = project_assignment([hello, world], cfg)
        b = project_assignment([world, hello], cfg)
        assert [d.last.count for d in a] == [d.last.count for d in b] == [1, 2]


class TestEncodeDecode:
    def test_round_trip(self):
        d = dei_extend(dei_extend(EMPTY_INDEX, inv("H", 9), 1), inv("H", 29), 3)
        assert decode(encode(d)) == d

    def test_empty_token(self):
        assert encode(EMPTY_INDEX) == "[]"
        assert decode("[]") == EMPTY_INDEX

    def test_payload_changes_text(self):
        hello = dei_extend(EMPTY_INDEX, inv("Hello", 7), 1)
        world = dei_extend(EMPTY_INDEX, inv("World", 7), 1)
        assert encode(hello) != encode(world)

    def test_malformed_rejected(self):
        for text in ("", "[", "]", "[sig:zz|1]", "not-an-index", "[sig:00,pay:00,stk:00|1]"):
            with pytest.raises(DecodeError):
                decode(text)

    def test_zero_count_rejected(self):
        encoded = encode(dei_extend(EMPTY_INDEX, inv("H", 9), 1))
        with pytest.raises(DecodeError):
            decode(encoded.replace("|1]", "|0]"))

    def test_grammar_shape(self):
        d = dei_extend(EMPTY_INDEX, inv("H", 9), 2)
        text = encode(d)
        assert text.startswith("[sig:") and text.endswith("|2]")
        assert ",pay:" in text and ",stk:" in text
