"""Property suites: counter laws, prefix laws, projection laws, and the
wire-encoding round trip. Each suite runs at least a thousand generated cases
and is runnable standalone (pytest tests/test_properties.py)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from dexi.indexing import (
    CallStackDigest,
    CounterState,
    EMPTY_INDEX,
    FULL_CONFIG,
    InstantiationConfig,
    InvocationPayload,
    InvocationSignature,
    Signature,
    counter_next,
    decode,
    dei_extend,
    encode,
    is_prefix,
    project,
)

THOROUGH = settings(max_examples=1000, deadline=None)

PARAM_SETS = (
    (),
    (("s", "String"),),
    (("a", "Int"), ("b", "String")),
)

signatures = st.builds(
    Signature,
    st.sampled_from(["alpha", "beta", "gamma"]),
    st.sampled_from(["get", "echo", "list"]),
    st.sampled_from(PARAM_SETS),
)

scalar_values = st.one_of(
    st.text(max_size=6),
    st.integers(-999, 999),
    st.booleans(),
    st.none(),
    st.lists(st.text(max_size=3), max_size=3),
)


@st.composite
def payloads(draw, signature: Signature) -> InvocationPayload:
    args = {name: draw(scalar_values) for name, _ in signature.parameters}
    return InvocationPayload.from_mapping(signature, args)


frames = st.lists(
    st.tuples(
        st.builds(
            lambda svc, line: f"{svc}.py:{line}",
            st.sampled_from(["alpha", "beta"]),
            st.integers(1, 60),
        ),
        st.sampled_from(["handler", "helper", "retry"]),
    ),
    max_size=3,
).map(tuple)


@st.composite
def invocation_signatures(draw) -> InvocationSignature:
    sig = draw(signatures)
    return InvocationSignature(
        signature=sig,
        payload=draw(payloads(sig)),
        callstack=CallStackDigest(tuple(draw(frames))),
    )


@st.composite
def indexes(draw, min_depth: int = 0, max_depth: int = 4):
    depth = draw(st.integers(min_depth, max_depth))
    dei = EMPTY_INDEX
    for _ in range(depth):
        dei = dei_extend(dei, draw(invocation_signatures()), draw(st.integers(1, 4)))
    return dei


configs = st.builds(
    InstantiationConfig,
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)


class TestCounterLaws:
    @THOROUGH
    @given(inv=invocation_signatures(), path=indexes(), k=st.integers(1, 6))
    def test_same_key_counts_one_to_k(self, inv, path, k):
        state = CounterState()
        assert [counter_next(state, path, inv) for _ in range(k)] == list(range(1, k + 1))

    @THOROUGH
    @given(
        a=invocation_signatures(),
        b=invocation_signatures(),
        path_a=indexes(max_depth=2),
        path_b=indexes(max_depth=2),
    )
    def test_distinct_keys_never_share_a_counter(self, a, b, path_a, path_b):
        state = CounterState()
        counter_next(state, path_a, a)
        counter_next(state, path_a, a)
        if (path_b, b.digest_triple()) != (path_a, a.digest_triple()):
            assert counter_next(state, path_b, b) == 1
        else:
            assert counter_next(state, path_b, b) == 3


class TestPrefixLaws:
    @THOROUGH
    @given(dei=indexes())
    def test_reflexive(self, dei):
        assert is_prefix(dei, dei)

    @THOROUGH
    @given(
        base=indexes(max_depth=2),
        mid_ext=st.lists(st.tuples(invocation_signatures(), st.integers(1, 3)), max_size=2),
        top_ext=st.lists(st.tuples(invocation_signatures(), st.integers(1, 3)), max_size=2),
    )
    def test_transitive_along_extensions(self, base, mid_ext, top_ext):
        mid = base
        for inv, count in mid_ext:
            mid = dei_extend(mid, inv, count)
        top = mid
        for inv, count in top_ext:
            top = dei_extend(top, inv, count)
        assert is_prefix(base, mid) and is_prefix(mid, top)
        assert is_prefix(base, top)

    @THOROUGH
    @given(path=indexes(), inv=invocation_signatures(), count=st.integers(1, 4))
    def test_extension_keeps_path_as_prefix(self, path, inv, count):
        extended = dei_extend(path, inv, count)
        assert is_prefix(path, extended)
        assert extended.prefix() == path

    @THOROUGH
    @given(a=indexes(), b=indexes())
    def test_prefix_agrees_with_encoding(self, a, b):
        # Independent formulation: a is a prefix of b exactly when b's
        # encoded text continues a's entry list.
        body_a, body_b = encode(a)[1:-1], encode(b)[1:-1]
        textual = body_b == body_a or (
            body_b.startswith(body_a) and (body_a == "" or body_b[len(body_a):].startswith("::"))
        )
        assert is_prefix(a, b) == textual


class TestProjectionLaws:
    @THOROUGH
    @given(dei=indexes(), config=configs)
    def test_idempotent(self, dei, config):
        once = project(dei, config)
        assert project(once, config) == once

    @THOROUGH
    @given(dei=indexes())
    def test_full_config_is_identity(self, dei):
        assert project(dei, FULL_CONFIG) == dei

    @THOROUGH
    @given(a=indexes(), b=indexes(), config=configs)
    def test_merges_never_splits(self, a, b, config):
        if a == b:
            assert project(a, config) == project(b, config)
        if project(a, config) != project(b, config):
            assert a != b

    @THOROUGH
    @given(dei=indexes(min_depth=1), config=configs)
    def test_masked_components_are_uniform(self, dei, config):
        projected = project(dei, config)
        if not config.include_path:
            assert len(projected) == 1
        for entry in projected.entries:
            if not config.include_count:
                assert entry.count == 1
            if not config.include_payload:
                assert entry.payload_digest == InvocationPayload().digest


class TestEncodeDecodeLaws:
    @THOROUGH
    @given(dei=indexes())
    def test_round_trip_identity(self, dei):
        assert decode(encode(dei)) == dei

    @THOROUGH
    @given(a=indexes(), b=indexes())
    def test_canonical_equality(self, a, b):
        assert (encode(a) == encode(b)) == (a == b)

    @THOROUGH
    @given(
        sig=signatures,
        stack=frames,
        values=st.tuples(scalar_values, scalar_values),
        count=st.integers(1, 4),
    )
    def test_payload_difference_changes_text(self, sig, stack, values, count):
        if not sig.parameters:
            return
        first, second = values
        if first == second:
            return
        name = sig.parameters[0][0]
        digest = CallStackDigest(tuple(stack))

        def build(value):
            args = {n: value for n, _ in sig.parameters}
            inv = InvocationSignature(
                signature=sig,
                payload=InvocationPayload.from_mapping(sig, args),
                callstack=digest,
            )
            return dei_extend(EMPTY_INDEX, inv, count)

        assert encode(build(first)) != encode(build(second))
