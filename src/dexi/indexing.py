"""Identifier types and operations for distributed execution indexing.

An RPC is identified by an invocation signature (static signature, argument
payload, call-stack digest) plus an invocation count that is relative to the
inter-service path that led to the RPC. The resulting index establishes a
correspondence between the same dynamic RPC across repeated executions of a
test, which is what makes systematic request-level fault injection possible.

Identity is digest-based: the wire encoding carries fixed-width hashes of the
payload and call stack rather than raw values, so header sizes stay bounded.
Full values are kept alongside the digests (as non-comparing detail) so traces
can be reported symbolically.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterable, Mapping

DIGEST_BYTES = 8
DIGEST_HEX_LEN = DIGEST_BYTES * 2

# Metadata keys used when an index travels with an RPC.
INDEX_METADATA_KEY = "x-dexi-index"
PRELIMINARY_METADATA_KEY = "x-dexi-preliminary"


class DexiError(Exception):
    """Base class for all errors raised by this package."""


# The default of a map field: one shared map, which no record can change.
EMPTY_MAP: Mapping[Any, Any] = MappingProxyType({})

_NO_DEFAULT = object()


class Record:
    """A frozen value, equal to (and hashing as) another of its class with
    equal fields. Its fields are its base's, then its own annotated names in
    order, and its `__dict__` holds them and nothing else; a class attribute
    is a field's default, shared by every record that takes it. A frozen
    `@dataclass` compiles its methods for each class on import (about 0.6 ms
    a class); a record compiles none, but builds more slowly. Load-time values
    and `FaultSpec` are records, per-execution and per-plan values named
    tuples or plain classes, and only the index types are dataclasses."""

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls.__match_args__ += tuple(name for name in own if name not in cls.__match_args__)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        cls, names, fields = type(self), self.__match_args__, self.__dict__
        fields.update(zip(names, args))
        for name in names[len(args):]:
            value = kwargs.pop(name, getattr(cls, name, _NO_DEFAULT))
            if value is _NO_DEFAULT:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
            fields[name] = value
        if len(args) > len(names) or kwargs:
            raise TypeError(f"{cls.__name__}() takes the fields {names}; got {len(args)} "
                            f"positional and the unknown or repeated {sorted(kwargs)}")

    def _frozen(self, name: str, *value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((self.__class__, *self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


class CanonicalizationError(DexiError):
    """A payload value has no canonical byte form."""


class ArityMismatchError(DexiError):
    """Payload arguments do not line up with the signature's parameters."""


class InvalidCountError(DexiError):
    """An invocation count below 1 was supplied."""


class DecodeError(DexiError):
    """Wire text is not a valid encoded index."""


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=DIGEST_BYTES).hexdigest()


# One encoder for every call: `json.dumps` with these options builds one per
# call, and canonical bytes are taken for every RPC argument.
_CANONICAL_JSON = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
)


def canonical_bytes(value: Any) -> bytes:
    """Serialize a JSON-like value to its canonical byte form.

    Canonicalization is total over JSON values: map keys are sorted,
    separators are fixed, and numbers use their shortest round-trip form,
    so equal logical values always produce identical bytes.
    """
    try:
        text = _CANONICAL_JSON.encode(value)
    except (TypeError, ValueError) as exc:
        raise CanonicalizationError(f"value has no canonical form: {value!r}") from exc
    return text.encode("utf-8")


@dataclass(frozen=True)
class Signature:
    """Static identity of an RPC target: module, method, and parameter list.

    Parameter order is significant; two signatures are equal only when all
    three components match exactly. The digest is computed once, on
    construction, as are those of payloads and call stacks.
    """

    module_name: str
    method_name: str
    parameters: tuple[tuple[str, str], ...] = ()
    digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.module_name or not self.method_name:
            raise DexiError("signature requires a module name and a method name")
        params = tuple((str(n), str(t)) for n, t in self.parameters)
        object.__setattr__(self, "parameters", params)
        object.__setattr__(self, "digest", _digest(
            canonical_bytes([self.module_name, self.method_name, list(params)])
        ))

    def render(self) -> str:
        params = ",".join(f"{n}:{t}" for n, t in self.parameters)
        return f"{self.module_name}.{self.method_name}({params})"


@dataclass(frozen=True)
class InvocationPayload:
    """Ordered argument name/value pairs of one RPC invocation.

    Values are stored in canonical byte form; the original values are kept
    for reporting but do not take part in equality.
    """

    arguments: tuple[tuple[str, bytes], ...] = ()
    values: tuple[Any, ...] = field(default=(), compare=False)
    digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "digest", _digest(
            b"\x1f".join(name.encode() + b"\x1e" + blob for name, blob in self.arguments)
        ))

    @classmethod
    def from_mapping(cls, signature: Signature, args: Mapping[str, Any]) -> InvocationPayload:
        """Build a payload ordered by the signature's parameter declaration."""
        names = [name for name, _ in signature.parameters]
        if set(args) != set(names):
            raise ArityMismatchError(
                f"arguments {sorted(args)} do not match parameters {names} "
                f"of {signature.render()}"
            )
        pairs = tuple((name, canonical_bytes(args[name])) for name in names)
        return cls(arguments=pairs, values=tuple(args[name] for name in names))

    def render(self) -> str:
        if not self.arguments:
            return "null"
        return ",".join(
            f"({name},{blob.decode('utf-8', 'replace')})" for name, blob in self.arguments
        )


EMPTY_PAYLOAD = InvocationPayload()


@dataclass(frozen=True)
class CallStackDigest:
    """Call-stack frames plus their fixed-width digest."""

    frames: tuple[tuple[str, str], ...] = ()
    digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "digest", _digest(canonical_bytes(list(self.frames))))

    def render(self) -> str:
        return ",".join(loc.rsplit(":", 1)[-1] for loc, _ in self.frames)


EMPTY_STACK = CallStackDigest()


@dataclass(frozen=True)
class InvocationSignature:
    """Dynamic identity of an RPC invocation: signature, payload, call stack.
    Its digest triple, a key of counts and indexes, is built once."""

    signature: Signature
    payload: InvocationPayload
    callstack: CallStackDigest
    _digests: tuple[str, str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_digests", (
            self.signature.digest, self.payload.digest, self.callstack.digest))

    def digest_triple(self) -> tuple[str, str, str]:
        return self._digests

    def render(self) -> str:
        return f"{self.signature.render()}({self.payload.render()})^{{{self.callstack.render()}}}"


def make_invocation_signature(
    sig: Signature, payload: InvocationPayload, stack: CallStackDigest
) -> InvocationSignature:
    """Combine the three identity components, checking payload arity."""
    if len(payload.arguments) != len(sig.parameters):
        raise ArityMismatchError(
            f"payload has {len(payload.arguments)} arguments but {sig.render()} "
            f"declares {len(sig.parameters)} parameters"
        )
    for (arg_name, _), (param_name, _) in zip(payload.arguments, sig.parameters):
        if arg_name != param_name:
            raise ArityMismatchError(
                f"payload argument {arg_name!r} does not match parameter {param_name!r}"
            )
    return InvocationSignature(signature=sig, payload=payload, callstack=stack)


@dataclass(frozen=True, slots=True)
class IndexEntry:
    """One counted invocation-signature step of an index.

    Equality and hashing use the digests and the count only; the rich
    invocation signature (when locally known) and the preliminary marker are
    carried as non-comparing detail so that wire-decoded entries compare equal
    to the locally created ones. The hash is computed once, on construction.
    """

    signature_digest: str
    payload_digest: str
    callstack_digest: str
    count: int
    detail: InvocationSignature | None = field(default=None, compare=False)
    preliminary: bool = field(default=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.count < 1:
            raise InvalidCountError(f"invocation count must be >= 1, got {self.count}")
        object.__setattr__(self, "_hash", hash((self.signature_digest, self.payload_digest,
                                                self.callstack_digest, self.count)))

    def __hash__(self) -> int:
        return self._hash

    def render(self) -> str:
        if self.detail is not None:
            return f"{self.detail.render()}|{self.count}"
        return f"sig:{self.signature_digest}|{self.count}"


@dataclass(frozen=True, slots=True)
class DistributedExecutionIndex:
    """Sequence of counted invocation signatures identifying one dynamic RPC.

    The empty sequence denotes the top-level entry point; every prefix of a
    valid index is itself a valid index. An index is its own key: equality
    and hashing compare the entries' digests and counts only, and the hash is
    computed once, on construction, as is whether an entry is preliminary.
    `encode` keeps the wire text in `_wire` on first use, and `prefix` its
    result in `_prefix`; every copy is a new object and computes its own.
    """

    entries: tuple[IndexEntry, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)
    _preliminary: bool = field(init=False, repr=False, compare=False)
    _wire: str | None = field(default=None, init=False, repr=False, compare=False)
    _prefix: DistributedExecutionIndex | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.entries))
        object.__setattr__(self, "_preliminary", any(e.preliminary for e in self.entries))

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def last(self) -> IndexEntry:
        if not self.entries:
            raise DexiError("empty index has no last entry")
        return self.entries[-1]

    def prefix(self) -> DistributedExecutionIndex:
        """The index of the enclosing RPC (empty index for top-level RPCs)."""
        prefix = self._prefix
        if prefix is None:
            if not self.entries:
                raise DexiError("empty index has no enclosing prefix")
            prefix = DistributedExecutionIndex(self.entries[:-1])
            object.__setattr__(self, "_prefix", prefix)
        return prefix

    def has_preliminary(self) -> bool:
        return self._preliminary

    def render(self) -> str:
        return "[" + " :: ".join(e.render() for e in self.entries) + "]"


EMPTY_INDEX = DistributedExecutionIndex()


class InstantiationConfig(Record):
    """Which identifier components a particular instantiation keeps.

    The all-true configuration is the full index. Masking the payload and the
    call stack while keeping counts and accumulated paths mirrors
    3MileBeach-style identifiers; masking only the payload mirrors
    Filibuster-style identifiers.
    """

    include_payload: bool = True
    include_callstack: bool = True
    include_count: bool = True
    include_path: bool = True

    @property
    def is_full(self) -> bool:
        return (
            self.include_payload
            and self.include_callstack
            and self.include_count
            and self.include_path
        )


FULL_CONFIG = InstantiationConfig()

CONFIG_LABELS: dict[str, InstantiationConfig] = {
    "full": FULL_CONFIG,
    "no-count": InstantiationConfig(include_count=False),
    "no-stack": InstantiationConfig(include_callstack=False),
    "no-count-stack": InstantiationConfig(include_count=False, include_callstack=False),
    "no-path-count-stack": InstantiationConfig(
        include_path=False, include_count=False, include_callstack=False
    ),
    "3milebeach": InstantiationConfig(include_payload=False, include_callstack=False),
    "filibuster": InstantiationConfig(include_payload=False),
}


def config_from_label(label: str) -> InstantiationConfig:
    try:
        return CONFIG_LABELS[label]
    except KeyError:
        raise DexiError(
            f"unknown instantiation config {label!r}; known: {sorted(CONFIG_LABELS)}"
        ) from None


class CounterState:
    """Per-execution invocation counters, keyed by (path, invocation signature).

    Counts are path-relative: the same invocation signature reached through
    different inter-service paths counts independently. The read-modify-write
    is indivisible under concurrent callers; the state is shared by reference
    across every task of one execution and must be discarded afterwards.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[tuple, int] = {}
        self._claimants: dict[tuple, tuple[int, ...]] = {}

    def claim(
        self,
        path: DistributedExecutionIndex,
        inv_sig: InvocationSignature,
        lineage: tuple[int, ...] | None = None,
    ) -> tuple[int, bool]:
        """Return the next count for the key and whether the claim raced.

        A claim races when the previous claim on the same key came from a
        task that is neither an ancestor nor a descendant of the claimant:
        such counts disambiguate within this execution but may permute across
        executions.
        """
        key = (path, inv_sig.digest_triple())
        with self._lock:
            count = self._counts.get(key, 0) + 1
            self._counts[key] = count
            concurrent = False
            if lineage is not None:
                previous = self._claimants.get(key)
                if previous is not None and not related(previous, lineage):
                    concurrent = True
                self._claimants[key] = lineage
        return count, concurrent


def related(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True iff one task lineage is a prefix of the other."""
    shorter = min(len(a), len(b))
    return a[:shorter] == b[:shorter]


def counter_next(
    state: CounterState, path: DistributedExecutionIndex, inv_sig: InvocationSignature
) -> int:
    """Return the current count for (path, invocation signature) and advance it."""
    count, _ = state.claim(path, inv_sig)
    return count


def dei_extend(
    path: DistributedExecutionIndex, inv_sig: InvocationSignature, count: int
) -> DistributedExecutionIndex:
    """Append one counted invocation signature to a path; the path is unchanged."""
    sig_d, pay_d, stk_d = inv_sig.digest_triple()
    entry = IndexEntry(
        signature_digest=sig_d,
        payload_digest=pay_d,
        callstack_digest=stk_d,
        count=count,
        detail=inv_sig,
    )
    return DistributedExecutionIndex(path.entries + (entry,))


def is_prefix(candidate: DistributedExecutionIndex, full: DistributedExecutionIndex) -> bool:
    """True iff candidate equals the leading entries of full, component-wise."""
    if len(candidate) > len(full):
        return False
    return candidate.entries == full.entries[: len(candidate)]


def mask_invocation_signature(
    inv_sig: InvocationSignature, config: InstantiationConfig
) -> InvocationSignature:
    """Replace masked components with their empty forms."""
    if config.include_payload and config.include_callstack:
        return inv_sig
    return InvocationSignature(
        signature=inv_sig.signature,
        payload=inv_sig.payload if config.include_payload else EMPTY_PAYLOAD,
        callstack=inv_sig.callstack if config.include_callstack else EMPTY_STACK,
    )


def _project_entry(entry: IndexEntry, config: InstantiationConfig) -> IndexEntry:
    detail = entry.detail
    if detail is not None:
        detail = mask_invocation_signature(detail, config)
    return IndexEntry(
        signature_digest=entry.signature_digest,
        payload_digest=entry.payload_digest if config.include_payload else EMPTY_PAYLOAD.digest,
        callstack_digest=(
            entry.callstack_digest if config.include_callstack else EMPTY_STACK.digest
        ),
        count=entry.count if config.include_count else 1,
        detail=detail,
        preliminary=entry.preliminary,
    )


def project(
    dei: DistributedExecutionIndex, config: InstantiationConfig
) -> DistributedExecutionIndex:
    """Project a full index onto a coarser instantiation.

    Masked payloads and stacks become their empty forms, masked counts become
    the constant 1, and masking the path keeps only the final entry. Stored
    counts are otherwise preserved: a single index carries no information
    about how a coarser scheme would have numbered its siblings (see
    `project_assignment` for the trace-order recomputation). Projection only
    merges identifiers, never splits them, and is idempotent.
    """
    if config.is_full:
        return dei  # nothing is masked
    entries = dei.entries if config.include_path else dei.entries[-1:]
    return DistributedExecutionIndex(tuple(_project_entry(e, config) for e in entries))


def project_assignment(
    deis: Iterable[DistributedExecutionIndex], config: InstantiationConfig
) -> list[DistributedExecutionIndex]:
    """Project a trace's indexes in assignment order, renumbering counts.

    Given the full indexes of one execution in the order they were assigned,
    reproduces what a live run under the coarser instantiation would have
    assigned: counts are recomputed under the coarser (path, invocation
    signature) key. Requires that every strict prefix of an observed index was
    observed earlier, which holds for assignment-ordered traces.
    """
    state = CounterState()
    mapped = {EMPTY_INDEX: EMPTY_INDEX}
    out: list[DistributedExecutionIndex] = []
    for dei in deis:
        if not dei:
            out.append(dei)
            continue
        try:
            base = mapped[dei.prefix()]
        except KeyError:
            raise DexiError(
                f"prefix of {dei.render()} was not observed before it; "
                "input must be in assignment order"
            ) from None
        if not config.include_path:
            base = EMPTY_INDEX
        entry = _project_entry(dei.last, config)
        if entry.detail is None:
            raise DexiError("projection with count recomputation needs rich entries")
        if config.include_count:
            count = counter_next(state, base, entry.detail)
        else:
            count = 1
        projected = dei_extend(base, entry.detail, count)
        mapped[dei] = projected
        out.append(projected)
    return out


_ENTRY_RE = re.compile(
    rf"^sig:([0-9a-f]{{{DIGEST_HEX_LEN}}}),pay:([0-9a-f]{{{DIGEST_HEX_LEN}}}),"
    rf"stk:([0-9a-f]{{{DIGEST_HEX_LEN}}})\|([0-9]+)$"
)


def encode(dei: DistributedExecutionIndex) -> str:
    """Render an index in its canonical wire form.

    Grammar: `[` entry (`::` entry)* `]` with
    entry = `sig:<hex>,pay:<hex>,stk:<hex>|<count>`. Equal indexes always
    encode to identical text, which is computed once per index object.
    """
    wire = dei._wire
    if wire is None:
        body = "::".join(
            f"sig:{e.signature_digest},pay:{e.payload_digest},stk:{e.callstack_digest}|{e.count}"
            for e in dei.entries
        )
        wire = f"[{body}]"
        object.__setattr__(dei, "_wire", wire)
    return wire


def decode(text: str, details: Mapping | None = None) -> DistributedExecutionIndex:
    """Parse the canonical wire form produced by `encode`. `details` maps a
    digest triple back to its invocation signature, for reporting."""
    if not isinstance(text, str) or len(text) < 2 or text[0] != "[" or text[-1] != "]":
        raise DecodeError(f"not an encoded index: {text!r}")
    body = text[1:-1]
    if not body:
        return EMPTY_INDEX
    entries = []
    for part in body.split("::"):
        match = _ENTRY_RE.match(part)
        if match is None:
            raise DecodeError(f"malformed index entry: {part!r}")
        sig_d, pay_d, stk_d, count = match.groups()
        if int(count) < 1:
            raise DecodeError(f"invocation count must be >= 1 in {part!r}")
        entries.append(
            IndexEntry(
                signature_digest=sig_d,
                payload_digest=pay_d,
                callstack_digest=stk_d,
                count=int(count),
                detail=details.get((sig_d, pay_d, stk_d)) if details else None,
            )
        )
    return DistributedExecutionIndex(tuple(entries))
