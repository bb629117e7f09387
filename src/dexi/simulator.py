"""In-process microservice fabric with execution-index assignment.

Runs declarative applications on a synthetic RPC layer: every invocation gets
a distributed execution index (under the active instantiation), the index
travels with the request as encoded metadata, faults from a plan are raised at
the caller's call site, and stream messages travel with preliminary indexes
that are resolved to their final form as each RPC is recorded.

Two scheduling modes are provided. The virtual scheduler runs concurrent
blocks in a seeded order, giving reproducible traces; the thread scheduler
runs them on a bounded worker pool with jittered dispatch, reproducing the
genuine scheduling nondeterminism that index assignment must survive.
"""

from __future__ import annotations

import copy
import functools
import json
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from . import indexing
from .indexing import (
    INDEX_METADATA_KEY,
    PRELIMINARY_METADATA_KEY,
    CallStackDigest,
    CanonicalizationError,
    CounterState,
    DexiError,
    DistributedExecutionIndex,
    EMPTY_INDEX,
    EMPTY_PAYLOAD,
    FULL_CONFIG,
    InstantiationConfig,
    InvocationPayload,
    InvocationSignature,
    Record,
    dei_extend,
    mask_invocation_signature,
)
from .programs import (
    Application,
    Append,
    Assign,
    AwaitAll,
    Break,
    CallHelper,
    CloseStream,
    Concat,
    Const,
    DocumentError,
    EntryRequest,
    Eq,
    Expr,
    First,
    If,
    IsSet,
    Join,
    ListExpr,
    Loop,
    Not,
    OpenStream,
    ProgramError,
    Raise,
    Return,
    Rpc,
    ServiceProgram,
    Spawn,
    Stmt,
    StreamSend,
    Try,
    Var,
    iter_statements,
    read_field,
)

DEFAULT_STEP_BUDGET = 200_000

# Deepest index an RPC may get: bounds nested (and self-) RPC chains well
# before the interpreter's own recursion limit.
MAX_INDEX_DEPTH = 32

CONNECTION_ERROR = "connection-error"


class StepBudgetExceededError(DexiError):
    """The execution ran past its statement budget (runaway-loop guard)."""


class MalformedPlanError(DexiError):
    """A fault plan key does not belong to the active instantiation."""


class StreamStateError(DexiError):
    """A stream was used after close or finalized with sends in flight."""


class MetadataError(DexiError):
    """Incoming RPC metadata could not be decoded."""


class FaultSpec(Record):
    """A fault to inject: a raised error, or a shaped response value."""

    fault_type: str = CONNECTION_ERROR
    mode: str = "exception"  # "exception" | "response"
    response: Any = None

    def descriptor(self) -> dict[str, Any]:
        if self.mode == "response":
            return {"fault": self.fault_type, "response": self.response}
        return {"fault": self.fault_type}


def fault_point(dei: DistributedExecutionIndex, spec: FaultSpec) -> tuple:
    """The key of one planned fault, the one rule for plan keys, completeness
    points and subtree replay. A response fault's key holds its response's
    canonical bytes, so two responses of one fault type stay apart."""
    if spec.mode == "response":
        return (dei, spec.fault_type, spec.mode, indexing.canonical_bytes(spec.response))
    return (dei, spec.fault_type, spec.mode)


class FaultPlan:
    """The set of (index -> fault) injections applied during one execution.

    A plain value: `run_execution` checks its keys against the instantiation
    the execution runs under. `_key` is private to `explore`, which passes
    the key that `extended_key` already gave the injections.
    """

    def __init__(
        self, injections: Mapping[DistributedExecutionIndex, FaultSpec] | None = None,
        *, _key: frozenset | None = None,
    ) -> None:
        self._faults = dict(injections or {})
        self._key = (frozenset(fault_point(dei, spec) for dei, spec in self._faults.items())
                     if _key is None else _key)

    def __len__(self) -> int:
        return len(self._faults)

    def __contains__(self, dei: DistributedExecutionIndex) -> bool:
        return dei in self._faults

    def match(self, dei: DistributedExecutionIndex) -> FaultSpec | None:
        return self._faults.get(dei)

    def items(self) -> list[tuple[DistributedExecutionIndex, FaultSpec]]:
        return list(self._faults.items())

    def key(self) -> frozenset:
        """Value identity of the plan, for deduplication across executions."""
        return self._key

    def extended_key(self, dei: DistributedExecutionIndex, spec: FaultSpec) -> frozenset:
        """The key of this plan with `dei -> spec` added, without building it."""
        return self._key | {fault_point(dei, spec)}

    def below(self, dei: DistributedExecutionIndex) -> frozenset:
        """The points of the key strictly below `dei`: the faults that can
        fire in the subtree of the RPC at `dei`."""
        if not self._key:
            return self._key
        n, entries = len(dei), dei.entries
        return frozenset([point for point in self._key
                          if len(point[0]) > n and point[0].entries[:n] == entries])


EMPTY_PLAN = FaultPlan()


class RpcEvent(NamedTuple):
    """One recorded step of an execution, an immutable record.

    An event's sequence number is its position in the trace. `lineage` is
    the task path of the recording task (empty for the root); two events
    are causally ordered only when one lineage prefixes the other. A tuple,
    because a search report keeps every event of every execution and an
    execution records one or two per RPC: it is built in one step, where a
    frozen dataclass sets each field apart. The executions of one
    exploration share equal events (`IdentityTable.events`), `payload` and
    `outcome` included, so an event must not be mutated.
    """

    kind: str  # invocation | fault_injected | completion | stream_opened | index_rewritten
    caller: str
    callee: str
    method: str
    dei: DistributedExecutionIndex | None = None
    preliminary_dei: DistributedExecutionIndex | None = None
    payload: tuple[tuple[str, Any], ...] | None = None
    outcome: dict[str, Any] | None = None
    lineage: tuple[int, ...] = ()

    def to_json(self, seq: int) -> dict[str, Any]:
        """The event's trace record, at position `seq` of its trace."""
        doc: dict[str, Any] = {
            "kind": self.kind,
            "seq": seq,
            "caller": self.caller,
            "callee": self.callee,
            "method": self.method,
            "task": list(self.lineage),
        }
        if self.dei is not None:
            doc["dei"] = indexing.encode(self.dei)
        if self.preliminary_dei is not None:
            doc["preliminary_dei"] = indexing.encode(self.preliminary_dei)
        if self.payload is not None:
            doc["payload"] = {name: value for name, value in self.payload}
        if self.outcome is not None:
            doc["outcome"] = self.outcome
        return doc

    @classmethod
    def from_json(
        cls, doc: Mapping[str, Any], decoded: dict[str, DistributedExecutionIndex],
        position: int,
    ) -> RpcEvent:
        """Rebuild the event at `position` of its trace from its `to_json`
        record. `decoded` maps wire text to the index it was decoded to, and
        gains new ones. `seq` must be `position`, and is dropped: an event's
        position is its sequence number."""
        payload = read_field(doc, "payload", dict, "", None)
        task = read_field(doc, "task", list, "", [])
        seq = read_field(doc, "seq", int)
        if seq != position:
            raise DocumentError(f"seq: expected {position}, the event's position, got {seq}")
        kind = read_field(doc, "kind", str)
        if kind not in _INDEXES_OF_KIND:
            raise DocumentError(f"kind: unknown event kind {kind!r}")
        event = cls(
            kind=kind,
            dei=_decode(doc, "dei", decoded),
            preliminary_dei=_decode(doc, "preliminary_dei", decoded),
            caller=read_field(doc, "caller", str),
            callee=read_field(doc, "callee", str),
            method=read_field(doc, "method", str),
            payload=None if payload is None else tuple(payload.items()),
            outcome=read_field(doc, "outcome", dict, "", None),
            lineage=tuple(read_field(task, i, int, "task") for i in range(len(task))),
        )
        for key in _INDEXES_OF_KIND[kind]:
            if getattr(event, key) is None:
                raise DocumentError(f"{key}: missing")
        return event


# The indexes the record of each kind of event must hold.
_INDEXES_OF_KIND = {"invocation": ("dei",), "fault_injected": ("dei",), "completion": ("dei",),
                    "stream_opened": ("preliminary_dei",),
                    "index_rewritten": ("dei", "preliminary_dei")}


def _decode(doc: Mapping[str, Any], key: str,
            decoded: dict[str, DistributedExecutionIndex]) -> DistributedExecutionIndex | None:
    """The index a trace record holds under `key`, or None when it has none."""
    text = read_field(doc, key, str, "", None)
    if text is None:
        return None
    dei = decoded.get(text)
    if dei is None:
        try:
            dei = decoded[text] = indexing.decode(text)
        except indexing.DecodeError as exc:
            raise DocumentError(f"{key}: {exc}") from None
    if not dei.entries:
        raise DocumentError(f"{key}: empty index; every RPC's index has an entry")
    return dei


def _record_key(seq: int, event: RpcEvent) -> tuple | None:
    """The key `to_json_lines` keeps the line of `event` at `seq` under, or None.

    Equal keys must mean equal lines. Python equates `1`, `1.0` and `True`,
    and `0.0` and `-0.0`, where JSON writes each differently; so an event is
    keyed only when its text fields and every `payload` and `outcome` name
    and value are `str`, and its task is `int`. Equal indexes always encode
    to the same wire text.
    """
    kind, caller, callee, method, dei, preliminary, payload, outcome, lineage = event
    if outcome is None:
        items = None
    elif type(outcome) is dict:
        items = tuple(outcome.items())
    else:
        return None
    if (type(kind) is not str or type(caller) is not str
            or type(callee) is not str or type(method) is not str):
        return None
    for task in lineage:
        if type(task) is not int:
            return None
    for pairs in (payload, items):
        for name, value in pairs or ():
            if type(name) is not str or type(value) is not str:
                return None
    return (kind, seq, caller, callee, method, dei, preliminary, payload, items, lineage)


# One encoder for every trace line; `json.dumps` would build one per call.
_TRACE_JSON = json.JSONEncoder(sort_keys=True)


class ExecutionTrace(NamedTuple):
    """Finalized record of one test execution; `_replace` copies it."""

    events: tuple[RpcEvent, ...]
    entry_request: EntryRequest
    entry_outcome: dict[str, Any]
    seed: int
    scheduler_mode: str
    config: InstantiationConfig
    warnings: tuple[str, ...] = ()

    def invocation_events(self) -> list[RpcEvent]:
        return [e for e in self.events if e.kind == "invocation"]

    def invocation_deis(self) -> list[DistributedExecutionIndex]:
        return [e.dei for e in self.invocation_events()]

    def dei_multiset(self) -> tuple[str, ...]:
        return tuple(sorted(indexing.encode(d) for d in self.invocation_deis()))

    def to_json_lines(self, encoded: dict[tuple, str] | None = None) -> list[str]:
        """The trace as JSON Lines: the header, then one line per event.

        `encoded` maps an event's record key to its line, and gains new ones;
        pass one dict to traces written together so that each distinct record
        is encoded once. An event `_record_key` cannot key safely is encoded
        afresh.
        """
        encoded = {} if encoded is None else encoded
        header = {
            "kind": "trace_header",
            "entry": {
                "service": self.entry_request.service,
                "method": self.entry_request.method,
                "args": dict(self.entry_request.args),
            },
            "entry_outcome": self.entry_outcome,
            "seed": self.seed,
            "scheduler": self.scheduler_mode,
            "config": vars(self.config),
            "warnings": list(self.warnings),
        }
        encode = _TRACE_JSON.encode
        lines = [encode(header)]
        for seq, event in enumerate(self.events):
            key = _record_key(seq, event)
            if key is None:
                lines.append(encode(event.to_json(seq)))
                continue
            line = encoded.get(key)
            if line is None:
                line = encoded[key] = encode(event.to_json(seq))
            lines.append(line)
        return lines

    @classmethod
    def from_json_lines(
        cls,
        lines: Iterable[str],
        decoded: dict[str, DistributedExecutionIndex] | None = None,
        records: dict[str, tuple[int, RpcEvent]] | None = None,
        headers: dict[str, dict[str, Any]] | None = None,
    ) -> ExecutionTrace:
        """Rebuild a trace from the lines `to_json_lines` wrote: a header, on
        the first line that is not blank, then events. A header without
        `config` loads as the full instantiation. Malformed input raises
        `DexiError` naming the offending line. `decoded` maps an index's wire
        text to its index, `records` an event line to its position and event,
        and `headers` a header line to its trace fields; all gain new entries.
        Pass the same dicts to traces loaded together: a line repeated at its
        position then reuses what it built, unparsed (at another position its
        `seq` is wrong, which parsing it reports), and each wire text becomes
        one index object, which the lookups of `reconstruct_graph` then match
        by identity instead of by `__eq__`: that, not decode time, is what
        `decoded` saves (README, "Trace files"). Only lines that parsed are
        kept, so a malformed line fails in every trace that holds it. Traces
        loaded so share their events and header fields (`payload`, `outcome`,
        `entry.args`, `entry_outcome`): do not mutate them.
        """
        decoded = {} if decoded is None else decoded
        records = {} if records is None else records
        headers = {} if headers is None else headers
        header: dict[str, Any] | None = None
        events = []
        for number, line in enumerate(lines, 1):
            if header is None:
                header = headers.get(line)
                if header is not None:
                    continue
            else:
                known = records.get(line)
                if known is not None and known[0] == len(events):
                    events.append(known[1])
                    continue
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise DexiError(f"line {number}: {exc}") from None
            try:
                if not isinstance(doc, dict):
                    raise DexiError("record is not a JSON object")
                if (doc.get("kind") == "trace_header") != (header is None):
                    raise DocumentError('kind: a trace has one "trace_header" record, '
                                        "on its first line")
                if header is None:
                    header = headers[line] = _header(doc)
                else:
                    event = RpcEvent.from_json(doc, decoded, len(events))
                    records[line] = (len(events), event)
                    events.append(event)
            except DexiError as exc:
                raise DexiError(f"line {number}: {exc}") from None
        if header is None:
            raise DexiError("trace has no header record")
        return cls(events=tuple(events), **header)


def _header(doc: Mapping[str, Any]) -> dict[str, Any]:
    """The `ExecutionTrace` fields a trace file's header record holds."""
    entry = read_field(doc, "entry", dict)
    config = read_field(doc, "config", dict, "", {})
    unknown = config.keys() - vars(FULL_CONFIG).keys()
    if unknown:
        raise DocumentError(f"config.{min(unknown)}: not an instantiation field")
    warnings = read_field(doc, "warnings", list, "", [])
    return {
        "entry_request": EntryRequest(read_field(entry, "service", str, "entry"),
                                      read_field(entry, "method", str, "entry"),
                                      read_field(entry, "args", dict, "entry")),
        "entry_outcome": read_field(doc, "entry_outcome", dict, "", {}),
        "seed": read_field(doc, "seed", int, "", 0),
        "scheduler_mode": read_field(doc, "scheduler", str, "", "virtual"),
        "config": InstantiationConfig(
            **{key: read_field(config, key, bool, "config") for key in config}),
        "warnings": tuple(read_field(warnings, i, str, "warnings") for i in range(len(warnings))),
    }


# ---------------------------------------------------------------------------
# Control-flow signals raised inside interpreted programs


class RpcFailure(Exception):
    """An RPC failed at the call site; catchable by the program's try/catch."""

    def __init__(self, descriptor: dict[str, Any]) -> None:
        super().__init__(descriptor)
        self.descriptor = descriptor


class HandlerAbort(Exception):
    """A handler gave up (explicit raise statement)."""

    def __init__(self, fault_type: str) -> None:
        super().__init__(fault_type)
        self.descriptor = {"fault": fault_type}


# ---------------------------------------------------------------------------
# Schedulers


_AWAIT_CYCLE = "await cycle: a spawned block awaits a block that is waiting for it"


class _TaskHandle:
    """A spawned block. It runs once, when it is first awaited; a block that
    is never awaited never runs."""

    def __init__(self, runner: Callable[[], Any]) -> None:
        self.runner = runner
        self.owner: int | None = None  # the thread that claimed it, under threads
        self.done = False
        self.value: Any = None
        self.error: Exception | None = None

    def finish(self) -> None:
        # Drop the runner first: its closure reaches this handle through
        # the spawning scope, and the cycle would outlive the execution.
        runner, self.runner = self.runner, None
        if runner is None:
            if not self.done:  # awaited from inside its own run
                raise DexiError(_AWAIT_CYCLE)
            return
        try:
            self.value = runner()
        except Exception as exc:  # surfaced at await_all, in creation order
            # Its traceback reaches this handle through the frames.
            self.error = exc.with_traceback(None)
        self.done = True


class VirtualScheduler:
    """Seeded cooperative scheduler: awaited blocks run in shuffled order.
    `draws` counts the awaits that drew from the generator."""

    mode = "virtual"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self.draws = 0

    def await_all(self, handles: list[_TaskHandle]) -> None:
        waiting = [h for h in handles if not h.done]
        if len(waiting) > 1:  # shuffling fewer draws nothing
            self.draws += 1
            self._rng.shuffle(waiting)
        for handle in waiting:
            handle.finish()

    def pre_dispatch(self) -> None:
        pass

    def close(self) -> None:
        pass


# Upper bound of the random delay before each RPC under the thread scheduler.
# Awaited blocks reach the pool together, so the order in which workers wake
# from this delay, and take back the turn, must decide arrival order: it is
# many times the interpreter time of one RPC (about 20-25 us).
DISPATCH_JITTER_SECONDS = 500e-6


class ThreadScheduler:
    """Real worker-pool scheduler with jittered dispatch.

    The jitter models the transport latency variance a live RPC stack sees;
    it is what makes arrival order genuinely racy even for tiny in-process
    handlers. Blocks the entry handler awaits run together on the pool; a
    block awaited by another block runs inline on that block's worker, so a
    small pool can never deadlock on itself.

    One task runs at a time, the one holding the turn, so execution code takes
    no lock: the entry thread holds it until `close`, a worker while it runs a
    block, and a task gives it up only in the dispatch delay and to wait.
    """

    mode = "threads"

    def __init__(self, pool_size: int = 2) -> None:
        if pool_size < 1:
            raise DexiError("pool size must be >= 1")
        self._executor = ThreadPoolExecutor(max_workers=pool_size)
        self._rng = random.SystemRandom()
        self._entry_thread = threading.get_ident()
        # `_blocked` maps each thread waiting for a block that another thread
        # runs to that block's handle.
        self._turn = threading.Condition(threading.Lock())
        self._blocked: dict[int, _TaskHandle] = {}
        self._turn.acquire()

    def await_all(self, handles: list[_TaskHandle]) -> None:
        waiting = [h for h in handles if not h.done]
        if threading.get_ident() != self._entry_thread:
            for handle in waiting:
                self._finish(handle)
            return
        futures = [self._executor.submit(self._run, h) for h in waiting]
        self._turn.release()
        try:
            for future in futures:
                future.result()
        finally:
            self._turn.acquire()

    def _run(self, handle: _TaskHandle) -> None:
        with self._turn:
            self._finish(handle)

    def _finish(self, handle: _TaskHandle) -> None:
        """Run the block, or wait for the thread that runs it. A block can be
        awaited by its spawner's and a sibling block's threads at once. Before
        waiting, follow the wait-for chain from the block's owner: if it comes
        back to this thread, no thread on it can ever go on."""
        me = threading.get_ident()
        while handle.owner not in (None, me) and not handle.done:
            thread = handle.owner
            while thread in self._blocked and not self._blocked[thread].done:
                thread = self._blocked[thread].owner
            if thread == me:
                raise DexiError(_AWAIT_CYCLE)
            self._blocked[me] = handle
            self._turn.wait()
            del self._blocked[me]
        if handle.owner is None:
            handle.owner = me
        try:
            handle.finish()
        finally:
            self._turn.notify_all()

    def pre_dispatch(self) -> None:
        self._turn.release()
        try:
            time.sleep(self._rng.uniform(0.0, DISPATCH_JITTER_SECONDS))
        finally:
            self._turn.acquire()

    def close(self) -> None:
        self._turn.release()  # first: a worker still running needs the turn
        self._executor.shutdown(wait=True)


def _make_scheduler(mode: str, seed: int, pool_size: int) -> VirtualScheduler | ThreadScheduler:
    if mode == "virtual":
        return VirtualScheduler(seed)
    if mode == "threads":
        return ThreadScheduler(pool_size)
    raise DexiError(f"unknown scheduler mode {mode!r}; expected 'virtual' or 'threads'")


# ---------------------------------------------------------------------------
# Streams


class _Stream:
    """A client stream. Its preliminary `base` index (caller path and masked
    signature) is the counter key its messages are numbered at."""

    def __init__(self, callee: str, method: str, base: DistributedExecutionIndex) -> None:
        self.callee = callee
        self.method = method
        self.base = base
        self.in_flight = 0
        self.open = True
        self.pairs: list[tuple[DistributedExecutionIndex, DistributedExecutionIndex]] = []


# ---------------------------------------------------------------------------
# Execution environment


class IdentityTable:
    """An application compiled under one instantiation, built once per
    exploration: its endpoints' programs, and the identity parts of RPCs:
    signatures per endpoint, call stacks per call site, and masked
    invocation signatures per call site and canonical argument bytes (not
    raw values: `1 == True`), so a repeated RPC computes no digest. Each new
    invocation signature is checked for a digest collision. Indexes are
    interned too, one object per distinct index, so each is built, hashed
    and encoded once; so are the paths that incoming metadata decodes to,
    one per distinct wire text, and the task paths of spawned blocks.
    `subtrees` keeps what a delivered RPC's callee did, by replay key (see
    `_Execution.handle`). `events` keeps one object per distinct event,
    under a key that fully determines the event (see `_Execution.record`).
    `explore` shares one table among its executions; any other run builds
    its own. An execution runs the table's `app` under its `config`."""

    def __init__(self, app: Application, config: InstantiationConfig) -> None:
        self.app = app
        self.config = config
        self.endpoints = _compile_endpoints(app)
        # Few calls reach these (at most a few dozen per exploration), but
        # without them a call site digests its signature and stack again for
        # each new argument value: 8 digests for the 2 RPCs of figure-6-stream.
        self._signature = functools.cache(app.signature)
        self._stack = functools.cache(CallStackDigest)
        self._invocations: dict[tuple, InvocationSignature] = {}
        self.by_digest: dict[tuple[str, str, str], InvocationSignature] = {}
        self._indexes: dict[tuple, DistributedExecutionIndex] = {}
        self._paths: dict[tuple[str | None, str | None], DistributedExecutionIndex] = {}
        self._lineages: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.subtrees: dict[tuple, _Subtree | None] = {}
        self.events: dict[tuple, RpcEvent] = {}

    def invocation(self, service: str, method: str, args: Mapping[str, Any] | None,
                   frames: tuple[tuple[str, str], ...]) -> InvocationSignature:
        """The masked invocation signature of an RPC from the call stack
        `frames`; `args` is None for a stream's open, whose payload is empty."""
        try:
            key = (service, method, frames, None if args is None else tuple([
                (name, indexing.canonical_bytes(value)) for name, value in args.items()
            ]))
        except CanonicalizationError:
            for name, value in args.items():
                _check_crossable(value, f"argument {name!r} of {service}.{method} holds")
            raise
        inv = self._invocations.get(key)
        if inv is None:
            sig = self._signature(service, method)
            payload = EMPTY_PAYLOAD if args is None else InvocationPayload.from_mapping(sig, args)
            inv = InvocationSignature(sig, payload, self._stack(frames))
            inv = mask_invocation_signature(inv, self.config)
            known = self.by_digest.setdefault(inv.digest_triple(), inv)
            if known != inv:
                raise DexiError(f"digest collision: {known.render()} and {inv.render()} "
                                "share one digest triple")
            inv = self._invocations[key] = known
        return inv

    def index(self, path: DistributedExecutionIndex, inv: InvocationSignature, count: int,
              preliminary: bool = False) -> DistributedExecutionIndex:
        """`dei_extend(path, inv, count)`, with its last entry marked when
        `preliminary`. Equality ignores the marker, so the key holds the
        path's: a marked path must not come back as its unmarked twin."""
        key = (path, path.has_preliminary(), inv.digest_triple(), count, preliminary)
        dei = self._indexes.get(key)
        if dei is None:
            dei = dei_extend(path, inv, count)
            if preliminary:
                dei = _mark_last_preliminary(dei)
            self._indexes[key] = dei
        return dei

    def lineage(self, parent: tuple[int, ...], suffix: tuple[int, ...]) -> tuple[int, ...]:
        """The task path `suffix` below `parent`, such as `(n,)` for
        `parent`'s spawned block number n; every event of the task keeps it."""
        lineage = parent + suffix
        return self._lineages.setdefault(lineage, lineage)

    def path(self, metadata: Mapping[str, str] | None) -> DistributedExecutionIndex:
        """The caller's path that `metadata` carries (see `propagate_context`),
        decoded once per wire text. An undecodable one is never kept."""
        if metadata is None:
            return EMPTY_INDEX
        key = (metadata.get(INDEX_METADATA_KEY), metadata.get(PRELIMINARY_METADATA_KEY))
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = propagate_context(metadata, self.by_digest)
        return path


def _check_crossable(value: Any, what: str, cannot: str = "cross an RPC boundary") -> None:
    """Raise if `value` holds a futures list or a stream: neither has a wire form or text."""
    if isinstance(value, list):
        for item in value:
            _check_crossable(item, what, cannot)
    elif isinstance(value, (_TaskHandle, _Stream)):
        kind = "stream" if isinstance(value, _Stream) else "futures list"
        raise CanonicalizationError(f"{what} a {kind}, which cannot {cannot}")


def _text(value: Any, what: str) -> str:
    """The text of a `concat` part or `join` item that is not a `str`."""
    _check_crossable(value, what, "become text")
    return str(value)


class _HandlerCtx:
    """Per-handler interpreter state: service name, variables, frames, path,
    task lineage and the streams the handler opened."""

    __slots__ = ("service", "scope", "frames", "path", "lineage", "streams")

    def __init__(self, service, scope, frames, path, lineage, streams):
        self.service = service
        self.scope = scope
        self.frames = frames
        self.path = path
        self.lineage = lineage
        self.streams = streams

    def child(self, scope, frames, lineage=None) -> "_HandlerCtx":
        return _HandlerCtx(self.service, scope, frames, self.path,
                           self.lineage if lineage is None else lineage, self.streams)


class _Subtree(NamedTuple):
    """What a delivered RPC's callee did, kept for replay: its value or its
    failure descriptor, the events it recorded (their task paths extend
    `lineage`, the caller's), the distinct warnings it issued in order, the
    steps it took and the indexes it assigned."""

    value: Any
    failure: dict[str, Any] | None
    events: tuple[RpcEvent, ...]
    lineage: tuple[int, ...]
    warnings: tuple[str, ...]
    steps: int
    indexes: tuple[DistributedExecutionIndex, ...]


_UNSEEN = object()


class _Execution:
    def __init__(
        self, plan: FaultPlan, scheduler, budget: int, identities: IdentityTable
    ) -> None:
        self.plan = plan
        self.identities = identities
        self.scheduler = scheduler
        self.budget = budget
        self.counter = CounterState()
        self.events: list[RpcEvent] = []
        self.warnings: list[str] = []
        self.rewrites: dict[DistributedExecutionIndex, DistributedExecutionIndex] = {}
        self.assigned: set[DistributedExecutionIndex] = set()
        # Subtrees are replayed only where the index and the plan determine
        # them: under the full instantiation, and without real threads.
        self.subtrees = (identities.subtrees
                         if identities.config.is_full and scheduler.mode == "virtual" else None)
        self._steps = 0

    # -- bookkeeping

    def step(self, steps: int = 1) -> None:
        """Charge `steps` statements to the budget; a replay charges all of its."""
        self._steps += steps
        if self._steps > self.budget:
            raise StepBudgetExceededError(f"execution exceeded its step budget of {self.budget}")

    def shared(self, key: tuple) -> bool:
        """Append the event the exploration keeps under `key`, if it has one."""
        event = self.identities.events.get(key)
        if event is None:
            return False
        self.events.append(event)
        return True

    def record(self, key: tuple | None, kind: str, caller: str, callee: str, method: str,
               dei: DistributedExecutionIndex | None = None,
               preliminary_dei: DistributedExecutionIndex | None = None,
               payload: tuple[tuple[str, Any], ...] | None = None,
               outcome: dict[str, Any] | None = None,
               lineage: tuple[int, ...] = ()) -> None:
        """Append the event, or the exploration's first event under `key`;
        a new one is kept under `key`. Where building the event costs more
        than its key, the caller first tries `shared(key)`.

        A key is `(kind, dei, preliminary_dei, lineage, caller, name, value)`,
        where `{name: value}` is the outcome, and it must fully determine the
        event's record, or be None. The index fixes callee and method through
        its signature digest. An outcome is keyed only when it is one `str`
        value, since Python equates `1`, `1.0` and `True` where JSON does not;
        task paths are the table's, made of block numbers. An invocation is
        keyed without its payload: when the instantiation keeps payloads, its
        index fixes the canonical bytes of the arguments (`IdentityTable`
        rejects two argument lists under one digest), and those fix the
        values when each is a `str`.
        """
        event = None if key is None else self.identities.events.get(key)
        if event is None:
            event = RpcEvent._make((kind, caller, callee, method,
                                    dei, preliminary_dei, payload, outcome, lineage))
            if key is not None:
                self.identities.events[key] = event
        self.events.append(event)

    def record_outcome(self, kind: str, caller: str, callee: str, method: str,
                       dei: DistributedExecutionIndex, lineage: tuple[int, ...],
                       name: str, value: Any) -> None:
        """Record `kind` at `dei` with the outcome `{name: value}`, built
        only when the exploration has no equal event."""
        key = (kind, dei, None, lineage, caller, name, value) if type(value) is str else None
        if key is None or not self.shared(key):
            self.record(key, kind, caller, callee, method, dei, outcome={name: value},
                        lineage=lineage)

    # -- index assignment

    def assign_index(
        self, ctx: _HandlerCtx, id_inv: InvocationSignature, preliminary: bool = False
    ) -> DistributedExecutionIndex:
        """Extend the caller's path with one counted (masked) invocation signature.

        A preliminary (stream-open) index pairs the signature with the empty
        payload, because the real payloads are unknown at open time, so it
        skips the ambiguity and collision warnings. Its messages are numbered
        at its counter key, so it claims that key even when counts are masked.
        """
        if len(ctx.path) >= MAX_INDEX_DEPTH:
            raise DexiError(f"RPC to {id_inv.signature.render()} would nest deeper "
                            f"than {MAX_INDEX_DEPTH} calls")
        config = self.identities.config
        id_path = ctx.path if config.include_path else EMPTY_INDEX
        if config.include_count or preliminary:
            count, raced = self.counter.claim(id_path, id_inv, ctx.lineage)
            if raced and not preliminary:
                self.warnings.append(
                    "detected-ambiguity: concurrent RPCs share signature, stack, and "
                    f"payload at {id_inv.render()}; counts may permute across executions")
        if not config.include_count:
            count = 1
        dei = self.identities.index(id_path, id_inv, count, preliminary)
        if not preliminary:
            self._claim(dei)
        return dei

    def _claim(self, dei: DistributedExecutionIndex) -> None:
        """Add `dei` to the trace's indexes: a second RPC with it is a
        duplicate under the full instantiation, and a warning otherwise."""
        if dei not in self.assigned:
            self.assigned.add(dei)
            return
        # Rewrites are injective under the full instantiation, so this sees
        # every duplicate the trace would show.
        if self.identities.config.is_full:
            raise DexiError(f"duplicate full index within one trace: {dei.render()}")
        self.warnings.append(f"identifier collision under the active instantiation: {dei.render()}")

    # -- RPC dispatch

    def handle(
        self,
        service: str,
        method: str,
        args: Mapping[str, Any],
        metadata: Mapping[str, str] | None,
        lineage: tuple[int, ...],
        final: DistributedExecutionIndex | None = None,
    ) -> Any:
        """Run an endpoint. A delivered RPC passes its `final` index, which
        keys the callee's subtree together with the plan's faults below it;
        a repeated key replays the first run's record (README, "Subtree
        reuse"). Counts are relative to the path, so nothing outside the
        subtree changes it, except what leaves it unkeyed: queued stream
        rewrites, or a map argument (canonical bytes ignore key order and
        `str()` does not). A callee without rpc statements is too cheap to key.
        """
        endpoint = self.identities.endpoints[service, method]
        if (final is not None and endpoint.issues_rpcs and self.subtrees is not None
                and not self.rewrites and not any(map(_holds_map, args.values()))):
            key = (final, self.plan.below(final))
            record = self.subtrees.get(key, _UNSEEN)
            if record is _UNSEEN:
                return self._record(key, service, method, args, metadata, lineage)
            if record is not None:
                return self._replay(record, lineage)
        path = self.identities.path(metadata)
        # The handler's own copy of each list and map argument: it may append.
        scope = {name: _fresh(value) if isinstance(value := args[name], _CONTAINERS) else value
                 for name in endpoint.params}
        ctx = _HandlerCtx(endpoint.service, scope, (), path, lineage, [])
        try:
            value = endpoint.run(self, ctx)
            _check_crossable(value, endpoint.returns)
            return value
        finally:
            for stream in ctx.streams:
                if stream.open:
                    self.finalize_stream(stream)

    def _record(self, key: tuple, service: str, method: str, args: Mapping[str, Any],
                metadata: Mapping[str, str] | None, lineage: tuple[int, ...]) -> Any:
        """Run the subtree and keep what it did under `key`."""
        events, issued, steps = len(self.events), len(self.warnings), self._steps
        draws = self.scheduler.draws
        try:
            value, failure = self.handle(service, method, args, metadata, lineage), None
        except (RpcFailure, HandlerAbort) as exc:
            value, failure = None, exc.descriptor
        recorded = tuple(self.events[events:])
        if draws == self.scheduler.draws and all(e.kind != "stream_opened" for e in recorded):
            self.subtrees[key] = _Subtree(
                value, failure, recorded, lineage, tuple(dict.fromkeys(self.warnings[issued:])),
                self._steps - steps, tuple([e.dei for e in recorded if e.kind == "invocation"]),
            )
        else:
            # Drawn order and stream numbering depend on the whole execution.
            # Without a stream no index of the subtree is preliminary.
            self.subtrees[key] = None
        if failure is not None:  # `invoke_rpc` treats an abort as a failure
            raise RpcFailure(failure)
        return value

    def _replay(self, record: _Subtree, lineage: tuple[int, ...]) -> Any:
        """Append a recorded subtree's events under this caller, as its run
        would have: the recorded events themselves, or copies under the
        caller's task path when it differs. Its steps are charged first, so
        past the budget it raises what its run would."""
        self.step(record.steps)
        for dei in record.indexes:
            self._claim(dei)
        if lineage == record.lineage:
            self.events.extend(record.events)
        else:
            kept, tasks = len(record.lineage), self.identities.lineage
            payloads = self.identities.config.include_payload
            for event in record.events:
                moved = tasks(lineage, event.lineage[kept:])
                self.record(_event_key(event, moved, payloads), *event[:-1], moved)
        self.warnings.extend(record.warnings)
        if record.failure is not None:
            raise RpcFailure(record.failure)
        return record.value

    def invoke_rpc(
        self,
        ctx: _HandlerCtx,
        callee: str,
        method: str,
        args: dict[str, Any],
        frames: tuple[tuple[str, str], ...],
        stream: _Stream | None = None,
    ) -> Any:
        """Assign the RPC's index, inject a planned fault or deliver the call.

        A message on `stream` travels with the preliminary index the callee
        numbers it by, and that index is queued for rewriting to its final one.
        """
        inv = self.identities.invocation(callee, method, args, frames)
        self.scheduler.pre_dispatch()
        dei = self.assign_index(ctx, inv)
        # Plans and events name final indexes; the callee still gets `dei`.
        final = _apply_rewrites(dei, self.rewrites) if self.rewrites else dei
        if final.has_preliminary():
            raise DexiError(f"preliminary index survived finalization: {final.render()}")
        spec = self.plan.match(final)
        implicit = None
        if stream is not None and spec is None:
            implicit = self._stream_message_index(ctx, stream, final)
        caller, lineage = ctx.service, ctx.lineage
        key = ("invocation", final, implicit, lineage, caller, None, None)
        if not self.shared(key):
            # The payload is a snapshot: the caller may append to its lists later.
            payload = tuple([
                (name, _fresh(value) if isinstance(value := args[name], _CONTAINERS) else value)
                for name, _ in inv.signature.parameters
            ])
            keyed = (self.identities.config.include_payload
                     and all(type(value) is str for _, value in payload))
            self.record(key if keyed else None, "invocation", caller, callee, method,
                        final, implicit, payload, lineage=lineage)
        if spec is not None:
            if spec.mode == "response":
                self.record(None, "fault_injected", caller, callee, method, final,
                            outcome=spec.descriptor(), lineage=lineage)
                value = spec.response
                return _fresh(value) if isinstance(value, _CONTAINERS) else value
            self.record_outcome("fault_injected", caller, callee, method, final, lineage,
                                "fault", spec.fault_type)
            raise RpcFailure(spec.descriptor())
        metadata = {
            INDEX_METADATA_KEY: indexing.encode(dei if implicit is None else implicit),
            PRELIMINARY_METADATA_KEY: "false" if implicit is None else "true",
        }
        try:
            value, failure = self.handle(callee, method, args, metadata, lineage, final), None
        except (RpcFailure, HandlerAbort) as exc:
            failure = exc.descriptor
        if failure is None:
            self.record_outcome("completion", caller, callee, method, final, lineage,
                                "value", value)
            # The caller's own copy: the recorded outcome must not change.
            return _fresh(value) if isinstance(value, _CONTAINERS) else value
        if len(failure) == 1:
            (name, value), = failure.items()
            self.record_outcome("completion", caller, callee, method, final, lineage, name, value)
        else:
            self.record(None, "completion", caller, callee, method, final,
                        outcome=dict(failure), lineage=lineage)
        # The callee's unhandled failure surfaces at this call site as a
        # failure of this RPC, with the same descriptor.
        raise RpcFailure(dict(failure))

    # -- streams

    def _stream_message_index(
        self, ctx: _HandlerCtx, stream: _Stream, final: DistributedExecutionIndex
    ) -> DistributedExecutionIndex:
        """Number the next message with the next count at the stream's base
        key and queue its rewrite to `final`, which has no preliminary entry."""
        base_path, base = stream.base.prefix(), stream.base.last
        # Bases and messages at one key all draw from this counter, so no
        # two messages share a preliminary index and none equals a final one.
        # No task switch falls between the claim and the append, so the
        # rewrite log stays in count order.
        count, _ = self.counter.claim(base_path, base.detail, ctx.lineage)
        implicit = self.identities.index(base_path, base.detail, count, preliminary=True)
        stream.pairs.append((implicit, final))
        self.rewrites[implicit] = final
        return implicit

    def open_stream(self, ctx: _HandlerCtx, callee: str, method: str,
                    frames: tuple[tuple[str, str], ...]) -> _Stream:
        inv = self.identities.invocation(callee, method, None, frames)
        base = self.assign_index(ctx, inv, preliminary=True)
        stream = _Stream(callee, method, base)
        ctx.streams.append(stream)
        self.record(("stream_opened", None, base, ctx.lineage, ctx.service, None, None),
                    "stream_opened", ctx.service, callee, method,
                    preliminary_dei=base, lineage=ctx.lineage)
        return stream

    def stream_send(
        self,
        ctx: _HandlerCtx,
        stream: _Stream,
        args: dict[str, Any],
        frames: tuple[tuple[str, str], ...],
    ) -> Any:
        if not stream.open:
            raise StreamStateError(f"send on closed stream to {stream.callee}.{stream.method}")
        stream.in_flight += 1
        try:
            return self.invoke_rpc(ctx, stream.callee, stream.method, args, frames, stream)
        finally:
            stream.in_flight -= 1

    def finalize_stream(self, stream: _Stream) -> None:
        if stream.in_flight:
            raise StreamStateError(f"stream to {stream.callee}.{stream.method} finalized "
                                   f"with {stream.in_flight} send(s) outstanding")
        stream.open = False
        for implicit, final in stream.pairs:
            self.record(("index_rewritten", final, implicit, (), "", None, None),
                        "index_rewritten", "", stream.callee, stream.method, final, implicit)


# ---------------------------------------------------------------------------
# Compiled programs
#
# Every body compiles once per application into closures. A body takes one
# step of the execution's budget before each statement it runs. A statement
# is `run(ex, ctx)`: it does its work and returns `_NEXT`, `_BREAK`, or the
# value of the `return` it reached. An expression is `value(ctx)`. Call
# sites, argument names and each call site's stack frame are resolved when
# compiling.

_NEXT = object()
_BREAK = object()

class _CompiledEndpoint:
    __slots__ = ("service", "params", "run", "returns", "issues_rpcs")

    def __init__(self, service: str, params: tuple[str, ...], run, returns: str,
                 issues_rpcs: bool) -> None:
        self.service = service
        self.params = params
        self.run = run
        self.returns = returns  # what `_check_crossable` names in its error
        self.issues_rpcs = issues_rpcs  # whether its service has an rpc statement


def _compile_endpoints(app: Application) -> dict[tuple[str, str], _CompiledEndpoint]:
    """Every endpoint of `app` by (service, method), compiled."""
    # Stream sends are never replayed, so rpc statements alone count.
    callers = {svc.name for svc, _, stmt in iter_statements(app) if isinstance(stmt, Rpc)}
    endpoints = {}
    for key, svc in app.services.items():
        helpers: dict[str, Callable] = {}  # looked up when called: helpers recurse
        for name, helper in svc.helpers.items():
            helpers[name] = _Compiler(svc, name, helpers).callable(helper.body)
        for method, endpoint in svc.endpoints.items():
            run = _Compiler(svc, method, helpers).callable(endpoint.body)
            endpoints[key, method] = _CompiledEndpoint(
                svc.name, tuple(name for name, _ in endpoint.params), run,
                f"{key}.{method} returns", svc.name in callers,
            )
    return endpoints


# Values a program can change in place; every other value passes by reference.
_CONTAINERS = (list, dict)


def _fresh(value: Any) -> Any:
    """`value` with every list and map in it copied: programs append to
    lists, so no state may leak between statements or executions. Program
    values are JSON values, trees of lists, maps and scalars."""
    if isinstance(value, list):
        return [_fresh(item) for item in value]
    if isinstance(value, dict):
        return {key: _fresh(item) for key, item in value.items()}
    return value


def _event_key(event: RpcEvent, lineage: tuple[int, ...], payloads: bool) -> tuple | None:
    """The key `_Execution.record` keeps `event` under once it is moved to
    the task path `lineage`, or None; `payloads` says whether the
    instantiation keeps payloads."""
    kind, caller, _, _, dei, preliminary, payload, outcome, _ = event
    if payload is not None and not (payloads and all(type(v) is str for _, v in payload)):
        return None
    if outcome is None:
        return (kind, dei, preliminary, lineage, caller, None, None)
    if len(outcome) == 1:
        (name, value), = outcome.items()
        if type(value) is str:
            return (kind, dei, preliminary, lineage, caller, name, value)
    return None


def _holds_map(value: Any) -> bool:
    if isinstance(value, list):
        return any(map(_holds_map, value))
    return isinstance(value, dict)


def _as_list(value: Any) -> list:
    """`value`, which a program may only use as a list; any other value
    aborts the handler, as reading an unset variable does."""
    if not isinstance(value, list):
        raise HandlerAbort("service-error")
    return value


def _stream(ctx: _HandlerCtx, name: str) -> _Stream:
    """The stream the handler's variable `name` holds."""
    stream = ctx.scope.get(name)
    if not isinstance(stream, _Stream):
        raise StreamStateError(f"variable {name!r} is not an open stream")
    return stream


def _store(var: str | None, produce: Callable) -> Callable:
    """The statement that runs `produce(ex, ctx)` and keeps its value in
    `var`, when the statement names one."""
    def run(ex, ctx):
        value = produce(ex, ctx)
        if var is not None:
            ctx.scope[var] = value
        return _NEXT
    return run


class _Compiler:
    """Compiles the statements of one endpoint or helper of `service`."""

    def __init__(self, service: ServiceProgram, symbol: str,
                 helpers: dict[str, Callable]) -> None:
        self.service = service
        self.symbol = symbol
        self.where = f"{service.name}.{symbol}"
        self.helpers = helpers

    def callable(self, body: tuple[Stmt, ...]) -> Callable:
        """A handler's, helper's or spawned block's body, run to its value."""
        run_body = self.body(body)

        def run(ex, ctx):
            result = run_body(ex, ctx)
            if result is _NEXT:
                return None
            if result is _BREAK:
                raise ProgramError(f"break outside a loop in {self.where}")
            return result

        return run

    def body(self, body: tuple[Stmt, ...]) -> Callable:
        stmts = tuple(self.stmt(stmt) for stmt in body)

        def run(ex, ctx):
            for stmt in stmts:
                ex.step()
                result = stmt(ex, ctx)
                if result is not _NEXT:
                    return result
            return _NEXT

        return run

    def site(self, line: int) -> tuple[tuple[str, str]]:
        """The stack frame a statement at `line` adds to its handler's."""
        return ((f"{self.service.source_file}:{line}", self.symbol),)

    def args(self, args: tuple[tuple[str, Expr], ...]) -> Callable:
        values = tuple((name, self.expr(expr)) for name, expr in args)
        return lambda ctx: {name: value(ctx) for name, value in values}

    def stmt(self, stmt: Stmt) -> Callable:
        match stmt:
            case Assign(var=var, value=value):
                value = self.expr(value)
                return _store(var, lambda ex, ctx: value(ctx))

            case Append(list_var=list_var, value=value):
                value = self.expr(value)

                def run(ex, ctx):
                    _as_list(ctx.scope.setdefault(list_var, [])).append(value(ctx))
                    return _NEXT

            case Rpc(service=callee, method=method, args=args, line=line, assign=assign):
                args, site = self.args(args), self.site(line)
                return _store(assign, lambda ex, ctx: ex.invoke_rpc(
                    ctx, callee, method, args(ctx), ctx.frames + site))

            case CallHelper(helper=name, args=args, line=line, assign=assign):
                helpers, args, site = self.helpers, self.args(args), self.site(line)
                return _store(assign, lambda ex, ctx: helpers[name](
                    ex, ctx.child(args(ctx), ctx.frames + site)))

            case Loop(var=var, items=items, body=body):
                items, body = self.expr(items), self.body(body)

                def run(ex, ctx):
                    scope = ctx.scope
                    for item in _as_list(items(ctx)):
                        scope[var] = item
                        result = body(ex, ctx)
                        if result is not _NEXT:
                            return _NEXT if result is _BREAK else result
                    return _NEXT

            case If(cond=cond, then=then, orelse=orelse):
                cond, then, orelse = self.expr(cond), self.body(then), self.body(orelse)
                return lambda ex, ctx: then(ex, ctx) if cond(ctx) else orelse(ex, ctx)

            case Try(body=body, catch=catch):
                body, catch = self.body(body), self.body(catch)

                def run(ex, ctx):
                    try:
                        return body(ex, ctx)
                    except RpcFailure:
                        return catch(ex, ctx)

            case Break():
                return lambda ex, ctx: _BREAK

            case Return(value=value):
                value = self.expr(value)
                return lambda ex, ctx: value(ctx)

            case Raise(message=message):
                def run(ex, ctx):
                    raise HandlerAbort(message)

            case Spawn(futures=futures, body=body):
                block = self.callable(body)

                def run(ex, ctx):
                    handles = _as_list(ctx.scope.setdefault(futures, []))
                    # The block starts on an empty call stack, as a task handed
                    # to an executor does. It spawns into, and awaits, its own
                    # futures list under this name, not the parent's.
                    block_ctx = ctx.child({**ctx.scope, futures: []}, (),
                                          ex.identities.lineage(ctx.lineage, (len(handles),)))
                    handles.append(_TaskHandle(lambda: block(ex, block_ctx)))
                    return _NEXT

            case AwaitAll(futures=futures, assign=assign):
                def await_all(ex, ctx):
                    handles = _as_list(ctx.scope.get(futures, []))
                    if not all(isinstance(h, _TaskHandle) for h in handles):
                        raise HandlerAbort("service-error")
                    ex.scheduler.await_all(handles)
                    for handle in handles:
                        if handle.error is not None:
                            # A copy: the stored error would take this frame,
                            # and through its scope the handle, into its
                            # traceback.
                            raise copy.copy(handle.error)
                    return [handle.value for handle in handles]

                return _store(assign, await_all)

            case OpenStream(service=callee, method=method, line=line, assign=assign):
                site = self.site(line)
                return _store(assign, lambda ex, ctx: ex.open_stream(
                    ctx, callee, method, ctx.frames + site))

            case StreamSend(stream=name, args=args, line=line, assign=assign):
                args, site = self.args(args), self.site(line)
                return _store(assign, lambda ex, ctx: ex.stream_send(
                    ctx, _stream(ctx, name), args(ctx), ctx.frames + site))

            case CloseStream(stream=name):
                def run(ex, ctx):
                    ex.finalize_stream(_stream(ctx, name))
                    return _NEXT

            case _:
                def run(ex, ctx):
                    raise DexiError(f"unhandled statement {stmt!r}")

        return run

    def expr(self, expr: Expr) -> Callable:
        match expr:
            case Const(value=value):
                return lambda ctx: _fresh(value)
            case Var(name=name):
                def var(ctx):
                    scope = ctx.scope
                    if name not in scope:
                        raise HandlerAbort("service-error")
                    return scope[name]

                return var
            case Concat(parts=parts):
                parts = tuple(self.expr(part) for part in parts)
                what = f"concat in {self.where} holds"
                return lambda ctx: "".join([text if type(text := part(ctx)) is str
                                            else _text(text, what) for part in parts])
            case Join(items=items, sep=sep):
                items, what = self.expr(items), f"join in {self.where} holds"
                return lambda ctx: sep.join([item if type(item) is str else _text(item, what)
                                             for item in _as_list(items(ctx))])
            case ListExpr(items=items):
                items = tuple(self.expr(item) for item in items)
                return lambda ctx: [item(ctx) for item in items]
            case First(items=items):
                items = self.expr(items)

                def first(ctx):
                    values = _as_list(items(ctx))
                    if not values:
                        raise HandlerAbort("service-error")
                    return values[0]

                return first
            case IsSet(name=name):
                return lambda ctx: name in ctx.scope
            case Not(inner=inner):
                inner = self.expr(inner)
                return lambda ctx: not inner(ctx)
            case Eq(left=left, right=right):
                left, right = self.expr(left), self.expr(right)
                return lambda ctx: left(ctx) == right(ctx)

        def unhandled(ctx):
            raise DexiError(f"unhandled expression {expr!r}")

        return unhandled


def _mark_last_preliminary(dei: DistributedExecutionIndex) -> DistributedExecutionIndex:
    entries = dei.entries[:-1] + (replace(dei.entries[-1], preliminary=True),)
    return DistributedExecutionIndex(entries)


def _apply_rewrites(
    dei: DistributedExecutionIndex,
    rewrites: Mapping[DistributedExecutionIndex, DistributedExecutionIndex],
) -> DistributedExecutionIndex:
    """Replace the longest strict prefix of `dei` that is a queued implicit
    index by its final index. Finals are stored resolved, so one lookup
    suffices; `dei` is never a queued index (README, "Wire format").

    Every prefix is looked up, not only those ending in a preliminary entry:
    the wire marks only a path's last entry, so two hops below a stream
    message the queued prefix arrives unmarked.
    """
    entries = dei.entries
    for length in range(len(entries) - 1, 0, -1):
        replacement = rewrites.get(DistributedExecutionIndex(entries[:length]))
        if replacement is not None:
            return DistributedExecutionIndex(replacement.entries + entries[length:])
    return dei


def propagate_context(
    metadata: Mapping[str, str] | None, details: Mapping | None = None
) -> DistributedExecutionIndex:
    """Decode incoming metadata into the caller-supplied path.

    Absent metadata denotes the top-level entry point (the empty index). A
    stream message's metadata marks its last entry preliminary. The wire
    carries digests only; `details` restores the signatures they stand for.
    """
    if metadata is None or INDEX_METADATA_KEY not in metadata:
        return EMPTY_INDEX
    try:
        dei = indexing.decode(metadata[INDEX_METADATA_KEY], details)
    except indexing.DecodeError as exc:
        raise MetadataError(f"undecodable index metadata: {exc}") from exc
    if metadata.get(PRELIMINARY_METADATA_KEY) == "true" and dei.entries:
        return _mark_last_preliminary(dei)
    return dei


def run_execution(
    app: Application,
    entry: EntryRequest,
    plan: FaultPlan | None = None,
    *,
    seed: int = 0,
    config: InstantiationConfig | None = None,
    scheduler: str = "virtual",
    pool_size: int = 2,
    budget: int = DEFAULT_STEP_BUDGET,
    identities: IdentityTable | None = None,
) -> ExecutionTrace:
    """Execute one entry request against the application and finalize the trace.

    At each RPC the callee path is the caller's received index, the count
    comes from the execution's counter, and the fault plan is consulted
    before delivery. Every RPC is recorded under its final index:
    preliminary stream prefixes are resolved when the RPC is recorded.

    The execution runs under the instantiation of `identities`, the table
    `explore` shares among its executions; without a table it builds one
    for `config` (the full instantiation by default). A table built for
    another `app` or `config`, or a plan key outside the instantiation's
    identifier space, is rejected before the first RPC.
    """
    if identities is None:
        identities = IdentityTable(app, FULL_CONFIG if config is None else config)
    elif identities.app is not app:  # once per execution: identity, not equality
        raise DexiError("identity table built for another application")
    elif config is not None and config != identities.config:
        raise DexiError(f"identity table built for {identities.config}, "
                        f"not for the requested {config}")
    plan = plan if plan is not None else EMPTY_PLAN
    for dei, _ in plan.items():
        if indexing.project(dei, identities.config) != dei:
            raise MalformedPlanError(
                f"plan key {dei.render()} is not in the identifier space of the "
                "active instantiation"
            )
    sched = _make_scheduler(scheduler, seed, pool_size)
    execution = _Execution(plan=plan, scheduler=sched, budget=budget, identities=identities)
    try:
        app.validate_entry(entry)
        outcome = {"value": execution.handle(entry.service, entry.method, entry.args, None, ())}
    except (RpcFailure, HandlerAbort) as failure:
        outcome = dict(failure.descriptor)
    except RecursionError:
        # MAX_INDEX_DEPTH bounds neither helper calls nor RPC chains whose
        # indexes carry no path; the interpreter's limit bounds both.
        raise DexiError("RPC or helper call nesting exceeded the interpreter's "
                        "recursion limit") from None
    finally:
        sched.close()
    return ExecutionTrace(tuple(execution.events), entry, outcome, seed, sched.mode,
                          identities.config, tuple(dict.fromkeys(execution.warnings)))
