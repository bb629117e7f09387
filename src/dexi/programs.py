"""Declarative microservice programs interpreted by the simulator.

Applications are data: each service exposes endpoints whose bodies are small
statement trees (RPC invocations, loops, branches, try/fallback, concurrent
blocks, streams). Programs are deterministic given their inputs and the RPC
responses they observe; every statement that contributes a call-stack frame
carries a stable synthetic source line so identifiers are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .indexing import DexiError, Signature


class ProgramError(DexiError):
    """An application document or statement tree is malformed."""


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: Any


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Concat(Expr):
    parts: tuple[Expr, ...]


@dataclass(frozen=True)
class Join(Expr):
    items: Expr
    sep: str = " "


@dataclass(frozen=True)
class ListExpr(Expr):
    items: tuple[Expr, ...]


@dataclass(frozen=True)
class First(Expr):
    items: Expr


@dataclass(frozen=True)
class IsSet(Expr):
    name: str


@dataclass(frozen=True)
class Not(Expr):
    inner: Expr


@dataclass(frozen=True)
class Eq(Expr):
    left: Expr
    right: Expr


# ---------------------------------------------------------------------------
# Statements


@dataclass(frozen=True)
class Stmt:
    pass


@dataclass(frozen=True)
class Assign(Stmt):
    var: str
    value: Expr


@dataclass(frozen=True)
class Append(Stmt):
    list_var: str
    value: Expr


@dataclass(frozen=True)
class Rpc(Stmt):
    service: str
    method: str
    args: tuple[tuple[str, Expr], ...]
    line: int
    assign: str | None = None


@dataclass(frozen=True)
class CallHelper(Stmt):
    helper: str
    args: tuple[tuple[str, Expr], ...]
    line: int
    assign: str | None = None


@dataclass(frozen=True)
class Loop(Stmt):
    var: str
    items: Expr
    body: tuple[Stmt, ...]
    line: int = 0


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class Try(Stmt):
    body: tuple[Stmt, ...]
    catch: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class Break(Stmt):
    pass


@dataclass(frozen=True)
class Return(Stmt):
    value: Expr


@dataclass(frozen=True)
class Raise(Stmt):
    message: str = "service-error"


@dataclass(frozen=True)
class Spawn(Stmt):
    """Schedule a concurrent block; its handle is appended to `futures`."""

    futures: str
    body: tuple[Stmt, ...]
    line: int = 0


@dataclass(frozen=True)
class AwaitAll(Stmt):
    """Wait for every handle in `futures`; results follow creation order."""

    futures: str
    line: int = 0
    assign: str | None = None


@dataclass(frozen=True)
class OpenStream(Stmt):
    service: str
    method: str
    line: int
    assign: str


@dataclass(frozen=True)
class StreamSend(Stmt):
    stream: str
    args: tuple[tuple[str, Expr], ...]
    line: int
    assign: str | None = None


@dataclass(frozen=True)
class CloseStream(Stmt):
    stream: str


# ---------------------------------------------------------------------------
# Services and applications


@dataclass(frozen=True)
class Endpoint:
    method: str
    params: tuple[tuple[str, str], ...]
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class Helper:
    name: str
    params: tuple[str, ...]
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class ServiceProgram:
    name: str
    endpoints: Mapping[str, Endpoint]
    helpers: Mapping[str, Helper] = field(default_factory=dict)

    @property
    def source_file(self) -> str:
        return f"{self.name}.py"


@dataclass(frozen=True)
class EntryRequest:
    service: str
    method: str
    args: Mapping[str, Any]


@dataclass(frozen=True)
class Application:
    services: Mapping[str, ServiceProgram]

    def endpoint(self, service: str, method: str) -> Endpoint:
        try:
            svc = self.services[service]
        except KeyError:
            raise ProgramError(f"unknown service {service!r}") from None
        try:
            return svc.endpoints[method]
        except KeyError:
            raise ProgramError(f"service {service!r} has no endpoint {method!r}") from None

    def signature(self, service: str, method: str) -> Signature:
        """The static signature of an endpoint, which every RPC to it shares."""
        return Signature(service, method, self.endpoint(service, method).params)

    def validate_entry(self, entry: EntryRequest) -> None:
        endpoint = self.endpoint(entry.service, entry.method)
        declared = [name for name, _ in endpoint.params]
        if set(entry.args) != set(declared):
            raise ProgramError(
                f"entry args {sorted(entry.args)} do not match parameters {declared} "
                f"of {entry.service}.{entry.method}"
            )


# ---------------------------------------------------------------------------
# Parsing from JSON documents


def parse_expr(doc: Any) -> Expr:
    if not isinstance(doc, dict):
        raise ProgramError(f"expression must be an object, got {doc!r}")
    if len(doc) != 1:
        raise ProgramError(f"expression must have exactly one key: {doc!r}")
    (op, arg), = doc.items()
    if op == "const":
        return Const(arg)
    if op == "var":
        return Var(str(arg))
    if op == "concat":
        return Concat(tuple(parse_expr(p) for p in arg))
    if op == "join":
        return Join(items=parse_expr(arg["list"]), sep=arg.get("sep", " "))
    if op == "list":
        return ListExpr(tuple(parse_expr(p) for p in arg))
    if op == "first":
        return First(parse_expr(arg))
    if op == "is_set":
        return IsSet(str(arg))
    if op == "not":
        return Not(parse_expr(arg))
    if op == "eq":
        return Eq(parse_expr(arg[0]), parse_expr(arg[1]))
    raise ProgramError(f"unknown expression operator {op!r}")


def _parse_args(doc: Mapping[str, Any]) -> tuple[tuple[str, Expr], ...]:
    return tuple((name, parse_expr(value)) for name, value in doc.items())


def _require_line(doc: Mapping[str, Any], op: str) -> int:
    if "line" not in doc:
        raise ProgramError(f"{op!r} statement requires a source line")
    return int(doc["line"])


def parse_stmt(doc: Any) -> Stmt:
    if not isinstance(doc, dict) or "op" not in doc:
        raise ProgramError(f"statement must be an object with an 'op' key: {doc!r}")
    op = doc["op"]
    if op == "assign":
        return Assign(var=doc["var"], value=parse_expr(doc["value"]))
    if op == "append":
        return Append(list_var=doc["list"], value=parse_expr(doc["value"]))
    if op == "rpc":
        return Rpc(
            service=doc["service"],
            method=doc["method"],
            args=_parse_args(doc.get("args", {})),
            line=_require_line(doc, op),
            assign=doc.get("assign"),
        )
    if op == "call":
        return CallHelper(
            helper=doc["helper"],
            args=_parse_args(doc.get("args", {})),
            line=_require_line(doc, op),
            assign=doc.get("assign"),
        )
    if op == "loop":
        return Loop(
            var=doc["var"],
            items=parse_expr(doc["in"]),
            body=parse_body(doc["body"]),
            line=int(doc.get("line", 0)),
        )
    if op == "if":
        return If(
            cond=parse_expr(doc["cond"]),
            then=parse_body(doc.get("then", [])),
            orelse=parse_body(doc.get("else", [])),
        )
    if op == "try":
        return Try(body=parse_body(doc["body"]), catch=parse_body(doc.get("catch", [])))
    if op == "break":
        return Break()
    if op == "return":
        return Return(value=parse_expr(doc["value"]))
    if op == "raise":
        return Raise(message=doc.get("message", "service-error"))
    if op == "spawn":
        return Spawn(
            futures=doc["futures"],
            body=parse_body(doc["body"]),
            line=int(doc.get("line", 0)),
        )
    if op == "await_all":
        return AwaitAll(
            futures=doc["futures"],
            line=int(doc.get("line", 0)),
            assign=doc.get("assign"),
        )
    if op == "open_stream":
        return OpenStream(
            service=doc["service"],
            method=doc["method"],
            line=_require_line(doc, op),
            assign=doc["assign"],
        )
    if op == "stream_send":
        return StreamSend(
            stream=doc["stream"],
            args=_parse_args(doc.get("args", {})),
            line=_require_line(doc, op),
            assign=doc.get("assign"),
        )
    if op == "close_stream":
        return CloseStream(stream=doc["stream"])
    raise ProgramError(f"unknown statement operator {op!r}")


def parse_body(doc: Any) -> tuple[Stmt, ...]:
    if not isinstance(doc, list):
        raise ProgramError(f"statement body must be a list: {doc!r}")
    return tuple(parse_stmt(s) for s in doc)


def parse_service(doc: Mapping[str, Any]) -> ServiceProgram:
    name = doc["name"]
    endpoints: dict[str, Endpoint] = {}
    for ep in doc.get("endpoints", []):
        params = tuple((p["name"], p.get("type", "String")) for p in ep.get("params", []))
        endpoint = Endpoint(method=ep["method"], params=params, body=parse_body(ep["body"]))
        if endpoint.method in endpoints:
            raise ProgramError(f"service {name!r} declares endpoint {endpoint.method!r} twice")
        endpoints[endpoint.method] = endpoint
    helpers: dict[str, Helper] = {}
    for hp in doc.get("helpers", []):
        helper = Helper(
            name=hp["name"],
            params=tuple(hp.get("params", [])),
            body=parse_body(hp["body"]),
        )
        if helper.name in helpers:
            raise ProgramError(f"service {name!r} declares helper {helper.name!r} twice")
        helpers[helper.name] = helper
    return ServiceProgram(name=name, endpoints=endpoints, helpers=helpers)


def parse_application(doc: Mapping[str, Any]) -> Application:
    services: dict[str, ServiceProgram] = {}
    for svc_doc in doc.get("services", []):
        svc = parse_service(svc_doc)
        if svc.name in services:
            raise ProgramError(f"application declares service {svc.name!r} twice")
        services[svc.name] = svc
    if not services:
        raise ProgramError("application declares no services")
    app = Application(services=services)
    _validate_targets(app)
    return app


def _walk(body: tuple[Stmt, ...]):
    for stmt in body:
        yield stmt
        for attr in ("body", "then", "orelse", "catch"):
            inner = getattr(stmt, attr, None)
            if inner:
                yield from _walk(inner)


def iter_statements(app: Application):
    """Yield (service, container-symbol, statement) for every statement."""
    for svc in app.services.values():
        for ep in svc.endpoints.values():
            for stmt in _walk(ep.body):
                yield svc, ep.method, stmt
        for helper in svc.helpers.values():
            for stmt in _walk(helper.body):
                yield svc, helper.name, stmt


def _validate_targets(app: Application) -> None:
    for svc, symbol, stmt in iter_statements(app):
        if isinstance(stmt, (Rpc, OpenStream)):
            if stmt.service not in app.services:
                raise ProgramError(
                    f"{svc.name}.{symbol} targets unknown service {stmt.service!r}"
                )
            if stmt.method not in app.services[stmt.service].endpoints:
                raise ProgramError(
                    f"{svc.name}.{symbol} targets unknown endpoint "
                    f"{stmt.service}.{stmt.method}"
                )
        if isinstance(stmt, CallHelper) and stmt.helper not in svc.helpers:
            raise ProgramError(f"{svc.name}.{symbol} calls unknown helper {stmt.helper!r}")
