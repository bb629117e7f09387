"""Declarative microservice programs interpreted by the simulator.

Applications are data: each service exposes endpoints whose bodies are small
statement trees (RPC invocations, loops, branches, try/fallback, concurrent
blocks, streams). Programs are deterministic given their inputs and the RPC
responses they observe; every statement that contributes a call-stack frame
carries a stable synthetic source line so identifiers are reproducible.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from .indexing import EMPTY_MAP, DexiError, Record, Signature


class ProgramError(DexiError):
    """An application document or statement tree is malformed."""


# ---------------------------------------------------------------------------
# Expressions


class Expr(Record):
    pass


class Const(Expr):
    value: Any


class Var(Expr):
    name: str


class Concat(Expr):
    parts: tuple[Expr, ...]


class Join(Expr):
    items: Expr
    sep: str = " "


class ListExpr(Expr):
    items: tuple[Expr, ...]


class First(Expr):
    items: Expr


class IsSet(Expr):
    name: str


class Not(Expr):
    inner: Expr


class Eq(Expr):
    left: Expr
    right: Expr


# ---------------------------------------------------------------------------
# Statements


class Stmt(Record):
    pass


class Assign(Stmt):
    var: str
    value: Expr


class Append(Stmt):
    list_var: str
    value: Expr


class Rpc(Stmt):
    service: str
    method: str
    args: tuple[tuple[str, Expr], ...]
    line: int
    assign: str | None = None


class CallHelper(Stmt):
    helper: str
    args: tuple[tuple[str, Expr], ...]
    line: int
    assign: str | None = None


class Loop(Stmt):
    var: str
    items: Expr
    body: tuple[Stmt, ...]
    line: int = 0


class If(Stmt):
    cond: Expr
    then: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...] = ()


class Try(Stmt):
    body: tuple[Stmt, ...]
    catch: tuple[Stmt, ...] = ()


class Break(Stmt):
    pass


class Return(Stmt):
    value: Expr


class Raise(Stmt):
    message: str = "service-error"


class Spawn(Stmt):
    """Schedule a concurrent block; its handle is appended to `futures`."""

    futures: str
    body: tuple[Stmt, ...]
    line: int = 0


class AwaitAll(Stmt):
    """Wait for every handle in `futures`; results follow creation order."""

    futures: str
    line: int = 0
    assign: str | None = None


class OpenStream(Stmt):
    service: str
    method: str
    line: int
    assign: str


class StreamSend(Stmt):
    stream: str
    args: tuple[tuple[str, Expr], ...]
    line: int
    assign: str | None = None


class CloseStream(Stmt):
    stream: str


# ---------------------------------------------------------------------------
# Services and applications


class Endpoint(Record):
    method: str
    params: tuple[tuple[str, str], ...]
    body: tuple[Stmt, ...]


class Helper(Record):
    name: str
    params: tuple[str, ...]
    body: tuple[Stmt, ...]


class ServiceProgram(Record):
    name: str
    endpoints: Mapping[str, Endpoint]
    helpers: Mapping[str, Helper] = EMPTY_MAP

    @property
    def source_file(self) -> str:
        return f"{self.name}.py"


class EntryRequest(Record):
    service: str
    method: str
    args: Mapping[str, Any]


class Application(Record):
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
        """Check `entry` against the endpoint it names. An error names the
        field at fault by its path in a corpus document (`entry.method`)."""
        svc = self.services.get(entry.service)
        if svc is None:
            raise ProgramError(f"entry.service: unknown service {entry.service!r}")
        endpoint = svc.endpoints.get(entry.method)
        if endpoint is None:
            raise ProgramError(f"entry.method: unknown endpoint {entry.service}.{entry.method}")
        _check_args("entry.args", [name for name, _ in endpoint.params],
                    f"{entry.service}.{entry.method}", entry.args)


def _check_args(path: str, params: list[str], target: str, args: Iterable[str]) -> None:
    """Raise unless the argument names `args` are the parameters of `target`."""
    if set(args) != set(params):
        raise ProgramError(f"{path}: expected the parameters {params} of {target}, "
                           f"got {sorted(args)}")


# ---------------------------------------------------------------------------
# Reading JSON documents


class DocumentError(DexiError):
    """A field of a JSON document dexi reads is missing or of the wrong kind."""


_REQUIRED = object()

# The JSON kind of each type `json.loads` builds, as error messages name it.
_KIND_NAMES = {type(None): "null", bool: "a bool", int: "an integer", float: "a number",
               str: "a string", list: "a list", dict: "a map"}


def _at(path: str, key: str | int) -> str:
    """The JSON path of `key` in the map or list at `path`."""
    if type(key) is int:
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def read_field(doc: Any, key: str | int, kind: type, path: str = "",
               default: Any = _REQUIRED) -> Any:
    """`doc[key]`, checked to be of JSON `kind`: `str`, `int`, `bool`, `list`
    or `dict`. A bool is not an integer. `doc` is a map, or a list with `key`
    a position, at JSON path `path`. An absent key gives `default`, or is an
    error without one.

    Every corpus and trace field is read here, so every error has one form:
    `DocumentError("PATH: expected KIND, got KIND")` or `"PATH: missing"`.
    """
    value = doc[key] if type(key) is int else doc.get(key, _REQUIRED)
    if type(value) is kind:
        return value
    if value is not _REQUIRED:
        got = _KIND_NAMES.get(type(value), type(value).__name__)
        raise DocumentError(f"{_at(path, key)}: expected {_KIND_NAMES[kind]}, got {got}")
    if default is _REQUIRED:
        raise DocumentError(f"{_at(path, key)}: missing")
    return default


def read_positive(doc: Mapping[str, Any], key: str, path: str = "") -> int:
    """The integer `doc[key]`, checked to be at least 1 (a line, a count)."""
    value = read_field(doc, key, int, path)
    if value < 1:
        raise DocumentError(f"{_at(path, key)}: expected a positive integer, got {value}")
    return value


def _maps(doc: Mapping[str, Any], key: str, path: str,
          default: Any = _REQUIRED) -> list[tuple[str, dict]]:
    """(JSON path, map) for each item of the list of maps at `doc[key]`."""
    items = read_field(doc, key, list, path, default)
    where = _at(path, key)
    return [(_at(where, i), read_field(items, i, dict, where)) for i in range(len(items))]


# ---------------------------------------------------------------------------
# Parsing from JSON documents


def _expr(doc: Any, key: str | int, path: str) -> Expr:
    """The expression at `doc[key]`; `doc` sits at JSON path `path`."""
    expr = read_field(doc, key, dict, path)
    path = _at(path, key)
    if len(expr) != 1:
        raise DocumentError(f"{path}: an expression has exactly one key, got {len(expr)}")
    (op, arg), = expr.items()
    if op == "const":
        return Const(arg)
    if op in ("var", "is_set"):
        name = read_field(expr, op, str, path)
        return Var(name) if op == "var" else IsSet(name)
    if op in ("concat", "list", "eq"):
        items, where = read_field(expr, op, list, path), _at(path, op)
        parts = tuple(_expr(items, i, where) for i in range(len(items)))
        if op == "eq":
            if len(parts) != 2:
                raise DocumentError(f"{where}: expected 2 operands, got {len(parts)}")
            return Eq(*parts)
        return Concat(parts) if op == "concat" else ListExpr(parts)
    if op == "join":
        join, where = read_field(expr, op, dict, path), _at(path, op)
        return Join(_expr(join, "list", where), read_field(join, "sep", str, where, " "))
    if op == "first":
        return First(_expr(expr, op, path))
    if op == "not":
        return Not(_expr(expr, op, path))
    raise DocumentError(f"{path}: unknown expression operator {op!r}")


def _args(doc: Mapping[str, Any], path: str) -> tuple[tuple[str, Expr], ...]:
    args = read_field(doc, "args", dict, path, {})
    where = _at(path, "args")
    return tuple((name, _expr(args, name, where)) for name in args)


def _body(doc: Mapping[str, Any], key: str, path: str, calls: list,
          default: Any = _REQUIRED) -> tuple[Stmt, ...]:
    """The statement list at `doc[key]`. Each `rpc`, `call` and
    `open_stream` in it is appended to `calls` with its JSON path."""
    return tuple(_stmt(stmt, where, calls) for where, stmt in _maps(doc, key, path, default))


def _stmt(doc: Mapping[str, Any], path: str, calls: list) -> Stmt:
    op = read_field(doc, "op", str, path)

    def name(key: str, default: Any = _REQUIRED) -> str:
        return read_field(doc, key, str, path, default)

    def line(default: int | None = None) -> int:
        # Every `line` given is a positive integer; a call site's is the
        # stack frame it adds.
        if default is not None and "line" not in doc:
            return default
        return read_positive(doc, "line", path)

    if op == "assign":
        return Assign(name("var"), _expr(doc, "value", path))
    if op == "append":
        return Append(name("list"), _expr(doc, "value", path))
    if op in ("rpc", "call", "open_stream"):
        if op == "rpc":
            stmt = Rpc(name("service"), name("method"), _args(doc, path), line(),
                       name("assign", None))
        elif op == "call":
            stmt = CallHelper(name("helper"), _args(doc, path), line(), name("assign", None))
        else:
            stmt = OpenStream(name("service"), name("method"), line(), name("assign"))
        calls.append((path, stmt))
        return stmt
    if op == "loop":
        return Loop(name("var"), _expr(doc, "in", path), _body(doc, "body", path, calls), line(0))
    if op == "if":
        return If(_expr(doc, "cond", path), _body(doc, "then", path, calls, []),
                  _body(doc, "else", path, calls, []))
    if op == "try":
        return Try(_body(doc, "body", path, calls), _body(doc, "catch", path, calls, []))
    if op == "break":
        return Break()
    if op == "return":
        return Return(_expr(doc, "value", path))
    if op == "raise":
        return Raise(name("message", "service-error"))
    if op == "spawn":
        return Spawn(name("futures"), _body(doc, "body", path, calls), line(0))
    if op == "await_all":
        return AwaitAll(name("futures"), line(0), name("assign", None))
    if op == "stream_send":
        return StreamSend(name("stream"), _args(doc, path), line(), name("assign", None))
    if op == "close_stream":
        return CloseStream(name("stream"))
    raise DocumentError(f"{_at(path, 'op')}: unknown statement operator {op!r}")


def _service(doc: Mapping[str, Any], path: str, calls: list) -> ServiceProgram:
    name = read_field(doc, "name", str, path)
    endpoints: dict[str, Endpoint] = {}
    for where, ep in _maps(doc, "endpoints", path, []):
        method = read_field(ep, "method", str, where)
        if method in endpoints:
            raise ProgramError(f"{where}.method: endpoint {method!r} declared twice")
        params = tuple((read_field(p, "name", str, at), read_field(p, "type", str, at, "String"))
                       for at, p in _maps(ep, "params", where, []))
        endpoints[method] = Endpoint(method, params, _body(ep, "body", where, calls))
    helpers: dict[str, Helper] = {}
    for where, hp in _maps(doc, "helpers", path, []):
        helper = read_field(hp, "name", str, where)
        if helper in helpers:
            raise ProgramError(f"{where}.name: helper {helper!r} declared twice")
        params, at = read_field(hp, "params", list, where, []), _at(where, "params")
        params = tuple(read_field(params, i, str, at) for i in range(len(params)))
        helpers[helper] = Helper(helper, params, _body(hp, "body", where, calls))
    return ServiceProgram(name=name, endpoints=endpoints, helpers=helpers)


def parse_application(doc: Mapping[str, Any]) -> Application:
    """The application a corpus document's `services` declare. A fault in
    the document raises a `DexiError` whose message starts with the JSON path
    of the offending field."""
    try:
        calls: list[tuple[ServiceProgram, str, Stmt]] = []
        services: dict[str, ServiceProgram] = {}
        for path, svc_doc in _maps(doc, "services", ""):
            svc_calls: list[tuple[str, Stmt]] = []
            svc = _service(svc_doc, path, svc_calls)
            if svc.name in services:
                raise ProgramError(f"{path}.name: service {svc.name!r} declared twice")
            services[svc.name] = svc
            calls += [(svc, where, stmt) for where, stmt in svc_calls]
    except RecursionError:
        raise ProgramError("services: statements nest deeper than the parser can read") from None
    if not services:
        raise ProgramError("services: no service declared")
    for svc, path, stmt in calls:
        if isinstance(stmt, CallHelper):
            helper = svc.helpers.get(stmt.helper)
            if helper is None:
                raise ProgramError(f"{path}.helper: unknown helper {svc.name}.{stmt.helper}")
            target, params = f"{svc.name}.{stmt.helper}", list(helper.params)
        elif stmt.service not in services:
            raise ProgramError(f"{path}.service: unknown service {stmt.service!r}")
        elif stmt.method not in services[stmt.service].endpoints:
            raise ProgramError(f"{path}.method: unknown endpoint {stmt.service}.{stmt.method}")
        else:
            target, params = f"{stmt.service}.{stmt.method}", [
                name for name, _ in services[stmt.service].endpoints[stmt.method].params]
        if not isinstance(stmt, OpenStream):  # a stream's sends are checked as they run
            _check_args(f"{path}.args", params, target, [name for name, _ in stmt.args])
    return Application(services=services)


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

