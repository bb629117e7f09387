"""Scheduling-nondeterminism experiment on a two-service concurrent app.

A Hello service fans out a configurable number of concurrent RPCs to a World
service over a small worker pool. Each RPC's payload is its creation-order
tag, so comparing the order in which indexes were assigned against creation
order shows how often a count-based scheme would have permuted identifiers,
while the payload-inclusive index stays deterministic regardless.
"""

from __future__ import annotations

from .corpus import default_corpus_dir, load_entry
from .indexing import DexiError, Record
from .programs import Application, EntryRequest
from .simulator import run_execution


def build_hello_world_app() -> Application:
    """The `hello-world-concurrency` corpus app: hello fans out one RPC per
    incoming tag; world echoes a constant."""
    return load_entry(default_corpus_dir() / "hello-world-concurrency.json").app


def hello_world_entry(n_rpcs: int) -> EntryRequest:
    tags = [f"t{i:03d}" for i in range(n_rpcs)]
    return EntryRequest(service="hello", method="greet", args={"tags": tags})


class IterationRecord(Record):
    matched_creation_order: bool
    dei_multiset: tuple[str, ...]


class NondeterminismResult(Record):
    n_rpcs: int
    pool_size: int
    iterations: tuple[IterationRecord, ...]

    @property
    def match_fraction(self) -> float:
        if not self.iterations:
            return 1.0
        hits = sum(1 for it in self.iterations if it.matched_creation_order)
        return hits / len(self.iterations)

    @property
    def deterministic(self) -> bool:
        """True when every iteration produced the same full-index multiset."""
        multisets = {it.dei_multiset for it in self.iterations}
        return len(multisets) <= 1

    def to_json(self) -> dict:
        return {
            "n_rpcs": self.n_rpcs,
            "pool_size": self.pool_size,
            "iterations": len(self.iterations),
            "match_fraction": self.match_fraction,
            "deterministic": self.deterministic,
        }


def run_nondeterminism_experiment(
    n_rpcs: int,
    pool_size: int,
    iterations: int,
) -> NondeterminismResult:
    """Run the fan-out app repeatedly on real threads and record order matches.

    An iteration "matches" when index assignment order equals creation order,
    judged by the creation tags carried in the payloads.
    """
    if n_rpcs < 1 or pool_size < 1 or iterations < 1:
        raise DexiError("n_rpcs, pool_size, and iterations must all be >= 1")
    app = build_hello_world_app()
    entry = hello_world_entry(n_rpcs)
    records = []
    for _ in range(iterations):
        trace = run_execution(app, entry, scheduler="threads", pool_size=pool_size)
        observed = [
            dict(event.payload)["tag"]
            for event in trace.invocation_events()
            if event.payload is not None
        ]
        records.append(
            IterationRecord(
                matched_creation_order=(observed == entry.args["tags"]),
                dei_multiset=trace.dei_multiset(),
            )
        )
    return NondeterminismResult(
        n_rpcs=n_rpcs, pool_size=pool_size, iterations=tuple(records)
    )
