"""Distributed execution indexing for request-level fault injection.

The package has four layers: identifier types and operations (`indexing`),
an in-process microservice simulator that assigns and propagates indexes
(`simulator`, `programs`), a systematic fault-space search with dynamic
reduction (`search`), and the bundled example corpus plus CLI.
"""

from .indexing import (
    CONFIG_LABELS,
    CallStackDigest,
    CounterState,
    DistributedExecutionIndex,
    EMPTY_INDEX,
    EMPTY_PAYLOAD,
    EMPTY_STACK,
    FULL_CONFIG,
    InstantiationConfig,
    InvocationPayload,
    InvocationSignature,
    Signature,
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
from .programs import Application, EntryRequest, ServiceProgram, parse_application
from .simulator import (
    ExecutionTrace,
    FaultPlan,
    FaultSpec,
    RpcEvent,
    propagate_context,
    run_execution,
)
from .search import (
    FaultCatalog,
    SearchReport,
    completeness_check,
    dynamic_reduction,
    explore,
    reconstruct_graph,
)
from .corpus import CorpusEntry, load_corpus
from .experiment import run_nondeterminism_experiment

__all__ = [
    "CONFIG_LABELS",
    "Application",
    "CallStackDigest",
    "CorpusEntry",
    "CounterState",
    "DistributedExecutionIndex",
    "EMPTY_INDEX",
    "EMPTY_PAYLOAD",
    "EMPTY_STACK",
    "EntryRequest",
    "ExecutionTrace",
    "FULL_CONFIG",
    "FaultCatalog",
    "FaultPlan",
    "FaultSpec",
    "InstantiationConfig",
    "InvocationPayload",
    "InvocationSignature",
    "RpcEvent",
    "SearchReport",
    "ServiceProgram",
    "Signature",
    "completeness_check",
    "config_from_label",
    "counter_next",
    "decode",
    "dei_extend",
    "dynamic_reduction",
    "encode",
    "explore",
    "is_prefix",
    "load_corpus",
    "make_invocation_signature",
    "parse_application",
    "project",
    "project_assignment",
    "propagate_context",
    "reconstruct_graph",
    "run_execution",
    "run_nondeterminism_experiment",
]
