"""Parallel execution runtime for the BSP engine.

Turns the single-process simulator into a real parallel runtime behind a
pluggable executor interface: a zero-copy shared graph over
``multiprocessing.shared_memory``, one superstep schedule (static,
work-stealing, pipelined) that submits its units inline, to a thread
pool or to a process pool, and deterministic message shuffling at the
barrier.  See ``docs/runtime.md`` for the protocol.
"""

from .executor import (
    JobSpec,
    SuperstepExecutor,
    WorkerAggregators,
    WorkerBatch,
    WorkerStepResult,
    fresh_aggregators,
    run_inline,
    run_replica_batch,
    run_worker_batch,
)
from .process import ProcessExecutor, default_procs
from .registry import available_backends, make_executor, register_backend
from .serial import SerialExecutor
from .shared_graph import (
    AttachedSharedGraph,
    SharedGraphExport,
    SharedGraphHandle,
    attach_shared_graph,
)
from .threaded import ThreadExecutor

__all__ = [
    "JobSpec",
    "SuperstepExecutor",
    "WorkerAggregators",
    "WorkerBatch",
    "WorkerStepResult",
    "fresh_aggregators",
    "run_inline",
    "run_replica_batch",
    "run_worker_batch",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "default_procs",
    "available_backends",
    "make_executor",
    "register_backend",
    "AttachedSharedGraph",
    "SharedGraphExport",
    "SharedGraphHandle",
    "attach_shared_graph",
]
