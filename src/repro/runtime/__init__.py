"""Parallel execution runtime for the BSP engine.

Turns the single-process simulator into a real parallel runtime behind a
pluggable executor interface: one read-only graph every pool process
scans (inherited under fork, a ``multiprocessing.shared_memory``
export under spawn), one superstep schedule (static or
work-stealing) that submits its units inline, to a thread pool or to
process lanes, and deterministic message shuffling at the barrier, where
every worker's outbox arrives whole.  See ``docs/runtime.md`` for the protocol.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".executor": (
        "JobSpec",
        "SuperstepExecutor",
        "WorkerAggregators",
        "WorkerBatch",
        "WorkerStepResult",
        "fresh_aggregators",
        "run_inline",
        "run_replica_batch",
    ),
    ".serial": ("SerialExecutor",),
    ".threaded": ("ThreadExecutor",),
    ".process": ("ProcessExecutor", "default_procs"),
    ".registry": ("available_backends", "make_executor", "register_backend"),
    ".shared_graph": (
        "AttachedSharedGraph",
        "SharedGraphExport",
        "SharedGraphHandle",
        "attach_shared_graph",
    ),
})
