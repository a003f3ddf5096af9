"""Parallel execution runtime for the BSP engine.

Turns the single-process simulator into a real parallel runtime behind a
pluggable executor interface: a zero-copy shared graph over
``multiprocessing.shared_memory``, one superstep schedule (static,
work-stealing, pipelined) that submits its units inline, to a thread
pool or to a process pool, and deterministic message shuffling at the
barrier.  See ``docs/runtime.md`` for the protocol.
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
