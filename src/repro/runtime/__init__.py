"""Parallel execution runtime for the BSP engine.

Turns the single-process simulator into a real parallel runtime: one
read-only graph every child lane scans (inherited at fork), one
superstep schedule that runs its units inline (``serial``) or deals them
to process lanes (``process``), and deterministic message shuffling at
the barrier, where every worker's outbox arrives whole.  See
``docs/runtime.md`` for the protocol.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".executor": (
        "JobSpec",
        "SuperstepExecutor",
        "WorkerBatch",
        "WorkerStepResult",
        "run_replica_batch",
    ),
    ".process": ("ProcessExecutor", "default_procs"),
})
