"""The thread backend: program replicas on a shared-memory thread pool.

Each logical worker computes on its **own replica** of the vertex program
(cloned once at job start via the same pickle contract the process
backend uses), so ``compute`` never races on program state; the one data
structure all threads share is the read-only data graph, which needs no
copy at all in a single address space.  Driver-side state flows back
through the program's state-delta hooks, merged at the barrier in
worker-id order — the same deterministic protocol as the process backend.

Python's GIL serialises pure-Python compute, so this backend mostly buys
overlap for programs that release the GIL (numpy-heavy kernels) and a
cheap way to exercise the replica/delta protocol without process startup
costs.
"""

from __future__ import annotations

import pickle
from concurrent.futures import Future, ThreadPoolExecutor
from time import perf_counter
from typing import Any, Callable, List, Optional

from .executor import JobSpec, SuperstepExecutor, pickle_program


class ThreadExecutor(SuperstepExecutor):
    """One replica per logical worker, units on a thread pool."""

    name = "thread"

    def __init__(self, procs: Optional[int] = None):
        self._procs = procs
        self._pool: Optional[ThreadPoolExecutor] = None
        self._replicas: List[Any] = []

    def start(self, spec: JobSpec) -> None:
        setup_started = perf_counter()
        # One pickle round-trip per logical worker: drops the graph via the
        # program's __getstate__, then rebinds the *shared* graph object —
        # replicas own their mutable state but alias one adjacency.
        payload = pickle_program(spec.program, self.name)
        shared_arrays = spec.program.export_shared()
        self._replicas = []
        for _ in range(spec.num_workers):
            replica = pickle.loads(payload)
            # Threads share one address space: the driver's own arrays
            # pass through by reference, no copy per replica.
            replica.bind_shared(spec.graph, shared_arrays)
            self._replicas.append(replica)
        width = max(self._procs or min(spec.num_workers, 4), 1)
        super().start(spec)
        self._pool = ThreadPoolExecutor(max_workers=width)
        if spec.tracer.enabled:
            spec.tracer.emit(
                "executor",
                wall_ms=(perf_counter() - setup_started) * 1000.0,
                backend=self.name,
                pool=width,
                replicas=len(self._replicas),
                replica_bytes=len(payload),
            )

    def _submit(self, owner: int, unit: Callable[..., Any], *args: Any) -> Future:
        # Every unit runs on its owner's replica.  A steal task's pure
        # half touches only the replica's read-only shared data plus a
        # detached index view, so concurrent thieves on one replica
        # never race.
        return self._pool.submit(unit, self._spec, self._replicas[owner], *args)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._replicas = []
        super().close()
