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
import queue
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from time import perf_counter
from typing import Any, List, Optional

from ..bsp.message import PackedWorkerBatch
from .executor import (
    JobSpec,
    SuperstepExecutor,
    WorkerAggregators,
    WorkerBatch,
    WorkerStepResult,
    fresh_aggregators,
    run_worker_batch,
)


class ThreadExecutor(SuperstepExecutor):
    """One replica per logical worker, batches on a thread pool."""

    inprocess = False
    name = "thread"

    def __init__(self, procs: Optional[int] = None):
        self._procs = procs
        self._pool: Optional[ThreadPoolExecutor] = None
        self._replicas: List[Any] = []
        self._states: List[dict] = []
        self._spec: Optional[JobSpec] = None

    def start(self, spec: JobSpec) -> None:
        self._spec = spec
        setup_started = perf_counter()
        # One pickle round-trip per logical worker: drops the graph via the
        # program's __getstate__, then rebinds the *shared* graph object —
        # replicas own their mutable state but alias one adjacency.
        payload = pickle.dumps(spec.program)
        shared_arrays = spec.program.export_shared()
        self._replicas = []
        for _ in range(spec.num_workers):
            replica = pickle.loads(payload)
            # Threads share one address space: the driver's own arrays
            # pass through by reference, no copy per replica.
            replica.bind_shared(spec.graph, shared_arrays)
            self._replicas.append(replica)
        self._states = [{} for _ in range(spec.num_workers)]
        self._width = max(self._procs or min(spec.num_workers, 4), 1)
        self._pool = ThreadPoolExecutor(max_workers=self._width)
        if spec.tracer.enabled:
            spec.tracer.emit(
                "executor",
                wall_ms=(perf_counter() - setup_started) * 1000.0,
                backend=self.name,
                inprocess=False,
                pool=self._width,
                replicas=len(self._replicas),
                replica_bytes=len(payload),
            )

    def run_superstep(
        self,
        superstep: int,
        batches: List[WorkerBatch],
        registry: Any,
        chunk_sink: Any = None,
    ) -> List[WorkerStepResult]:
        spec = self._spec
        snapshot = registry.snapshot()
        if spec.config.steal and any(
            isinstance(batch, PackedWorkerBatch) for batch in batches
        ):
            return self._run_stolen(superstep, batches, spec, snapshot)

        # Pipelined shuffle: workers push flushed chunks onto a bounded
        # queue (backpressure caps in-flight memory at O(depth × chunk))
        # and a single drain thread feeds the engine's sink — the sink
        # touches the barrier store, so one consumer keeps it race-free
        # without per-chunk lock contention from the pool.
        chunk_queue: Optional[queue.Queue] = None
        drain_thread: Optional[threading.Thread] = None
        sink_errors: List[BaseException] = []
        worker_sink = None
        if chunk_sink is not None:
            chunk_queue = queue.Queue(maxsize=max(4, 2 * self._width))

            def _drain() -> None:
                while True:
                    item = chunk_queue.get()
                    if item is None:
                        return
                    try:
                        chunk_sink(*item)
                    except BaseException as exc:  # noqa: BLE001
                        sink_errors.append(exc)

            drain_thread = threading.Thread(
                target=_drain, name="psgl-chunk-drain", daemon=True
            )
            drain_thread.start()

            def worker_sink(worker_id: int, seq: int, batch: Any) -> None:
                chunk_queue.put((worker_id, seq, batch))

        def run_one(worker_id: int, batch: WorkerBatch) -> WorkerStepResult:
            program = self._replicas[worker_id]
            shim = WorkerAggregators(fresh_aggregators(program), snapshot)
            return run_worker_batch(
                program=program,
                graph=spec.graph,
                partition=spec.partition,
                num_workers=spec.num_workers,
                worker_id=worker_id,
                superstep=superstep,
                batch=batch,
                worker_state=self._states[worker_id],
                aggregators=shim,
                collect_delta=True,
                wire=spec.wire,
                chunk_sink=worker_sink,
                chunk_gpsis=spec.config.chunk_gpsis,
                chunk_bytes=spec.config.chunk_bytes,
            )

        futures = [
            (w, self._pool.submit(run_one, w, batch))
            for w, batch in enumerate(batches)
            if batch
        ]
        try:
            results = [future.result() for _, future in futures]
        finally:
            if drain_thread is not None:
                # Producers must be done before the sentinel goes in, or
                # a late put could land behind it and block forever on a
                # full queue once the drain exits.
                wait([future for _, future in futures])
                chunk_queue.put(None)
                drain_thread.join()
        if sink_errors:
            raise sink_errors[0]
        return results

    def _run_stolen(
        self,
        superstep: int,
        batches: List[WorkerBatch],
        spec: JobSpec,
        snapshot: dict,
    ) -> List[WorkerStepResult]:
        """The dynamic schedule: split batches into steal tasks, drain
        them on physical threads (own deque first, steal from the
        most-loaded victim when idle), then finalize every owner in
        canonical order on this (driver) thread.

        Expansion runs on the task owner's *replica* — the pure half
        touches only the replica's read-only shared data plus a detached
        index view, so concurrent thieves on one replica never race.
        Finalize replays outcomes against the **driver's** program: its
        per-owner ``collect_state_delta`` stream merges at the engine
        barrier exactly like replica deltas would, and the probe/tally
        state lands on the same object either way.
        """
        from .stealing import (
            expand_steal_task,
            finalize_owner,
            run_stolen_superstep,
        )

        def expand(task):
            return expand_steal_task(self._replicas[task.owner], task)

        def finalize(owner: int, task_results) -> WorkerStepResult:
            shim = WorkerAggregators(
                fresh_aggregators(spec.program), snapshot
            )
            return finalize_owner(
                spec.program,
                spec,
                owner,
                superstep,
                task_results,
                self._states[owner],
                shim,
                collect_delta=True,
            )

        def runner(loops) -> None:
            futures = [self._pool.submit(loop) for loop in loops]
            for future in futures:
                future.result()

        results, steals, events = run_stolen_superstep(
            spec,
            superstep,
            batches,
            expand=expand,
            finalize=finalize,
            lanes=self._width,
            runner=runner,
        )
        self.steals_total += steals
        if spec.tracer.enabled:
            for event in events:
                spec.tracer.emit("steal", **event)
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._replicas = []
        self._states = []
        self._spec = None
