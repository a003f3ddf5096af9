"""The process backend: real parallelism over a shared-memory graph.

Topology
--------
* The driver exports the data graph once as CSR arrays in
  ``multiprocessing.shared_memory`` (:mod:`repro.runtime.shared_graph`).
* A persistent pool of OS processes attaches at initialisation: each
  child maps the blocks, rebuilds a zero-copy :class:`Graph`, unpickles
  **one** program replica (the pickle omits the graph; ``bind_graph``
  splices the shared one in) and keeps both for the whole job.
* Every superstep the driver ships each non-empty logical worker's batch
  — active vertices, delivered payloads, the worker's private state dict
  and an aggregator snapshot — and receives the worker's outbox batch,
  ledger delta, outputs, aggregator contributions and program state
  delta.  The engine shuffles returned messages by destination worker at
  the barrier (merge in worker-id order keeps delivery order identical
  to the serial engine).

Logical workers are *location independent*: their private state rides
along with the batch, so any pool process can execute any worker in any
superstep and results stay deterministic.  Requirements on the program:
picklable sans graph, picklable messages/outputs/worker state, and the
state-delta hooks for driver-side mutable state.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_mod
import threading
from concurrent.futures import ProcessPoolExecutor, wait
from time import perf_counter, sleep
from typing import Any, Dict, List, Optional

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
from .shared_graph import (
    AttachedSharedGraph,
    SharedGraphExport,
    SharedGraphHandle,
    attach_shared_graph,
)

# Child-process globals, set once by the pool initializer.
_child_graph: Optional[AttachedSharedGraph] = None
_child_program: Any = None
_child_partition: Any = None
_child_num_workers: int = 0
_child_wire: str = "object"
_child_chunk_queue: Any = None
_child_chunk_gpsis: Optional[int] = None
_child_chunk_bytes: Optional[int] = None


def _init_child(
    handle: SharedGraphHandle,
    program_bytes: bytes,
    partition: Any,
    num_workers: int,
    wire: str,
    chunk_queue: Any = None,
    chunk_gpsis: Optional[int] = None,
    chunk_bytes: Optional[int] = None,
) -> None:
    global _child_graph, _child_program, _child_partition, _child_num_workers
    global _child_wire, _child_chunk_queue, _child_chunk_gpsis
    global _child_chunk_bytes
    _child_graph = attach_shared_graph(handle)
    _child_program = pickle.loads(program_bytes)
    _child_program.bind_shared(_child_graph.graph, _child_graph.aux)
    _child_partition = partition
    _child_num_workers = num_workers
    _child_wire = wire
    _child_chunk_queue = chunk_queue
    _child_chunk_gpsis = chunk_gpsis
    _child_chunk_bytes = chunk_bytes


def _run_child_batch(
    worker_id: int,
    superstep: int,
    batch: WorkerBatch,
    worker_state: Dict[str, Any],
    snapshot_bytes: bytes,
) -> WorkerStepResult:
    # The driver pickles the aggregator snapshot once per superstep (not
    # once per submitted worker); each child unpickles its copy locally.
    snapshot = pickle.loads(snapshot_bytes)
    shim = WorkerAggregators(fresh_aggregators(_child_program), snapshot)
    if _child_chunk_queue is not None:
        cq = _child_chunk_queue

        def chunk_sink(wid: int, seq: int, chunk: Any) -> None:
            # Bounded mp.Queue: a full queue blocks the sender here, so
            # in-flight chunk memory stays O(queue depth × chunk bytes)
            # however fast workers expand.
            cq.put((wid, seq, chunk))

    else:
        chunk_sink = None
    result = run_worker_batch(
        program=_child_program,
        graph=_child_graph.graph,
        partition=_child_partition,
        num_workers=_child_num_workers,
        worker_id=worker_id,
        superstep=superstep,
        batch=batch,
        worker_state=worker_state,
        aggregators=shim,
        collect_delta=True,
        wire=_child_wire,
        chunk_sink=chunk_sink,
        chunk_gpsis=_child_chunk_gpsis,
        chunk_bytes=_child_chunk_bytes,
    )
    # The state dict was mutated in place; ship it back so the logical
    # worker can land on a different pool process next superstep.
    result.worker_state = worker_state
    return result


def _run_child_task(task: Any) -> Any:
    """Run one steal task's pure expansion half in this pool process.

    The returned :class:`~repro.runtime.stealing.TaskResult` ships only
    outcomes and probe-counter deltas (the driver keeps the task table);
    ``lane`` records the executing pid so the driver can tell which
    tasks migrated off their owner's process.
    """
    from .stealing import expand_steal_task

    started = perf_counter()
    result = expand_steal_task(_child_program, task)
    result.lane = os.getpid()
    result.wall_ms = (perf_counter() - started) * 1000.0
    # Drop the driver-side-only payload before pickling the result home.
    result.vertices = None
    return result


def default_procs(num_workers: int) -> int:
    """Pool width: one process per logical worker, capped by the machine."""
    return max(1, min(num_workers, os.cpu_count() or 1))


class ProcessExecutor(SuperstepExecutor):
    """Process-pool superstep executor over a shared-memory graph."""

    inprocess = False
    name = "process"

    def __init__(
        self,
        procs: Optional[int] = None,
        start_method: Optional[str] = None,
    ):
        self._procs = procs
        self._start_method = start_method
        self._pool: Optional[ProcessPoolExecutor] = None
        self._export: Optional[SharedGraphExport] = None
        self._states: List[Dict[str, Any]] = []
        self._spec: Optional[JobSpec] = None
        self._chunk_queue: Any = None

    def start(self, spec: JobSpec) -> None:
        self._spec = spec
        setup_started = perf_counter()
        # The program's precomputed per-vertex arrays (ranks, degree
        # statistics) ride along the CSR blocks: one copy per machine,
        # re-attached zero-copy by every pool process.
        self._export = SharedGraphExport(
            spec.graph, aux=spec.program.export_shared()
        )
        if spec.tracer.enabled:
            spec.tracer.emit(
                "export",
                total_bytes=self._export.nbytes(),
                **self._export.block_sizes(),
            )
        program_bytes = pickle.dumps(spec.program)
        method = self._start_method
        if method is None:
            # fork shares the warm interpreter (fast start); fall back to
            # spawn where fork is unavailable (e.g. Windows, macOS default).
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else "spawn"
        procs = self._procs or default_procs(spec.num_workers)
        mp_context = multiprocessing.get_context(method)
        if spec.config.shuffle == "pipelined":
            # One queue for the whole job, created from the pool's own
            # context so it survives spawn pickling.  Bounded: a full
            # queue blocks senders, capping driver-side in-flight chunks.
            self._chunk_queue = mp_context.Queue(maxsize=max(8, 2 * procs))
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=procs,
                mp_context=mp_context,
                initializer=_init_child,
                initargs=(
                    self._export.handle,
                    program_bytes,
                    spec.partition,
                    spec.num_workers,
                    spec.wire,
                    self._chunk_queue,
                    spec.config.chunk_gpsis,
                    spec.config.chunk_bytes,
                ),
            )
        except Exception:
            self._export.close()
            self._export = None
            raise
        self._states = [{} for _ in range(spec.num_workers)]
        if spec.tracer.enabled:
            spec.tracer.emit(
                "executor",
                wall_ms=(perf_counter() - setup_started) * 1000.0,
                backend=self.name,
                inprocess=False,
                pool=procs,
                start_method=method,
            )

    def run_superstep(
        self,
        superstep: int,
        batches: List[WorkerBatch],
        registry: Any,
        chunk_sink: Any = None,
    ) -> List[WorkerStepResult]:
        spec = self._spec
        if spec.config.steal and any(
            isinstance(batch, PackedWorkerBatch) for batch in batches
        ):
            return self._run_stolen(superstep, batches, registry)
        snapshot_bytes = pickle.dumps(registry.snapshot())

        # Pipelined shuffle: children put flushed chunks on the shared
        # mp.Queue while they compute; a driver-side drain thread feeds
        # them into the engine's sink concurrently with the still-running
        # futures — this is where shuffle overlaps compute for real.
        drain_thread: Optional[threading.Thread] = None
        received = [0]
        sink_errors: List[BaseException] = []
        stop = threading.Event()
        if chunk_sink is not None:
            if self._chunk_queue is None:
                raise RuntimeError(
                    "executor was started without shuffle='pipelined'"
                )
            cq = self._chunk_queue

            def _drain() -> None:
                while True:
                    try:
                        item = cq.get(timeout=0.05)
                    except queue_mod.Empty:
                        if stop.is_set():
                            return
                        continue
                    try:
                        chunk_sink(*item)
                    except BaseException as exc:  # noqa: BLE001
                        sink_errors.append(exc)
                    finally:
                        received[0] += 1

            drain_thread = threading.Thread(
                target=_drain, name="psgl-chunk-drain", daemon=True
            )
            drain_thread.start()

        futures = [
            self._pool.submit(
                _run_child_batch,
                worker_id,
                superstep,
                batch,
                self._states[worker_id],
                snapshot_bytes,
            )
            for worker_id, batch in enumerate(batches)
            if batch
        ]
        try:
            results = [future.result() for future in futures]
        except BaseException:
            # A child raised.  The remaining futures keep running in the
            # pool — cancel what has not started and *wait out* what has,
            # so the engine's teardown (which unlinks the shared CSR
            # blocks in close()) can never race live children still
            # scanning them.
            for future in futures:
                future.cancel()
            wait(futures)
            if drain_thread is not None:
                stop.set()
                drain_thread.join()
                self._purge_chunk_queue()
            raise
        if drain_thread is not None:
            # mp.Queue puts are asynchronous (a feeder thread ships the
            # bytes), so a child's future can resolve before its last
            # chunk arrives.  Each result carries its exact flush count;
            # wait until the drain consumed every expected chunk.
            expected = sum(result.chunks_flushed for result in results)
            deadline = perf_counter() + 60.0
            while received[0] < expected:
                if perf_counter() > deadline:
                    stop.set()
                    drain_thread.join()
                    raise RuntimeError(
                        "pipelined shuffle lost chunks: received "
                        f"{received[0]} of {expected} at superstep "
                        f"{superstep}"
                    )
                sleep(0.0005)
            stop.set()
            drain_thread.join()
            if sink_errors:
                raise sink_errors[0]
        for result in results:
            self._states[result.worker_id] = result.worker_state
            result.worker_state = None  # driver-side bookkeeping only
        return results

    def _run_stolen(
        self, superstep: int, batches: List[WorkerBatch], registry: Any
    ) -> List[WorkerStepResult]:
        """The dynamic schedule on the process pool: one future per
        steal task, driver-side canonical finalize.

        The pool's shared submission queue *is* the steal deque here —
        any idle child picks up the next task regardless of owner, so a
        straggling owner's later slices migrate to whichever processes
        free up first.  A task counts as stolen when it ran on a
        different pid than the owner's first slice (the owner's "home"
        process for the superstep).  Expansion ships only packed column
        slices out and outcome arrays back; all owner state stays
        driver-side, consumed by the canonical finalize in worker-id /
        seq order, which keeps results bit-identical to the static
        schedule.
        """
        from .stealing import finalize_owner, split_batch

        spec = self._spec
        snapshot = registry.snapshot()
        tasks_by_owner: Dict[int, List[Any]] = {}
        futures = []
        for owner, batch in enumerate(batches):
            if isinstance(batch, PackedWorkerBatch) and len(batch.vertices):
                tasks = split_batch(owner, batch, spec.config.steal_tasks)
                tasks_by_owner[owner] = tasks
                futures.extend(
                    self._pool.submit(_run_child_task, task) for task in tasks
                )
        try:
            task_results = [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            wait(futures)
            raise
        by_owner: Dict[int, List[Any]] = {o: [] for o in tasks_by_owner}
        for result in task_results:
            by_owner[result.owner].append(result)
        results: List[WorkerStepResult] = []
        for owner in sorted(by_owner):
            owner_results = sorted(by_owner[owner], key=lambda r: r.seq)
            for task, result in zip(tasks_by_owner[owner], owner_results):
                result.vertices = task.vertices
                result.rows = task.rows
            home = owner_results[0].lane
            for result in owner_results:
                if result.lane != home:
                    result.stolen = True
                    self.steals_total += 1
                    if spec.tracer.enabled:
                        spec.tracer.emit(
                            "steal",
                            superstep=superstep,
                            worker=owner,
                            wall_ms=result.wall_ms,
                            seq=result.seq,
                            lane=result.lane,
                            rows=result.rows,
                        )
            shim = WorkerAggregators(
                fresh_aggregators(spec.program), snapshot
            )
            results.append(
                finalize_owner(
                    spec.program,
                    spec,
                    owner,
                    superstep,
                    owner_results,
                    self._states[owner],
                    shim,
                    collect_delta=True,
                )
            )
        return results

    def _purge_chunk_queue(self) -> None:
        """Best-effort drop of undelivered chunks after a failed step."""
        if self._chunk_queue is None:
            return
        try:
            while True:
                self._chunk_queue.get_nowait()
        except queue_mod.Empty:
            pass

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._chunk_queue is not None:
            self._chunk_queue.close()
            self._chunk_queue = None
        if self._export is not None:
            self._export.close()
            self._export = None
        self._states = []
        self._spec = None
