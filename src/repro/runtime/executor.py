"""The superstep schedule, the executor interface and the worker-batch kernel.

Each superstep the BSP engine builds one *batch* per logical worker — the
worker's active vertices with their delivered rows, in deterministic
order — and hands all batches to a :class:`SuperstepExecutor`, which
returns one :class:`WorkerStepResult` per non-empty batch.  The engine
then merges results **in worker-id order**, which makes every backend
reproduce the serial engine's outputs, ledger and message order exactly:

* per-worker iteration order is fixed by the batch,
* per-worker accumulation (cost, sends, outputs) happens locally in that
  order, and
* the merge concatenates per-worker effects in the same order the serial
  loop interleaved them (worker 0's sends always precede worker 1's).

One schedule, many pools
------------------------
:meth:`SuperstepExecutor.run_superstep` is the runtime's only execution
loop: submit one unit of work per non-empty owner — or, under
``steal=True``, one per steal task — gather in worker-id order, cancel
and wait out everything on failure, drain the job's chunk queue into the
engine's sink under pipelined shuffle, finalize stolen owners canonically
on the driver.  A backend only says *where* a unit runs: ``start`` /
``close`` own its pool and shared resources, and one hook,
``_submit(owner, unit, *args)``, runs ``unit(spec, program, *args)`` on a
replica of the program and returns its future.

One worker contract
-------------------
Every batch runs the way a Giraph worker does, through
:func:`run_replica_batch`: aggregator reads answer from the one
``registry.snapshot()`` the schedule takes per superstep (the values
published at the last barrier), contributions reduce locally, and the
program's tallies come back as a
:meth:`~repro.bsp.vertex_program.VertexProgram.collect_state_delta` that
the engine merges in worker-id order.  Only *which* object is the
replica differs: the driver's own program on the serial backend (nothing
is pickled), a pickled copy per logical worker on threads, one per pool
process on processes.
"""

from __future__ import annotations

import pickle
import queue
import threading
from concurrent.futures import Future, wait
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..bsp.config import ExecutionConfig
from ..bsp.message import ColumnarOutbox, PackedWorkerBatch
from ..bsp.vertex_program import ComputeContext, VertexProgram
from ..exceptions import EngineError
from ..graph.graph import Graph
from ..graph.partition import Partition
from ..obs.tracer import NULL_TRACER

# One logical worker's superstep input: its initial vertices as one
# ``int64`` array at superstep 0, then a still-packed
# ``PackedWorkerBatch``, cut into row blocks — packed buffers, not
# per-message objects, are what crosses any process boundary.
WorkerBatch = Any

#: Parent rows per ``compute_columns`` call under the static schedule.
#: A constant, not a knob: it bounds the flat temporaries of one
#: expansion, so peak memory does not follow superstep volume, and is
#: large enough that per-call set-up is noise.
EXPAND_BLOCK_ROWS = 2048

#: How long the pipelined barrier waits for a superstep's missing chunks
#: before it calls them lost.  A constant, not a knob.
DRAIN_JOIN_SECONDS = 60.0


def row_ranges(rows: int, step: int) -> List[Tuple[int, int]]:
    """``[lo, hi)`` cuts of ``rows`` delivered rows, ``step`` at a time —
    how both schedules cut a packed batch into compute calls.  Rows carry
    their own destination vertex, so a cut may fall anywhere."""
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


@dataclass
class JobSpec:
    """Everything an executor needs to set up a job, and everything a
    worker batch reads while it runs (:func:`run_replica_batch` takes the
    spec, not a dozen copies of its fields)."""

    program: VertexProgram
    graph: Graph
    partition: Partition
    num_workers: int
    #: Observability sink for backend lifecycle events (setup wall time,
    #: pool configuration, shared-memory export sizes); defaults to the
    #: no-op tracer so executors emit unconditionally behind one flag.
    tracer: Any = NULL_TRACER
    #: The job's :class:`~repro.bsp.config.ExecutionConfig`: executors
    #: read shuffle mode, chunk watermarks and the steal settings off it.
    config: ExecutionConfig = ExecutionConfig()
    #: The job's chunk queue, filled in by a pooled backend's ``start``
    #: under pipelined shuffle (``queue.Queue`` for threads, the pool
    #: context's ``mp.Queue`` for processes; both bounded, so a stalled
    #: driver back-pressures senders and in-flight chunk memory stays
    #: O(depth × chunk)).  Workers ``put((worker_id, seq, chunk))`` while
    #: they compute; the schedule's drain thread is the one consumer.
    #: ``None`` means workers hold their whole outbox: the strict
    #: schedule.
    chunk_queue: Any = None


@dataclass
class WorkerStepResult:
    """What one logical worker produced in one superstep.

    ``outbox`` is the worker's sent messages: one packed, self-addressed
    :class:`~repro.core.psi.GpsiColumns` in send order.
    ``messages_sent`` counts every row the worker sent (streamed chunks
    included), matching the ledger's accounting.  ``inbound`` counts them
    per *destination-owning* worker, which feeds the per-worker OOM
    budget.
    """

    worker_id: int
    outbox: Any
    messages_sent: int
    inbound: List[int]
    compute_calls: int
    cost: float
    outputs: List[Any]
    #: Reduced aggregator contributions (touched aggregators only).
    agg_contribs: Dict[str, Any]
    #: What ``collect_state_delta`` returned after the batch.
    state_delta: Any
    #: The worker's private state dict as the batch left it, which the
    #: schedule adopts: where the batch ran on a copy of the dict (a pool
    #: process), that is how the logical worker can land on a different
    #: pool member next superstep.
    worker_state: Dict[str, Any]
    #: Exact bytes of the packed outbox buffers.  Under pipelined shuffle
    #: this covers streamed chunks *plus* the residual ``outbox``, so the
    #: accounting stays mode-invariant.
    wire_bytes: int = 0
    #: Pipelined shuffle: chunks streamed through the chunk queue before
    #: this result returned (the residual ``outbox`` rides on top with
    #: sequence number ``chunks_flushed``).  The schedule's drain uses
    #: the sum over results as its completion count.
    chunks_flushed: int = 0
    #: Pipelined shuffle: ``(rows, nbytes, offset_ms)`` per streamed
    #: chunk, offsets measured from the worker batch's start — feeds the
    #: ``chunk_flush`` trace events.
    chunk_stats: Optional[List[Tuple[int, int, float]]] = None
    #: Largest single send — the slack term in the chunk-size bound.
    max_send_bytes: int = 0


class WorkerAggregators:
    """Per-batch aggregator shim: what ``ctx.aggregate`` and
    ``ctx.aggregated`` reach on every backend.

    Contributions fold into fresh identity-initialised aggregators (so the
    batch's reduced contribution can be shipped to the driver and merged
    there); reads answer from the barrier snapshot the driver provided.
    """

    __slots__ = ("_aggs", "_snapshot", "_touched")

    def __init__(self, aggs: Dict[str, Any], snapshot: Dict[str, Any]):
        self._aggs = aggs
        self._snapshot = snapshot
        self._touched: set = set()

    def aggregate(self, name: str, value: Any) -> None:
        if name not in self._aggs:
            raise KeyError(f"unknown aggregator {name!r}")
        self._aggs[name].aggregate(value)
        self._touched.add(name)

    def visible(self, name: str) -> Any:
        if name not in self._snapshot:
            raise KeyError(f"unknown aggregator {name!r}")
        return self._snapshot[name]

    def contributions(self) -> Dict[str, Any]:
        """Reduced contributions of this batch (touched aggregators only)."""
        return {name: self._aggs[name].value for name in self._touched}


def fresh_aggregators(program: VertexProgram) -> Dict[str, Any]:
    """Identity-initialised aggregator instances for one batch."""
    aggs = dict(program.aggregators())
    aggs.update(program.persistent_aggregators())
    return aggs


def _compute_batch(
    program: VertexProgram, ctx: ComputeContext, batch: WorkerBatch
) -> int:
    """Run the program over one worker's batch, in batch order; returns
    the number of active vertices computed (the Pregel quantity, however
    many calls a packed batch took)."""
    if isinstance(batch, PackedWorkerBatch):
        columns = batch.columns
        for lo, hi in row_ranges(len(columns), EXPAND_BLOCK_ROWS):
            program.compute_columns(ctx, columns.row_slice(lo, hi))
    else:
        program.initialize_columns(ctx, batch)
    return len(batch)


def run_replica_batch(
    spec: JobSpec,
    program: VertexProgram,
    worker_id: int,
    superstep: int,
    batch: WorkerBatch,
    worker_state: Dict[str, Any],
    snapshot: Dict[str, Any],
    drive: Optional[Callable[[ComputeContext], int]] = None,
) -> WorkerStepResult:
    """Run one logical worker's compute batch on a program replica and
    collect its effects.

    This is the kernel every backend shares; determinism of the whole
    runtime reduces to this function being deterministic given the same
    batch and worker state, which it is: vertices run in batch order and
    all side effects accumulate locally in program order.  Graph,
    partition, worker count and chunk watermarks come off ``spec``;
    ``program`` is the replica compute runs against — the driver's own
    object on the serial backend, a pickled copy on thread and process.
    Aggregator calls go to a fresh identity-value shim over the barrier
    ``snapshot``, the replica's state delta is collected, and the
    worker's state dict rides home on the result.

    Nothing ever leaves packed form: superstep 0 hands the worker's
    initial vertices to ``initialize_columns`` in one call, every later
    superstep cuts the delivered
    :class:`~repro.bsp.message.PackedWorkerBatch` into row blocks
    (:func:`row_ranges`) handed to ``compute_columns``, and every send
    flows through ``ctx.send_columns`` into a
    :class:`~repro.bsp.message.ColumnarOutbox` — no per-message object
    end to end, and on the process backend both directions cross the
    pool boundary as a handful of numpy buffers.

    A ``spec.chunk_queue`` enables the pipelined shuffle: the outbox puts
    watermark-sized chunks on it as ``(worker_id, seq, columns)`` *while
    compute is running*; whatever is pending at the end returns as the
    residual ``outbox`` with ``chunks_flushed`` recording how many chunks
    already streamed.

    ``drive`` replaces the compute loop over ``batch``: it is handed the
    worker's context and returns the number of active vertices it stands
    for.  The work-stealing schedule uses it to replay
    already-expanded outcomes in canonical order — same context, same
    outbox, same accounting as the static path, by construction.
    """
    num_workers = spec.num_workers
    owner_array = spec.partition.owner_array
    aggregators = WorkerAggregators(fresh_aggregators(program), snapshot)
    inbound = [0] * num_workers
    outputs: List[Any] = []
    acc = {"cost": 0.0, "sent": 0}
    chunk_stats: Optional[List[Tuple[int, int, float]]] = None

    def add_cost(units: float) -> None:
        acc["cost"] += units

    if spec.chunk_queue is not None:
        chunk_stats = []
        batch_started = perf_counter()
        # Bounded queue: when it is full the sender blocks here, so
        # in-flight chunk memory stays O(queue depth × chunk bytes)
        # however fast workers expand.
        put_chunk = spec.chunk_queue.put

        def _flush(chunk: Any) -> None:
            seq = len(chunk_stats)
            chunk_stats.append(
                (
                    len(chunk),
                    chunk.nbytes,
                    (perf_counter() - batch_started) * 1000.0,
                )
            )
            put_chunk((worker_id, seq, chunk))

        col_outbox = ColumnarOutbox(
            flush=_flush,
            chunk_gpsis=spec.config.chunk_gpsis,
            chunk_bytes=spec.config.chunk_bytes,
        )
    else:
        col_outbox = ColumnarOutbox()

    def send_columns(columns) -> None:
        n = len(columns)
        if not n:
            return
        col_outbox.append(columns)
        acc["sent"] += n
        owners = owner_array[columns.destinations()]
        for w, c in enumerate(np.bincount(owners, minlength=num_workers)):
            inbound[w] += int(c)

    ctx = ComputeContext(
        graph=spec.graph,
        superstep=superstep,
        worker_id=worker_id,
        worker_state=worker_state,
        send_columns=send_columns,
        add_cost=add_cost,
        emit=outputs.append,
        aggregators=aggregators,
    )
    if drive is not None:
        compute_calls = drive(ctx)
    else:
        compute_calls = _compute_batch(program, ctx, batch)

    outbox = col_outbox.to_columns()
    return WorkerStepResult(
        worker_id=worker_id,
        outbox=outbox,
        wire_bytes=col_outbox.flushed_bytes + outbox.nbytes,
        chunks_flushed=col_outbox.chunks_flushed,
        chunk_stats=chunk_stats,
        max_send_bytes=col_outbox.max_append_bytes,
        messages_sent=acc["sent"],
        inbound=inbound,
        compute_calls=compute_calls,
        cost=acc["cost"],
        outputs=outputs,
        agg_contribs=aggregators.contributions(),
        state_delta=program.collect_state_delta(),
        worker_state=worker_state,
    )


def pickle_program(program: VertexProgram, backend: str) -> bytes:
    """Serialise ``program`` for the replica contract (its ``__getstate__``
    drops the graph), or say which program a pooled backend cannot run."""
    try:
        return pickle.dumps(program)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise EngineError(
            f"backend {backend!r} runs workers on pickled replicas of the "
            f"program, and {type(program).__name__} does not pickle: {exc}"
        ) from exc


def run_inline(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
    """Run ``fn(*args, **kwargs)`` on the calling thread; return its
    result as an already-completed future — the submit hook of a backend
    without a pool.  A failure raises here, at the submit site, which
    the schedule handles like any other failed unit."""
    future: Future = Future()
    future.set_result(fn(*args, **kwargs))
    return future


class _ChunkDrain:
    """The pipelined shuffle's single consumer for one superstep.

    A driver-side thread feeds the job's chunk queue into the engine's
    sink while workers are still computing — this is where shuffle
    overlaps compute.  The sink touches the barrier store, so one
    consumer keeps it race-free without per-chunk lock contention from
    the pool.  Both queue flavours (``queue.Queue``, ``mp.Queue``) serve
    ``get(timeout=)`` / ``queue.Empty``, and polling with a timeout
    (rather than blocking on a sentinel) means a pool process that died
    mid-``put`` can never wedge the driver.
    """

    def __init__(self, chunk_queue: Any, sink: Callable[[int, int, Any], None]):
        self._queue = chunk_queue
        self._sink = sink
        self._expected: Optional[int] = None
        self.received = 0
        self.errors: List[BaseException] = []
        self._thread = threading.Thread(
            target=self._run, name="psgl-chunk-drain", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while self._expected is None or self.received < self._expected:
            try:
                item = self._queue.get(timeout=0.005)
            except queue.Empty:
                continue
            try:
                self._sink(*item)
            except BaseException as exc:  # noqa: BLE001 - re-raised by finish()
                self.errors.append(exc)
            finally:
                self.received += 1

    def finish(self, expected: int, superstep: int) -> None:
        """Return once ``expected`` chunks went through the sink.

        ``mp.Queue`` puts are asynchronous (a feeder thread ships the
        bytes), so a worker's future can resolve before its last chunk
        arrives; each result carries its exact flush count and the drain
        keeps consuming until the sum is in.  Threads satisfy the same
        count trivially.
        """
        self._expected = expected
        self._thread.join(DRAIN_JOIN_SECONDS)
        if self._thread.is_alive():
            self.abort()
            raise EngineError(
                f"pipelined shuffle lost chunks: received {self.received} "
                f"of {expected} at superstep {superstep}"
            )
        if self.errors:
            raise self.errors[0]

    def abort(self) -> None:
        """Stop now (producers must already be done) and drop, best
        effort, whatever the failed superstep left undelivered."""
        self._expected = 0
        self._thread.join()
        try:
            while True:
                self._queue.get_nowait()
        except queue.Empty:
            pass


class SuperstepExecutor:
    """The superstep schedule over a pluggable pool.

    Lifecycle: ``start(spec)`` once per job, ``run_superstep(...)`` once
    per superstep, ``close()`` exactly once (the engine guarantees it in a
    ``finally``, also when ``start`` itself failed half-way).

    Writing a backend means saying where work runs, not how a superstep
    is scheduled: extend ``start`` / ``close`` for the pool and whatever
    it shares (calling the base versions, which keep the spec and the
    per-logical-worker state dicts), and implement :meth:`_submit`.
    Overriding ``run_superstep`` wholesale remains legal; it must return
    results sorted by ``worker_id`` and may omit workers with empty
    batches.
    """

    #: Registry name (filled by the backend registry on instantiation).
    name: str = "abstract"

    #: Tasks executed on a different lane than their owner's first task,
    #: accumulated across the job (work-stealing runs only; stays 0
    #: otherwise).  The engine reads this once at job end into
    #: ``BSPResult.steals``.
    steals_total: int = 0

    _spec: Optional[JobSpec] = None

    def start(self, spec: JobSpec) -> None:
        """Prepare for a job (export shared state, warm pools, ...)."""
        self._spec = spec
        # One private state dict per logical worker, alive for the job —
        # the paper's per-worker "local view of the entire workload
        # distribution" (Section 6): distribution RNG streams and load
        # views live here.  Logical workers are location independent: a
        # batch that ran on a copy hands the dict back on
        # ``WorkerStepResult.worker_state``.
        self._states: List[Dict[str, Any]] = [
            {} for _ in range(spec.num_workers)
        ]

    def _submit(self, owner: int, unit: Callable[..., Any], *args: Any) -> Future:
        """Run ``unit(spec, program, *args)`` for logical worker ``owner``,
        ``program`` being any replica of the job's program; the future
        resolves to what ``unit`` returned.  A unit is
        :func:`run_replica_batch` (one owner's whole batch) or
        :func:`~repro.runtime.stealing.expand_steal_task` (the pure half
        of one steal task)."""
        raise NotImplementedError

    def run_superstep(
        self,
        superstep: int,
        batches: List[WorkerBatch],
        registry: Any,
        chunk_sink: Optional[Callable[[int, int, Any], None]] = None,
    ) -> List[WorkerStepResult]:
        """Run all non-empty batches; ``batches[w]`` belongs to worker ``w``.

        **Static schedule**: one unit per owner.  **Dynamic schedule**
        (``steal=True``, delivered packed batches): one unit per
        :func:`~repro.runtime.stealing.split_batch` task.  The pool's
        submission queue *is* the steal deque — whichever lane frees up
        first takes the next task regardless of owner — and a task
        counts as *stolen* when it ran on a different lane than its
        owner's ``seq 0`` task.  Owners are then finalized on this
        (driver) thread against the driver's program, in worker-id / seq
        order, which keeps results bit-identical to the static schedule
        (see :mod:`repro.runtime.stealing`).

        ``chunk_sink`` is passed (non-None) only under pipelined shuffle:
        every chunk a worker put on the job's chunk queue is fed to it
        from one drain thread, and this method does not return until all
        chunks of the superstep were delivered.  A backend that set up no
        chunk queue ignores the sink — its workers return whole outboxes
        as their only chunk: the strict schedule, bit for bit (serial
        does exactly that; one thread could overlap with nothing).
        """
        spec = self._spec
        steal = spec.config.steal
        if steal:
            from .stealing import expand_steal_task, finalize_owner, split_batch
        snapshot = registry.snapshot()
        drain = None
        if chunk_sink is not None and spec.chunk_queue is not None:
            drain = _ChunkDrain(spec.chunk_queue, chunk_sink)
        # ``owners`` and ``futures`` are both in canonical order: owners
        # ascending, an owner's tasks in ``seq`` order.
        owners: List[Tuple[int, Optional[List[Any]]]] = []
        futures: List[Future] = []
        try:
            for owner, batch in enumerate(batches):
                if not len(batch):
                    continue
                if steal and isinstance(batch, PackedWorkerBatch):
                    tasks = split_batch(owner, batch, spec.config.steal_tasks)
                    owners.append((owner, tasks))
                    futures.extend(
                        self._submit(owner, expand_steal_task, task)
                        for task in tasks
                    )
                else:
                    owners.append((owner, None))
                    futures.append(
                        self._submit(
                            owner,
                            run_replica_batch,
                            owner,
                            superstep,
                            batch,
                            self._states[owner],
                            snapshot,
                        )
                    )
            done = iter([future.result() for future in futures])
        except BaseException:
            # A unit raised.  The remaining futures keep running in the
            # pool — cancel what has not started and *wait out* what has,
            # so the engine's teardown (which unlinks the shared CSR
            # blocks in close()) can never race live workers still
            # scanning them.  Only then stop the drain: a producer
            # blocked on the full queue needs its consumer to finish.
            for future in futures:
                future.cancel()
            wait(futures)
            if drain is not None:
                drain.abort()
            raise

        results: List[WorkerStepResult] = []
        for owner, tasks in owners:
            if tasks is None:
                result = next(done)
            else:
                task_results = [next(done) for _ in tasks]
                home = task_results[0].lane
                for task, ran in zip(tasks, task_results):
                    if ran.lane != home:
                        self.steals_total += 1
                        if spec.tracer.enabled:
                            spec.tracer.emit(
                                "steal",
                                superstep=superstep,
                                worker=owner,
                                wall_ms=ran.wall_ms,
                                seq=task.seq,
                                lane=ran.lane,
                                rows=task.rows,
                            )
                result = finalize_owner(
                    spec,
                    owner,
                    superstep,
                    len(batches[owner]),
                    task_results,
                    self._states[owner],
                    snapshot,
                )
            self._states[owner] = result.worker_state
            results.append(result)
        if drain is not None:
            drain.finish(sum(r.chunks_flushed for r in results), superstep)
        return results

    def close(self) -> None:
        """Tear down pools and shared resources (idempotent, and safe
        after a ``start`` that raised half-way)."""
        self._spec = None
        self._states = []
