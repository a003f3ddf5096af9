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
and wait out everything on failure, finalize stolen owners canonically
on the driver.  Every unit hands its whole outbox back on its result,
and the engine merges it at the barrier.  A backend only says *where* a
unit runs: ``start`` / ``close`` own its pool and shared resources, and
one hook, ``_submit(owner, unit, *args)``, runs ``unit(spec, program,
*args)`` on a replica of the program and returns a *handle*: anything
that answers ``result()`` and ``cancel()`` (a
``concurrent.futures.Future`` does).

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
is pickled), a pickled copy per logical worker on threads, the driver's
own program on the driver lane and one copy per child lane on processes.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
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
    #: read the steal settings off it.
    config: ExecutionConfig = ExecutionConfig()


@dataclass
class WorkerStepResult:
    """What one logical worker produced in one superstep.

    ``outbox`` is the worker's sent messages: one packed, self-addressed
    :class:`~repro.core.psi.GpsiColumns` in send order, the one chunk it
    ships at the barrier.  ``messages_sent`` counts every row the worker
    sent, matching the ledger's accounting.  ``inbound`` counts them
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
    #: Exact bytes of the packed ``outbox`` buffers.
    wire_bytes: int = 0


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
    partition and worker count come off ``spec``;
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
    col_outbox = ColumnarOutbox()

    def add_cost(units: float) -> None:
        acc["cost"] += units

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
        wire_bytes=outbox.nbytes,
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


class Completed:
    """The handle of a unit that already ran: ``result()`` returns its
    value, ``cancel()`` fails, as a finished future's would."""

    __slots__ = ("_value",)

    def __init__(self, value: Any):
        self._value = value

    def result(self) -> Any:
        return self._value

    def cancel(self) -> bool:
        return False


def run_inline(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Completed:
    """Run ``fn(*args, **kwargs)`` on the calling thread; return its
    result as a :class:`Completed` handle — the submit hook of a backend
    without a pool.  A failure raises here, at the submit site, which
    the schedule handles like any other failed unit."""
    return Completed(fn(*args, **kwargs))


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

    #: Busy wall time per lane in the last superstep, in milliseconds,
    #: driver first, each lane timing its own share — what the engine adds
    #: to the ``superstep`` trace event.  ``None`` where a backend does not
    #: deal units to lanes (only the process backend does).
    lane_busy_ms: Optional[List[float]] = None

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

    def _submit(self, owner: int, unit: Callable[..., Any], *args: Any) -> Any:
        """Run ``unit(spec, program, *args)`` for logical worker ``owner``,
        ``program`` being any replica of the job's program; the returned
        handle's ``result()`` is what ``unit`` returned (or raises what it
        raised), and ``cancel()`` withdraws it if it has not started.  A
        unit is
        :func:`run_replica_batch` (one owner's whole batch) or
        :func:`~repro.runtime.stealing.expand_steal_task` (the pure half
        of one steal task)."""
        raise NotImplementedError

    def run_superstep(
        self,
        superstep: int,
        batches: List[WorkerBatch],
        registry: Any,
    ) -> List[WorkerStepResult]:
        """Run all non-empty batches; ``batches[w]`` belongs to worker ``w``.

        **Static schedule**: one unit per owner.  **Dynamic schedule**
        (``steal=True``, delivered packed batches): one unit per
        :func:`~repro.runtime.stealing.split_batch` task.  *Where* a unit
        runs is the backend's: on the thread backend the pool's
        submission queue is the steal deque — whichever thread frees up
        first takes the next task regardless of owner — while the process
        backend deals the superstep's units round-robin to its lanes in
        submission order (under the static schedule owner ``w`` of a full
        superstep runs on lane ``w % procs``).  A task counts as *stolen*
        when it ran on a different lane than its owner's ``seq 0`` task
        (on processes: when it was dealt off that lane).  Owners are then
        finalized on this (driver) thread against the driver's program,
        in worker-id / seq order, which keeps results bit-identical to
        the static schedule (see :mod:`repro.runtime.stealing`).
        """
        spec = self._spec
        steal = spec.config.steal
        if steal:
            from .stealing import expand_steal_task, finalize_owner, split_batch
        snapshot = registry.snapshot()
        # ``owners`` and ``handles`` are both in canonical order: owners
        # ascending, an owner's tasks in ``seq`` order.
        owners: List[Tuple[int, Optional[List[Any]]]] = []
        handles: List[Any] = []
        try:
            for owner, batch in enumerate(batches):
                if not len(batch):
                    continue
                if steal and isinstance(batch, PackedWorkerBatch):
                    tasks = split_batch(owner, batch, spec.config.steal_tasks)
                    owners.append((owner, tasks))
                    handles.extend(
                        self._submit(owner, expand_steal_task, task)
                        for task in tasks
                    )
                else:
                    owners.append((owner, None))
                    handles.append(
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
            done = iter([handle.result() for handle in handles])
        except BaseException:
            # A unit raised.  The remaining units keep running in the
            # pool — cancel what has not started and *wait out* what has,
            # so the engine's teardown (which unlinks the shared CSR
            # blocks in close()) can never race live workers still
            # scanning them.
            for handle in handles:
                handle.cancel()
            for handle in handles:
                try:
                    handle.result()
                except BaseException:  # noqa: BLE001 - the first failure re-raises
                    pass
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
        return results

    def close(self) -> None:
        """Tear down pools and shared resources (idempotent, and safe
        after a ``start`` that raised half-way)."""
        self._spec = None
        self._states = []
