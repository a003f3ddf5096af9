"""The superstep schedule, the executor interface and the worker-batch kernel.

Each superstep the BSP engine builds one *batch* per logical worker — the
worker's active vertices with their delivered rows, in deterministic
order — and hands all batches to a :class:`SuperstepExecutor`, which
returns one :class:`WorkerStepResult` per non-empty batch.  The engine
then merges results **in worker-id order**, which makes every backend
reproduce the serial engine's state, ledger and message order exactly:

* per-worker iteration order is fixed by the batch,
* per-worker accumulation (cost, sends, the program's state delta)
  happens locally in that order, and
* the merge concatenates per-worker effects in the same order the serial
  loop interleaved them (worker 0's sends always precede worker 1's).

One schedule, two pools
-----------------------
:meth:`SuperstepExecutor.run_superstep` is the runtime's only execution
loop: one unit per non-empty owner, run through one hook,
``_run(calls)``, and the first failure in worker-id order raised.  Every
unit hands its whole outbox back on its result, and the engine delivers
every outbox at the barrier in one pass
(:func:`repro.bsp.message.deliver`).  The base class is the serial
backend: its ``_run`` runs every unit inline on the driver's own
program.  The process backend
(:mod:`repro.runtime.process`) only says *where* units run instead:
``start`` / ``close`` own its lanes, and its ``_run`` deals the calls to
them.

One worker contract
-------------------
Every batch runs the way a Giraph worker does, through
:func:`run_replica_batch`: the program computes over the batch, and its
tallies come back as a
:meth:`~repro.bsp.vertex_program.VertexProgram.collect_state_delta` that
the engine merges in worker-id order — the one way a worker's effects
reach the driver.  A unit's arguments are its batch and its worker's
state dict.  Only *which* object is the
replica differs: the driver's own program on the serial backend and on
the process backend's driver lane, the copy a child lane inherited at
fork on the others.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from .._record import Record
from ..bsp.message import PackedWorkerBatch
from ..bsp.vertex_program import ComputeContext, VertexProgram
from ..graph.graph import Graph
from ..obs.tracer import NULL_TRACER

# One logical worker's superstep input: its initial vertices as one
# ``int64`` array at superstep 0, then a still-packed
# ``PackedWorkerBatch``, cut into row blocks — packed buffers, not
# per-message objects, are what crosses any process boundary.
WorkerBatch = Any

#: Parent rows per ``compute_columns`` call.
#: A constant, not a knob: it bounds the flat temporaries of one
#: expansion, so peak memory does not follow superstep volume, and is
#: large enough that per-call set-up is noise.
EXPAND_BLOCK_ROWS = 2048


def row_ranges(rows: int, step: int) -> List[Tuple[int, int]]:
    """``[lo, hi)`` cuts of ``rows`` delivered rows, ``step`` at a time —
    how the schedule cuts a packed batch into compute calls.  Rows carry
    their own destination vertex, so a cut may fall anywhere."""
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


class JobSpec(Record):
    """Everything an executor needs to set up a job, and everything a
    worker batch reads while it runs (:func:`run_replica_batch` takes the
    spec, not a dozen copies of its fields).

    ``tracer`` is the observability sink for backend lifecycle events
    (setup wall time, pool width, the sizes forked lanes share); it
    defaults to the no-op tracer so executors emit unconditionally
    behind one flag.
    """

    __slots__ = ("program", "graph", "num_workers", "tracer")

    def __init__(
        self,
        program: VertexProgram,
        graph: Graph,
        num_workers: int,
        tracer: Any = NULL_TRACER,
    ) -> None:
        self.program = program
        self.graph = graph
        self.num_workers = num_workers
        self.tracer = tracer


class WorkerStepResult(Record):
    """What one logical worker produced in one superstep.

    ``outbox`` is the worker's sent messages: its packed, self-addressed
    :class:`~repro.core.psi.GpsiColumns` chunks in send order, what it
    ships at the barrier.  ``messages_sent`` counts every row the worker
    sent, matching the ledger's accounting.  ``state_delta`` is what
    ``collect_state_delta`` returned after the batch.  ``worker_state``
    is the worker's private state dict as the batch left it, which the
    schedule adopts: where the batch ran on a copy of the dict (a child
    lane), that is how the logical worker can land on a different lane
    next superstep.
    """

    __slots__ = (
        "worker_id", "outbox", "messages_sent", "compute_calls", "cost",
        "state_delta", "worker_state",
    )

    def __init__(
        self,
        worker_id: int,
        outbox: List[Any],
        messages_sent: int,
        compute_calls: int,
        cost: float,
        state_delta: Any,
        worker_state: Dict[str, Any],
    ) -> None:
        self.worker_id = worker_id
        self.outbox = outbox
        self.messages_sent = messages_sent
        self.compute_calls = compute_calls
        self.cost = cost
        self.state_delta = state_delta
        self.worker_state = worker_state


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
) -> WorkerStepResult:
    """Run one logical worker's compute batch on a program replica and
    collect its effects.

    This is the kernel every backend shares; determinism of the whole
    runtime reduces to this function being deterministic given the same
    batch and worker state, which it is: vertices run in batch order and
    all side effects accumulate locally in program order.  The graph
    comes off ``spec``; ``program`` is the replica compute runs against —
    the driver's own object on the serial backend and the driver lane,
    its fork-time copy on a child lane.  The replica's state delta is collected, and the
    worker's state dict rides home on the result.

    Nothing ever leaves packed form: superstep 0 hands the worker's
    initial vertices to ``initialize_columns`` in one call, every later
    superstep cuts the delivered
    :class:`~repro.bsp.message.PackedWorkerBatch` into row blocks
    (:func:`row_ranges`) handed to ``compute_columns``, and every send
    is kept whole on the :class:`~repro.bsp.vertex_program.ComputeContext`
    — no per-message object end to end, and on the process backend both
    directions cross the lane boundary as a handful of numpy buffers.
    """
    ctx = ComputeContext(spec.graph, superstep, worker_id, worker_state)
    compute_calls = _compute_batch(program, ctx, batch)
    return WorkerStepResult(
        worker_id=worker_id,
        outbox=ctx.sent,
        messages_sent=sum(len(chunk) for chunk in ctx.sent),
        compute_calls=compute_calls,
        cost=ctx.cost,
        state_delta=program.collect_state_delta(),
        worker_state=worker_state,
    )


def _run_share(calls: List[tuple], *head: Any) -> Tuple[float, List[tuple]]:
    """Run a lane's share of ``(unit, args)`` calls in order as ``unit(*head,
    *args)``, stopping after the first that raises: ``(busy_ms, replies)``,
    an ``("ok", result)`` or ``("err", exception)`` per unit run."""
    started = perf_counter()
    replies: List[tuple] = []
    for unit, args in calls:
        try:
            replies.append(("ok", unit(*head, *args)))
        except Exception as exc:  # noqa: BLE001 - the unit's failure
            replies.append(("err", exc))
            break
    return (perf_counter() - started) * 1000.0, replies


class SuperstepExecutor:
    """The superstep schedule, and the serial backend.

    Lifecycle: ``start(spec)`` once per job, ``run_superstep(...)`` once
    per superstep, ``close()`` exactly once (the engine guarantees it in a
    ``finally``, also when ``start`` itself failed half-way).

    A backend says where units run, not how a superstep is scheduled: it
    extends ``start`` / ``close`` for its lanes (calling the base
    versions, which keep the spec and the per-logical-worker state dicts)
    and overrides :meth:`_run`.
    """

    #: The backend's name, as ``ExecutionConfig.backend`` spells it.
    name: str = "serial"

    #: Busy wall time per lane in the last superstep, in milliseconds,
    #: driver first, each lane timing its own share — what the engine adds
    #: to the ``superstep`` trace event.  ``None`` where a backend does not
    #: deal units to lanes (only the process backend does).
    lane_busy_ms: Optional[List[float]] = None

    _spec: Optional[JobSpec] = None

    def start(self, spec: JobSpec) -> None:
        """Prepare for a job: keep the spec and one state dict per logical
        worker, and say so on the trace."""
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
        if spec.tracer.enabled:
            spec.tracer.emit("executor", backend=self.name, pool=None)

    def _run(self, calls: List[tuple]) -> List[tuple]:
        """Run a superstep's ``(unit, args)`` calls, in worker-id order, as
        ``unit(spec, program, *args)`` on a replica of the job's program;
        return their replies in call order, ``("ok", result)`` or ``("err",
        exception)``.  A lane's share stops at its first failure.  Here
        every call runs inline on the driver's own program, so the replies
        end at the first failure, which keeps its traceback."""
        return _run_share(calls, self._spec, self._spec.program)[1]

    def run_superstep(
        self,
        superstep: int,
        batches: List[WorkerBatch],
    ) -> List[WorkerStepResult]:
        """Run all non-empty batches; ``batches[w]`` belongs to worker ``w``.

        One unit per owner, and the first failure in worker-id order is
        raised.  *Where* a unit runs is :meth:`_run`'s: the process backend
        deals the superstep's units round-robin to its lanes, so owner
        ``w`` of a full superstep runs on lane ``w % procs``.
        """
        owners = [owner for owner, batch in enumerate(batches) if len(batch)]
        replies = self._run([
            (
                run_replica_batch,
                (owner, superstep, batches[owner], self._states[owner]),
            )
            for owner in owners
        ])
        results = []
        for tag, value in replies:
            if tag == "err":
                raise value
            results.append(value)
        for owner, result in zip(owners, results):
            self._states[owner] = result.worker_state
        return results

    def close(self) -> None:
        """Tear down the job's lanes (idempotent, and safe after a
        ``start`` that raised half-way)."""
        self._spec = None
        self._states = []
