"""The work-stealing superstep scheduler (columnar wire plane only).

The static schedule binds each delivered batch to its owning logical
worker for a whole superstep, so one straggler — a worker whose vertices
expand far more children than its peers' — holds the barrier while every
other worker idles.  This module splits each owner's delivered
:class:`~repro.bsp.message.PackedWorkerBatch` into ``(owner, seq)``-tagged
*steal tasks* of bounded row count and lets whichever execution lane goes
idle first run them, in any order, on any worker.

Determinism survives the dynamic schedule because the program's
task-expansion contract (see
:class:`~repro.bsp.vertex_program.VertexProgram.supports_task_expansion`)
splits ``compute_columns`` into a *pure* half and a *stateful* half:

* ``expand_task(vertex, columns, edge_index)`` touches only read-only
  shared data plus a private-counter index view
  (``task_probe_view()``) — it is location- and order-independent, and
  its :class:`~repro.core.batch_expand.BatchOutcome` is a pure function
  of its inputs.
* ``apply_outcome(ctx, outcome)`` consumes owner state (the
  distribution RNG, load views, ledger tallies) and therefore runs in
  **canonical order only**: at the barrier, :func:`finalize_owner`
  replays every outcome per owner in worker-id order, tasks in ``seq``
  order, vertices in delivery order — exactly the order the static
  schedule would have produced them in.

Because expansion is pure and the replay order is the static order, the
finalized :class:`~repro.runtime.executor.WorkerStepResult` stream —
outboxes, costs, probe statistics, aggregator contributions, state
deltas — is bit-identical to the static schedule's, which is what the
parity tests pin.  Stealing changes *wall-clock placement*, never
results.

Task granularity is bounded in Gpsi rows (``ExecutionConfig.steal_tasks``) but
vertex slices never split: one vertex's delivered rows always stay in
one task, so per-vertex expansion remains one pure call.  A vertex whose
delivery alone exceeds the bound becomes a single oversized task.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..bsp.message import PackedWorkerBatch
from ..bsp.vertex_program import ComputeContext
from .executor import JobSpec, WorkerStepResult, run_worker_batch


@dataclass
class StealTask:
    """One stealable slice of an owner's delivered batch."""

    owner: int
    seq: int
    #: Data vertices of this slice, in delivery order.
    vertices: np.ndarray
    #: Delivered row count per vertex (aligned with ``vertices``).
    counts: np.ndarray
    #: The packed rows themselves (zero-copy slice of the owner's batch).
    columns: Any
    rows: int


@dataclass
class TaskResult:
    """A completed task: pure outcomes plus its probe-counter delta.

    ``vertices``/``rows`` are re-attached driver-side from the task
    table (children only ship outcomes back across the pool boundary).
    """

    owner: int
    seq: int
    #: One :class:`~repro.core.batch_expand.BatchOutcome` per vertex.
    outcomes: List[Any]
    queries: int
    positives: int
    #: Execution lane that ran the task (thread index / child pid).
    lane: Any = None
    stolen: bool = False
    wall_ms: float = 0.0
    vertices: Optional[np.ndarray] = None
    rows: int = 0


def split_batch(
    owner: int, batch: PackedWorkerBatch, task_rows: int
) -> List[StealTask]:
    """Cut one owner's delivered batch into tasks of ``<= task_rows``
    rows at vertex boundaries (a vertex's delivery never splits; one
    oversized vertex becomes one oversized task)."""
    vertices = batch.vertices
    counts = batch.counts
    tasks: List[StealTask] = []
    start = 0  # first vertex of the open task
    row0 = 0  # first row of the open task
    rows = 0  # rows accumulated in the open task
    pos = 0  # rows consumed overall
    for i, count in enumerate(counts.tolist()):
        if rows and rows + count > task_rows:
            tasks.append(
                StealTask(
                    owner=owner,
                    seq=len(tasks),
                    vertices=vertices[start:i],
                    counts=counts[start:i],
                    columns=batch.columns.row_slice(row0, pos),
                    rows=rows,
                )
            )
            start, row0, rows = i, pos, 0
        rows += count
        pos += count
    if rows:
        tasks.append(
            StealTask(
                owner=owner,
                seq=len(tasks),
                vertices=vertices[start:],
                counts=counts[start:],
                columns=batch.columns.row_slice(row0, pos),
                rows=rows,
            )
        )
    return tasks


def expand_steal_task(program: Any, task: StealTask) -> TaskResult:
    """Run the pure half of one task on ``program`` (any replica).

    Probes go through a detached index view so concurrent thieves never
    race on the shared counters; the view's delta rides home on the
    result and is credited back in canonical order by
    :func:`finalize_owner`.
    """
    view = program.task_probe_view()
    outcomes: List[Any] = []
    pos = 0
    for vertex, count in zip(task.vertices.tolist(), task.counts.tolist()):
        outcomes.append(
            program.expand_task(
                vertex, task.columns.row_slice(pos, pos + count), view
            )
        )
        pos += count
    return TaskResult(
        owner=task.owner,
        seq=task.seq,
        outcomes=outcomes,
        queries=view.queries,
        positives=view.positives,
    )


def finalize_owner(
    program: Any,
    spec: JobSpec,
    owner: int,
    superstep: int,
    task_results: List[TaskResult],
    worker_state: Dict[str, Any],
    aggregators: Any,
    collect_delta: bool,
) -> WorkerStepResult:
    """Replay one owner's outcomes in canonical order at the barrier.

    This is the stateful half of the split: it runs inside exactly the
    context ``run_worker_batch`` gives the static path — same outbox,
    same inbound accounting, same cost/send accumulation order — and
    feeds every outcome through ``apply_outcome`` with the *owner's*
    worker id and state, tasks in ``seq`` order, vertices in delivery
    order.  Result fields are therefore bit-identical to the static
    schedule's ``WorkerStepResult`` for this owner.
    """

    def replay(ctx: ComputeContext) -> int:
        compute_calls = 0
        for result in sorted(task_results, key=lambda r: r.seq):
            program.absorb_task_stats(result.queries, result.positives)
            for vertex, outcome in zip(
                result.vertices.tolist(), result.outcomes
            ):
                ctx.vertex = vertex
                compute_calls += 1
                program.apply_outcome(ctx, outcome)
        return compute_calls

    return run_worker_batch(
        program=program,
        graph=spec.graph,
        partition=spec.partition,
        num_workers=spec.num_workers,
        worker_id=owner,
        superstep=superstep,
        batch=None,
        worker_state=worker_state,
        aggregators=aggregators,
        collect_delta=collect_delta,
        wire="columnar",
        drive=replay,
    )


def _attach_vertices(results: List[TaskResult], tasks: List[StealTask]) -> None:
    """Re-attach each result's task vertices and row count (the driver
    keeps the task table; children only ship outcomes back)."""
    by_seq = {task.seq: task for task in tasks}
    for result in results:
        task = by_seq[result.seq]
        result.vertices = task.vertices
        result.rows = task.rows


class StealScheduler:
    """A shared task pool with per-owner deques and deterministic victim
    selection — the thread backend's dynamic schedule.

    Lanes (physical threads) drain their *home* owners front-to-back
    (``popleft``, preserving the static execution order while no one is
    behind) and steal from the back of the most-loaded victim's deque
    (``pop``) once idle — the classic owner-front / thief-back split
    that keeps the common case contention-free.  Victim choice is
    deterministic (most remaining rows, lowest owner id on ties) so runs
    are reproducible given the same interleaving; results never depend
    on the interleaving at all (see module docstring).
    """

    def __init__(self, tasks_by_owner: Dict[int, List[StealTask]], lanes: int):
        self._lock = threading.Lock()
        self._deques: Dict[int, deque] = {
            owner: deque(tasks) for owner, tasks in tasks_by_owner.items()
        }
        self._rows_left: Dict[int, int] = {
            owner: sum(t.rows for t in tasks)
            for owner, tasks in tasks_by_owner.items()
        }
        self.lanes = lanes

    def home_owners(self, lane: int) -> List[int]:
        return [o for o in sorted(self._deques) if o % self.lanes == lane]

    def next_task(self, lane: int) -> Optional[StealTask]:
        """Pop the next task for ``lane`` (home first, then steal), or
        ``None`` when the pool is drained."""
        with self._lock:
            for owner in self.home_owners(lane):
                dq = self._deques[owner]
                if dq:
                    task = dq.popleft()
                    self._rows_left[owner] -= task.rows
                    return task
            victim = None
            most = 0
            for owner in sorted(self._deques):
                if self._deques[owner] and self._rows_left[owner] > most:
                    victim, most = owner, self._rows_left[owner]
            if victim is None:
                return None
            task = self._deques[victim].pop()
            self._rows_left[victim] -= task.rows
            return task


def run_stolen_superstep(
    spec: JobSpec,
    superstep: int,
    batches: List[Any],
    expand: Callable[[StealTask], TaskResult],
    finalize: Callable[[int, List[TaskResult]], WorkerStepResult],
    lanes: int = 1,
    runner: Optional[Callable[[List[Callable[[], None]]], None]] = None,
) -> tuple:
    """Shared orchestration: split, expand (possibly concurrently),
    finalize in canonical order.

    ``expand`` runs one task's pure half and may be called from any lane
    concurrently; ``finalize`` is called once per owner, ascending, on
    the caller's thread.  ``runner`` executes the per-lane drain loops
    (``None`` = run lane 0 inline: the serial schedule).  Returns
    ``(results, steals, steal_events)`` where ``steal_events`` are
    ``dict`` payloads for the tracer's ``"steal"`` events.
    """
    tasks_by_owner: Dict[int, List[StealTask]] = {}
    for owner, batch in enumerate(batches):
        if isinstance(batch, PackedWorkerBatch) and len(batch.vertices):
            tasks_by_owner[owner] = split_batch(
                owner, batch, spec.config.steal_tasks
            )
    scheduler = StealScheduler(tasks_by_owner, max(lanes, 1))
    done: List[TaskResult] = []
    done_lock = threading.Lock()

    def drain(lane: int) -> None:
        while True:
            task = scheduler.next_task(lane)
            if task is None:
                return
            started = perf_counter()
            result = expand(task)
            result.lane = lane
            result.stolen = task.owner % scheduler.lanes != lane
            result.wall_ms = (perf_counter() - started) * 1000.0
            with done_lock:
                done.append(result)

    if runner is None:
        drain(0)
    else:
        runner([lambda lane=lane: drain(lane) for lane in range(scheduler.lanes)])

    steals = 0
    steal_events: List[dict] = []
    by_owner: Dict[int, List[TaskResult]] = {o: [] for o in tasks_by_owner}
    for result in done:
        by_owner[result.owner].append(result)
    results: List[WorkerStepResult] = []
    for owner in sorted(by_owner):
        _attach_vertices(by_owner[owner], tasks_by_owner[owner])
        for result in sorted(by_owner[owner], key=lambda r: r.seq):
            if result.stolen:
                steals += 1
                steal_events.append(
                    dict(
                        superstep=superstep,
                        worker=owner,
                        wall_ms=result.wall_ms,
                        seq=result.seq,
                        lane=result.lane,
                        rows=result.rows,
                    )
                )
        results.append(finalize(owner, by_owner[owner]))
    return results, steals, steal_events
