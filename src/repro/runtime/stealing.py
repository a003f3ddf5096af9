"""Steal tasks: split, pure expansion, canonical finalize (columnar plane only).

The static schedule binds each delivered batch to its owning logical
worker for a whole superstep, so one straggler — a worker whose vertices
expand far more children than its peers' — holds the barrier while every
other worker idles.  Under ``steal=True`` the superstep schedule
(:meth:`~repro.runtime.executor.SuperstepExecutor.run_superstep`) splits
each owner's delivered :class:`~repro.bsp.message.PackedWorkerBatch` into
``(owner, seq)``-tagged *steal tasks* of bounded row count and submits
every task to the backend's pool on its own, so whichever execution lane
goes idle first runs the next one, whoever owns it.  This module is what
a task *is*: how a batch is cut (:func:`split_batch`), what runs on the
lane (:func:`expand_steal_task`) and what runs back on the driver
(:func:`finalize_owner`).

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
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List

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
    """A completed task: pure outcomes plus its probe-counter delta —
    all that crosses back over a pool boundary (the driver keeps the
    task table)."""

    owner: int
    seq: int
    #: One :class:`~repro.core.batch_expand.BatchOutcome` per vertex.
    outcomes: List[Any]
    queries: int
    positives: int
    #: Execution lane that ran the task: the OS thread id, which for a
    #: pool process (tasks run on its main thread) is the child's pid.
    lane: int
    #: Expansion wall time on that lane.
    wall_ms: float


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
    started = perf_counter()
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
        lane=threading.get_native_id(),
        wall_ms=(perf_counter() - started) * 1000.0,
    )


def finalize_owner(
    spec: JobSpec,
    owner: int,
    superstep: int,
    tasks: List[StealTask],
    results: List[TaskResult],
    worker_state: Dict[str, Any],
    aggregators: Any,
    collect_delta: bool,
) -> WorkerStepResult:
    """Replay one owner's outcomes in canonical order at the barrier.

    This is the stateful half of the split: it runs against the driver's
    program (``spec.program``) inside exactly the context
    ``run_worker_batch`` gives the static path — same outbox, same
    inbound accounting, same cost/send accumulation order — and feeds
    every outcome through ``apply_outcome`` with the *owner's* worker id
    and state, tasks in ``seq`` order (``tasks`` and ``results`` are
    aligned and already in it), vertices in delivery order.  Result
    fields are therefore bit-identical to the static schedule's
    ``WorkerStepResult`` for this owner; on a replica backend the
    per-owner ``collect_state_delta`` stream merges at the engine barrier
    exactly like replica deltas would.
    """
    program = spec.program

    def replay(ctx: ComputeContext) -> int:
        compute_calls = 0
        for task, result in zip(tasks, results):
            program.absorb_task_stats(result.queries, result.positives)
            for vertex, outcome in zip(task.vertices.tolist(), result.outcomes):
                ctx.vertex = vertex
                compute_calls += 1
                program.apply_outcome(ctx, outcome)
        return compute_calls

    return run_worker_batch(
        spec,
        program,
        owner,
        superstep,
        None,
        worker_state,
        aggregators,
        collect_delta,
        drive=replay,
    )
