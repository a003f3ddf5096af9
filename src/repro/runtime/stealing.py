"""Steal tasks: split, pure expansion, canonical finalize.

The static schedule binds each delivered batch to its owning logical
worker for a whole superstep, so one straggler — a worker whose vertices
expand far more children than its peers' — holds the barrier while every
other worker idles.  Under ``steal=True`` the superstep schedule
(:meth:`~repro.runtime.executor.SuperstepExecutor.run_superstep`) splits
each owner's delivered :class:`~repro.bsp.message.PackedWorkerBatch` into
``(owner, seq)``-tagged *steal tasks* of bounded row count and submits
every task to the backend's pool on its own, so a thread pool's first
idle lane runs the next one, whoever owns it (the process backend deals
the tasks round-robin to its lanes instead).  This module is what
a task *is*: how a batch is cut (:func:`split_batch`), what runs on the
lane (:func:`expand_steal_task`) and what runs back on the driver
(:func:`finalize_owner`).

Determinism survives the dynamic schedule because the program's
task-expansion contract (see
:class:`~repro.bsp.vertex_program.VertexProgram.supports_task_expansion`)
splits ``compute_columns`` into a *pure* half and a *stateful* half:

* ``expand_task(columns, edge_index)`` touches only read-only
  shared data plus a private-counter index view
  (``task_probe_view()``) — it is location- and order-independent, and
  its :class:`~repro.core.batch_expand.BatchOutcome` is a pure function
  of its inputs.
* ``apply_outcome(ctx, outcome)`` consumes owner state (the
  distribution RNG, load views, ledger tallies) and therefore runs in
  **canonical order only**: at the barrier, :func:`finalize_owner`
  replays every outcome per owner in worker-id order, tasks in ``seq``
  order — rows in delivery order, exactly the order the static schedule
  would have produced them in.

Because expansion is pure and the replay order is the static order, the
finalized :class:`~repro.runtime.executor.WorkerStepResult` stream —
outboxes, costs, probe statistics, aggregator contributions, state
deltas — is bit-identical to the static schedule's, which is what the
parity tests pin.  Stealing changes *wall-clock placement*, never
results.

A task is a row range of the owner's delivered columns, at most
``ExecutionConfig.steal_tasks`` rows, cut by the same
:func:`~repro.runtime.executor.row_ranges` the static schedule uses.
Every row names its own expanding vertex, so a cut may fall inside one
vertex's delivery: a hub's oversized delivery is shared between thieves
like any other rows, and a steal moves exactly ``task.rows`` rows of
expansion work — never owner state.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List

from ..bsp.message import PackedWorkerBatch
from ..bsp.vertex_program import ComputeContext
from .executor import JobSpec, WorkerStepResult, row_ranges, run_replica_batch


@dataclass
class StealTask:
    """One stealable row range of an owner's delivered batch."""

    owner: int
    seq: int
    #: The packed rows themselves (zero-copy slice of the owner's batch).
    columns: Any
    rows: int


@dataclass
class TaskResult:
    """A completed task: its pure outcome plus its probe-counter delta —
    all that crosses back over a pool boundary (the driver keeps the
    task table)."""

    owner: int
    seq: int
    #: The task's :class:`~repro.core.batch_expand.BatchOutcome`.
    outcome: Any
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
    rows each, in delivery order."""
    return [
        StealTask(owner, seq, batch.columns.row_slice(lo, hi), hi - lo)
        for seq, (lo, hi) in enumerate(
            row_ranges(len(batch.columns), task_rows)
        )
    ]


def expand_steal_task(spec: JobSpec, program: Any, task: StealTask) -> TaskResult:
    """Run the pure half of one task on ``program`` (any replica).
    ``spec`` goes unused: every unit a backend runs takes
    ``(spec, program, ...)``.

    Probes go through a detached index view so concurrent thieves never
    race on the shared counters; the view's delta rides home on the
    result and is credited back in canonical order by
    :func:`finalize_owner`.
    """
    started = perf_counter()
    view = program.task_probe_view()
    outcome = program.expand_task(task.columns, view)
    return TaskResult(
        owner=task.owner,
        seq=task.seq,
        outcome=outcome,
        queries=view.queries,
        positives=view.positives,
        lane=threading.get_native_id(),
        wall_ms=(perf_counter() - started) * 1000.0,
    )


def finalize_owner(
    spec: JobSpec,
    owner: int,
    superstep: int,
    active_vertices: int,
    results: List[TaskResult],
    worker_state: Dict[str, Any],
    snapshot: Dict[str, Any],
) -> WorkerStepResult:
    """Replay one owner's outcomes in canonical order at the barrier.

    This is the stateful half of the split: it runs through
    ``run_replica_batch`` with the driver's program (``spec.program``)
    as the replica — same outbox, same inbound accounting, same
    cost/send accumulation order, same aggregator snapshot and state
    delta as the static path — and feeds every outcome through
    ``apply_outcome`` with the *owner's* worker id and state, in ``seq``
    order (``results`` is already in it), which is delivery order.
    Result fields are therefore bit-identical to the static schedule's
    ``WorkerStepResult`` for this owner (``active_vertices`` is its
    ``compute_calls``).
    """
    program = spec.program

    def replay(ctx: ComputeContext) -> int:
        for result in results:
            program.absorb_task_stats(result.queries, result.positives)
            program.apply_outcome(ctx, result.outcome)
        return active_vertices

    return run_replica_batch(
        spec,
        program,
        owner,
        superstep,
        None,
        worker_state,
        snapshot,
        drive=replay,
    )
