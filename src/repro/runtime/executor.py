"""The superstep executor interface and the shared worker-batch kernel.

The BSP engine no longer runs logical workers itself: each superstep it
builds one *batch* per logical worker — the worker's active vertices with
their delivered messages, in deterministic order — and hands all batches
to a :class:`SuperstepExecutor`.  The executor runs them (sequentially,
on threads, or on a process pool) and returns one
:class:`WorkerStepResult` per non-empty batch.  The engine then merges
results **in worker-id order**, which makes every backend reproduce the
serial engine's outputs, ledger and message order exactly:

* per-worker iteration order is fixed by the batch,
* per-worker accumulation (cost, sends, outputs) happens locally in that
  order, and
* the merge concatenates per-worker effects in the same order the serial
  loop interleaved them (worker 0's sends always precede worker 1's).

Executor families
-----------------
``inprocess = True`` (serial): the batch kernel runs against the driver's
own program object and aggregator registry, preserving the simulator's
legacy semantics bit-for-bit — including programs that mutate ``self``
inside ``compute`` and read persistent aggregators mid-superstep.

``inprocess = False`` (thread, process): each logical worker computes on
a *replica* of the program; driver-side mutable state crosses back via
:meth:`~repro.bsp.vertex_program.VertexProgram.collect_state_delta`, and
aggregator contributions are reduced locally and merged at the barrier.
Programs that need driver state in parallel backends implement the delta
hooks (the PSgL program does); aggregator reads see a snapshot taken at
the superstep barrier rather than mid-superstep live values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..bsp.config import ExecutionConfig
from ..bsp.message import (
    ColumnarOutbox,
    GpsiBatch,
    Message,
    MessageStore,
    PackedWorkerBatch,
)
from ..bsp.vertex_program import ComputeContext, VertexProgram
from ..graph.graph import Graph
from ..graph.partition import Partition
from ..obs.tracer import NULL_TRACER

# One logical worker's superstep input: (vertex, delivered payloads) in
# delivery order.  Superstep 0 delivers empty payload lists.  On the
# production plane every later superstep hands over a still-packed
# ``PackedWorkerBatch`` instead, which the kernel slices per vertex —
# packed buffers, not per-message objects, are what crosses any process
# boundary.
WorkerBatch = List[Tuple[int, List[Any]]]


@dataclass
class JobSpec:
    """Everything an executor needs to set up a job."""

    program: VertexProgram
    graph: Graph
    partition: Partition
    num_workers: int
    worker_states: List[Dict[str, Any]]
    #: Observability sink for backend lifecycle events (setup wall time,
    #: pool configuration, shared-memory export sizes); defaults to the
    #: no-op tracer so executors emit unconditionally behind one flag.
    tracer: Any = NULL_TRACER
    #: The job's :class:`~repro.bsp.config.ExecutionConfig`: executors
    #: read shuffle mode, chunk watermarks and the steal settings off it.
    config: ExecutionConfig = ExecutionConfig()
    #: The data plane this job runs on, *resolved* by the engine — it is
    #: ``config.wire`` unless the program forced the fallback to the
    #: reference plane (see :mod:`repro.bsp.message`).
    wire: str = "object"


@dataclass
class WorkerStepResult:
    """What one logical worker produced in one superstep.

    ``outbox`` is the worker's sent messages as ``(dest, payloads)`` pairs
    in first-send order, already combined per destination when the program
    declares a message combiner.  ``messages_sent`` counts raw ``send``
    calls (pre-combining), matching the ledger's accounting.  ``inbound``
    counts raw sends per *destination-owning* worker, which feeds the
    per-worker OOM budget.
    """

    worker_id: int
    #: ``(dest, payloads)`` pairs on the reference plane, a packed
    #: :class:`~repro.bsp.message.GpsiBatch` on the production plane.
    outbox: Any
    messages_sent: int
    inbound: List[int]
    compute_calls: int
    cost: float
    outputs: List[Any]
    agg_contribs: Optional[Dict[str, Any]] = None
    state_delta: Any = None
    worker_state: Optional[Dict[str, Any]] = None
    #: Exact bytes of the packed outbox buffers (production plane only;
    #: ``None`` on the reference plane, whose size is payload-dependent).
    #: Under pipelined shuffle this covers streamed chunks *plus* the
    #: residual ``outbox``, so the accounting stays mode-invariant.
    wire_bytes: Optional[int] = None
    #: Pipelined shuffle: chunks streamed through the chunk sink before
    #: this result returned (the residual ``outbox`` rides on top with
    #: sequence number ``chunks_flushed``).  The process backend's drain
    #: loop uses the sum over results as its completion count.
    chunks_flushed: int = 0
    #: Pipelined shuffle: ``(rows, nbytes, offset_ms)`` per streamed
    #: chunk, offsets measured from the worker batch's start — feeds the
    #: ``chunk_flush`` trace events.
    chunk_stats: Optional[List[Tuple[int, int, float]]] = None
    #: Largest single send (production plane only) — the slack term in
    #: the chunk-size bound.
    max_send_bytes: int = 0


class WorkerAggregators:
    """Per-batch aggregator shim for out-of-process workers.

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
    """Call the program once per active vertex, in batch order."""
    compute_calls = 0
    if isinstance(batch, PackedWorkerBatch):
        pos = 0
        columns = batch.columns
        for vertex, count in zip(
            batch.vertices.tolist(), batch.counts.tolist()
        ):
            ctx.vertex = vertex
            compute_calls += 1
            program.compute_columns(ctx, columns.row_slice(pos, pos + count))
            pos += count
    else:
        for vertex, payloads in batch:
            ctx.vertex = vertex
            compute_calls += 1
            program.compute(ctx, payloads)
    return compute_calls


def run_worker_batch(
    program: VertexProgram,
    graph: Graph,
    partition: Partition,
    num_workers: int,
    worker_id: int,
    superstep: int,
    batch: WorkerBatch,
    worker_state: Dict[str, Any],
    aggregators: Any,
    collect_delta: bool,
    wire: str = "object",
    chunk_sink: Optional[Callable[[int, int, Any], None]] = None,
    chunk_gpsis: Optional[int] = None,
    chunk_bytes: Optional[int] = None,
    drive: Optional[Callable[[ComputeContext], int]] = None,
) -> WorkerStepResult:
    """Run one logical worker's compute batch and collect its effects.

    This is the kernel every backend shares; determinism of the whole
    runtime reduces to this function being deterministic given the same
    batch and worker state, which it is: vertices run in batch order and
    all side effects accumulate locally in program order.

    On the production plane (``wire="columnar"``) nothing ever leaves
    packed form: the delivered
    :class:`~repro.bsp.message.PackedWorkerBatch` is sliced per vertex and
    handed to ``compute_columns``, and children flow through
    ``ctx.send_columns`` into a :class:`~repro.bsp.message.ColumnarOutbox`
    — zero Gpsi constructions end to end, and on the process backend both
    directions cross the pool boundary as a handful of numpy buffers.
    Superstep 0 delivers no payloads, so it runs the scalar ``compute``
    per vertex on either plane; its ``ctx.send`` calls land in the same
    outbox and are packed once.

    ``chunk_sink`` enables the pipelined shuffle: the outbox flushes
    watermark-sized chunks through ``chunk_sink(worker_id, seq, batch)``
    *while compute is running*; whatever is pending at the end returns
    as the residual ``outbox`` with ``chunks_flushed`` recording how many
    chunks already streamed.

    ``drive`` replaces the per-vertex compute loop over ``batch``: it is
    handed the worker's context and returns the number of compute calls
    it stands for.  The work-stealing scheduler uses it to replay
    already-expanded outcomes in canonical order — same context, same
    outbox, same accounting as the static path, by construction.
    """
    columnar = wire == "columnar"
    inbound = [0] * num_workers
    outputs: List[Any] = []
    acc = {"cost": 0.0, "sent": 0}
    chunk_stats: Optional[List[Tuple[int, int, float]]] = None

    def add_cost(units: float) -> None:
        acc["cost"] += units

    if columnar:
        if chunk_sink is not None:
            chunk_stats = []
            batch_started = perf_counter()

            def _flush(chunk: GpsiBatch) -> None:
                seq = len(chunk_stats)
                chunk_stats.append(
                    (
                        len(chunk),
                        chunk.nbytes,
                        (perf_counter() - batch_started) * 1000.0,
                    )
                )
                chunk_sink(worker_id, seq, chunk)

            col_outbox = ColumnarOutbox(
                flush=_flush, chunk_gpsis=chunk_gpsis, chunk_bytes=chunk_bytes
            )
        else:
            col_outbox = ColumnarOutbox()
        owner_array = partition.owner_array

        def send(message: Message) -> None:
            col_outbox.append_message(message)
            acc["sent"] += 1
            inbound[partition.owner(message.dest)] += 1

        def send_columns(dest, columns) -> None:
            col_outbox.append(dest, columns)
            n = len(columns)
            acc["sent"] += n
            if n:
                for w, c in enumerate(
                    np.bincount(owner_array[dest], minlength=num_workers)
                ):
                    inbound[w] += int(c)

    else:
        local_outbox = MessageStore(program.message_combiner())
        send_columns = None

        def send(message: Message) -> None:
            local_outbox.add(message)
            acc["sent"] += 1
            inbound[partition.owner(message.dest)] += 1

    ctx = ComputeContext(
        graph=graph,
        superstep=superstep,
        worker_id=worker_id,
        worker_state=worker_state,
        send=send,
        add_cost=add_cost,
        emit=outputs.append,
        aggregators=aggregators,
        send_columns=send_columns,
    )
    if drive is not None:
        compute_calls = drive(ctx)
    else:
        compute_calls = _compute_batch(program, ctx, batch)

    chunks_flushed = 0
    max_send_bytes = 0
    if columnar:
        outbox = col_outbox.to_batch()
        wire_bytes = col_outbox.flushed_bytes + outbox.nbytes
        chunks_flushed = col_outbox.chunks_flushed
        max_send_bytes = col_outbox.max_append_bytes
    else:
        outbox = local_outbox.as_batch()
        wire_bytes = None

    return WorkerStepResult(
        worker_id=worker_id,
        outbox=outbox,
        wire_bytes=wire_bytes,
        chunks_flushed=chunks_flushed,
        chunk_stats=chunk_stats,
        max_send_bytes=max_send_bytes,
        messages_sent=acc["sent"],
        inbound=inbound,
        compute_calls=compute_calls,
        cost=acc["cost"],
        outputs=outputs,
        agg_contribs=(
            aggregators.contributions()
            if isinstance(aggregators, WorkerAggregators)
            else None
        ),
        state_delta=program.collect_state_delta() if collect_delta else None,
    )


class SuperstepExecutor:
    """Pluggable parallel backend for the BSP engine.

    Lifecycle: ``start(spec)`` once per job, ``run_superstep(...)`` once
    per superstep, ``close()`` exactly once (the engine guarantees it in a
    ``finally``).  ``run_superstep`` must return results sorted by
    ``worker_id`` and may omit workers with empty batches.
    """

    #: Whether batches run against the driver's own program/registry
    #: objects (serial) or against replicas (thread/process).
    inprocess: bool = False

    #: Registry name (filled by the backend registry on instantiation).
    name: str = "abstract"

    #: Tasks executed by a worker other than their owner, accumulated
    #: across the job (work-stealing runs only; stays 0 otherwise).  The
    #: engine reads this once at job end into ``BSPResult.steals``.
    steals_total: int = 0

    def start(self, spec: JobSpec) -> None:
        """Prepare for a job (export shared state, warm pools, ...)."""
        raise NotImplementedError

    def run_superstep(
        self,
        superstep: int,
        batches: List[WorkerBatch],
        registry: Any,
        chunk_sink: Optional[Callable[[int, int, Any], None]] = None,
    ) -> List[WorkerStepResult]:
        """Run all non-empty batches; ``batches[w]`` belongs to worker ``w``.

        ``chunk_sink`` is passed (non-None) only under pipelined shuffle:
        the backend must route every worker's flushed chunks into it —
        from whatever thread it likes, the sink is thread-safe — and must
        not return until all chunks of this superstep were delivered.
        Backends without a streaming path may ignore it (workers then
        return whole outboxes as their only chunk: the strict schedule).
        """
        raise NotImplementedError

    def close(self) -> None:
        """Tear down pools and shared resources (idempotent)."""
