"""The BSP engine: superstep loop, message shuffling, halting.

Semantics follow Pregel/Giraph:

* **Superstep 0** hands every worker its share of the initial vertices
  (every vertex, or the program's declared initial set) as one ``int64``
  array, in one ``initialize_columns`` call — this hosts PSgL's
  initialization phase.
* **Superstep i > 0** runs ``compute_columns`` only on the rows
  delivered at the end of superstep ``i-1``, block by block.
* The job **halts** when a superstep ends with no pending messages.

Execution is delegated to a pluggable :mod:`repro.runtime` backend: the
engine builds one deterministic batch per logical worker each superstep
(active vertices plus their delivered rows), the executor runs the
batches — sequentially, on threads, or on a process pool over a
shared-memory graph — and the engine merges the returned outboxes,
ledger deltas and outputs in worker-id order at the barrier.  The merge
order makes every backend reproduce the serial engine's message
delivery order, so the cost ledger records what each *logical* worker
did regardless of where it physically ran.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, List, Optional

import numpy as np

from ..exceptions import BudgetExceededError, EngineError, JobCancelled
from ..graph.graph import Graph
from ..graph.partition import Partition
from ..obs.tracer import make_tracer
from ..runtime.executor import JobSpec
from ..runtime.registry import make_executor
from .aggregate import AggregatorRegistry
from .config import ExecutionConfig
from .message import ChunkedColumnarStore
from .metrics import CostLedger
from .vertex_program import VertexProgram


@dataclass
class BSPResult:
    """Everything a finished (or OOM-aborted) job produced."""

    outputs: List[Any]
    ledger: CostLedger
    wall_seconds: float
    aggregated: Optional[dict] = None
    #: The tracer that observed the run (None when tracing was off).
    trace: Optional[Any] = None
    #: Number of tasks executed by a worker other than their owner
    #: (work-stealing runs only; 0 under the static schedule).
    steals: int = 0

    @property
    def makespan(self) -> float:
        """Simulated runtime per Equation 3 (cost units)."""
        return self.ledger.makespan()

    @property
    def supersteps(self) -> int:
        """Number of supersteps the job ran."""
        return self.ledger.num_supersteps


class BSPEngine:
    """Runs a :class:`VertexProgram` over a partitioned data graph.

    Parameters
    ----------
    graph:
        The data graph (shared, read-only — like Giraph's in-memory
        partitions plus the paper's replicated shared data).
    partition:
        Vertex-to-worker assignment.
    config:
        The :class:`~repro.bsp.config.ExecutionConfig` — backend, data
        plane, shuffle, kernel, stealing, spill and budgets; every knob
        is declared, documented and validated there (table in
        ``docs/api.md``).  ``None`` means the defaults.
    trace:
        Observability: ``None``/``False`` (default, zero overhead), a
        :class:`repro.obs.Tracer` to record per-superstep events into,
        or ``True`` to create a fresh tracer (returned on
        :attr:`BSPResult.trace`).  See ``docs/observability.md``.
    abort_event:
        Optional ``threading.Event``-like object polled at every
        superstep boundary; once set, the run raises
        :class:`~repro.exceptions.JobCancelled` (cooperative
        cancellation — teardown and tracing run normally).
    **overrides:
        ``ExecutionConfig`` fields by name, applied over ``config`` with
        :func:`dataclasses.replace` — ``BSPEngine(g, p, backend="process",
        procs=4)``.  An illegal value or combination raises
        :class:`~repro.exceptions.EngineError` here, at construction.
    """

    def __init__(
        self,
        graph: Graph,
        partition: Partition,
        config: Optional[ExecutionConfig] = None,
        *,
        trace: Any = None,
        abort_event: Optional[Any] = None,
        **overrides: Any,
    ):
        if partition.num_vertices != graph.num_vertices:
            raise EngineError(
                f"partition covers {partition.num_vertices} vertices, "
                f"graph has {graph.num_vertices}"
            )
        self.config = replace(config or ExecutionConfig(), **overrides)
        self.graph = graph
        self.partition = partition
        self.trace = trace
        self.abort_event = abort_event

    @property
    def num_workers(self) -> int:
        """Number of logical workers ``K``."""
        return self.partition.num_workers

    # ------------------------------------------------------------------
    def run(self, program: VertexProgram) -> BSPResult:
        """Execute ``program`` to completion and return its results."""
        cfg = self.config
        if cfg.steal and not program.supports_task_expansion:
            raise EngineError(
                "steal=True needs a program with the task-expansion "
                "split (supports_task_expansion); "
                f"{type(program).__name__} does not declare it"
            )
        # Before the clock: a built-in backend imports its module here.
        executor = make_executor(cfg.backend, procs=cfg.procs)
        started = perf_counter()
        ledger = CostLedger(
            self.num_workers, cfg.memory_budget, cfg.worker_memory_budget
        )
        outputs: List[Any] = []
        inbox = None  # superstep 0 delivers nothing
        registry = AggregatorRegistry(
            program.aggregators(), program.persistent_aggregators()
        )

        initial = program.initial_active_vertices(self.graph)

        tracer = make_tracer(self.trace)
        spill_mgr = None
        superstep = 0
        status = "completed"
        try:
            # Everything that acquires a resource — the spill directory,
            # the executor's pool, replicas and /dev/shm blocks — happens
            # inside the guarded region, so a set-up that fails half-way
            # is torn down like any other fault.
            if cfg.spill_dir is not None:
                # Imported here: a run without a spill plane never loads it.
                from .spill import SpillManager

                spill_mgr = SpillManager(
                    cfg.spill_dir,
                    cfg.memory_watermark_bytes,
                    tracer if tracer.enabled else None,
                )
            if tracer.enabled:
                tracer.meta.update(
                    backend=executor.name,
                    num_workers=self.num_workers,
                    graph_vertices=self.graph.num_vertices,
                    graph_edges=self.graph.num_edges,
                )
                if cfg.steal:
                    tracer.meta["steal_tasks"] = cfg.steal_tasks
                if spill_mgr is not None:
                    tracer.meta["memory_watermark_bytes"] = (
                        cfg.memory_watermark_bytes
                    )
            executor.start(
                JobSpec(
                    program=program,
                    graph=self.graph,
                    partition=self.partition,
                    num_workers=self.num_workers,
                    tracer=tracer,
                    config=cfg,
                )
            )
            while True:
                self._check_limits(superstep, started)
                ledger.begin_superstep(superstep)
                spilled_before = (
                    (spill_mgr.chunks_spilled, spill_mgr.bytes_spilled)
                    if spill_mgr is not None
                    else (0, 0)
                )
                outbox = ChunkedColumnarStore(
                    self.partition.owner_array,
                    self.num_workers,
                    spill=(
                        spill_mgr.for_superstep(superstep)
                        if spill_mgr is not None
                        else None
                    ),
                    watermark_bytes=cfg.memory_watermark_bytes,
                )

                build_started = perf_counter() if tracer.enabled else 0.0
                if superstep == 0:
                    batches = self._initial_batches(initial)
                else:
                    batches = inbox.build_worker_batches()
                if spill_mgr is not None:
                    # The previous superstep's messages are delivered;
                    # nothing can re-map its spill file again.
                    spill_mgr.prune(superstep)
                step_started = perf_counter() if tracer.enabled else 0.0
                # The shuffle mode is nothing but this: under pipelined
                # shuffle the executor gets a sink, called from the
                # schedule's drain thread while workers are still
                # computing, so early chunks are owner-split before the
                # barrier even starts.
                results = executor.run_superstep(
                    superstep,
                    batches,
                    registry,
                    chunk_sink=(
                        self._make_chunk_sink(outbox, tracer, superstep)
                        if cfg.shuffle == "pipelined"
                        else None
                    ),
                )
                merge_started = perf_counter() if tracer.enabled else 0.0
                inbound_per_worker = self._merge_results(
                    superstep,
                    results,
                    outbox,
                    ledger,
                    outputs,
                    registry,
                    program,
                )
                if tracer.enabled:
                    # Emitted before the budget check so an OOM-aborted
                    # run still records its fatal superstep and barrier.
                    done = perf_counter()
                    self._trace_superstep(
                        tracer,
                        superstep,
                        batches,
                        results,
                        outbox,
                        inbound_per_worker,
                        build_ms=(step_started - build_started) * 1000.0,
                        step_wall_ms=(merge_started - step_started) * 1000.0,
                        merge_ms=(done - merge_started) * 1000.0,
                        spilled=(
                            (
                                spill_mgr.chunks_spilled - spilled_before[0],
                                spill_mgr.bytes_spilled - spilled_before[1],
                            )
                            if spill_mgr is not None
                            else None
                        ),
                    )

                registry.end_superstep()
                ledger.total_emitted = len(outputs)
                ledger.end_superstep(
                    live_messages=len(outbox),
                    max_worker_live=max(inbound_per_worker),
                )
                if not outbox:
                    break
                inbox = outbox
                superstep += 1
        except Exception as exc:
            # Teardown runs on every exit path — simulated OOM, the
            # max_supersteps guard, a set-up that failed, or a fault
            # inside compute.
            status = type(exc).__name__
            program.post_application()
            raise
        finally:
            executor.close()
            if spill_mgr is not None:
                # Recorded even on aborted runs: the straggler report and
                # service metrics read these off the ledger, and summary()
                # deliberately excludes them so spilled and in-memory
                # ledgers still compare equal.
                ledger.spill_chunks = spill_mgr.chunks_spilled
                ledger.spill_bytes = spill_mgr.bytes_spilled
                ledger.spill_chunks_mapped = spill_mgr.chunks_mapped
                ledger.spill_bytes_mapped = spill_mgr.bytes_mapped
                spill_mgr.close()
            if tracer.enabled:
                tracer.emit(
                    "job",
                    wall_ms=(perf_counter() - started) * 1000.0,
                    status=status,
                    supersteps=ledger.num_supersteps,
                    outputs=len(outputs),
                )
        program.post_application()
        return BSPResult(
            outputs=outputs,
            ledger=ledger,
            wall_seconds=perf_counter() - started,
            aggregated=registry.finals(),
            trace=tracer if tracer.enabled else None,
            steals=int(getattr(executor, "steals_total", 0)),
        )

    # ------------------------------------------------------------------
    def _check_limits(self, superstep: int, started: float) -> None:
        """The superstep-boundary guards: the runaway-program cap,
        cooperative cancellation, and the superstep and wall budgets."""
        cfg = self.config
        if superstep >= cfg.max_supersteps:
            raise EngineError(
                f"exceeded max_supersteps={cfg.max_supersteps}; "
                "program may not terminate"
            )
        if self.abort_event is not None and self.abort_event.is_set():
            raise JobCancelled(
                f"job aborted at superstep {superstep} "
                "(cancellation requested)"
            )
        if (
            cfg.superstep_budget is not None
            and superstep >= cfg.superstep_budget
        ):
            raise BudgetExceededError(
                f"superstep budget of {cfg.superstep_budget} "
                f"exhausted at superstep {superstep}",
                resource="supersteps",
                used=superstep,
                budget=cfg.superstep_budget,
                where=f"superstep {superstep}",
            )
        if cfg.wall_budget_seconds is not None:
            elapsed = perf_counter() - started
            if elapsed > cfg.wall_budget_seconds:
                raise BudgetExceededError(
                    f"wall-clock budget of "
                    f"{cfg.wall_budget_seconds:g}s exhausted after "
                    f"{elapsed:.3f}s at superstep {superstep}",
                    resource="wall_seconds",
                    used=elapsed,
                    budget=cfg.wall_budget_seconds,
                    where=f"superstep {superstep}",
                )

    def _merge_results(
        self,
        superstep: int,
        results: List[Any],
        outbox: ChunkedColumnarStore,
        ledger: CostLedger,
        outputs: List[Any],
        registry: AggregatorRegistry,
        program: VertexProgram,
    ) -> List[int]:
        """The barrier: shuffle messages into ``outbox`` and fold
        per-worker effects in worker-id order (= the serial engine's
        interleaving).  Returns the raw sends per destination-owning
        worker.

        Each worker's returned outbox is its last chunk — sequence
        number ``chunks_flushed``, i.e. 0 unless earlier chunks already
        streamed — and the ledger records the exact wire bytes it
        shipped.  Every worker ran on a program replica, so its
        aggregator contributions and state delta fold into the driver's
        ``registry`` and ``program`` here.
        """
        inbound_per_worker = [0] * self.num_workers
        for result in results:
            wid = result.worker_id
            ledger.add_cost(wid, result.cost)
            ledger.add_messages(wid, result.messages_sent)
            ledger.add_compute(wid, result.compute_calls)
            ledger.add_wire_bytes(wid, result.wire_bytes)
            for dest, count in enumerate(result.inbound):
                inbound_per_worker[dest] += count
            outbox.merge_chunk(wid, result.chunks_flushed, result.outbox)
            outputs.extend(result.outputs)
            for name, value in result.agg_contribs.items():
                registry.aggregate(name, value)
            program.merge_state_delta(result.state_delta)
        # Exact accounting: the store must hold precisely what the
        # workers' own counters say was sent — any lost, duplicated or
        # torn chunk fails the superstep here instead of corrupting it.
        outbox.finalize()
        sent_rows = sum(r.messages_sent for r in results)
        sent_bytes = sum(r.wire_bytes for r in results)
        if (len(outbox), outbox.wire_bytes) != (sent_rows, sent_bytes):
            raise EngineError(
                "shuffle accounting broke at superstep "
                f"{superstep}: store holds {len(outbox)} rows / "
                f"{outbox.wire_bytes} wire bytes, workers sent "
                f"{sent_rows} rows / {sent_bytes} bytes"
            )
        return inbound_per_worker

    @staticmethod
    def _trace_superstep(
        tracer: Any,
        superstep: int,
        batches: List[Any],
        results: List[Any],
        outbox: ChunkedColumnarStore,
        inbound_per_worker: List[int],
        build_ms: float,
        step_wall_ms: float,
        merge_ms: float,
        spilled: Optional[tuple],
    ) -> None:
        """One superstep's ``worker`` / ``chunk_flush`` / ``barrier`` /
        ``superstep`` events.  ``spilled`` is this superstep's
        ``(chunks, bytes)`` evicted to disk, ``None`` without a spill
        plane."""
        for result in results:
            tracer.emit(
                "worker",
                superstep=superstep,
                worker=result.worker_id,
                cost=result.cost,
                messages=result.messages_sent,
                compute_calls=result.compute_calls,
                outputs=len(result.outputs),
            )
        for result in results:
            for seq, (rows, nbytes, offset_ms) in enumerate(
                result.chunk_stats or ()
            ):
                tracer.emit(
                    "chunk_flush",
                    superstep=superstep,
                    worker=result.worker_id,
                    wall_ms=offset_ms,
                    seq=seq,
                    rows=rows,
                    nbytes=nbytes,
                )
        barrier_extra = dict(
            wire_bytes=outbox.wire_bytes,
            chunks=outbox.chunks_merged,
            max_chunk_bytes=outbox.max_chunk_bytes,
            max_send_bytes=max((r.max_send_bytes for r in results), default=0),
        )
        if spilled is not None:
            barrier_extra["spill_chunks"], barrier_extra["spill_bytes"] = spilled
        tracer.emit(
            "barrier",
            superstep=superstep,
            live_messages=len(outbox),
            max_worker_live=max(inbound_per_worker),
            queue_depths=list(inbound_per_worker),
            merge_ms=merge_ms,
            **barrier_extra,
        )
        tracer.emit(
            "superstep",
            superstep=superstep,
            wall_ms=step_wall_ms,
            active_vertices=sum(len(batch) for batch in batches),
            batches=sum(1 for batch in batches if len(batch)),
            build_ms=build_ms,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _make_chunk_sink(store: ChunkedColumnarStore, tracer: Any, superstep: int):
        """The pipelined barrier's ingest callback for one superstep.

        Backends call it as ``sink(sender, seq, columns)`` from a single
        drain thread; the store's merge is itself locked, and trace
        emission stays on that one thread, so no tracer synchronisation
        is needed.
        """
        if not tracer.enabled:
            return store.merge_chunk

        def sink(sender: int, seq: int, columns: Any) -> None:
            store.merge_chunk(sender, seq, columns)
            tracer.emit(
                "chunk_deliver",
                superstep=superstep,
                worker=sender,
                seq=seq,
                rows=len(columns),
                nbytes=columns.nbytes,
            )

        return sink

    def _initial_batches(self, initial) -> List[np.ndarray]:
        """Superstep 0's work: the initial active set (``None`` = every
        vertex) split by owning worker in activation order, one
        ``int64`` array per worker."""
        if initial is None:
            vertices = np.arange(self.graph.num_vertices, dtype=np.int64)
        else:
            vertices = np.asarray(initial, dtype=np.int64)
        owner = self.partition.owner_array[vertices]
        return [vertices[owner == w] for w in range(self.num_workers)]
