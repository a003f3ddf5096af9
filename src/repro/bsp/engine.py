"""The BSP engine: superstep loop, message shuffling, halting.

Semantics follow Pregel/Giraph:

* **Superstep 0** runs ``compute`` on every vertex (or the program's
  declared initial set) with an empty message list — this hosts PSgL's
  initialization phase.
* **Superstep i > 0** runs ``compute`` only on vertices that received
  messages at the end of superstep ``i-1``.
* The job **halts** when a superstep ends with no pending messages.

Execution is delegated to a pluggable :mod:`repro.runtime` backend: the
engine builds one deterministic batch per logical worker each superstep
(active vertices plus their delivered messages), the executor runs the
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

from ..exceptions import BudgetExceededError, EngineError, JobCancelled
from ..graph.graph import Graph
from ..graph.partition import Partition
from ..obs.tracer import make_tracer
from .aggregate import AggregatorRegistry
from .config import ExecutionConfig
from .message import ChunkedColumnarStore, MessageStore
from .metrics import CostLedger
from .spill import SpillManager
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
    #: The data plane that actually ran: the requested ``wire`` unless
    #: the program forced the automatic fallback to ``"object"``.
    wire: str = "object"

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

    A program that declares a message combiner or no
    ``supports_columnar_compute`` cannot run on the production plane: the
    run **falls back** to the reference plane automatically and
    :attr:`BSPResult.wire` reports the plane that actually ran (see
    :mod:`repro.bsp.message` and ``docs/perf.md``).
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
        # Imported here: repro.runtime builds on repro.bsp, not vice versa.
        from ..runtime.executor import JobSpec
        from ..runtime.registry import make_executor

        cfg = self.config
        started = perf_counter()
        program.pre_application(self.graph, self.num_workers)
        ledger = CostLedger(
            self.num_workers, cfg.memory_budget, cfg.worker_memory_budget
        )
        outputs: List[Any] = []
        combiner = program.message_combiner()
        plane = self._resolve_plane(program, combiner)
        columnar = plane == "columnar"
        inbox = None  # superstep 0 delivers nothing
        registry = AggregatorRegistry(
            program.aggregators(), program.persistent_aggregators()
        )

        initial = program.initial_active_vertices(self.graph)
        if initial is None:
            initial = list(self.graph.vertices())

        executor = make_executor(cfg.backend, procs=cfg.procs)
        tracer = make_tracer(self.trace)
        spill_mgr: Optional[SpillManager] = None
        superstep = 0
        status = "completed"
        try:
            # Everything that acquires a resource — the spill directory,
            # the executor's pool, replicas and /dev/shm blocks — happens
            # inside the guarded region, so a set-up that fails half-way
            # is torn down like any other fault.
            if cfg.spill_dir is not None:
                spill_mgr = SpillManager(
                    cfg.spill_dir,
                    cfg.memory_watermark_bytes,
                    tracer if tracer.enabled else None,
                )
            if tracer.enabled:
                tracer.meta.update(
                    backend=executor.name,
                    wire=plane,
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
                    wire=plane,
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
                if columnar:
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
                else:
                    outbox = MessageStore(combiner)

                build_started = perf_counter() if tracer.enabled else 0.0
                if superstep == 0:
                    batches = self._group_by_owner(initial, lambda v: [])
                elif columnar:
                    batches = inbox.build_worker_batches()
                else:
                    batches = self._group_by_owner(
                        inbox.destinations(), inbox.take
                    )
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
                    from_replicas=not executor.inprocess,
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
            wire=plane,
        )

    # ------------------------------------------------------------------
    def _resolve_plane(self, program: VertexProgram, combiner: Any) -> str:
        """The data plane this run uses.  It follows from what the
        program is, never from a second option: the production plane
        needs combiner-less columnar compute, anything else runs on the
        reference plane — unless the configuration asked for something
        only the production plane has, which is refused here."""
        cfg = self.config
        fallback = None
        if cfg.wire == "columnar":
            if combiner is not None:
                fallback = (
                    f"{type(program).__name__} declares a message combiner"
                )
            elif not getattr(program, "supports_columnar_compute", False):
                fallback = (
                    f"{type(program).__name__} does not support columnar "
                    "compute"
                )
        if fallback:
            cfg.require_columnar_plane(fallback)
        if cfg.steal and not getattr(
            program, "supports_task_expansion", False
        ):
            raise EngineError(
                "steal=True needs a program with the task-expansion "
                "split (supports_task_expansion); "
                f"{type(program).__name__} does not declare it"
            )
        return "object" if fallback else cfg.wire

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
        outbox: Any,
        ledger: CostLedger,
        outputs: List[Any],
        registry: AggregatorRegistry,
        program: VertexProgram,
        from_replicas: bool,
    ) -> List[int]:
        """The barrier: shuffle messages into ``outbox`` and fold
        per-worker effects in worker-id order (= the serial engine's
        interleaving).  Returns the raw sends per destination-owning
        worker.

        On the production plane each worker's returned outbox is its
        last chunk — sequence number ``chunks_flushed``, i.e. 0 unless
        earlier chunks already streamed — and the ledger records the
        exact wire bytes it shipped, with no per-message encoded_size
        calls.  ``from_replicas`` says workers ran on program replicas,
        whose aggregator contributions and state deltas fold into the
        driver's ``registry`` and ``program`` here; in-process workers
        already wrote to both directly.
        """
        columnar = isinstance(outbox, ChunkedColumnarStore)
        inbound_per_worker = [0] * self.num_workers
        for result in results:
            wid = result.worker_id
            ledger.add_cost(wid, result.cost)
            ledger.add_messages(wid, result.messages_sent)
            ledger.add_compute(wid, result.compute_calls)
            if result.wire_bytes is not None:
                ledger.add_wire_bytes(wid, result.wire_bytes)
            for dest, count in enumerate(result.inbound):
                inbound_per_worker[dest] += count
            if columnar:
                outbox.merge_chunk(wid, result.chunks_flushed, result.outbox)
            else:
                outbox.merge_batch(result.outbox)
            outputs.extend(result.outputs)
            if from_replicas:
                if result.agg_contribs:
                    for name, value in result.agg_contribs.items():
                        registry.aggregate(name, value)
                program.merge_state_delta(result.state_delta)
        if columnar:
            # Exact accounting: the store must hold precisely what the
            # workers' own counters say was sent — any lost, duplicated
            # or torn chunk fails the superstep here instead of
            # corrupting it.
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
        outbox: Any,
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
        barrier_extra = {}
        if isinstance(outbox, ChunkedColumnarStore):
            barrier_extra.update(
                wire_bytes=outbox.wire_bytes,
                chunks=outbox.chunks_merged,
                max_chunk_bytes=outbox.max_chunk_bytes,
                max_send_bytes=max(
                    (r.max_send_bytes for r in results), default=0
                ),
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
            batches=sum(1 for batch in batches if batch),
            build_ms=build_ms,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _make_chunk_sink(store: ChunkedColumnarStore, tracer: Any, superstep: int):
        """The pipelined barrier's ingest callback for one superstep.

        Backends call it as ``sink(sender, seq, batch)`` from a single
        drain thread; the store's merge is itself locked, and trace
        emission stays on that one thread, so no tracer synchronisation
        is needed.
        """
        if not tracer.enabled:
            return store.merge_chunk

        def sink(sender: int, seq: int, batch: Any) -> None:
            store.merge_chunk(sender, seq, batch)
            tracer.emit(
                "chunk_deliver",
                superstep=superstep,
                worker=sender,
                seq=seq,
                rows=len(batch),
                nbytes=batch.nbytes,
            )

        return sink

    def _group_by_owner(self, active, payloads_of) -> List[List]:
        """Group the active set by owning worker, preserving activation
        order within each worker, and attach each vertex's delivered
        payloads — the reference plane's executor-facing unit of work
        (and every plane's superstep 0, which delivers nothing)."""
        by_worker: List[List] = [[] for _ in range(self.num_workers)]
        for v in active:
            by_worker[self.partition.owner(v)].append((v, payloads_of(v)))
        return by_worker
