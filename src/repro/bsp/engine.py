"""The BSP engine: superstep loop, message shuffling, halting.

Semantics follow Pregel/Giraph:

* **Superstep 0** hands every worker its share of the initial vertices
  (every vertex, or the program's declared initial set) as one ``int64``
  array, in one ``initialize_columns`` call — this hosts PSgL's
  initialization phase.
* **Superstep i > 0** runs ``compute_columns`` only on the rows
  delivered at the end of superstep ``i-1``, block by block.
* The job **halts** when a superstep ends with no pending messages.

Execution is delegated to a :mod:`repro.runtime` backend: the
engine builds one deterministic batch per logical worker each superstep
(active vertices plus their delivered rows), the executor runs the
batches — sequentially, or on process lanes over one shared read-only
graph — and at the barrier the engine folds ledger deltas and program
state deltas in worker-id order and delivers every returned outbox in
one pass (:func:`~repro.bsp.message.deliver`).  A program's state delta
is the only way a worker's effects reach the driver.  Worker-id order
makes every backend reproduce the serial engine's message delivery
order, so the cost ledger records what each *logical* worker
did regardless of where it physically ran.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, List, Optional, Tuple

import numpy as np

from .._record import Record
from ..exceptions import BudgetExceededError, EngineError, JobCancelled
from ..graph.graph import Graph
from ..graph.partition import Partition
from ..obs.tracer import make_tracer
from ..runtime.executor import JobSpec, SuperstepExecutor
from .config import ExecutionConfig
from .message import deliver
from .metrics import CostLedger
from .vertex_program import VertexProgram


class BSPResult(Record):
    """Everything a finished (or OOM-aborted) job produced; ``trace`` is
    the tracer that observed the run (None when tracing was off)."""

    __slots__ = ("ledger", "wall_seconds", "trace")

    def __init__(
        self,
        ledger: CostLedger,
        wall_seconds: float,
        trace: Optional[Any] = None,
    ) -> None:
        self.ledger = ledger
        self.wall_seconds = wall_seconds
        self.trace = trace

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
        The :class:`~repro.bsp.config.ExecutionConfig` — backend, lanes,
        data plane and budgets; every knob is declared,
        documented and validated there (table in ``docs/api.md``).  ``None`` means the defaults.
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
        :meth:`~repro.bsp.config.ExecutionConfig.with_overrides` —
        ``BSPEngine(g, p, backend="process", procs=4)``.  An illegal
        value or combination, or a name that is not a field, raises
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
        self.config = (config or ExecutionConfig()).with_overrides(**overrides)
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
        # Before the clock: the process backend imports its module here.
        executor = cfg.backend  # a pre-built executor, in tests
        if executor == "serial":
            executor = SuperstepExecutor()
        elif executor == "process":
            from ..runtime.process import ProcessExecutor

            executor = ProcessExecutor(cfg.procs)
        started = perf_counter()
        ledger = CostLedger(
            self.num_workers, cfg.memory_budget, cfg.worker_memory_budget
        )
        initial = program.initial_active_vertices(self.graph)

        tracer = make_tracer(self.trace)
        superstep = 0
        status = "completed"
        try:
            # Everything that acquires a resource — the executor's lanes
            # and their pipes — happens inside the guarded region, so a
            # set-up that fails half-way is torn down like any other
            # fault.
            if tracer.enabled:
                tracer.meta.update(
                    backend=executor.name,
                    num_workers=self.num_workers,
                    graph_vertices=self.graph.num_vertices,
                    graph_edges=self.graph.num_edges,
                )
            executor.start(
                JobSpec(
                    program=program,
                    graph=self.graph,
                    num_workers=self.num_workers,
                    tracer=tracer,
                )
            )
            build_started = perf_counter()
            batches = self._initial_batches(initial)
            # Later supersteps' batches are built by the previous
            # barrier, inside its ``merge_ms``.
            build_ms = (perf_counter() - build_started) * 1000.0
            while True:
                self._check_limits(superstep, started)
                ledger.begin_superstep(superstep)
                step_started = perf_counter() if tracer.enabled else 0.0
                results = executor.run_superstep(superstep, batches)
                merge_started = perf_counter() if tracer.enabled else 0.0
                delivered, inbound, wire = self._barrier(
                    superstep, results, ledger, program
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
                        inbound,
                        wire,
                        build_ms=build_ms,
                        step_wall_ms=(merge_started - step_started) * 1000.0,
                        merge_ms=(done - merge_started) * 1000.0,
                        lane_busy_ms=getattr(executor, "lane_busy_ms", None),
                    )

                live = sum(inbound)
                ledger.end_superstep(
                    live_messages=live, max_worker_live=max(inbound)
                )
                if not live:
                    break
                batches, build_ms = delivered, 0.0
                superstep += 1
        except Exception as exc:
            # Teardown runs on every exit path — a budget kill (the
            # superstep cap included), a set-up that failed, or a fault
            # inside compute.
            status = type(exc).__name__
            program.post_application()
            raise
        finally:
            executor.close()
            if tracer.enabled:
                tracer.emit(
                    "job",
                    wall_ms=(perf_counter() - started) * 1000.0,
                    status=status,
                    supersteps=ledger.num_supersteps,
                )
        program.post_application()
        return BSPResult(
            ledger=ledger,
            wall_seconds=perf_counter() - started,
            trace=tracer if tracer.enabled else None,
        )

    # ------------------------------------------------------------------
    def _check_limits(self, superstep: int, started: float) -> None:
        """The superstep-boundary guards: cooperative cancellation, the
        superstep budget (the runaway-program cap) and the wall budget."""
        cfg = self.config
        if self.abort_event is not None and self.abort_event.is_set():
            raise JobCancelled(
                f"job aborted at superstep {superstep} "
                "(cancellation requested)"
            )
        if superstep >= cfg.superstep_budget:
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

    def _barrier(
        self,
        superstep: int,
        results: List[Any],
        ledger: CostLedger,
        program: VertexProgram,
    ) -> Tuple[List[Any], List[int], List[int]]:
        """The barrier: fold per-worker effects in worker-id order (= the
        serial engine's interleaving) and deliver every outbox.

        Returns ``(batches, inbound, wire)``: next superstep's batch per
        worker, the rows delivered to each, and the exact wire bytes of
        each result's outbox, which the ledger also records.  Every
        worker ran on a program replica, so its state delta folds into
        the driver's ``program`` here.
        """
        wire = []
        for result in results:
            wid = result.worker_id
            nbytes = sum(chunk.nbytes for chunk in result.outbox)
            wire.append(nbytes)
            ledger.add_cost(wid, result.cost)
            ledger.add_messages(wid, result.messages_sent)
            ledger.add_compute(wid, result.compute_calls)
            ledger.add_wire_bytes(wid, nbytes)
            program.merge_state_delta(result.state_delta)
        batches, inbound = deliver(
            [result.outbox for result in results],
            self.partition.owner_array,
            self.num_workers,
        )
        # Exact accounting: the barrier must deliver precisely what the
        # workers' own counters say was sent — any lost or duplicated
        # rows fail the superstep here instead of corrupting it.
        sent = sum(result.messages_sent for result in results)
        if sum(inbound) != sent:
            raise EngineError(
                f"shuffle accounting broke at superstep {superstep}: "
                f"delivered {sum(inbound)} rows, workers sent {sent}"
            )
        return batches, inbound, wire

    @staticmethod
    def _trace_superstep(
        tracer: Any,
        superstep: int,
        batches: List[Any],
        results: List[Any],
        inbound: List[int],
        wire: List[int],
        build_ms: float,
        step_wall_ms: float,
        merge_ms: float,
        lane_busy_ms: Optional[List[float]],
    ) -> None:
        """One superstep's ``worker`` / ``barrier`` / ``superstep``
        events.  ``inbound`` is the rows delivered per worker, ``wire``
        the bytes each sender shipped, ``lane_busy_ms`` the executor's
        per-lane busy time, ``None`` where it deals to no lanes."""
        for result in results:
            tracer.emit(
                "worker",
                superstep=superstep,
                worker=result.worker_id,
                cost=result.cost,
                messages=result.messages_sent,
                compute_calls=result.compute_calls,
            )
        tracer.emit(
            "barrier",
            superstep=superstep,
            live_messages=sum(inbound),
            max_worker_live=max(inbound),
            queue_depths=list(inbound),
            merge_ms=merge_ms,
            wire_bytes=sum(wire),
            chunks=sum(1 for nbytes in wire if nbytes),
            max_chunk_bytes=max(wire, default=0),
        )
        step_extra = {}
        if lane_busy_ms is not None:
            step_extra["lane_busy_ms"] = list(lane_busy_ms)
        tracer.emit(
            "superstep",
            superstep=superstep,
            wall_ms=step_wall_ms,
            active_vertices=sum(len(batch) for batch in batches),
            batches=sum(1 for batch in batches if len(batch)),
            build_ms=build_ms,
            **step_extra,
        )

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
