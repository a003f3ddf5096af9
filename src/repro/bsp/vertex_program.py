"""Vertex-centric programming API (the Pregel/Giraph contract, packed).

A :class:`VertexProgram` is instantiated once per job.  Superstep 0 runs
on every vertex (or the program's declared initial set) with nothing
delivered — the paper's initialization phase; later supersteps run only
on vertices that received messages.  Messages are packed, self-addressed
rows (:class:`~repro.core.psi.GpsiColumns`), and the program sees them
as such: :meth:`VertexProgram.initialize_columns` gets one worker's
initial vertices in one call, :meth:`VertexProgram.compute_columns` one
delivered block of rows per call.  The program does its work through
the :class:`ComputeContext`, which routes messages, charges simulated
cost to the executing worker, and collects outputs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..graph.graph import Graph
from .aggregate import Aggregator


class ComputeContext:
    """Everything a vertex program may touch during one call.

    One instance serves one worker's batch in one superstep.
    """

    __slots__ = (
        "graph",
        "superstep",
        "worker_id",
        "worker_state",
        "_send_columns",
        "_add_cost",
        "_emit",
        "_aggregators",
    )

    def __init__(
        self,
        graph: Graph,
        superstep: int,
        worker_id: int,
        worker_state: Dict[str, Any],
        send_columns: Callable[[Any], None],
        add_cost: Callable[[float], None],
        emit: Callable[[Any], None],
        aggregators: Any,
    ):
        self.graph = graph
        self.superstep = superstep
        self.worker_id = worker_id
        self.worker_state = worker_state
        self._send_columns = send_columns
        self._add_cost = add_cost
        self._emit = emit
        self._aggregators = aggregators

    def send_columns(self, columns: Any) -> None:
        """Bulk-send a packed :class:`~repro.core.psi.GpsiColumns` batch
        (delivered next superstep).  Every row is self-addressed: it goes
        to the data vertex ``columns.destinations()`` names for it, the
        image of its ``next_vertex``.  The rows flow straight into the
        worker's packed outbox."""
        self._send_columns(columns)

    def add_cost(self, units: float) -> None:
        """Charge ``units`` of simulated work to the executing worker."""
        self._add_cost(units)

    def emit(self, value: Any) -> None:
        """Record an output (e.g. a found subgraph instance)."""
        self._emit(value)

    def aggregate(self, name: str, value: Any) -> None:
        """Contribute ``value`` to a named aggregator (visible next
        superstep; persistent aggregators accumulate across the job)."""
        self._aggregators.aggregate(name, value)

    def aggregated(self, name: str) -> Any:
        """Read an aggregator as of the last barrier: last superstep's
        reduction (per-step) or the running total (persistent) — never
        this superstep's contributions, on any backend."""
        return self._aggregators.visible(name)


class VertexProgram:
    """Base class for vertex-centric algorithms.

    Subclasses implement :meth:`initialize_columns` and
    :meth:`compute_columns`; they may also override
    :meth:`post_application`, the aggregator declarations and the
    replica hooks below.
    """

    #: Whether the program additionally splits :meth:`compute_columns`
    #: into a pure expansion half and a stateful apply half — the
    #: contract the work-stealing scheduler requires
    #: (``expand_task(columns, edge_index)``,
    #: ``apply_outcome(ctx, outcome)``, ``task_probe_view()``,
    #: ``absorb_task_stats(queries, positives)``; see
    #: :mod:`repro.runtime.stealing`).  Programs without the split can
    #: never run under ``steal=True``.
    supports_task_expansion: bool = False

    def initialize_columns(self, ctx: ComputeContext, vertices: Any) -> None:
        """Superstep 0: one call per worker with its initial active
        vertices as an ``int64`` array, in activation order.  Sends go
        through ``ctx.send_columns``."""
        raise NotImplementedError

    def compute_columns(self, ctx: ComputeContext, columns: Any) -> None:
        """Supersteps after 0: one call per delivered block — rows of
        several destination vertices in delivery order, as a packed
        :class:`~repro.core.psi.GpsiColumns`.  A worker's delivery
        reaches the program as one or more consecutive blocks, cut at
        arbitrary rows (also inside one vertex's delivery): every row
        carries its own destination, ``columns.destinations()``."""
        raise NotImplementedError

    def post_application(self) -> None:
        """One-time teardown after the engine halts."""

    def initial_active_vertices(self, graph: Graph) -> Optional[List[int]]:
        """Vertices active at superstep 0; ``None`` means all of them."""
        return None

    def aggregators(self) -> Dict[str, "Aggregator"]:
        """Per-superstep aggregators (values visible one superstep later)."""
        return {}

    def persistent_aggregators(self) -> Dict[str, "Aggregator"]:
        """Aggregators accumulating across the whole job (Giraph-style)."""
        return {}

    # ------------------------------------------------------------------
    # Replica contract (every backend)
    # ------------------------------------------------------------------
    # Every backend runs each logical worker's batch on a *replica* of
    # the program — the driver's own object on the serial backend, a
    # pickled copy on the thread and process backends — and merges the
    # replica's state delta into the driver's program at the barrier.
    # The hooks below let driver-side mutable state survive that split.

    def export_shared(self) -> Dict[str, Any]:
        """Read-only ``int64`` numpy arrays to ship alongside the shared
        graph, one copy per machine rather than per replica.

        The process backend appends these to the shared-memory CSR export
        (workers re-attach zero-copy views); the thread backend passes the
        driver's arrays through by reference.  Programs that precompute
        per-vertex arrays the hot path needs — ranks, degree statistics —
        return them here and re-attach in :meth:`bind_shared`.  Arrays
        returned here should be dropped from ``__getstate__`` so replicas
        never pickle a private copy."""
        return {}

    def bind_shared(self, graph: Graph, arrays: Dict[str, Any]) -> None:
        """Re-attach the shared graph *and* the :meth:`export_shared`
        arrays on a freshly unpickled replica — the shared-memory CSR
        view in the process backend, the driver's own objects in the
        thread backend.  The default does nothing: a program that drops
        nothing in ``__getstate__`` reads the graph off ``ctx.graph``."""

    def collect_state_delta(self) -> Any:
        """Return and *reset* the driver-relevant state this replica
        accumulated since the last collection (called once per batch, on
        the driver's own object too when it is the replica).  The default
        ``None`` means the program keeps no such state."""
        return None

    def merge_state_delta(self, delta: Any) -> None:
        """Fold one worker's state delta into the driver's program.

        Called on the driver's instance once per worker per superstep, in
        worker-id order — so order-dependent state (e.g. an instance
        list) merges exactly as a serial run would have built it."""
