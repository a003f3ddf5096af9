"""Vertex-centric programming API (the Pregel/Giraph contract, packed).

A :class:`VertexProgram` is instantiated once per job.  Superstep 0 runs
on every vertex (or the program's declared initial set) with nothing
delivered — the paper's initialization phase; later supersteps run only
on vertices that received messages.  Messages are packed, self-addressed
rows (:class:`~repro.core.psi.GpsiColumns`), and the program sees them
as such: :meth:`VertexProgram.initialize_columns` gets one worker's
initial vertices in one call, :meth:`VertexProgram.compute_columns` one
delivered block of rows per call.  The program does its work through
the :class:`ComputeContext`, which routes messages and charges
simulated cost to the executing worker.  Whatever else a program
produces — instances, counts, statistics — it keeps on itself and hands
to the driver through the state-delta hooks, the one way a worker's
effects reach the driver.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..graph.graph import Graph


class ComputeContext:
    """Everything a vertex program may touch during one call.

    One instance serves one worker's batch in one superstep, and holds
    what the batch produced: ``sent``, its packed sends in send order,
    and ``cost``, the simulated work charged to the worker.
    """

    __slots__ = ("graph", "superstep", "worker_id", "worker_state", "sent", "cost")

    def __init__(
        self,
        graph: Graph,
        superstep: int,
        worker_id: int,
        worker_state: Dict[str, Any],
    ):
        self.graph = graph
        self.superstep = superstep
        self.worker_id = worker_id
        self.worker_state = worker_state
        self.sent: List[Any] = []
        self.cost = 0.0

    def send_columns(self, columns: Any) -> None:
        """Bulk-send a packed :class:`~repro.core.psi.GpsiColumns` batch
        (delivered next superstep).  Every row is self-addressed: it goes
        to the data vertex ``columns.destinations()`` names for it, the
        image of its ``next_vertex``.  The batch is kept whole, as one
        chunk of the worker's sends."""
        if len(columns):
            self.sent.append(columns)

    def add_cost(self, units: float) -> None:
        """Charge ``units`` of simulated work to the executing worker."""
        self.cost += units


class VertexProgram:
    """Base class for vertex-centric algorithms.

    Subclasses implement :meth:`initialize_columns` and
    :meth:`compute_columns`; they may also override
    :meth:`post_application`, :meth:`initial_active_vertices` and the
    replica hooks below.
    """

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

    # ------------------------------------------------------------------
    # Replica contract (every backend)
    # ------------------------------------------------------------------
    # Every backend runs each logical worker's batch on a *replica* of
    # the program and merges the replica's state delta into the driver's
    # program at the barrier.  The replica is the driver's own object on
    # the serial backend and on the process backend's driver lane; on a
    # child lane it is the copy the lane inherited at fork, graph and
    # all, with nothing pickled.  A third-party backend copies the
    # program whole.
    # The hooks below let driver-side mutable state survive that split;
    # they are the only way a worker's effects — instances, counts,
    # statistics — reach the driver.

    def export_shared(self) -> Dict[str, Any]:
        """Read-only numpy arrays every replica shares with the driver,
        one copy per machine rather than per replica.

        Programs that precompute per-vertex arrays the hot path needs —
        ranks, degree statistics — return them here: the process backend
        builds them before it forks its lanes, so every child inherits
        the driver's copy, and sizes its ``export`` trace event by them."""
        return {}

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
