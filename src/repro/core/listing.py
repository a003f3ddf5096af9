"""The PSgL framework driver (Section 4.2) and its vertex program.

:class:`PSgL` is the library's main entry point.  It assembles the whole
pipeline the paper describes:

1. order the data graph by degree (Section 3);
2. break the pattern's automorphisms if it carries no partial order yet
   (Section 5.2.1);
3. pick the initial pattern vertex (Section 5.2.2);
4. build the light-weight edge index (Section 5.2.3) and replicate it as
   shared read-only data;
5. randomly partition the data graph over ``K`` workers and run the
   two-phase vertex program (initialization + expansion) on the BSP
   engine until no Gpsi remains.

Example
-------
>>> from repro.graph import complete_graph
>>> from repro.pattern import triangle
>>> from repro.core import PSgL
>>> result = PSgL(complete_graph(5), num_workers=2).run(triangle())
>>> result.count   # C(5, 3) triangles in K5
10
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..bsp.aggregate import sum_aggregator
from ..bsp.config import ExecutionConfig, coerce
from ..bsp.engine import BSPEngine, BSPResult
from ..bsp.metrics import CostLedger
from ..bsp.vertex_program import ComputeContext, VertexProgram
from ..exceptions import (
    DistributionError,
    EngineError,
    GraphError,
    PatternError,
)
from ..graph.graph import Graph
from ..graph.ordered import OrderedGraph
from ..graph.partition import Partition, random_partition
from ..pattern.automorphism import automorphisms, break_automorphisms
from ..pattern.pattern import PatternGraph
from .batch_expand import expand_columns
from .cost import CostParameters, DEFAULT_COSTS
from .distribution import DistributionStrategy, make_strategy, worker_rng
from .edge_index import EdgeIndexBase, build_edge_index
from .init_vertex import select_initial_vertex
from .psi import GpsiColumns


@dataclass
class ListingResult:
    """Outcome of one subgraph listing job.

    ``makespan`` is the simulated runtime per Equation 3 (cost units);
    ``gpsi_by_vertex`` counts intermediate results per expanding pattern
    vertex (the Table 2 statistic).
    """

    count: int
    pattern: PatternGraph
    initial_vertex: int
    strategy: str
    ledger: CostLedger
    wall_seconds: float
    instances: Optional[List[Tuple[int, ...]]] = None
    gpsi_by_vertex: Dict[int, int] = field(default_factory=dict)
    index_queries: int = 0
    index_pruned: int = 0
    per_vertex_counts: Optional[Dict[int, int]] = None
    message_bytes: Optional[int] = None
    #: The tracer that observed the run (None when tracing was off);
    #: feed it to ``repro.obs`` exporters.
    trace: Optional[object] = None

    @property
    def makespan(self) -> float:
        """Simulated runtime (Equation 3)."""
        return self.ledger.makespan()

    @property
    def supersteps(self) -> int:
        """Supersteps executed, including initialization."""
        return self.ledger.num_supersteps

    @property
    def total_gpsis(self) -> int:
        """Total partial subgraph instances communicated."""
        return self.ledger.total_messages()

    @property
    def worker_costs(self) -> List[float]:
        """Per-worker total cost (Figure 5's bars)."""
        return self.ledger.worker_totals()

    def __repr__(self) -> str:
        return (
            f"ListingResult({self.pattern.name}: count={self.count}, "
            f"makespan={self.makespan:.0f}, supersteps={self.supersteps})"
        )


class PSgLProgram(VertexProgram):
    """The paper's single vertex program hosting both phases.

    Superstep 0 is the initialization phase: every data vertex whose
    degree admits the initial pattern vertex creates the one-pair Gpsi and
    addresses it to itself.  Every later superstep expands incoming Gpsis
    via Algorithm 1 and routes the offspring through the distribution
    strategy — a delivered block of packed rows at a time.  The
    per-vertex, per-Gpsi statement of the same two phases is the parity
    oracle, :mod:`repro.core.reference`.
    """

    def __init__(
        self,
        pattern: PatternGraph,
        ordered: OrderedGraph,
        partition: Partition,
        strategy: DistributionStrategy,
        edge_index: EdgeIndexBase,
        initial_vertex: int,
        costs: CostParameters,
        seed: int,
        collect_instances: bool,
        count_per_vertex: bool = False,
        track_message_bytes: bool = False,
    ):
        self.pattern = pattern
        self.ordered = ordered
        self.partition = partition
        self.strategy = strategy
        self.edge_index = edge_index
        self.initial_vertex = initial_vertex
        self.costs = costs
        self.seed = seed
        self.collect_instances = collect_instances
        self.count_per_vertex = count_per_vertex
        self.track_message_bytes = track_message_bytes
        self.instances: List[Tuple[int, ...]] = []
        self.gpsi_by_vertex: Dict[int, int] = {}
        self.per_vertex_counts: Dict[int, int] = {}
        #: Mapping arrays of completed instances awaiting the bincount fold
        #: into ``per_vertex_counts`` (see :meth:`_fold_per_vertex`).
        self._pvc_chunks: List[np.ndarray] = []
        self.message_bytes = 0

    # ------------------------------------------------------------------
    # Replica contract: on every backend the tallies cross back as
    # per-batch deltas merged in worker-id order.
    # ------------------------------------------------------------------
    def export_shared(self):
        ordered = self.ordered
        return {
            "order_rank": ordered.ranks,
            "order_nb": ordered.nb_values,
            "order_ns": ordered.ns_values,
            "edge_table": ordered.graph.edge_table().slots,
        }

    def _fold_per_vertex(self) -> None:
        """Fold pending completed-mapping chunks into ``per_vertex_counts``.

        Each completed instance contributes one count to every data vertex
        in its mapping; instead of a per-mapping dict loop this buffers
        the ``(n, k)`` mapping arrays and folds them in one
        ``np.bincount`` over the concatenated vertex ids.
        """
        if not self._pvc_chunks:
            return
        flat = np.concatenate([c.ravel() for c in self._pvc_chunks])
        self._pvc_chunks = []
        counts = np.bincount(flat, minlength=self.partition.num_vertices)
        for vd in np.flatnonzero(counts):
            vd = int(vd)
            self.per_vertex_counts[vd] = (
                self.per_vertex_counts.get(vd, 0) + int(counts[vd])
            )

    def collect_state_delta(self):
        self._fold_per_vertex()
        delta = (
            self.gpsi_by_vertex,
            self.instances,
            self.per_vertex_counts,
            self.message_bytes,
            self.edge_index.queries,
            self.edge_index.positives,
        )
        self.gpsi_by_vertex = {}
        self.instances = []
        self.per_vertex_counts = {}
        self.message_bytes = 0
        self.edge_index.reset_statistics()
        return delta

    def merge_state_delta(self, delta) -> None:
        if delta is None:
            return
        gpsi_by_vertex, instances, per_vertex, msg_bytes, queries, positives = delta
        for vp, n in gpsi_by_vertex.items():
            self.gpsi_by_vertex[vp] = self.gpsi_by_vertex.get(vp, 0) + n
        self.instances.extend(instances)
        for vd, n in per_vertex.items():
            self.per_vertex_counts[vd] = self.per_vertex_counts.get(vd, 0) + n
        self.message_bytes += msg_bytes
        # Replicas probed their own index copies; fold the probe counters
        # into the driver's so ListingResult statistics stay backend-
        # independent.
        self.edge_index.queries += queries
        self.edge_index.positives += positives

    def persistent_aggregators(self):
        # The global instance counter lives in a Giraph-style persistent
        # aggregator rather than driver-side mutable state.
        return {"found": sum_aggregator(0)}

    # ------------------------------------------------------------------
    def initialize_columns(self, ctx: ComputeContext, vertices: np.ndarray) -> None:
        """The initialization phase, one call per worker.  Every vertex
        costs one unit; those whose degree admits the initial pattern
        vertex (pruning rule 1) each send the one-pair Gpsi to
        themselves, as one self-addressed packed batch."""
        ctx.add_cost(float(len(vertices)))
        v0 = self.initial_vertex
        hosts = vertices[ctx.graph.degrees[vertices] >= self.pattern.degree(v0)]
        if not len(hosts):
            return
        self.gpsi_by_vertex[v0] = self.gpsi_by_vertex.get(v0, 0) + len(hosts)
        ctx.send_columns(GpsiColumns.initial(self.pattern, v0, hosts))

    def compute_columns(self, ctx: ComputeContext, columns: GpsiColumns) -> None:
        """The expansion phase, one call per delivered block: consumes
        rows of several destination vertices in delivery order as packed
        :class:`~repro.core.psi.GpsiColumns` (each row names its own
        expanding vertex) and emits children through
        ``ctx.send_columns`` — no per-Gpsi objects anywhere (see
        :mod:`repro.core.batch_expand`).  Routing consumes the owner's
        RNG and load view through ``ctx.worker_state``, in delivery order.
        """
        outcome = expand_columns(
            columns, self.pattern, self.ordered, self.edge_index, self.costs
        )
        if "dist_rng" not in ctx.worker_state:
            ctx.worker_state["dist_rng"] = worker_rng(self.seed, ctx.worker_id)
        ctx.add_cost(outcome.cost)
        for vp, n in outcome.generated_by_vp.items():
            self.gpsi_by_vertex[vp] = self.gpsi_by_vertex.get(vp, 0) + n
        if outcome.n_complete:
            ctx.aggregate("found", outcome.n_complete)
            if self.collect_instances:
                self.instances.extend(map(tuple, outcome.complete.tolist()))
            if self.count_per_vertex:
                self._pvc_chunks.append(outcome.complete)
        pending = outcome.pending
        if pending is None or not len(pending):
            return
        chosen = self.strategy.choose_many(
            pending.mapping,
            pending.group_of,
            pending.groups,
            ctx.graph,
            self.partition,
            ctx.worker_state,
        )
        addressed = GpsiColumns(
            pending.mapping, pending.black, chosen.astype(np.uint8)
        )
        if self.track_message_bytes:
            from .codec import encoded_size_batch

            self.message_bytes += encoded_size_batch(addressed)
        ctx.send_columns(addressed)


def check_num_workers(num_workers: object) -> int:
    """``K`` as a positive int, or :class:`~repro.exceptions.EngineError`
    — shared by :class:`PSgL`, ``psgl count`` (before the graph is read)
    and the query service (at submission)."""
    num_workers = coerce("num_workers", int, num_workers)
    if num_workers < 1:
        raise EngineError(f"num_workers must be >= 1, got {num_workers}")
    return num_workers


class PSgL:
    """Parallel subgraph listing on a simulated BSP cluster.

    Parameters
    ----------
    graph:
        The undirected data graph.
    num_workers:
        Number of logical workers ``K``.
    strategy:
        Distribution strategy: a :class:`DistributionStrategy` or one of
        ``"random"``, ``"roulette"``, ``"workload-aware"``, ``"WA,0"``,
        ``"WA,0.5"``, ``"WA,1"``.
    alpha:
        Penalty exponent when ``strategy="workload-aware"``.
    edge_index:
        ``"bloom"`` (the paper's index), ``"exact"``, or ``"none"``
        (disables pruning rule 2, the Table 2 ablation) — or a prebuilt
        :class:`~repro.core.edge_index.EdgeIndexBase` instance, which
        lets a resident server build the index once and hand each job a
        cheap :meth:`~repro.core.edge_index.EdgeIndexBase.detached_view`.
    edge_index_fp:
        Target false-positive rate of the bloom index.
    partition:
        Optional explicit partition; defaults to the paper's random one.
    seed:
        Master seed for partitioning and the stochastic strategies.
    costs:
        The cost-model constants (:mod:`repro.core.cost`).
    ordered:
        Optional prebuilt :class:`~repro.graph.ordered.OrderedGraph` of
        ``graph``.  The degree order is deterministic, so a long-lived
        server computes it once and shares the (read-only) instance
        across every concurrent job instead of re-deriving it per
        driver.
    config:
        The :class:`~repro.bsp.config.ExecutionConfig`: *how* the job
        runs (backend, lanes, data plane, budgets) —
        result-neutral by the bit-parity contract, declared and validated
        in one place (table in ``docs/api.md``).
    trace:
        Observability: ``None``/``False`` (default, zero overhead), a
        :class:`repro.obs.Tracer` to record per-superstep events into
        (one tracer may observe several runs), or ``True`` for a fresh
        tracer per run, returned on ``ListingResult.trace``.  See
        ``docs/observability.md``.
    abort_event:
        Optional ``threading.Event`` polled at superstep boundaries;
        setting it cancels the run with
        :class:`~repro.exceptions.JobCancelled`.
    **overrides:
        ``ExecutionConfig`` fields by name, applied over ``config`` —
        ``PSgL(g, backend="process", procs=4)``.  An illegal value or
        combination, or a name that is not a field, raises
        :class:`~repro.exceptions.EngineError` here, not inside ``run``.

    A custom strategy must implement ``choose_many`` (the engine routes
    whole blocks of children at once); one that implements only scalar
    ``choose`` raises :class:`~repro.exceptions.DistributionError` here.
    """

    def __init__(
        self,
        graph: Graph,
        num_workers: int = 4,
        strategy: Union[str, DistributionStrategy] = "workload-aware",
        alpha: float = 0.5,
        edge_index: Union[str, EdgeIndexBase] = "bloom",
        edge_index_fp: float = 0.01,
        partition: Optional[Partition] = None,
        seed: int = 0,
        costs: CostParameters = DEFAULT_COSTS,
        ordered: Optional[OrderedGraph] = None,
        config: Optional[ExecutionConfig] = None,
        *,
        trace: object = None,
        abort_event: Optional[threading.Event] = None,
        **overrides: object,
    ):
        self.config = (config or ExecutionConfig()).with_overrides(**overrides)
        if partition is None:
            num_workers = check_num_workers(num_workers)
        self.graph = graph
        if ordered is not None and ordered.graph is not graph:
            raise GraphError(
                "ordered= must be an OrderedGraph over the same graph object"
            )
        self.ordered = ordered if ordered is not None else OrderedGraph(graph)
        if isinstance(strategy, DistributionStrategy):
            self.strategy = strategy
        else:
            self.strategy = make_strategy(strategy, alpha)
        if type(self.strategy).choose_many is DistributionStrategy.choose_many:
            raise DistributionError(
                f"strategy {self.strategy.name!r} implements only scalar "
                "choose; the engine routes through choose_many, which a "
                "custom strategy must override"
            )
        self.partition = partition or random_partition(
            graph.num_vertices, num_workers, seed=seed
        )
        if isinstance(edge_index, EdgeIndexBase):
            self.edge_index_kind = edge_index.__class__.__name__
            self._edge_index: Optional[EdgeIndexBase] = edge_index
        else:
            self.edge_index_kind = edge_index
            self._edge_index = None
        self.edge_index_fp = edge_index_fp
        #: Guards the lazy index build when several threads share one
        #: driver (the index itself is read-only once built).
        self._index_lock = threading.Lock()
        self.seed = seed
        self.costs = costs
        self.trace = trace
        self.abort_event = abort_event

    # ------------------------------------------------------------------
    def prepare(
        self,
        pattern: PatternGraph,
        initial_vertex: Optional[int] = None,
        initial_vertex_method: str = "auto",
        auto_break: bool = True,
    ) -> Tuple[PatternGraph, int, EdgeIndexBase]:
        """Steps 2–4 of the pipeline: the pattern with its automorphisms
        broken, the initial pattern vertex, and this driver's edge index
        with fresh probe statistics.  Shared by :meth:`run` and the
        parity oracle (:func:`repro.core.reference.run_reference`); the
        arguments are :meth:`run`'s."""
        if pattern.num_vertices < 1:
            raise PatternError("cannot list an empty pattern")
        if auto_break and not pattern.partial_order:
            if len(automorphisms(pattern)) > 1:
                pattern = break_automorphisms(pattern)
        if initial_vertex is None:
            initial_vertex = select_initial_vertex(
                pattern, self.graph, method=initial_vertex_method
            )
        elif not 0 <= initial_vertex < pattern.num_vertices:
            raise PatternError(
                f"initial vertex {initial_vertex} out of range for {pattern.name}"
            )

        # The index depends only on the data graph: build once per driver,
        # reset its probe statistics per run.  The lock only serialises
        # the build — concurrent runs sharing a built index are safe
        # (probes are read-only; only the statistics counters race, and
        # servers hand each job a detached_view to keep those clean too).
        if self._edge_index is None:
            with self._index_lock:
                if self._edge_index is None:
                    self._edge_index = build_edge_index(
                        self.graph,
                        kind=self.edge_index_kind,
                        fp_rate=self.edge_index_fp,
                        seed=self.seed,
                    )
        index = self._edge_index
        index.reset_statistics()
        return pattern, initial_vertex, index

    def run(
        self,
        pattern: PatternGraph,
        initial_vertex: Optional[int] = None,
        initial_vertex_method: str = "auto",
        auto_break: bool = True,
        collect_instances: bool = False,
        count_per_vertex: bool = False,
        track_message_bytes: bool = False,
    ) -> ListingResult:
        """List all instances of ``pattern`` in the data graph.

        Parameters
        ----------
        pattern:
            The pattern graph.  If it carries no partial order and
            ``auto_break`` is set, automorphism breaking runs first so
            every instance is reported exactly once.
        initial_vertex:
            Force a specific initial pattern vertex (used by the Figure 6
            ablation); default selects per ``initial_vertex_method``.
        initial_vertex_method:
            ``"auto"``, ``"deterministic"``, ``"cost-model"`` or
            ``"first"`` (see :func:`repro.core.init_vertex.select_initial_vertex`).
        collect_instances:
            Also materialise the instance mappings (memory permitting).
        count_per_vertex:
            Also count, per data vertex, the instances it participates in
            (e.g. per-vertex triangle counts for local clustering
            coefficients).
        track_message_bytes:
            Also account the wire volume of every routed Gpsi using the
            compact codec (slower; for communication studies).
        """
        pattern, initial_vertex, index = self.prepare(
            pattern, initial_vertex, initial_vertex_method, auto_break
        )
        program = PSgLProgram(
            pattern=pattern,
            ordered=self.ordered,
            partition=self.partition,
            strategy=self.strategy,
            edge_index=index,
            initial_vertex=initial_vertex,
            costs=self.costs,
            seed=self.seed,
            collect_instances=collect_instances,
            count_per_vertex=count_per_vertex,
            track_message_bytes=track_message_bytes,
        )
        engine = BSPEngine(
            self.graph,
            self.partition,
            self.config,
            trace=self.trace,
            abort_event=self.abort_event,
        )
        bsp_result: BSPResult = engine.run(program)
        return ListingResult(
            count=int(bsp_result.aggregated["found"]),
            pattern=pattern,
            initial_vertex=initial_vertex,
            strategy=self.strategy.name,
            ledger=bsp_result.ledger,
            wall_seconds=bsp_result.wall_seconds,
            instances=program.instances if collect_instances else None,
            gpsi_by_vertex=dict(program.gpsi_by_vertex),
            index_queries=index.queries,
            index_pruned=index.pruned,
            per_vertex_counts=(
                dict(program.per_vertex_counts) if count_per_vertex else None
            ),
            message_bytes=(
                program.message_bytes if track_message_bytes else None
            ),
            trace=bsp_result.trace,
        )

    def count(self, pattern: PatternGraph, **kwargs) -> int:
        """Convenience wrapper returning only the occurrence count."""
        return self.run(pattern, **kwargs).count
