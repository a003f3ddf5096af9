"""PSgL — a reproduction of *Parallel Subgraph Listing in a Large-Scale
Graph* (Shao, Cui, Chen, Ma, Yao, Xu; SIGMOD 2014).

Quickstart
----------
>>> from repro import PSgL, triangle, complete_graph
>>> PSgL(complete_graph(6), num_workers=2).count(triangle())
20

Package layout
--------------
* :mod:`repro.graph` — data-graph substrate (storage, ordering,
  generators, I/O, partitioning, degree statistics);
* :mod:`repro.pattern` — pattern graphs, automorphism breaking, the
  PG1-PG5 catalog;
* :mod:`repro.bsp` — the Pregel/Giraph-style BSP engine;
* :mod:`repro.runtime` — pluggable execution backends (serial, thread,
  process with a shared-memory graph) behind ``backend=...``;
* :mod:`repro.obs` — per-superstep tracing and metrics (``trace=...``),
  JSONL/Chrome-trace exporters and the straggler report;
* :mod:`repro.core` — the PSgL framework itself (Gpsi expansion,
  distribution strategies, cost model, edge index, driver);
* :mod:`repro.baselines` — centralized oracle, MapReduce engine plus the
  Afrati and SGIA-MR algorithms, PowerGraph- and GraphChi-style engines;
* :mod:`repro.bench` — datasets, runner and per-figure/table experiments;
* :mod:`repro.service` — the resident query service (``psgl serve``):
  job scheduling, result caching, admission control, per-job budgets.
"""

from .core import PSgL, ListingResult

# After .core on purpose: entering the package through repro.bsp first
# loads the same modules in an order that measured ~40 ms slower cold.
from .bsp.config import ExecutionConfig
from .exceptions import (
    AdmissionError,
    BudgetExceededError,
    DistributionError,
    EngineError,
    GraphError,
    GraphFormatError,
    JobCancelled,
    PartialOrderError,
    PatternError,
    QuerySpecError,
    ReproError,
    SimulatedOOMError,
)
from .graph import (
    Graph,
    OrderedGraph,
    chung_lu_power_law,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    random_partition,
    star_graph,
)
from .pattern import (
    PatternGraph,
    all_connected_patterns,
    break_automorphisms,
    clique,
    clique4,
    cycle,
    diamond,
    get_pattern,
    house,
    motif_census,
    paper_patterns,
    pattern_from_edges,
    square,
    triangle,
)
from .obs import (
    Tracer,
    straggler_report,
    write_chrome_trace,
    write_jsonl,
)
from .runtime import (
    available_backends,
    make_executor,
    register_backend,
)

__version__ = "1.0.0"

__all__ = [
    "PSgL",
    "ListingResult",
    "ExecutionConfig",
    "ReproError",
    "GraphError",
    "GraphFormatError",
    "PatternError",
    "PartialOrderError",
    "EngineError",
    "DistributionError",
    "SimulatedOOMError",
    "BudgetExceededError",
    "JobCancelled",
    "QuerySpecError",
    "AdmissionError",
    "Graph",
    "OrderedGraph",
    "chung_lu_power_law",
    "complete_graph",
    "cycle_graph",
    "erdos_renyi",
    "grid_graph",
    "random_partition",
    "star_graph",
    "PatternGraph",
    "all_connected_patterns",
    "break_automorphisms",
    "motif_census",
    "pattern_from_edges",
    "clique",
    "clique4",
    "cycle",
    "diamond",
    "get_pattern",
    "house",
    "paper_patterns",
    "square",
    "triangle",
    "available_backends",
    "make_executor",
    "register_backend",
    "Tracer",
    "straggler_report",
    "write_chrome_trace",
    "write_jsonl",
    "__version__",
]
