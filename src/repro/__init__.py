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
* :mod:`repro.runtime` — the two execution backends (serial, and
  process lanes over one read-only graph) behind ``backend=...``;
* :mod:`repro.obs` — per-superstep tracing and metrics (``trace=...``),
  JSONL/Chrome-trace exporters and the straggler report;
* :mod:`repro.core` — the PSgL framework itself (Gpsi expansion,
  distribution strategies, cost model, edge index, driver);
* :mod:`repro.baselines` — centralized oracle, MapReduce engine plus the
  Afrati and SGIA-MR algorithms, PowerGraph- and GraphChi-style engines;
* :mod:`repro.bench` — datasets, runner and per-figure/table experiments;
* :mod:`repro.service` — the resident query service (``psgl serve``):
  job scheduling, result caching, admission control, per-job budgets.

``import repro`` loads none of them: each public name imports its
submodule on first use (:mod:`repro._lazy`).
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".core": ("PSgL", "ListingResult"),
    ".bsp": ("ExecutionConfig",),
    ".exceptions": (
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
    ),
    ".graph": (
        "Graph",
        "OrderedGraph",
        "chung_lu_power_law",
        "complete_graph",
        "cycle_graph",
        "erdos_renyi",
        "grid_graph",
        "random_partition",
        "star_graph",
    ),
    ".pattern": (
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
    ),
    ".obs": ("Tracer", "straggler_report", "write_chrome_trace", "write_jsonl"),
})
__all__ += ["__version__"]
