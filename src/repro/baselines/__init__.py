"""Comparator systems: the centralized oracle, MapReduce joins
(Afrati, SGIA-MR), and graph-engine baselines (PowerGraph, GraphChi)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".afrati": ("AfratiResult", "afrati_listing"),
    ".centralized": (
        "count_instances",
        "count_triangles",
        "enumerate_instances",
        "list_triangles",
    ),
    ".graphchi": ("GraphChiResult", "graphchi_triangles"),
    ".mapreduce": (
        "MapReduceEngine",
        "MapReduceJobResult",
        "MapReduceRound",
        "RoundStats",
    ),
    ".powergraph": (
        "PowerGraphResult",
        "powergraph_general",
        "powergraph_triangles",
        "validate_traversal_order",
    ),
    ".sgia_mr": ("SgiaMrResult", "default_edge_order", "sgia_mr_listing"),
    ".streaming": (
        "StreamEstimate",
        "doulion_estimate",
        "edge_sampling_triangles",
        "total_wedges",
        "wedge_sampling_error_bound",
        "wedge_sampling_triangles",
    ),
})
