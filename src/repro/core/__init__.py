"""PSgL core: the paper's primary contribution."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".batch_expand": ("BatchOutcome", "PendingChildren", "expand_columns"),
    ".bloom": ("BloomFilter", "optimal_parameters"),
    ".candidates": ("candidate_set_scalar", "combination_consistent"),
    ".cost": (
        "CostParameters",
        "DEFAULT_COSTS",
        "binomial",
        "estimate_f",
        "estimate_load",
        "expected_f_from_distribution",
    ),
    ".distribution": (
        "DistributionStrategy",
        "RandomStrategy",
        "RouletteStrategy",
        "WorkloadAwareStrategy",
        "make_strategy",
    ),
    ".edge_index": (
        "BloomEdgeIndex",
        "EdgeIndexBase",
        "ExactEdgeIndex",
        "NullEdgeIndex",
        "build_edge_index",
    ),
    ".expansion": ("ExpansionOutcome", "expand_gpsi"),
    ".init_vertex": (
        "DegreeStatistics",
        "deterministic_initial_vertex",
        "estimate_initial_vertex_cost",
        "is_clique",
        "is_cycle",
        "lowest_rank_vertex",
        "select_initial_vertex",
    ),
    ".listing": ("ListingResult", "PSgL", "PSgLProgram"),
    ".reference": ("run_reference",),
    ".psi": ("Gpsi", "GpsiColumns", "UNMAPPED", "pack_gpsis", "unpack_gpsis"),
})
