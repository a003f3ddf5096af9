"""Data-graph substrate: storage, ordering, generation, I/O, partitioning."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".graph": ("Edge", "Graph", "MappedCSR", "normalize_edge"),
    ".ordered": ("OrderedGraph",),
    ".binfmt": (
        "ConvertStats",
        "CSRBinHeader",
        "convert_edge_list",
        "load_mapped",
        "read_header",
        "write_csrbin",
    ),
    ".generators": (
        "barabasi_albert",
        "rmat",
        "chung_lu_power_law",
        "complete_graph",
        "cycle_graph",
        "erdos_renyi",
        "grid_graph",
        "star_graph",
    ),
    ".io": ("graph_from_string", "read_edge_list", "write_edge_list"),
    ".partition": (
        "Partition",
        "hash_partition",
        "random_partition",
        "range_partition",
    ),
    ".stats": (
        "SkewReport",
        "degree_distribution",
        "degree_histogram",
        "expected_nb_ns",
        "fit_power_law_gamma",
        "sampled_degree_distribution",
        "skew_report",
    ),
})
