"""Pattern-graph machinery: structure, automorphisms, the PG1-PG5 catalog."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".pattern": ("OrderPair", "PatternGraph"),
    ".automorphism": (
        "automorphisms",
        "break_automorphisms",
        "count_order_preserving_automorphisms",
        "orbits",
        "stabilizer",
    ),
    ".induced": (
        "conversion_matrix",
        "count_monomorphisms",
        "induced_census",
        "induced_from_noninduced",
        "instances_within",
    ),
    ".enumeration": (
        "all_connected_patterns",
        "are_isomorphic",
        "canonical_form",
        "motif_census",
    ),
    ".catalog": (
        "clique",
        "pattern_from_edges",
        "clique4",
        "cycle",
        "describe",
        "diamond",
        "get_pattern",
        "house",
        "paper_patterns",
        "path",
        "square",
        "star",
        "triangle",
    ),
})
