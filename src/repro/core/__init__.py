"""PSgL core: the paper's primary contribution."""

from .batch_expand import (
    BatchOutcome,
    PendingChildren,
    expand_columns,
)
from .bloom import BloomFilter, optimal_parameters
from .candidates import candidate_set_scalar, combination_consistent
from .codec import (
    CodecError,
    decode_batch,
    decode_columns,
    decode_gpsi,
    encode_batch,
    encode_columns,
    encode_gpsi,
    encoded_size,
    encoded_size_batch,
)
from .cost import (
    CostParameters,
    DEFAULT_COSTS,
    binomial,
    estimate_f,
    estimate_load,
    expected_f_from_distribution,
)
from .distribution import (
    DistributionStrategy,
    RandomStrategy,
    RouletteStrategy,
    WorkloadAwareStrategy,
    make_strategy,
)
from .edge_index import (
    BloomEdgeIndex,
    EdgeIndexBase,
    ExactEdgeIndex,
    NullEdgeIndex,
    build_edge_index,
)
from .expansion import ExpansionOutcome, expand_gpsi
from .init_vertex import (
    DegreeStatistics,
    deterministic_initial_vertex,
    estimate_initial_vertex_cost,
    is_clique,
    is_cycle,
    lowest_rank_vertex,
    select_initial_vertex,
)
from .listing import ListingResult, PSgL, PSgLProgram
from .psi import Gpsi, GpsiColumns, UNMAPPED, pack_gpsis, unpack_gpsis

__all__ = [
    "BatchOutcome",
    "PendingChildren",
    "expand_columns",
    "BloomFilter",
    "optimal_parameters",
    "candidate_set_scalar",
    "combination_consistent",
    "CodecError",
    "decode_batch",
    "decode_columns",
    "decode_gpsi",
    "encode_batch",
    "encode_columns",
    "encode_gpsi",
    "encoded_size",
    "encoded_size_batch",
    "CostParameters",
    "DEFAULT_COSTS",
    "binomial",
    "estimate_f",
    "estimate_load",
    "expected_f_from_distribution",
    "DistributionStrategy",
    "RandomStrategy",
    "RouletteStrategy",
    "WorkloadAwareStrategy",
    "make_strategy",
    "BloomEdgeIndex",
    "EdgeIndexBase",
    "ExactEdgeIndex",
    "NullEdgeIndex",
    "build_edge_index",
    "ExpansionOutcome",
    "expand_gpsi",
    "DegreeStatistics",
    "deterministic_initial_vertex",
    "estimate_initial_vertex_cost",
    "is_clique",
    "is_cycle",
    "lowest_rank_vertex",
    "select_initial_vertex",
    "ListingResult",
    "PSgL",
    "PSgLProgram",
    "Gpsi",
    "GpsiColumns",
    "UNMAPPED",
    "pack_gpsis",
    "unpack_gpsis",
]
