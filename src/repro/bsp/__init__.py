"""Bulk Synchronous Parallel substrate (Pregel/Giraph simulator)."""

from .aggregate import (
    Aggregator,
    AggregatorRegistry,
    max_aggregator,
    min_aggregator,
    sum_aggregator,
)
from .engine import (
    BSPEngine,
    BSPResult,
    DEFAULT_CHUNK_GPSIS,
    SHUFFLE_MODES,
    WIRE_PLANES,
    require_columnar_plane,
)
from .message import (
    ChunkedColumnarStore,
    ColumnarOutbox,
    GpsiBatch,
    Message,
    MessageStore,
    PackedWorkerBatch,
)
from .metrics import CostLedger, SuperstepStats
from .vertex_program import ComputeContext, VertexProgram
from .worker import Worker

__all__ = [
    "Aggregator",
    "AggregatorRegistry",
    "max_aggregator",
    "min_aggregator",
    "sum_aggregator",
    "BSPEngine",
    "BSPResult",
    "DEFAULT_CHUNK_GPSIS",
    "SHUFFLE_MODES",
    "WIRE_PLANES",
    "require_columnar_plane",
    "ChunkedColumnarStore",
    "ColumnarOutbox",
    "GpsiBatch",
    "Message",
    "MessageStore",
    "PackedWorkerBatch",
    "CostLedger",
    "SuperstepStats",
    "ComputeContext",
    "VertexProgram",
    "Worker",
]
