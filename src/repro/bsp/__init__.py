"""Bulk Synchronous Parallel substrate (Pregel/Giraph simulator)."""

from .aggregate import (
    Aggregator,
    AggregatorRegistry,
    max_aggregator,
    min_aggregator,
    sum_aggregator,
)
from .config import (
    DEFAULT_CHUNK_GPSIS,
    KERNEL_CHOICES,
    SHUFFLE_MODES,
    WIRE_PLANES,
    ExecutionConfig,
)
from .engine import BSPEngine, BSPResult
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

__all__ = [
    "Aggregator",
    "AggregatorRegistry",
    "max_aggregator",
    "min_aggregator",
    "sum_aggregator",
    "BSPEngine",
    "BSPResult",
    "ExecutionConfig",
    "DEFAULT_CHUNK_GPSIS",
    "KERNEL_CHOICES",
    "SHUFFLE_MODES",
    "WIRE_PLANES",
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
]
