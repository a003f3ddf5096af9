"""Bulk Synchronous Parallel substrate (Pregel/Giraph simulator)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".aggregate": (
        "Aggregator",
        "AggregatorRegistry",
        "max_aggregator",
        "min_aggregator",
        "sum_aggregator",
    ),
    ".engine": ("BSPEngine", "BSPResult"),
    ".config": (
        "ExecutionConfig",
        "DEFAULT_CHUNK_GPSIS",
        "KERNEL_CHOICES",
        "SHUFFLE_MODES",
        "WIRE_PLANES",
    ),
    ".message": (
        "ChunkedColumnarStore",
        "ColumnarOutbox",
        "PackedWorkerBatch",
    ),
    ".metrics": ("CostLedger", "SuperstepStats"),
    ".vertex_program": ("ComputeContext", "VertexProgram"),
})
