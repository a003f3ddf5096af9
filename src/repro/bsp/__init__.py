"""Bulk Synchronous Parallel substrate (Pregel/Giraph simulator)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": ("BSPEngine", "BSPResult"),
    ".config": ("ExecutionConfig", "WIRE_PLANES"),
    ".metrics": ("CostLedger", "SuperstepStats"),
    ".vertex_program": ("ComputeContext", "VertexProgram"),
})
