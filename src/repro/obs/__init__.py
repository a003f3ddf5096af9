"""Observability for the BSP engine: tracing, exporters, reports.

The paper's whole evaluation is built on per-superstep, per-worker
measurements; ``repro.obs`` makes those first-class.  A
:class:`Tracer` threaded through ``BSPEngine(trace=...)`` /
``PSgL(trace=...)`` records structured events for every superstep,
worker and barrier; exporters turn the stream into JSONL archives,
``chrome://tracing`` timelines, or a straggler report.  The default is
the no-op :data:`NULL_TRACER`, so untraced runs pay nothing.  See
``docs/observability.md``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".tracer": (
        "SCHEMA",
        "TraceEvent",
        "Tracer",
        "NullTracer",
        "NULL_TRACER",
        "make_tracer",
    ),
    ".exporters": (
        "write_jsonl",
        "read_jsonl",
        "write_chrome_trace",
        "chrome_trace_events",
        "validate_chrome_trace",
    ),
    ".report": ("straggler_report",),
})
