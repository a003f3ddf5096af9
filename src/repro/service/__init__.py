"""Long-lived subgraph-query service over the PSgL runtime.

The batch entry points (:class:`repro.core.PSgL`, the ``psgl count``
CLI) pay for graph load, degree ordering and index construction on
every query.  This package amortises those costs across a server
lifetime: load once, answer many concurrent queries over HTTP/JSON with
job scheduling, result caching, per-job budgets/cancellation and
Prometheus-style metrics — all on the standard library.

Start one with ``psgl serve --dataset wikitalk`` or, in-process::

    from repro.graph import complete_graph
    from repro.service import running_service

    with running_service(complete_graph(30)) as (client, service):
        job = client.count(pattern="PG1")
        print(job["result"]["count"])

See ``docs/service.md``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".cache": ("ResultCache", "cache_key"),
    ".client": ("ServiceClient", "running_service"),
    ".jobs": (
        "Job",
        "JobManager",
        "JobState",
        "PRIORITIES",
        "TERMINAL_STATES",
    ),
    ".metrics": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "parse_metrics",
    ),
    ".server": (
        "GraphContext",
        "ServiceHTTPHandler",
        "SubgraphService",
        "make_server",
        "serve",
    ),
})
