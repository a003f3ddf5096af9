"""The resident subgraph-query service: HTTP API over shared graph assets.

The batch CLI re-pays graph load, degree ordering and the bloom edge
index on every invocation — dominating the cost of small queries.  This
module keeps those assets resident: a :class:`GraphContext` is built
once, then a :class:`SubgraphService` answers any number of concurrent
pattern queries against it through a bounded worker pool, with result
caching, per-job budgets and per-job traces.

The HTTP layer is the standard library's ``ThreadingHTTPServer`` — one
thread per connection doing only JSON plumbing; all query work happens
on the :class:`~repro.service.jobs.JobManager` pool, so slow queries
never block status polls or ``/metrics`` scrapes.

API
---
=========  ======================  ==========================================
method     path                    semantics
=========  ======================  ==========================================
GET        ``/healthz``            liveness probe
GET        ``/info``               graph shape, fingerprint, service config
POST       ``/jobs``               submit a query → job (202; cache hits 200)
GET        ``/jobs``               list all jobs
GET        ``/jobs/<id>``          job status (result inline once completed)
GET        ``/jobs/<id>/result``   result only (202 while pending, 410 dead)
POST       ``/jobs/<id>/cancel``   cooperative cancel (also DELETE /jobs/<id>)
GET        ``/jobs/<id>/trace``    per-job JSONL trace; ``?report=1`` = text
GET        ``/stats``              cache / job-state snapshot
GET        ``/metrics``            Prometheus text exposition
=========  ======================  ==========================================

Error mapping: malformed specs (:class:`~repro.exceptions.QuerySpecError`,
:class:`~repro.exceptions.PatternError`, ...) → 400; admission refusals
(:class:`~repro.exceptions.AdmissionError`) → 429; unknown ids → 404.
Budget kills and engine failures are *job* outcomes, not HTTP errors —
the job lands in ``killed``/``failed`` with a structured ``error``.

See ``docs/service.md`` for the full tour.
"""

from __future__ import annotations

import json
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..bsp.config import BACKENDS, RETIRED, ExecutionConfig, coerce
from ..core.distribution import make_strategy
from ..core.edge_index import build_edge_index
from ..core.listing import ListingResult, PSgL, check_num_workers, check_seed
from ..exceptions import (
    AdmissionError,
    DistributionError,
    EngineError,
    JobCancelled,
    PatternError,
    QuerySpecError,
    ReproError,
)
from ..graph.graph import Graph
from ..graph.ordered import OrderedGraph
from ..obs import Tracer, straggler_report
from ..obs.exporters import jsonl_lines
from ..pattern.catalog import get_pattern, pattern_from_edges
from ..pattern.pattern import PatternGraph
from .cache import ResultCache, cache_key
from .jobs import Job, JobManager, JobState, PRIORITIES, TERMINAL_STATES
from .metrics import MetricsRegistry

__all__ = [
    "GraphContext",
    "SubgraphService",
    "ServiceHTTPHandler",
    "make_server",
    "serve",
]


class GraphContext:
    """The expensive, query-independent assets, loaded exactly once.

    Everything here is read-only after construction and shared by every
    concurrent job: the graph, its degree ordering, the built edge index
    (jobs get a :meth:`~repro.core.edge_index.EdgeIndexBase.detached_view`
    so probe statistics stay per-job), and the CSR fingerprint that keys
    the result cache.
    """

    def __init__(
        self,
        graph: Graph,
        name: str = "graph",
        edge_index_kind: str = "exact",
        edge_index_fp: float = 0.01,
        seed: int = 0,
    ):
        self.graph = graph
        self.name = name
        self.ordered = OrderedGraph(graph)
        self.edge_index = build_edge_index(
            graph, kind=edge_index_kind, fp_rate=edge_index_fp, seed=seed
        )
        self.edge_index_kind = edge_index_kind
        self.fingerprint = graph.fingerprint()

    def info(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "vertices": self.graph.num_vertices,
            "edges": self.graph.num_edges,
            "max_degree": int(self.graph.max_degree()),
            "fingerprint": self.fingerprint,
            "edge_index": self.edge_index_kind,
        }


#: The ``ExecutionConfig`` fields an HTTP client may set.  This is input
#: policy, not a copy of the knobs: every other field — how many
#: processes run, the budgets — is owned by the server (its defaults
#: and the ``budget`` merge).
CLIENT_EXECUTION_FIELDS = ("backend", "wire")

#: The client's names for the four budget fields: the keys of a spec's
#: ``budget`` object, of the server default and of ``psgl serve``'s
#: ``--max-*`` flags.  The only place these names are spelt; the values
#: are ``ExecutionConfig`` fields, which declare and check every budget.
BUDGET_FIELDS = {
    "max_live_gpsis": "memory_budget",
    "max_worker_live_gpsis": "worker_memory_budget",
    "max_supersteps": "superstep_budget",
    "max_wall_seconds": "wall_budget_seconds",
}

#: Query-spec fields accepted by ``POST /jobs``, with their defaults: the
#: query's own, then the client-settable execution fields with the
#: defaults ``ExecutionConfig`` declares.
SPEC_DEFAULTS: Dict[str, Any] = {
    "strategy": "WA,0.5",
    "workers": 4,
    "seed": 0,
    "collect_instances": False,
    **{name: getattr(ExecutionConfig(), name) for name in CLIENT_EXECUTION_FIELDS},
}

#: Spec fields that shape the result payload — the cache-key params.
#: All are *query* fields: an ``ExecutionConfig`` field is result-neutral
#: by contract and never part of a cache key, so a cached result answers
#: any backend/wire combination.
CACHE_PARAM_FIELDS = ("workers", "seed", "collect_instances")


def apply_budget(
    config: ExecutionConfig, budget: Mapping[str, Any]
) -> ExecutionConfig:
    """``config`` with each set axis of ``budget`` (client names) applied
    to its field, one by one: the config's own coercion and rules, its
    :class:`~repro.exceptions.EngineError` prefixed with the axis's
    client name."""
    unknown = sorted(set(budget) - set(BUDGET_FIELDS))
    if unknown:
        raise EngineError(
            f"unknown budget fields {unknown}; allowed: {list(BUDGET_FIELDS)}"
        )
    for name, value in budget.items():
        try:
            if value is not None:  # JSON null: unset, the default applies
                config = config.with_overrides(**{BUDGET_FIELDS[name]: value})
        except EngineError as exc:
            raise EngineError(f"budget field {name}: {exc}") from None
    return config


class SubgraphService:
    """Query execution, caching, admission and metrics over one graph.

    Parameters
    ----------
    context:
        The resident :class:`GraphContext`.
    max_inflight / max_queue_depth:
        Worker-pool width and admission-control queue bound (429 past it).
    default_budget:
        Budget axes by client name (:data:`BUDGET_FIELDS`; ``None`` is
        unset), applied underneath every request's own ``budget``: an
        axis the request sets replaces the default's.  Checked here, so
        an illegal default is an ``EngineError`` at construction, not a
        failure of every job.
    cache:
        The :class:`~repro.service.cache.ResultCache`; pass
        ``ResultCache(max_bytes=0)`` to disable caching.
    trace_jobs:
        Whether each executed job records a per-job
        :class:`~repro.obs.Tracer` (served on ``/jobs/<id>/trace``).
    allow_test_hooks:
        Honour the ``_hold_seconds`` spec field (a cancellable sleep
        before the query runs).  Only the test suite sets this — it makes
        "job is observably RUNNING" deterministic.
    """

    def __init__(
        self,
        context: GraphContext,
        max_inflight: int = 2,
        max_queue_depth: int = 32,
        default_budget: Optional[Mapping[str, Any]] = None,
        cache: Optional[ResultCache] = None,
        trace_jobs: bool = True,
        allow_test_hooks: bool = False,
    ):
        self.context = context
        self.default_budget = {
            name: value for name, value in (default_budget or {}).items()
            if value is not None
        }
        apply_budget(ExecutionConfig(), self.default_budget)
        self.cache = cache if cache is not None else ResultCache()
        self.trace_jobs = trace_jobs
        self._allow_test_hooks = allow_test_hooks

        self.registry = MetricsRegistry()
        self._m_jobs = self.registry.counter(
            "psgl_service_jobs_total",
            "Jobs by terminal state (cache hits count as completed).",
            labelnames=("state",),
        )
        self._m_admission = self.registry.counter(
            "psgl_service_admission_rejected_total",
            "Submissions refused by admission control (HTTP 429).",
        )
        self._m_cache_hits = self.registry.counter(
            "psgl_service_cache_hits_total", "Submissions served from cache."
        )
        self._m_cache_misses = self.registry.counter(
            "psgl_service_cache_misses_total",
            "Submissions that had to execute.",
        )
        self._m_http = self.registry.counter(
            "psgl_service_http_requests_total",
            "HTTP requests by method and status code.",
            labelnames=("method", "code"),
        )
        self._m_inflight = self.registry.gauge(
            "psgl_service_jobs_inflight", "Jobs currently executing."
        )
        self._m_queue = self.registry.gauge(
            "psgl_service_queue_depth", "Jobs queued behind the pool."
        )
        self._m_cache_bytes = self.registry.gauge(
            "psgl_service_cache_bytes", "Bytes held by the result cache."
        )
        self._m_cache_entries = self.registry.gauge(
            "psgl_service_cache_entries", "Entries in the result cache."
        )
        self._m_cache_evictions = self.registry.gauge(
            "psgl_service_cache_evictions", "Cache entries evicted so far."
        )
        self._m_wall = self.registry.histogram(
            "psgl_service_job_wall_seconds",
            "Executed-job wall time (queue time excluded).",
        )
        self._m_dropped = self.registry.counter(
            "psgl_http_dropped_responses",
            "Responses the client disconnected before receiving.",
        )
        self.manager = JobManager(
            runner=self._run_job,
            max_inflight=max_inflight,
            max_queue_depth=max_queue_depth,
            on_transition=self._on_transition,
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, raw_spec: Dict[str, Any]) -> Tuple[Job, bool]:
        """Validate, consult the cache, and enqueue if needed.

        Returns ``(job, cached)``; cache hits come back as an already
        ``completed`` job and never consume a queue slot.  Raises
        :class:`~repro.exceptions.QuerySpecError` (and friends) on bad
        input, :class:`~repro.exceptions.AdmissionError` when full.
        """
        spec, priority, pattern, strategy_name = self._normalize(raw_spec)
        key = cache_key(
            self.context.fingerprint,
            pattern.canonical_key(),
            strategy_name,
            {name: spec[name] for name in CACHE_PARAM_FIELDS},
        )
        payload = self.cache.get(key)
        if payload is not None:
            self._m_cache_hits.inc()
            job = self.manager.record_completed(spec, payload, priority=priority)
            return job, True
        self._m_cache_misses.inc()
        tracer = (
            Tracer(meta={"service": self.context.name, "spec": spec})
            if self.trace_jobs
            else None
        )
        try:
            job = self.manager.submit(spec, priority=priority, tracer=tracer)
        except AdmissionError:
            self._m_admission.inc()
            raise
        return job, False

    def _normalize(
        self, raw: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], str, PatternGraph, str]:
        if not isinstance(raw, dict):
            raise QuerySpecError("query spec must be a JSON object")
        spec = dict(raw)
        priority = spec.pop("priority", "interactive")
        if priority not in PRIORITIES:
            raise QuerySpecError(
                f"unknown priority {priority!r}; lanes: {list(PRIORITIES)}"
            )
        allowed = (
            {"pattern", "pattern_edges", "budget", "_hold_seconds"}
            | set(SPEC_DEFAULTS)
        )
        unknown = sorted(set(spec) - allowed)
        if unknown:
            raise QuerySpecError(
                f"unknown spec fields {unknown}; "
                f"allowed: {sorted(allowed | {'priority'})}"
                + "".join(RETIRED.get(name, "") for name in unknown)
            )
        if ("pattern" in spec) == ("pattern_edges" in spec):
            raise QuerySpecError(
                "spec needs exactly one of 'pattern' or 'pattern_edges'"
            )
        pattern = self._pattern_for(spec)
        for name, default in SPEC_DEFAULTS.items():
            spec.setdefault(name, default)
        if spec.get("_hold_seconds") and not self._allow_test_hooks:
            raise QuerySpecError("_hold_seconds requires allow_test_hooks")
        try:
            # Strict coercion and every legality rule are the library's
            # own, checked at submission so a bad value or combination is
            # a 400, not a failed job — and never a guess ("false" is not
            # False, 2.7 workers is not 2).
            spec["workers"] = check_num_workers(spec["workers"])
            spec["seed"] = check_seed(spec["seed"])
            spec["collect_instances"] = coerce(
                "collect_instances", bool, spec["collect_instances"]
            )
            self._config_for(spec)
            strategy_name = make_strategy(spec["strategy"]).name
        except (EngineError, DistributionError) as exc:
            raise QuerySpecError(str(exc)) from exc
        return spec, priority, pattern, strategy_name

    def _config_for(self, spec: Dict[str, Any]) -> ExecutionConfig:
        """The job's execution config: the client's allow-listed fields
        over the defaults, then the server's default budget, then the
        axes the request's ``budget`` sets."""
        budget = spec.get("budget")
        if budget is not None and not isinstance(budget, dict):
            raise QuerySpecError("budget must be a JSON object")
        config = ExecutionConfig(
            **{name: spec[name] for name in CLIENT_EXECUTION_FIELDS}
        )
        return apply_budget(apply_budget(config, self.default_budget), budget or {})

    def _pattern_for(self, spec: Dict[str, Any]) -> PatternGraph:
        try:
            if "pattern" in spec:
                return get_pattern(spec["pattern"])
            return pattern_from_edges(spec["pattern_edges"])
        except PatternError as exc:
            raise QuerySpecError(str(exc)) from exc

    # ------------------------------------------------------------------
    # Execution (runs on JobManager worker threads)
    # ------------------------------------------------------------------
    def _run_job(self, job: Job) -> Dict[str, Any]:
        spec = job.spec
        if self._allow_test_hooks and spec.get("_hold_seconds"):
            self._test_hold(job, float(spec["_hold_seconds"]))
        pattern = self._pattern_for(spec)
        driver = PSgL(
            self.context.graph,
            num_workers=spec["workers"],
            strategy=spec["strategy"],
            edge_index=self.context.edge_index.detached_view(),
            seed=spec["seed"],
            ordered=self.context.ordered,
            config=self._config_for(spec),
            trace=job.tracer,
            abort_event=job.abort_event,
        )
        result = driver.run(
            pattern, collect_instances=spec["collect_instances"]
        )
        payload = self._payload(result, spec)
        key = cache_key(
            self.context.fingerprint,
            pattern.canonical_key(),
            result.strategy,
            {name: spec[name] for name in CACHE_PARAM_FIELDS},
        )
        self.cache.put(key, payload)
        return payload

    @staticmethod
    def _test_hold(job: Job, seconds: float) -> None:
        # Deterministic "observably running" window for the test suite:
        # a cancellable sleep taken before the query proper.
        if job.abort_event.wait(seconds):
            raise JobCancelled("job aborted during test hold")

    @staticmethod
    def _payload(result: ListingResult, spec: Dict[str, Any]) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "count": int(result.count),
            "pattern": result.pattern.name,
            "initial_vertex": int(result.initial_vertex),
            "strategy": result.strategy,
            "supersteps": int(result.supersteps),
            "makespan": float(result.makespan),
            "total_gpsis": int(result.total_gpsis),
            "index_queries": int(result.index_queries),
            "index_pruned": int(result.index_pruned),
            "wall_seconds": float(result.wall_seconds),
        }
        if spec["collect_instances"] and result.instances is not None:
            payload["instances"] = [list(m) for m in result.instances]
        return payload

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def info(self) -> Dict[str, Any]:
        return {
            "service": "psgl",
            "graph": self.context.info(),
            "backends": list(BACKENDS),
            "max_inflight": self.manager.max_inflight,
            "max_queue_depth": self.manager.max_queue_depth,
            "default_budget": self.default_budget,
            "cache": self.cache.stats(),
        }

    def stats(self) -> Dict[str, Any]:
        return {
            "jobs": self.manager.counts_by_state(),
            "queue_depth": self.manager.queue_depth(),
            "inflight": self.manager.inflight(),
            "cache": self.cache.stats(),
        }

    def trace_jsonl(self, job: Job) -> Optional[str]:
        """The job's trace as schema-tagged JSON lines (None if untraced)."""
        if job.tracer is None:
            return None
        return "".join(jsonl_lines(job.tracer))

    def trace_report(self, job: Job) -> Optional[str]:
        if job.tracer is None:
            return None
        return straggler_report(job.tracer)

    def render_metrics(self) -> str:
        self._refresh_gauges()
        return self.registry.render()

    def close(self) -> None:
        self.manager.close()

    # ------------------------------------------------------------------
    def _on_transition(self, job: Job, old_state: Optional[str]) -> None:
        if job.state in TERMINAL_STATES and old_state != job.state:
            self._m_jobs.labels(state=job.state).inc()
            if not job.cached and job.run_seconds is not None:
                self._m_wall.observe(job.run_seconds)
        self._refresh_gauges()

    def _refresh_gauges(self) -> None:
        self._m_inflight.set(self.manager.inflight())
        self._m_queue.set(self.manager.queue_depth())
        stats = self.cache.stats()
        self._m_cache_bytes.set(stats["bytes"])
        self._m_cache_entries.set(stats["entries"])
        self._m_cache_evictions.set(stats["evictions"])

    def record_http(self, method: str, code: int) -> None:
        self._m_http.labels(method=method, code=str(code)).inc()

    def record_dropped_response(self) -> None:
        self._m_dropped.inc()


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
_JOB_PATH = re.compile(r"^/jobs/(\d+)(/(result|cancel|trace))?$")


class ServiceHTTPHandler(BaseHTTPRequestHandler):
    """JSON plumbing between the socket and :class:`SubgraphService`."""

    server_version = "psgl-service/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> SubgraphService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is /metrics' job; keep stderr clean

    # -- response helpers ------------------------------------------------
    def _send(self, code: int, body: bytes, content_type: str) -> None:
        # Record before writing: once the client has read this response
        # it may immediately scrape /metrics on another connection, and
        # that scrape must already see this request counted.
        self.service.record_http(self.command, code)
        try:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-response.  Its problem, not ours:
            # count it and stay silent — letting the exception escape
            # would splat a traceback onto stderr per impatient client.
            self.close_connection = True
            self.service.record_dropped_response()

    def _send_json(self, code: int, obj: Any) -> None:
        self._send(
            code,
            (json.dumps(obj, indent=1) + "\n").encode(),
            "application/json",
        )

    def _send_text(self, code: int, text: str, content_type: str) -> None:
        self._send(code, text.encode(), content_type)

    def _error(self, code: int, exc_or_message) -> None:
        if isinstance(exc_or_message, ReproError):
            obj = {
                "type": type(exc_or_message).__name__,
                "message": str(exc_or_message),
            }
        else:
            obj = {"type": "Error", "message": str(exc_or_message)}
        self._send_json(code, {"error": obj})

    def _read_json(self) -> Any:
        declared = self.headers.get("Content-Length", "0")
        length = int(declared) if declared.strip().isdecimal() else -1
        if length < 0:
            # Where the body ends is unknown, so no later request on this
            # connection could be framed: answer, then hang up.
            self.close_connection = True
            raise QuerySpecError(
                f"Content-Length must be a byte count, got {declared!r}"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise QuerySpecError(f"request body is not valid JSON: {exc}")

    def _job_or_404(self, job_id: str) -> Optional[Job]:
        job = self.service.manager.get(int(job_id))
        if job is None:
            self._error(404, f"no job {job_id}")
        return job

    # -- routes ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            parsed = urlparse(self.path)
            path = parsed.path.rstrip("/") or "/"
            if path in ("/", "/healthz"):
                self._send_json(200, {"status": "ok"})
            elif path == "/info":
                self._send_json(200, self.service.info())
            elif path == "/stats":
                self._send_json(200, self.service.stats())
            elif path == "/metrics":
                self._send_text(
                    200,
                    self.service.render_metrics(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/jobs":
                jobs = self.service.manager.list_jobs()
                self._send_json(200, {"jobs": [j.to_json() for j in jobs]})
            else:
                self._get_job_route(path, parsed.query)
        except ReproError as exc:
            self._error(400, exc)
        except Exception as exc:  # noqa: BLE001 - handler must answer
            self._error(500, str(exc))

    def _get_job_route(self, path: str, query: str) -> None:
        match = _JOB_PATH.match(path)
        if not match:
            self._error(404, f"no route {path}")
            return
        job = self._job_or_404(match.group(1))
        if job is None:
            return
        sub = match.group(3)
        if sub is None:
            self._send_json(200, job.to_json())
        elif sub == "result":
            if job.state == JobState.COMPLETED:
                self._send_json(200, {"id": job.id, "result": job.result})
            elif job.state in TERMINAL_STATES:
                self._send_json(
                    410, {"id": job.id, "state": job.state, "error": job.error}
                )
            else:
                self._send_json(202, {"id": job.id, "state": job.state})
        elif sub == "trace":
            if parse_qs(query).get("report", ["0"])[0] in ("1", "true"):
                report = self.service.trace_report(job)
                if report is None:
                    self._error(404, f"job {job.id} was not traced")
                else:
                    self._send_text(200, report, "text/plain; charset=utf-8")
                return
            stream = self.service.trace_jsonl(job)
            if stream is None:
                self._error(404, f"job {job.id} was not traced")
            else:
                self._send_text(200, stream, "application/x-ndjson")
        else:  # "cancel" via GET
            self._error(404, f"no route {path}")

    def do_POST(self) -> None:  # noqa: N802
        try:
            path = urlparse(self.path).path.rstrip("/")
            if path == "/jobs":
                spec = self._read_json()
                try:
                    job, cached = self.service.submit(spec)
                except AdmissionError as exc:
                    self._error(429, exc)
                    return
                self._send_json(200 if cached else 202, job.to_json())
                return
            match = _JOB_PATH.match(path)
            if match and match.group(3) == "cancel":
                job = self._job_or_404(match.group(1))
                if job is not None:
                    changed = self.service.manager.cancel(job.id)
                    self._send_json(
                        200, {"id": job.id, "cancelled": changed, "state": job.state}
                    )
                return
            self._error(404, f"no route {path}")
        except ReproError as exc:
            self._error(400, exc)
        except Exception as exc:  # noqa: BLE001
            self._error(500, str(exc))

    def do_DELETE(self) -> None:  # noqa: N802
        try:
            match = _JOB_PATH.match(urlparse(self.path).path.rstrip("/"))
            if match and match.group(3) is None:
                job = self._job_or_404(match.group(1))
                if job is not None:
                    changed = self.service.manager.cancel(job.id)
                    self._send_json(
                        200, {"id": job.id, "cancelled": changed, "state": job.state}
                    )
                return
            self._error(404, f"no route {self.path}")
        except Exception as exc:  # noqa: BLE001
            self._error(500, str(exc))


class _ServiceServer(ThreadingHTTPServer):
    daemon_threads = True
    # The stdlib default listen backlog (5) drops connections under a
    # burst of closed-loop clients; raise it well past any sane fan-in.
    request_queue_size = 128


def make_server(
    service: SubgraphService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind a :class:`ThreadingHTTPServer` serving ``service``.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address[1]`` (the CLI's ``--port-file`` does).
    """
    server = _ServiceServer((host, port), ServiceHTTPHandler)
    server.service = service  # type: ignore[attr-defined]
    return server


def serve(
    service: SubgraphService,
    host: str = "127.0.0.1",
    port: int = 0,
    ready_callback=None,
) -> None:
    """Run the service until interrupted (the ``psgl serve`` body)."""
    server = make_server(service, host, port)
    if ready_callback is not None:
        ready_callback(server)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
