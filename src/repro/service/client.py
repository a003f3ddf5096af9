"""Client for the query service: thin HTTP wrapper plus a test harness.

:class:`ServiceClient` speaks the JSON API from ``docs/service.md`` with
nothing beyond ``urllib`` — the same dependency budget as the server.
HTTP error payloads are mapped back onto the library's exception
hierarchy (400 → :class:`~repro.exceptions.QuerySpecError`, 429 →
:class:`~repro.exceptions.AdmissionError`, ...), so callers handle a
remote refusal exactly like a local one.

:func:`running_service` is the canonical way tests and benchmarks stand
up a real server: an in-process :class:`~repro.service.server.SubgraphService`
behind a real socket on an ephemeral port, torn down on exit.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from ..exceptions import AdmissionError, QuerySpecError, ReproError
from ..graph.graph import Graph
from .cache import ResultCache
from .metrics import parse_metrics
from .server import GraphContext, SubgraphService, make_server

__all__ = ["ServiceClient", "running_service"]


class ServiceClient:
    """Synchronous client for one service endpoint.

    >>> client = ServiceClient("http://127.0.0.1:8707")
    >>> job = client.count(pattern="PG1")          # submit + wait
    >>> job["result"]["count"]
    1612010
    """

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, str]:
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return resp.status, resp.read().decode()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode()

    def _json(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        status, text = self._request(method, path, body)
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            obj = {"error": {"type": "Error", "message": text.strip()}}
        if status >= 400:
            raise _exception_for(status, obj)
        return obj

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def info(self) -> Dict[str, Any]:
        return self._json("GET", "/info")

    def stats(self) -> Dict[str, Any]:
        return self._json("GET", "/stats")

    def submit(self, **spec: Any) -> Dict[str, Any]:
        """``POST /jobs``; returns the job JSON (completed on cache hit)."""
        return self._json("POST", "/jobs", spec)

    def job(self, job_id: int) -> Dict[str, Any]:
        return self._json("GET", f"/jobs/{job_id}")

    def jobs(self) -> Dict[str, Any]:
        return self._json("GET", "/jobs")

    def wait(
        self, job_id: int, timeout: float = 60.0, poll: float = 0.02
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its final JSON."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] not in ("queued", "running"):
                return job
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after {timeout}s"
                )
            time.sleep(poll)

    def result(self, job_id: int) -> Dict[str, Any]:
        return self._json("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: int) -> Dict[str, Any]:
        return self._json("POST", f"/jobs/{job_id}/cancel")

    def count(self, timeout: float = 60.0, **spec: Any) -> Dict[str, Any]:
        """Submit and wait; the blocking convenience the bench uses."""
        job = self.submit(**spec)
        if job["state"] == "completed":
            return job
        return self.wait(job["id"], timeout=timeout)

    def metrics_text(self) -> str:
        status, text = self._request("GET", "/metrics")
        if status != 200:
            raise ReproError(f"/metrics returned {status}")
        return text

    def metrics(self) -> Dict[str, float]:
        """Scrape ``/metrics`` into ``{sample_name: value}``."""
        return parse_metrics(self.metrics_text())

    def trace_text(self, job_id: int) -> str:
        status, text = self._request("GET", f"/jobs/{job_id}/trace")
        if status != 200:
            raise ReproError(f"trace for job {job_id} returned {status}")
        return text

    def trace_report(self, job_id: int) -> str:
        status, text = self._request(
            "GET", f"/jobs/{job_id}/trace?report=1"
        )
        if status != 200:
            raise ReproError(f"trace report for job {job_id} returned {status}")
        return text


def _exception_for(status: int, obj: Dict[str, Any]) -> Exception:
    error = obj.get("error", {})
    message = error.get("message", f"HTTP {status}")
    if status == 429:
        return AdmissionError(message)
    if status == 400:
        return QuerySpecError(message)
    return ReproError(f"HTTP {status}: {message}")


@contextmanager
def running_service(
    graph: Graph,
    name: str = "test-graph",
    max_inflight: int = 2,
    max_queue_depth: int = 32,
    default_budget: Optional[Mapping[str, Any]] = None,
    cache: Optional[ResultCache] = None,
    allow_test_hooks: bool = False,
    trace_jobs: bool = True,
) -> Iterator[Tuple[ServiceClient, SubgraphService]]:
    """A live service on an ephemeral port, for tests and benchmarks.

    Yields ``(client, service)`` — the service handle lets tests reach
    past HTTP (e.g. at ``service.cache`` or ``service.manager``) while
    the client exercises the real wire path.
    """
    context = GraphContext(graph, name=name)
    service = SubgraphService(
        context,
        max_inflight=max_inflight,
        max_queue_depth=max_queue_depth,
        default_budget=default_budget,
        cache=cache,
        allow_test_hooks=allow_test_hooks,
        trace_jobs=trace_jobs,
    )
    server = make_server(service, port=0)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield client, service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(2.0)
