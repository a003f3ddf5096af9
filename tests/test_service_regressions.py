"""Regression tests for three service-layer bugs.

* Job durations were computed from ``time.time()`` deltas — an NTP step
  (or any wall-clock adjustment) mid-job produced negative
  ``queue_seconds``/``run_seconds``.  Durations now come from
  ``time.monotonic()``; wall-clock timestamps remain for display.
* ``ResultCache.bytes_used`` / ``__len__`` read ``_bytes``/``_entries``
  without the lock, racing ``put``'s insert-then-evict window.
* ``ServiceHTTPHandler._send`` let ``BrokenPipeError`` escape when a
  client disconnected before reading its response, splatting a
  traceback per impatient client; drops are now counted silently in
  ``psgl_http_dropped_responses``.
* ``POST /jobs`` with a malformed ``strategy`` (``"WA,x"``, ``"WA,"``, a
  non-string) was a 500 — ``make_strategy`` raised ``ValueError`` /
  ``AttributeError`` past ``_normalize`` — and ``"WA,nan"`` was accepted
  and failed the job a superstep later; all are 400s now.
"""

import json

import threading
import time
import types

import pytest

from repro.graph import complete_graph
from repro.service import jobs as jobs_mod
from repro.service import running_service
from repro.service.cache import ResultCache
from repro.service.jobs import JobManager, JobState
from repro.service.server import ServiceHTTPHandler


# ----------------------------------------------------------------------
# Monotonic job durations
# ----------------------------------------------------------------------
class SteppingClock:
    """A ``time``-module stand-in whose wall clock steps *backwards* on
    every read — the adversarial NTP case — while ``monotonic`` stays
    the real monotonic clock."""

    def __init__(self):
        self._wall = 1_700_000_000.0
        self._lock = threading.Lock()
        self.monotonic = time.monotonic

    def time(self):
        with self._lock:
            self._wall -= 10.0  # a 10 s backwards step per observation
            return self._wall


class TestMonotonicDurations:
    def test_durations_non_negative_under_wall_clock_steps(self, monkeypatch):
        monkeypatch.setattr(jobs_mod, "time", SteppingClock())
        manager = JobManager(runner=lambda job: {"ok": True}, max_inflight=1)
        try:
            job = manager.submit({"q": 1})
            manager.wait(job.id, timeout=10)
            assert job.state == JobState.COMPLETED
            # The wall clock went backwards at every observation, so the
            # old time.time() deltas would have been negative here.
            assert job.finished_at < job.started_at < job.submitted_at
            assert job.queue_seconds is not None and job.queue_seconds >= 0
            assert job.run_seconds is not None and job.run_seconds >= 0
        finally:
            manager.close()

    def test_cache_hit_records_zero_durations(self, monkeypatch):
        monkeypatch.setattr(jobs_mod, "time", SteppingClock())
        manager = JobManager(runner=lambda job: {})
        try:
            job = manager.record_completed({"q": 1}, {"count": 3})
            assert job.queue_seconds == 0.0
            assert job.run_seconds == 0.0
        finally:
            manager.close()

    def test_unstarted_job_reports_no_durations(self):
        manager = JobManager(runner=lambda job: {})
        try:
            job = jobs_mod.Job(id=99, spec={})
            assert job.queue_seconds is None
            assert job.run_seconds is None
        finally:
            manager.close()

    def test_to_json_keeps_wall_clock_for_display(self):
        job = jobs_mod.Job(id=1, spec={})
        obj = job.to_json()
        assert obj["submitted_at"] == job.submitted_at
        assert "submitted_mono" not in obj  # mono clocks are internal


# ----------------------------------------------------------------------
# Cache read-path locking
# ----------------------------------------------------------------------
class TestCacheConcurrentReads:
    def test_hammer_puts_against_size_reads(self):
        """Concurrent writers churning the LRU against readers polling
        ``bytes_used``/``len`` must never raise and never observe the
        byte budget exceeded (the old unlocked read could see the window
        between an insert and its evictions)."""
        payload = {"count": 1, "pad": "x" * 64}
        probe = ResultCache()
        probe.put(("g", "p", "s", ()), payload)
        entry_size = probe.bytes_used
        cache = ResultCache(max_bytes=8 * entry_size, max_entries=6)
        errors = []
        stop = threading.Event()

        def writer(tag):
            try:
                i = 0
                while not stop.is_set():
                    cache.put(("g", f"{tag}-{i % 24}", "s", ()), payload)
                    i += 1
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def reader():
            try:
                while not stop.is_set():
                    used = cache.bytes_used
                    count = len(cache)
                    assert 0 <= used <= cache.max_bytes
                    assert 0 <= count <= cache.max_entries
                    stats = cache.stats()
                    assert stats["bytes"] <= cache.max_bytes
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(3)]
        threads += [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.4)
        stop.set()
        for thread in threads:
            thread.join(5)
        assert errors == []
        assert cache.bytes_used <= cache.max_bytes
        assert len(cache) <= cache.max_entries

    def test_reads_consistent_after_clear(self):
        cache = ResultCache()
        cache.put(("g", "p", "s", ()), {"count": 1})
        assert len(cache) == 1 and cache.bytes_used > 0
        cache.clear()
        assert len(cache) == 0 and cache.bytes_used == 0


# ----------------------------------------------------------------------
# Dropped-response accounting
# ----------------------------------------------------------------------
class BrokenPipeFile:
    """A write file-object standing in for a socket the client closed."""

    def __init__(self, fail_after=0):
        self.writes = 0
        self.fail_after = fail_after

    def write(self, data):
        if self.writes >= self.fail_after:
            raise BrokenPipeError("client went away")
        self.writes += 1
        return len(data)

    def flush(self):
        pass


class ServiceStub:
    def __init__(self):
        self.http = []
        self.dropped = 0

    def record_http(self, method, code):
        self.http.append((method, code))

    def record_dropped_response(self):
        self.dropped += 1


def make_handler(wfile):
    """A ServiceHTTPHandler wired to a fake socket, no TCP machinery."""
    handler = ServiceHTTPHandler.__new__(ServiceHTTPHandler)
    handler.wfile = wfile
    handler.rfile = None
    handler.command = "GET"
    handler.path = "/healthz"
    handler.request_version = "HTTP/1.1"
    handler.requestline = "GET /healthz HTTP/1.1"
    handler.client_address = ("127.0.0.1", 0)
    handler.close_connection = False
    handler.server = types.SimpleNamespace(service=ServiceStub())
    return handler


class TestDroppedResponses:
    @pytest.mark.parametrize("fail_after", [0, 1])
    def test_broken_pipe_is_counted_not_raised(self, fail_after):
        """Whether the headers or the body hit the dead socket, the
        handler must swallow the error, mark the connection closed, and
        bump the dropped-response counter."""
        handler = make_handler(BrokenPipeFile(fail_after=fail_after))
        handler._send(200, b'{"ok": true}\n', "application/json")
        stub = handler.server.service
        assert stub.dropped == 1
        assert handler.close_connection is True
        # The request itself still counts: it was served, the client
        # just never read the answer.
        assert stub.http == [("GET", 200)]

    def test_connection_reset_also_counted(self):
        class ResetFile(BrokenPipeFile):
            def write(self, data):
                raise ConnectionResetError("reset by peer")

        handler = make_handler(ResetFile())
        handler._send(503, b"busy", "text/plain")
        assert handler.server.service.dropped == 1

    def test_healthy_socket_drops_nothing(self):
        class GoodFile(BrokenPipeFile):
            def write(self, data):
                self.writes += 1
                return len(data)

        wfile = GoodFile()
        handler = make_handler(wfile)
        handler._send(200, b"ok", "text/plain")
        stub = handler.server.service
        assert stub.dropped == 0
        assert stub.http == [("GET", 200)]
        assert wfile.writes > 0


# ----------------------------------------------------------------------
# Malformed strategy names
# ----------------------------------------------------------------------
class TestMalformedStrategy:
    @pytest.mark.parametrize("strategy", ["WA,x", "WA,", "WA,nan", 5])
    def test_is_a_400_at_submission(self, strategy):
        with running_service(complete_graph(6)) as (client, _):
            status, text = client._request(
                "POST", "/jobs", {"pattern": "PG1", "strategy": strategy}
            )
            assert status == 400
            assert json.loads(text)["error"]["type"] == "QuerySpecError"
            assert client.count(pattern="PG1")["state"] == "completed"
