"""Regression tests for service-layer bugs.

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
* A ``NaN`` budget axis (``{"max_wall_seconds": NaN}``, which Python's
  JSON parser accepts) passed the ``<= 0`` check, replaced the server's
  default axis, and disabled the wall-clock kill — ``elapsed > nan`` is
  never true.  Non-finite budgets are 400s now.
* A ``budget`` that was not a JSON object was a 500 (``5``: "'int'
  object is not iterable"; a list: ``AttributeError``), a guess
  (``"xy"``: "unknown budget fields ['x', 'y']") or a silent "no budget"
  (``0``, ``[]``).  Anything but ``null`` or an object is a 400 now.
* An illegal server default budget (``max_supersteps`` 0, a NaN wall
  clock) was accepted, and then every job failed with the config's
  ``EngineError``.  The service refuses it at construction, and ``psgl
  serve`` exits 5 before the graph is loaded.
* A negative ``seed`` was accepted, and the job then failed with numpy's
  ``ValueError: expected non-negative integer``.  It is a 400 now.
* ``POST /jobs`` with ``Content-Length: -1`` blocked its handler thread
  until the client hung up (``rfile.read(-1)``), and ``Content-Length:
  abc`` was a 500.  A length that is not a byte count is a 400 now, and
  the connection closes after the answer.
"""

import json
import socket
import threading
import time
import types
from urllib.parse import urlparse

import pytest

from repro.cli import main
from repro.core import PSgL
from repro.exceptions import EngineError
from repro.graph import complete_graph
from repro.service import jobs as jobs_mod
from repro.service import running_service
from repro.service.cache import ResultCache
from repro.service.jobs import JobManager, JobState
from repro.service.server import GraphContext, ServiceHTTPHandler, SubgraphService


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


# ----------------------------------------------------------------------
# A malformed Content-Length
# ----------------------------------------------------------------------
def raw_post(base_url, content_length):
    """POST /jobs with no body over a bare socket; the whole reply up to
    the server's hang-up.  A server still waiting on a body trips the
    timeout."""
    url = urlparse(base_url)
    with socket.create_connection((url.hostname, url.port), timeout=10) as sock:
        sock.sendall(
            b"POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Type: "
            b"application/json\r\nContent-Length: "
            + content_length + b"\r\n\r\n"
        )
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


class TestMalformedContentLength:
    @pytest.mark.parametrize("content_length", [b"-1", b"abc", b"1.5", b""])
    def test_is_a_400_and_the_connection_closes(self, content_length):
        with running_service(complete_graph(6)) as (client, _):
            reply = raw_post(client.base_url, content_length)
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 "), head
            assert b"\r\nConnection: close" in head
            error = json.loads(body)["error"]
            assert error["type"] == "QuerySpecError"
            assert "Content-Length must be a byte count" in error["message"]
            assert client.count(pattern="PG1")["state"] == "completed"


# ----------------------------------------------------------------------
# A negative seed
# ----------------------------------------------------------------------
class TestNegativeSeed:
    @pytest.mark.parametrize("seed", [-5, -1])
    def test_is_a_400_and_the_service_answers_the_next_job(self, seed):
        with running_service(complete_graph(6)) as (client, _):
            status, text = client._request(
                "POST", "/jobs", {"pattern": "PG1", "seed": seed}
            )
            assert status == 400
            error = json.loads(text)["error"]
            assert error["type"] == "QuerySpecError"
            assert "seed must be" in error["message"]
            assert client.count(pattern="PG1", seed=0)["state"] == "completed"

    def test_the_driver_refuses_it(self):
        with pytest.raises(EngineError, match="seed must be >= 0, got -1"):
            PSgL(complete_graph(4), seed=-1)


# ----------------------------------------------------------------------
# Non-finite budgets
# ----------------------------------------------------------------------
class TestNonFiniteBudget:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_is_a_400_at_submission(self, value):
        with running_service(complete_graph(6)) as (client, _):
            # json.dumps writes the raw NaN / Infinity literal.
            status, text = client._request(
                "POST",
                "/jobs",
                {"pattern": "PG1", "budget": {"max_wall_seconds": value}},
            )
            assert status == 400
            error = json.loads(text)["error"]
            assert error["type"] == "QuerySpecError"
            assert "finite number > 0" in error["message"]


# ----------------------------------------------------------------------
# A budget that is not a JSON object
# ----------------------------------------------------------------------
class TestNonObjectBudget:
    @pytest.mark.parametrize("budget", [5, 0, ["max_supersteps"], [], "xy", True])
    def test_is_a_400_and_the_service_answers_the_next_job(self, budget):
        with running_service(complete_graph(6)) as (client, _):
            status, text = client._request(
                "POST", "/jobs", {"pattern": "PG1", "budget": budget}
            )
            assert status == 400
            error = json.loads(text)["error"]
            assert error == {
                "type": "QuerySpecError",
                "message": "budget must be a JSON object",
            }
            assert client.count(pattern="PG1")["state"] == "completed"

    def test_null_is_no_budget_and_the_default_applies(self):
        with running_service(
            complete_graph(6), default_budget={"max_supersteps": 1}
        ) as (client, _):
            for budget in (None, {"max_supersteps": None}):
                job = client.count(pattern="PG4", budget=budget)
                assert job["state"] == "killed", job
                assert job["error"]["budget"] == 1


# ----------------------------------------------------------------------
# An illegal server default budget
# ----------------------------------------------------------------------
class TestInvalidDefaultBudget:
    @pytest.mark.parametrize(
        "default,match",
        [
            ({"max_supersteps": 0}, "budget field max_supersteps: superstep_budget"),
            ({"max_wall_seconds": float("nan")}, "budget field max_wall_seconds: "),
            ({"max_supersteps": 2.5}, "superstep_budget must be int"),
            ({"max_meals": 3}, "unknown budget fields"),
        ],
    )
    def test_refused_at_construction(self, default, match):
        with pytest.raises(EngineError, match=match):
            SubgraphService(GraphContext(complete_graph(4)), default_budget=default)

    @pytest.mark.parametrize(
        "flags,match",
        [
            (["--max-supersteps", "0"], "max_supersteps: superstep_budget must"),
            (["--max-wall-seconds", "nan"], "max_wall_seconds: wall_budget_seconds"),
            (["--max-live-gpsis", "-3"], "max_live_gpsis: memory_budget must be"),
        ],
    )
    def test_serve_exits_5_before_reading_the_graph(self, flags, match, capsys):
        code = main(["serve", "--edge-list", "/no/such/file.txt"] + flags)
        err = capsys.readouterr().err
        # Exit 5 (EngineError), not 4: the missing file was never opened.
        assert code == 5
        assert err.startswith("psgl: error: budget field ") and match in err
        assert "Traceback" not in err
