"""Tests for the resident query service (repro.service).

Most tests go through :func:`repro.service.running_service` — a real
``ThreadingHTTPServer`` on an ephemeral port — so the whole wire path
(JSON spec validation, admission control, job lifecycle, trace and
metrics endpoints) is exercised, not just the Python objects.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.bsp import ExecutionConfig
from repro.core import PSgL
from repro.exceptions import (
    AdmissionError,
    BudgetExceededError,
    EngineError,
    JobCancelled,
    QuerySpecError,
)
from repro.graph import complete_graph, erdos_renyi
from repro.obs import SCHEMA, write_jsonl
from repro.pattern import paper_patterns
from repro.service import (
    GraphContext,
    Job,
    JobManager,
    MetricsRegistry,
    ResultCache,
    SubgraphService,
    cache_key,
    parse_metrics,
    running_service,
)
from repro.service.server import apply_budget


@pytest.fixture(scope="module")
def service_pair():
    """One shared live service over K12 for the read-mostly tests."""
    with running_service(
        complete_graph(12), allow_test_hooks=True, max_inflight=2
    ) as pair:
        yield pair


class TestLifecycle:
    def test_health_and_info(self, service_pair):
        client, service = service_pair
        assert client.health() == {"status": "ok"}
        info = client.info()
        assert info["graph"]["vertices"] == 12
        assert info["graph"]["fingerprint"] == service.context.fingerprint
        assert info["backends"] == ["serial", "process"]

    def test_counts_match_batch_driver(self, service_pair):
        client, _ = service_pair
        graph = complete_graph(12)
        for name, pattern in paper_patterns().items():
            expected = PSgL(graph, num_workers=4).count(pattern)
            job = client.count(pattern=name)
            assert job["state"] == "completed"
            assert job["result"]["count"] == expected, name

    def test_job_status_fields(self, service_pair):
        client, _ = service_pair
        job = client.count(pattern="PG1", seed=123)
        assert job["id"] >= 1
        assert job["spec"]["seed"] == 123
        assert job["queue_seconds"] >= 0
        assert job["run_seconds"] >= 0
        assert job["result"]["supersteps"] >= 2

    def test_result_endpoint(self, service_pair):
        client, _ = service_pair
        job = client.count(pattern="PG2", seed=77)
        res = client.result(job["id"])
        assert res["result"]["count"] == job["result"]["count"]

    def test_unknown_job_404(self, service_pair):
        client, _ = service_pair
        from repro.exceptions import ReproError

        with pytest.raises(ReproError, match="404"):
            client.job(999999)

    def test_collect_instances_roundtrip(self, service_pair):
        client, _ = service_pair
        job = client.count(pattern="PG1", collect_instances=True)
        instances = job["result"]["instances"]
        assert len(instances) == job["result"]["count"]
        assert all(len(m) == 3 for m in instances)


class TestSpecValidation:
    def test_unknown_field_rejected(self, service_pair):
        client, _ = service_pair
        with pytest.raises(QuerySpecError, match="unknown spec fields"):
            client.submit(pattern="PG1", bogus=1)

    def test_pattern_required(self, service_pair):
        client, _ = service_pair
        with pytest.raises(QuerySpecError, match="exactly one"):
            client.submit(workers=2)

    def test_unknown_pattern_rejected(self, service_pair):
        client, _ = service_pair
        with pytest.raises(QuerySpecError, match="unknown pattern"):
            client.submit(pattern="PG99")

    def test_bad_budget_rejected(self, service_pair):
        client, _ = service_pair
        with pytest.raises(QuerySpecError, match="budget"):
            client.submit(pattern="PG1", budget={"max_meals": 3})
        with pytest.raises(
            QuerySpecError,
            match="budget field max_supersteps: superstep_budget must be >= 1",
        ):
            client.submit(pattern="PG1", budget={"max_supersteps": -1})

    def test_bad_backend_rejected(self, service_pair):
        client, _ = service_pair
        with pytest.raises(QuerySpecError, match="backend"):
            client.submit(pattern="PG1", backend="quantum")

    def test_job_reports_the_plane_that_ran(self, service_pair):
        """One plane: the spec echoes ``wire``, the result payload has
        no plane to report."""
        client, _ = service_pair
        default = client.count(pattern="PG1", seed=901)
        assert default["spec"]["wire"] == "columnar"
        assert "wire" not in default["result"]
        named = client.count(pattern="PG1", seed=902, wire="columnar")
        assert named["result"]["count"] == default["result"]["count"]

    def test_plane_legality_is_the_engines_rule(self, service_pair):
        """The service re-derives nothing: an unknown plane — the scalar
        reference included — is the engine's error, surfaced as a 400,
        and so is a retired spill field, with the config's hint."""
        client, _ = service_pair
        with pytest.raises(QuerySpecError, match="unknown wire"):
            client.submit(pattern="PG1", wire="quantum")
        with pytest.raises(QuerySpecError, match="unknown wire 'object'"):
            client.submit(pattern="PG1", wire="object", backend="process")
        service = SubgraphService(GraphContext(complete_graph(5)))
        try:
            with pytest.raises(QuerySpecError, match="unknown wire 'object'"):
                service.submit({"pattern": "PG1", "wire": "object"})
            with pytest.raises(QuerySpecError, match="spill plane is retired"):
                service.submit({"pattern": "PG1", "spill_dir": "/unused"})
            job, cached = service.submit({"pattern": "PG1"})
            assert not cached
            assert service.manager.wait(job.id, 10.0).result["count"] == 10
        finally:
            service.close()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("workers", "abc"),
            ("workers", 2.7),
            ("workers", 0),
            ("seed", None),
            ("seed", "7"),
            # A retired field: any value is refused by name.
            ("steal", "false"),
            ("steal", 1),
            ("collect_instances", "yes"),
            ("max_supersteps", "abc"),
            ("max_supersteps", 2.7),
        ],
    )
    def test_mistyped_value_is_a_400_not_a_guess(self, service_pair, field, value):
        """No ``int("abc")`` 500, no ``bool("false") is True``: a value of
        the wrong JSON type is refused, and the service keeps answering."""
        client, _ = service_pair
        fragment = {field: value}
        if field.startswith("max_"):
            fragment = {"budget": fragment}
        status, text = client._request(
            "POST", "/jobs", {"pattern": "PG1", **fragment}
        )
        assert status == 400
        error = json.loads(text)["error"]
        assert error["type"] == "QuerySpecError" and field in error["message"]
        assert client.count(pattern="PG1")["state"] == "completed"

    def test_real_json_types_behave_as_before(self, service_pair):
        client, _ = service_pair
        spec = dict(
            pattern="PG2", workers=2, seed=41, backend="serial",
            collect_instances=True,
        )
        job = client.count(**spec)
        assert job["state"] == "completed" and job["result"]["count"] >= 0
        assert job["spec"]["workers"] == 2 and job["spec"]["backend"] == "serial"
        # An integral float is the integer; execution fields never enter
        # the cache key, so the first answer serves this one too.
        again = client.submit(**{**spec, "workers": 2.0, "backend": "process"})
        assert again["cached"] and again["result"] == job["result"]

    def test_test_hooks_gated(self):
        with running_service(complete_graph(5)) as (client, _):
            with pytest.raises(QuerySpecError, match="_hold_seconds"):
                client.submit(pattern="PG1", _hold_seconds=1)


class TestResultCache:
    def test_repeat_query_served_from_cache(self):
        with running_service(complete_graph(10)) as (client, service):
            first = client.count(pattern="PG4")
            assert not first["cached"]
            second = client.submit(pattern="PG4")
            assert second["cached"] and second["state"] == "completed"
            assert second["result"] == first["result"]
            assert service.cache.stats()["hits"] == 1

    def test_isomorphic_relabeling_hits(self):
        # PG1 and a scrambled triangle spelling are one cache entry.
        with running_service(complete_graph(8)) as (client, _):
            first = client.count(pattern="PG1")
            second = client.count(pattern_edges="3-1, 2-3, 1-2")
            assert second["cached"]
            assert second["result"]["count"] == first["result"]["count"]

    def test_params_key_separately(self):
        with running_service(complete_graph(8)) as (client, _):
            client.count(pattern="PG1", seed=0)
            other_seed = client.count(pattern="PG1", seed=1)
            assert not other_seed["cached"]

    def test_zero_budget_disables_caching(self):
        with running_service(
            complete_graph(8), cache=ResultCache(max_bytes=0)
        ) as (client, _):
            client.count(pattern="PG1")
            assert not client.count(pattern="PG1")["cached"]


class TestConcurrentProcessJobs:
    def test_four_process_jobs_at_once_all_complete(self):
        """Regression: four ``backend="process"`` jobs admitted together
        deadlocked in ``close()`` — each job's forked lane held the other
        jobs' driver-side pipe ends, so no lane saw end of file — and
        stayed ``running`` forever.  Every round's jobs now complete with
        the batch driver's counts.  The service runs in a daemon thread
        with bounded waits, so a hang fails the test, not the suite."""
        graph = erdos_renyi(60, 0.15, seed=12)
        patterns = ("PG1", "PG2")
        expected = {
            name: PSgL(graph, num_workers=4).count(paper_patterns()[name])
            for name in patterns
        }
        rounds, errors = [], []

        def serve():
            try:
                with running_service(graph, max_inflight=4) as (client, _):
                    for round_ in range(5):
                        jobs = [
                            client.submit(
                                pattern=patterns[i % 2],
                                seed=4 * round_ + i,
                                backend="process",
                            )
                            for i in range(4)
                        ]
                        rounds.append(
                            [client.wait(job["id"], timeout=10) for job in jobs]
                        )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        thread.join(60)
        assert not errors, errors[0]
        assert len(rounds) == 5, f"round {len(rounds)} never finished"
        for jobs in rounds:
            for job in jobs:
                assert job["state"] == "completed", job
                assert job["result"]["count"] == expected[job["result"]["pattern"]]


class TestBudgetsAndCancel:
    def test_over_budget_job_killed_with_structured_error(self, service_pair):
        client, _ = service_pair
        job = client.count(pattern="PG4", budget={"max_supersteps": 1}, seed=5)
        assert job["state"] == "killed"
        assert job["error"] == {
            "type": "BudgetExceededError",
            "message": "superstep budget of 1 exhausted at superstep 1",
            "resource": "supersteps",
            "used": 1,
            "budget": 1,
            "where": "superstep 1",
        }

    def test_memory_budget_kill(self, service_pair):
        client, _ = service_pair
        job = client.count(pattern="PG4", budget={"max_live_gpsis": 2}, seed=6)
        assert job["state"] == "killed"
        assert job["error"]["resource"] == "gpsi_memory"

    def test_kill_leaves_other_inflight_jobs_alone(self, service_pair):
        client, _ = service_pair
        good = client.submit(pattern="PG5", seed=9)
        bad = client.submit(pattern="PG4", budget={"max_supersteps": 1}, seed=9)
        done_bad = client.wait(bad["id"])
        done_good = client.wait(good["id"])
        assert done_bad["state"] == "killed"
        assert done_good["state"] == "completed"
        expected = PSgL(complete_graph(12), num_workers=4, seed=9).count(
            paper_patterns()["PG5"]
        )
        assert done_good["result"]["count"] == expected

    def test_default_budget_applies_underneath(self):
        with running_service(
            complete_graph(10),
            default_budget={"max_supersteps": 1, "max_live_gpsis": None},
        ) as (client, _):
            assert client.info()["default_budget"] == {"max_supersteps": 1}
            job = client.count(pattern="PG4")
            assert job["state"] == "killed"
            # ...but an explicit laxer budget on the request wins its axis.
            ok = client.count(pattern="PG4", budget={"max_supersteps": 10})
            assert ok["state"] == "completed"

    def test_cancel_running_job(self, service_pair):
        client, _ = service_pair
        held = client.submit(pattern="PG2", _hold_seconds=10, seed=31)
        deadline = time.monotonic() + 5
        while client.job(held["id"])["state"] == "queued":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.01)
        assert client.cancel(held["id"])["cancelled"]
        done = client.wait(held["id"])
        assert done["state"] == "cancelled"
        assert done["error"]["type"] == "JobCancelled"

    def test_cancel_terminal_job_is_noop(self, service_pair):
        client, _ = service_pair
        job = client.count(pattern="PG3", seed=41)
        assert not client.cancel(job["id"])["cancelled"]


class TestAdmissionControl:
    def test_queue_full_gets_429(self):
        with running_service(
            complete_graph(8),
            allow_test_hooks=True,
            max_inflight=1,
            max_queue_depth=2,
        ) as (client, _):
            held = [
                client.submit(pattern="PG2", _hold_seconds=5, seed=s)
                for s in range(3)  # 1 running + 2 queued
            ]
            with pytest.raises(AdmissionError, match="queue full"):
                client.submit(pattern="PG2", _hold_seconds=5, seed=99)
            for h in held:
                client.cancel(h["id"])
            for h in held:
                assert client.wait(h["id"])["state"] == "cancelled"
            metrics = client.metrics()
            assert metrics["psgl_service_admission_rejected_total"] == 1

    def test_cache_hits_bypass_admission(self):
        with running_service(
            complete_graph(8),
            allow_test_hooks=True,
            max_inflight=1,
            max_queue_depth=1,
        ) as (client, _):
            client.count(pattern="PG1")  # populate the cache
            # Saturate pool + queue: the first held job must have left
            # the depth-1 queue before the second is submitted.
            running = client.submit(pattern="PG2", _hold_seconds=5, seed=0)
            deadline = time.monotonic() + 5
            while client.job(running["id"])["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            held = [running, client.submit(pattern="PG2", _hold_seconds=5, seed=1)]
            hit = client.submit(pattern="PG1")  # full queue, still served
            assert hit["cached"] and hit["state"] == "completed"
            for h in held:
                client.cancel(h["id"])
                client.wait(h["id"])


class TestPriorityLanes:
    def test_interactive_preempts_batch_in_queue(self):
        with running_service(
            complete_graph(8), allow_test_hooks=True, max_inflight=1
        ) as (client, service):
            blocker = client.submit(pattern="PG1", _hold_seconds=5, seed=1)
            deadline = time.monotonic() + 5
            while client.job(blocker["id"])["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            batch = client.submit(pattern="PG2", priority="batch", seed=2)
            interactive = client.submit(pattern="PG3", seed=3)
            client.cancel(blocker["id"])
            done_i = client.wait(interactive["id"])
            done_b = client.wait(batch["id"])
            assert done_i["state"] == done_b["state"] == "completed"
            # Submitted second, started first: the interactive lane drains
            # before the batch lane.
            assert done_i["started_at"] < done_b["started_at"]

    def test_unknown_priority_rejected(self, service_pair):
        client, _ = service_pair
        with pytest.raises(QuerySpecError, match="priority"):
            client.submit(pattern="PG1", priority="vip")


class TestMetricsEndpoint:
    def test_scrape_parses_and_counts(self):
        with running_service(complete_graph(8)) as (client, _):
            client.count(pattern="PG1")
            client.count(pattern="PG1")  # hit
            text = client.metrics_text()
            assert "# TYPE psgl_service_jobs_total counter" in text
            values = parse_metrics(text)
            assert values['psgl_service_jobs_total{state="completed"}'] == 2
            assert values["psgl_service_cache_hits_total"] == 1
            assert values["psgl_service_cache_misses_total"] == 1
            assert values["psgl_service_cache_entries"] == 1
            assert values["psgl_service_job_wall_seconds_count"] == 1
            assert values['psgl_service_http_requests_total{method="POST",code="202"}'] == 1
            assert values['psgl_service_http_requests_total{method="POST",code="200"}'] == 1


class TestTraceEndpoint:
    def test_trace_stream_is_valid_jsonl(self):
        with running_service(complete_graph(8)) as (client, _):
            job = client.count(pattern="PG1")
            lines = client.trace_text(job["id"]).strip().splitlines()
            header = json.loads(lines[0])
            assert header["schema"] == SCHEMA
            assert header["meta"]["spec"]["pattern"] == "PG1"
            events = [json.loads(line) for line in lines[1:]]
            kinds = {e["kind"] for e in events}
            assert {"job", "superstep", "worker", "barrier"} <= kinds

    def test_trace_stream_is_the_bytes_write_jsonl_writes(self, tmp_path):
        """The endpoint and ``write_jsonl`` share one serializer: the
        bytes served are the file written for the same tracer."""
        with running_service(complete_graph(8)) as (client, service):
            job = client.count(pattern="PG1")
            url = f"{client.base_url}/jobs/{job['id']}/trace"
            with urllib.request.urlopen(url, timeout=30) as resp:
                served = resp.read()
            tracer = service.manager.get(job["id"]).tracer
            written = write_jsonl(tracer, tmp_path / "trace.jsonl")
            assert served == written.read_bytes()
            assert served.count(b"\n") == 1 + len(tracer.events)

    def test_trace_report(self):
        with running_service(complete_graph(8)) as (client, _):
            job = client.count(pattern="PG2")
            report = client.trace_report(job["id"])
            assert "per-worker totals" in report

    def test_untraced_service_404s(self):
        with running_service(complete_graph(8), trace_jobs=False) as (
            client,
            _,
        ):
            job = client.count(pattern="PG1")
            from repro.exceptions import ReproError

            with pytest.raises(ReproError, match="404"):
                client.trace_text(job["id"])


class TestJobManagerUnit:
    def test_states_and_monotonic_ids(self):
        manager = JobManager(runner=lambda job: {"ok": True}, max_inflight=1)
        try:
            jobs = [manager.submit({"n": i}) for i in range(3)]
            assert [j.id for j in jobs] == [1, 2, 3]
            for j in jobs:
                assert manager.wait(j.id).state == "completed"
                assert j.result == {"ok": True}
        finally:
            manager.close()

    def test_runner_exceptions_classified(self):
        def runner(job: Job):
            kind = job.spec["kind"]
            if kind == "budget":
                raise BudgetExceededError("x", resource="supersteps")
            if kind == "cancel":
                raise JobCancelled("y")
            raise ValueError("z")

        manager = JobManager(runner=runner, max_inflight=1)
        try:
            outcomes = {
                kind: manager.wait(manager.submit({"kind": kind}).id).state
                for kind in ("budget", "cancel", "boom")
            }
            assert outcomes == {
                "budget": "killed",
                "cancel": "cancelled",
                "boom": "failed",
            }
            boom = manager.list_jobs()[-1]
            assert boom.error == {"type": "ValueError", "message": "z"}
        finally:
            manager.close()

    def test_close_cancels_queued_jobs(self):
        release = threading.Event()

        def runner(job: Job):
            release.wait(5)
            return {}

        manager = JobManager(runner=runner, max_inflight=1)
        running = manager.submit({})
        deadline = time.monotonic() + 5
        while running.state == "queued":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.005)
        queued = manager.submit({})  # pool busy → must sit in the lane
        threading.Timer(0.05, release.set).start()
        manager.close()
        assert queued.state == "cancelled"
        assert running.state == "completed"
        with pytest.raises(AdmissionError):
            manager.submit({})


class TestResultCacheUnit:
    def test_lru_eviction_by_entries(self):
        cache = ResultCache(max_entries=2)
        keys = [cache_key("fp", f"p{i}", "s", {}) for i in range(3)]
        for key in keys:
            cache.put(key, {"k": str(key)})
        assert cache.get(keys[0]) is None  # evicted
        assert cache.get(keys[2]) is not None
        assert cache.evictions == 1

    def test_byte_budget_eviction(self):
        payload = {"data": "x" * 100}
        size = len(json.dumps(payload, separators=(",", ":")).encode())
        cache = ResultCache(max_bytes=2 * size + 1)
        for i in range(3):
            cache.put(cache_key("fp", f"p{i}", "s", {}), payload)
        assert len(cache) == 2
        assert cache.bytes_used <= cache.max_bytes

    def test_oversized_payload_refused(self):
        cache = ResultCache(max_bytes=10)
        assert not cache.put(cache_key("fp", "p", "s", {}), {"x": "y" * 100})
        assert len(cache) == 0

    def test_get_moves_to_front(self):
        cache = ResultCache(max_entries=2)
        k1, k2, k3 = (cache_key("fp", f"p{i}", "s", {}) for i in range(3))
        cache.put(k1, {})
        cache.put(k2, {})
        cache.get(k1)  # refresh k1 → k2 is now LRU
        cache.put(k3, {})
        assert cache.get(k2) is None
        assert cache.get(k1) is not None


class TestBudgetAxes:
    """A ``budget`` object is the four budget fields of ``ExecutionConfig``
    under the client's names, applied with the config's own rules."""

    def test_name_map_applies_each_axis_to_its_field(self):
        config = apply_budget(
            ExecutionConfig(),
            {
                "max_live_gpsis": 7,
                "max_worker_live_gpsis": None,  # unset: keeps its value
                "max_supersteps": 3,
                "max_wall_seconds": 1.5,
            },
        )
        assert config == ExecutionConfig(
            memory_budget=7, superstep_budget=3, wall_budget_seconds=1.5
        )
        assert apply_budget(ExecutionConfig(), {}) == ExecutionConfig()

    def test_request_axes_merge_over_the_default(self):
        service = SubgraphService(
            GraphContext(complete_graph(5)),
            default_budget={"max_supersteps": 5, "max_live_gpsis": 100},
        )
        try:
            budget = {"max_supersteps": 20, "max_live_gpsis": None}
            spec, *_ = service._normalize({"pattern": "PG1", "budget": budget})
            config = service._config_for(spec)
            assert (config.superstep_budget, config.memory_budget) == (20, 100)
        finally:
            service.close()

    def test_bad_axis_is_the_configs_error_under_the_client_name(self):
        for budget, match in (
            ({"max_supersteps": 0}, "budget field max_supersteps: "
             "superstep_budget must be >= 1, got 0"),
            ({"max_live_gpsis": 2.5}, "budget field max_live_gpsis: "
             "memory_budget must be int, got 2.5"),
            ({"max_wall_seconds": -1}, "budget field max_wall_seconds: "
             "wall_budget_seconds must be a finite number > 0"),
            ({"max_meals": 3}, r"unknown budget fields \['max_meals'\]"),
        ):
            with pytest.raises(EngineError, match=match):
                apply_budget(ExecutionConfig(), budget)


class TestMetricsUnit:
    def test_render_parse_roundtrip(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", labelnames=("kind",))
        gauge = registry.gauge("g", "help")
        hist = registry.histogram("h_seconds", "help", buckets=(0.1, 1.0))
        counter.labels(kind="a").inc()
        counter.labels(kind="a").inc()
        gauge.set(4.5)
        hist.observe(0.05)
        hist.observe(2.0)
        values = parse_metrics(registry.render())
        assert values['c_total{kind="a"}'] == 2
        assert values["g"] == 4.5
        assert values['h_seconds_bucket{le="0.1"}'] == 1
        assert values['h_seconds_bucket{le="+Inf"}'] == 2
        assert values["h_seconds_count"] == 2

    def test_duplicate_name_rejected(self):
        registry = MetricsRegistry()
        registry.counter("dup", "x")
        with pytest.raises(ValueError, match="duplicate"):
            registry.counter("dup", "y")

    def test_counters_only_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c", "x").inc(-1)


class TestProcessBackendOverHTTP:
    def test_process_backend_query_matches_serial(self):
        graph = erdos_renyi(40, 0.15, seed=2)
        with running_service(graph) as (client, _):
            serial = client.count(pattern="PG1")
            process = client.count(
                pattern="PG1", backend="process", workers=2, seed=1
            )
            assert process["state"] == "completed"
            assert process["result"]["count"] == serial["result"]["count"]
