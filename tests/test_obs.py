"""Tests for repro.obs: tracer semantics, exporter round-trips,
trace/ledger parity across backends, and the straggler report."""

import json

import pytest

from repro import PSgL, Tracer, complete_graph
from repro.bsp import BSPEngine, CostLedger
from repro.graph import hash_partition
from repro.graph.generators import erdos_renyi
from repro.obs import (
    NULL_TRACER,
    SCHEMA,
    NullTracer,
    TraceEvent,
    make_tracer,
    read_jsonl,
    straggler_report,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.pattern import triangle

from .programs import Ripple


class Chatter(Ripple):
    """Two rounds of neighbour pings with per-worker-skewed cost."""

    def __init__(self):
        super().__init__(rounds=2, skew=1.0)


def traced_run(backend="serial", **engine_kwargs):
    g = erdos_renyi(30, 0.25, seed=13)
    tracer = Tracer()
    engine = BSPEngine(
        g, hash_partition(30, 3), backend=backend, trace=tracer, **engine_kwargs
    )
    result = engine.run(Chatter())
    return tracer, result


class TestMakeTracer:
    def test_none_and_false_resolve_to_shared_null(self):
        assert make_tracer(None) is NULL_TRACER
        assert make_tracer(False) is NULL_TRACER

    def test_true_makes_fresh_tracer(self):
        a, b = make_tracer(True), make_tracer(True)
        assert isinstance(a, Tracer) and a is not b

    def test_instance_passthrough(self):
        tracer = Tracer()
        assert make_tracer(tracer) is tracer
        null = NullTracer()
        assert make_tracer(null) is null

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            make_tracer("yes please")

    def test_null_tracer_is_disabled_and_silent(self):
        NULL_TRACER.emit("worker", superstep=0, worker=0, cost=1.0)
        assert NULL_TRACER.enabled is False


class TestEngineTracing:
    def test_untraced_run_returns_no_trace(self):
        g = complete_graph(5)
        result = BSPEngine(g, hash_partition(5, 2)).run(Chatter())
        assert result.trace is None

    def test_event_stream_shape(self):
        tracer, result = traced_run()
        supersteps = result.ledger.num_supersteps
        assert len(tracer.by_kind("superstep")) == supersteps
        assert len(tracer.by_kind("barrier")) == supersteps
        assert len(tracer.by_kind("executor")) == 1
        jobs = tracer.by_kind("job")
        assert len(jobs) == 1 and jobs[0].data["status"] == "completed"
        assert jobs[0].data["supersteps"] == supersteps
        assert tracer.meta["backend"] == "serial"
        assert tracer.meta["num_workers"] == 3

    def test_process_superstep_reports_each_lanes_busy_time(self):
        """Under the process backend the ``superstep`` event carries
        ``lane_busy_ms``, one entry per computing lane, driver first, each
        timed by the lane itself; in superstep 1 every lane was dealt a
        unit.  A backend that deals to no lanes adds no such field."""
        tracer, _ = traced_run(backend="process", procs=2)
        (step,) = [e for e in tracer.by_kind("superstep") if e.superstep == 1]
        busy = step.data["lane_busy_ms"]
        assert len(busy) == 2 and all(ms > 0 for ms in busy)
        serial, _ = traced_run()
        assert all("lane_busy_ms" not in e.data for e in serial.by_kind("superstep"))

    def test_worker_events_match_ledger_rows_exactly(self):
        tracer, result = traced_run()
        for step in result.ledger.steps:
            events = {
                e.worker: e.data
                for e in tracer.by_kind("worker")
                if e.superstep == step.superstep
            }
            for worker, cost in enumerate(step.worker_cost):
                if worker in events:
                    assert events[worker]["cost"] == cost
                    assert events[worker]["messages"] == step.worker_messages[worker]
                    assert (
                        events[worker]["compute_calls"]
                        == step.worker_compute_calls[worker]
                    )
                else:  # workers with empty batches emit no event
                    assert cost == 0.0

    def test_tracer_summary_equals_ledger_summary(self):
        tracer, result = traced_run()
        assert tracer.summary() == result.ledger.summary()

    def test_makespan_is_sum_of_per_superstep_maxima(self):
        tracer, result = traced_run()
        ledger = result.ledger
        assert ledger.makespan() == sum(s.max_cost for s in ledger.steps)
        assert tracer.summary()["makespan"] == ledger.makespan()

    def test_imbalance_is_one_on_zero_cost_run(self):
        ledger = CostLedger(4)
        ledger.begin_superstep(0)
        ledger.end_superstep(live_messages=0)
        assert ledger.imbalance() == 1.0
        tracer = Tracer()
        tracer.emit("worker", superstep=0, worker=0, cost=0.0, messages=0)
        tracer.emit("superstep", superstep=0, wall_ms=0.1)
        assert tracer.summary()["imbalance"] == 1.0

    def test_barrier_queue_depths_recorded(self):
        tracer, result = traced_run()
        barrier = tracer.by_kind("barrier")[0]
        depths = barrier.data["queue_depths"]
        assert len(depths) == 3
        assert barrier.data["max_worker_live"] == max(depths)

    def test_oom_aborted_run_still_traces_fatal_superstep(self):
        from repro.exceptions import SimulatedOOMError

        g = erdos_renyi(30, 0.25, seed=13)
        tracer = Tracer()
        engine = BSPEngine(
            g, hash_partition(30, 3), memory_budget=2, trace=tracer
        )
        with pytest.raises(SimulatedOOMError):
            engine.run(Chatter())
        assert tracer.by_kind("barrier")  # the fatal barrier is recorded
        assert tracer.by_kind("job")[0].data["status"] == "SimulatedOOMError"


class TestBackendIndependence:
    """The trace is assembled from barrier-merged deltas, so process-
    backend children's ledger contributions must land in the driver's
    trace identically to a serial run."""

    def test_serial_vs_process_traces_identical(self):
        def rows(tracer):
            # Wall-time and OS diagnostics (barrier merge_ms and
            # peak_rss_mb) are inherently backend-dependent; every
            # semantic field must be identical.
            out = []
            for e in tracer.events:
                if e.kind not in ("worker", "barrier"):
                    continue
                row = e.to_json()
                row.get("data", {}).pop("merge_ms", None)
                row.get("data", {}).pop("peak_rss_mb", None)
                out.append(row)
            return out

        t_serial, r_serial = traced_run("serial")
        t_proc, r_proc = traced_run("process", procs=2)
        assert rows(t_serial) == rows(t_proc)
        assert t_proc.worker_totals() == r_serial.ledger.worker_totals()

    def test_process_trace_records_shared_export_sizes(self):
        t_proc, _ = traced_run("process", procs=2)
        exports = t_proc.by_kind("export")
        assert len(exports) == 1
        data = exports[0].data
        assert data["total_bytes"] >= data["indptr"] + data["indices"]
        assert data["indptr"] == (30 + 1) * 8


class TestJsonlRoundtrip:
    def test_events_and_meta_roundtrip_exactly(self, tmp_path):
        tracer, _ = traced_run()
        path = write_jsonl(tracer, tmp_path / "trace.jsonl")
        rebuilt = read_jsonl(path)
        assert rebuilt.meta == tracer.meta
        assert [e.to_json() for e in rebuilt.events] == [
            e.to_json() for e in tracer.events
        ]

    def test_totals_survive_roundtrip_serial_and_process(self, tmp_path):
        for backend in ("serial", "process"):
            tracer, result = traced_run(backend, procs=2)
            path = write_jsonl(tracer, tmp_path / f"{backend}.jsonl")
            rebuilt = read_jsonl(path)
            assert rebuilt.summary() == result.ledger.summary()
            assert rebuilt.worker_totals() == result.ledger.worker_totals()

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "header", "schema": "other/v9"}) + "\n")
        with pytest.raises(ValueError, match="schema"):
            read_jsonl(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_jsonl(path)


class TestChromeTrace:
    def test_valid_and_cost_totals_match_ledger_exactly(self, tmp_path):
        for backend in ("serial", "process"):
            tracer, result = traced_run(backend, procs=2)
            path = write_chrome_trace(tracer, tmp_path / f"{backend}.json")
            info = validate_chrome_trace(path)
            assert info["schema"] == SCHEMA
            assert info["worker_cost_totals"] == result.ledger.worker_totals()
            assert info["supersteps"] == result.ledger.num_supersteps

    def test_cost_slices_tile_the_makespan_timeline(self, tmp_path):
        tracer, result = traced_run()
        path = write_chrome_trace(tracer, tmp_path / "t.json")
        document = json.loads(path.read_text())
        cost_events = [
            e for e in document["traceEvents"] if e.get("cat") == "cost"
        ]
        # Every superstep's slices start at the sum of previous maxima.
        starts = {}
        for event in cost_events:
            starts.setdefault(event["args"]["superstep"], set()).add(event["ts"])
        assert all(len(v) == 1 for v in starts.values())
        offsets = sorted(next(iter(v)) for v in starts.values())
        expected, acc = [], 0.0
        for step in result.ledger.steps:
            expected.append(acc)
            acc += step.max_cost
        assert offsets == expected

    def test_multi_job_traces_stay_monotonic(self, tmp_path):
        g = erdos_renyi(30, 0.25, seed=13)
        tracer = Tracer()
        for _ in range(2):  # one tracer observing two jobs (fig5-style)
            BSPEngine(g, hash_partition(30, 3), trace=tracer).run(Chatter())
        assert len(tracer.by_kind("job")) == 2
        path = write_chrome_trace(tracer, tmp_path / "multi.json")
        document = json.loads(path.read_text())
        names = {
            e["name"]
            for e in document["traceEvents"]
            if e.get("cat") == "cost"
        }
        assert any(n.startswith("job0") for n in names)
        assert any(n.startswith("job1") for n in names)

    def test_validation_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all")
        with pytest.raises(ValueError, match="not valid JSON"):
            validate_chrome_trace(path)
        path.write_text(json.dumps({"no_events": True}))
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace(path)
        path.write_text(
            json.dumps({"traceEvents": [], "otherData": {"schema": "nope"}})
        )
        with pytest.raises(ValueError, match="schema"):
            validate_chrome_trace(path)


class TestPSgLIntegration:
    def test_psgl_trace_parity_with_ledger(self):
        tracer = Tracer()
        result = PSgL(complete_graph(6), num_workers=2, trace=tracer).run(
            triangle()
        )
        assert result.count == 20
        assert result.trace is tracer
        assert tracer.worker_totals() == result.ledger.worker_totals()

    def test_psgl_untraced_has_no_trace(self):
        result = PSgL(complete_graph(5), num_workers=2).run(triangle())
        assert result.trace is None

    def test_one_tracer_across_strategies(self):
        tracer = Tracer()
        g = complete_graph(6)
        for strategy in ("random", "roulette"):
            PSgL(g, num_workers=2, strategy=strategy, trace=tracer).run(
                triangle()
            )
        assert len(tracer.by_kind("job")) == 2


class TestStragglerReport:
    def test_report_names_the_straggler(self):
        tracer, result = traced_run()
        report = straggler_report(tracer)
        totals = result.ledger.worker_totals()
        slowest = totals.index(max(totals))
        assert f"worker {slowest:>3}" in report
        assert "<- straggler" in report
        assert "imbalance" in report

    def test_empty_trace_handled(self):
        assert "no worker events" in straggler_report(Tracer())

    def test_event_json_roundtrip(self):
        event = TraceEvent(
            "worker", superstep=2, worker=1, wall_ms=3.5, data={"cost": 7.0}
        )
        assert TraceEvent.from_json(event.to_json()) == event


class TestPeakRss:
    """Each barrier samples the driver's peak RSS, only when traced."""

    def test_barriers_carry_the_driver_peak_so_far(self):
        import resource

        def peak():
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        before = peak()
        tracer, _ = traced_run()
        after = peak()
        samples = [e.data["peak_rss_mb"] for e in tracer.by_kind("barrier")]
        assert len(samples) == len(tracer.by_kind("superstep")) > 0
        assert before <= samples[0]
        assert samples == sorted(samples) and samples[-1] <= after

    def test_report_prints_the_maximum(self):
        tracer, _ = traced_run()
        top = max(e.data["peak_rss_mb"] for e in tracer.by_kind("barrier"))
        assert f"peak RSS {top:,.1f} MiB" in straggler_report(tracer)
