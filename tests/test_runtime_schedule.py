"""The one superstep schedule: structure, conformance, faults.

``SuperstepExecutor.run_superstep`` is the runtime's only execution loop;
a backend is a pool plus one submit hook.  This file pins that shape
(so a second loop cannot quietly grow back in a backend), proves a
backend written against the hooks alone inherits the static, the
work-stealing and the pipelined schedule bit-identically, and checks
that a failure — at set-up or mid-superstep, under either dynamic
schedule — propagates as itself and leaves no thread, child process,
``/dev/shm`` block or spill directory behind.
"""

import multiprocessing
import os
import pickle
import queue
import re
import threading
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

import repro
from repro.bsp import BSPEngine, ExecutionConfig
from repro.bsp.aggregate import AggregatorRegistry
from repro.core.listing import PSgLProgram
from repro.exceptions import EngineError
from repro.graph import hash_partition
from repro.graph.generators import erdos_renyi
from repro.obs import Tracer
from repro.runtime import executor
from repro.runtime import (
    ProcessExecutor,
    SerialExecutor,
    SuperstepExecutor,
    ThreadExecutor,
    run_inline,
    run_replica_batch,
)

from .parity import assert_equivalent, reference_run
from .programs import PerVertex

SRC = Path(repro.__file__).resolve().parent
GRAPH = erdos_renyi(40, 0.25, seed=7)

STEAL = dict(steal=True, steal_tasks=8)
PIPELINED = dict(shuffle="pipelined", chunk_gpsis=4)


@lru_cache(maxsize=None)
def reference():
    return reference_run(GRAPH, "PG3")


# ----------------------------------------------------------------------
# Structure: the loops exist once
# ----------------------------------------------------------------------
class TestOneSchedule:
    def test_backends_do_not_override_the_schedule(self):
        for cls in (SerialExecutor, ThreadExecutor, ProcessExecutor):
            assert "run_superstep" not in vars(cls), cls.__name__

    def test_drain_split_and_finalize_are_the_schedules_alone(self):
        schedule = SRC / "runtime" / "executor.py"
        calls = re.compile(r"(?<!def )\b(split_batch|finalize_owner)\(")
        for path in sorted(SRC.rglob("*.py")):
            if path == schedule:
                continue
            text = path.read_text()
            assert not calls.search(text), path
            if path.parent == schedule.parent:
                assert "threading.Thread(" not in text, path
        text = schedule.read_text()
        assert text.count("threading.Thread(") == 1
        assert len(calls.findall(text)) == 2

    def test_one_worker_contract_in_src(self):
        gone = re.compile(
            r"inprocess|run_worker_batch|_submit_batch|_submit_task|"
            r"collect_delta|from_replicas|pre_application|bind_graph"
        )
        for path in sorted(SRC.rglob("*.py")):
            assert not gone.search(path.read_text()), path

    def test_backends_are_start_close_and_one_hook(self):
        allowed = {"__init__", "start", "close", "_submit"}
        for cls in (SerialExecutor, ThreadExecutor, ProcessExecutor):
            methods = {n for n, v in vars(cls).items() if callable(v)}
            assert methods <= allowed, (cls.__name__, methods - allowed)
            assert "_submit" in methods, cls.__name__

    @pytest.mark.parametrize("schedule", [{}, STEAL], ids=["static", "steal"])
    def test_serial_snapshots_the_registry_once_per_superstep(
        self, monkeypatch, schedule
    ):
        calls = []
        original = AggregatorRegistry.snapshot

        def counting_snapshot(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(AggregatorRegistry, "snapshot", counting_snapshot)
        result = assert_equivalent(
            ExecutionConfig(backend="serial", **schedule), reference()
        )
        assert len(calls) == result.supersteps


# ----------------------------------------------------------------------
# Conformance: a backend is a pool and one hook
# ----------------------------------------------------------------------
class InlineReplicas(SuperstepExecutor):
    """A complete third-party backend: pickled replicas, no pool at all."""

    name = "inline-replicas"

    def start(self, spec):
        if spec.config.shuffle == "pipelined":
            spec = replace(spec, chunk_queue=queue.Queue(maxsize=4))
        super().start(spec)
        payload, arrays = pickle.dumps(spec.program), spec.program.export_shared()
        self._replicas = [pickle.loads(payload) for _ in range(spec.num_workers)]
        for replica in self._replicas:
            replica.bind_shared(spec.graph, arrays)

    def _submit(self, owner, unit, *args):
        return run_inline(unit, self._spec, self._replicas[owner], *args)


class AlternatingLanes(InlineReplicas):
    """Pretends odd-``seq`` tasks ran on another lane than even ones."""

    def _submit(self, owner, unit, *args):
        future = super()._submit(owner, unit, *args)
        if unit is not run_replica_batch:  # a steal task
            ran = future.result()
            ran.lane = ran.seq % 2
        return future


class TestThirdPartyBackend:
    def test_static_schedule(self):
        assert_equivalent(ExecutionConfig(backend=InlineReplicas()), reference())

    def test_steal_schedule(self):
        # One real lane: everything is split, expanded and finalized,
        # nothing is stolen.
        result = assert_equivalent(
            ExecutionConfig(backend=InlineReplicas(), **STEAL), reference()
        )
        assert result.steals == 0

    def test_pipelined_schedule(self):
        tracer = Tracer()
        assert_equivalent(
            ExecutionConfig(backend=InlineReplicas(), **PIPELINED),
            reference(),
            trace=tracer,
        )
        # The bounded queue (depth 4) only ever empties because the
        # inherited drain consumes while the driver thread computes.
        flushed = tracer.by_kind("chunk_flush")
        assert len(flushed) > 4
        assert len(tracer.by_kind("chunk_deliver")) == len(flushed)

    def test_stolen_means_off_the_lane_of_the_owners_first_task(self):
        tracer = Tracer()
        result = assert_equivalent(
            ExecutionConfig(backend=AlternatingLanes(), **STEAL),
            reference(),
            trace=tracer,
        )
        events = tracer.by_kind("steal")
        assert result.steals == len(events) > 0
        # seq 0 ran on lane 0, so exactly the odd tasks count as stolen.
        assert all(e.data["lane"] == 1 and e.data["seq"] % 2 for e in events)


# ----------------------------------------------------------------------
# Faults: typed, and nothing left behind
# ----------------------------------------------------------------------
def leftovers():
    """Everything a job could leak, in a form that compares with ``==``."""
    return (
        threading.active_count(),
        len(multiprocessing.active_children()),
        sorted(os.listdir("/dev/shm")),
    )


class Unpicklable(PerVertex):
    """Runs anywhere but in a pool: replicas are made by pickling."""

    torn_down = False

    def __init__(self):
        self.hook = lambda: None

    def visit(self, ctx, vertex, payloads):
        return None

    def post_application(self):
        self.torn_down = True


class TestFaults:
    def test_failed_start_is_torn_down_like_any_fault(self, tmp_path):
        """Regression: ``executor.start`` and the spill set-up ran outside
        the engine's ``try``/``finally``, so a program that cannot be
        pickled left two ``psm_*`` blocks and a ``psgl-spill-*``
        directory behind for the life of the process."""
        before = leftovers()
        tracer = Tracer()
        program = Unpicklable()
        engine = BSPEngine(
            GRAPH,
            hash_partition(GRAPH.num_vertices, 4),
            backend="process",
            procs=2,
            spill_dir=str(tmp_path),
            memory_watermark_bytes=1,
            trace=tracer,
        )
        with pytest.raises(EngineError, match="Unpicklable"):
            engine.run(program)
        assert leftovers() == before
        assert list(tmp_path.iterdir()) == []
        assert program.torn_down
        assert tracer.by_kind("job")[-1].data["status"] == "EngineError"

    def test_lost_chunk_is_a_typed_error(self, monkeypatch):
        """Regression: a pipelined superstep whose chunks never all
        arrive raised a bare ``RuntimeError`` — a traceback from
        ``psgl count``, an untyped failure in the service."""
        monkeypatch.setattr(executor, "DRAIN_JOIN_SECONDS", 0.05)
        before = leftovers()
        drain = executor._ChunkDrain(queue.Queue(), lambda *chunk: None)
        with pytest.raises(EngineError, match="lost chunks: received 0 of 1"):
            drain.finish(1, superstep=3)
        assert leftovers() == before

    @pytest.mark.parametrize("schedule", [STEAL, PIPELINED], ids=["steal", "pipelined"])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_compute_failure_mid_superstep(self, monkeypatch, backend, schedule):
        expected = reference()  # computed before anything is patched
        real_expand = PSgLProgram.expand_task

        def exploding(self, columns, edge_index=None):
            # Victims are picked from the rows' own destination vertices.
            dest = columns.mapping[range(columns.n), columns.next_vertex]
            if (dest % 5 == 0).any():
                raise ValueError("injected mid-superstep failure")
            return real_expand(self, columns, edge_index)

        # Patched before the pool forks, so children inherit it.
        monkeypatch.setattr(PSgLProgram, "expand_task", exploding)
        before = leftovers()
        with pytest.raises(ValueError, match="injected mid-superstep failure"):
            assert_equivalent(
                ExecutionConfig(backend=backend, procs=2, **schedule), expected
            )
        assert leftovers() == before
