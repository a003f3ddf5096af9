"""The one superstep schedule: structure, conformance, faults.

``SuperstepExecutor.run_superstep`` is the runtime's only execution loop;
a backend is a pool plus one submit hook.  This file pins that shape
(so a second loop cannot quietly grow back in a backend), proves a
backend written against the hooks alone inherits the static and the
work-stealing schedule bit-identically, and checks that a failure — at
set-up or mid-superstep, under either schedule — propagates as itself
and leaves no thread, child process, ``/dev/shm`` block or spill
directory behind.

Every outbox crosses the barrier whole: the pipelined schedule that
streamed chunks mid-compute is retired.  Its legs keep their ids: a
``pipelined`` fault leg now runs what its sibling leg does not (the
static schedule beside ``steal``; on spawn, every chunk spilled beside
none), and its conformance test pins that the retired schedule is
refused.

"""

import multiprocessing
import os
import pickle
import re
import signal
import threading
from functools import lru_cache
from pathlib import Path

import pytest

import repro
from repro.bsp import BSPEngine, ChunkedColumnarStore, ExecutionConfig
from repro.bsp.aggregate import AggregatorRegistry
from repro.core import PSgL, listing
from repro.core.listing import PSgLProgram
from repro.exceptions import EngineError
from repro.graph import hash_partition
from repro.graph.generators import erdos_renyi
from repro.obs import Tracer
from repro.runtime import process
from repro.runtime import (
    ProcessExecutor,
    SerialExecutor,
    SuperstepExecutor,
    ThreadExecutor,
    run_inline,
    run_replica_batch,
)
from repro.runtime.executor import JobSpec

from .parity import assert_equivalent, assert_outboxes_cross_whole, reference_run
from .programs import PerVertex

SRC = Path(repro.__file__).resolve().parent
GRAPH = erdos_renyi(40, 0.25, seed=7)

STEAL = dict(steal=True, steal_tasks=8)


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
        text = schedule.read_text()
        assert len(calls.findall(text)) == 2
        # No drain: the runtime starts no thread of its own.
        for path in sorted((SRC / "runtime").rglob("*.py")):
            assert "threading.Thread(" not in path.read_text(), path

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
        """The retired schedule: no backend can be asked for it, and the
        one a third-party backend inherits ships every outbox whole,
        with nothing of its own to set up."""
        config = ExecutionConfig(backend=InlineReplicas())
        with pytest.raises(EngineError, match="ships each outbox whole"):
            config.with_overrides(shuffle="pipelined")
        tracer = Tracer()
        result = assert_equivalent(config, reference(), trace=tracer)
        assert_outboxes_cross_whole(tracer, result)

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


class Explodes(PerVertex):
    """Raises in superstep 1 on a fifth of the vertices; module-level,
    so a spawned child can unpickle it."""

    def visit(self, ctx, vertex, payloads):
        if ctx.superstep == 1 and vertex % 5 == 0:
            raise ValueError("injected mid-superstep failure")
        return vertex if ctx.superstep < 2 else None


class Unpicklable(PerVertex):
    """Runs anywhere but in a pool: replicas are made by pickling."""

    torn_down = False

    def __init__(self):
        self.hook = lambda: None

    def visit(self, ctx, vertex, payloads):
        return None

    def post_application(self):
        self.torn_down = True


class LaneKiller(PSgLProgram):
    """SIGKILLs the child lane it runs on inside ``compute_columns`` at
    superstep 1 — never the driver lane; module-level, so a spawned child
    can unpickle it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.driver_pid = os.getpid()

    def compute_columns(self, ctx, columns):
        if ctx.superstep == 1 and os.getpid() != self.driver_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().compute_columns(ctx, columns)


def children():
    """This process's children, reaped or not, as ``/proc`` lists them —
    bar the resource tracker, which spawn starts once per process."""
    from multiprocessing import resource_tracker

    me, found = os.getpid(), set()
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.add(int(entry))
    return found - {resource_tracker._resource_tracker._pid}


class TestFaults:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs Linux /proc"
    )
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_killed_lane_is_a_typed_error(self, monkeypatch, method):
        """Regression: a process-backend child that died mid-superstep
        surfaced as the pool's untyped ``BrokenProcessPool`` — a
        traceback from ``psgl count`` instead of exit code 5.  Now the
        lane's death is an ``EngineError`` naming it, raised after it was
        reaped, leaving no child, fd or ``psm_*`` block behind; the next
        run on the same driver succeeds."""
        if method == "spawn":
            # Started once per process, with a pipe of its own: not a leak.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        expected = reference()
        driver = PSgL(
            GRAPH,
            num_workers=4,
            backend=ProcessExecutor(procs=2, start_method=method),
        )
        pattern = expected.result.pattern
        before = leftovers(), os.listdir("/proc/self/fd"), children()
        monkeypatch.setattr(listing, "PSgLProgram", LaneKiller)
        with pytest.raises(EngineError, match="was killed by SIGKILL") as died:
            driver.run(pattern)
        pid = int(re.search(r"process lane (\d+)", str(died.value)).group(1))
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
        assert (leftovers(), os.listdir("/proc/self/fd"), children()) == before
        monkeypatch.undo()
        assert driver.count(pattern) == expected.result.count

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

    def test_failed_start_is_torn_down_under_spawn(self, tmp_path):
        """The same fault on a spawn pool, whose set-up differs from
        fork's: spawn is the start method that exports to ``/dev/shm``."""
        before = leftovers()
        engine = BSPEngine(
            GRAPH,
            hash_partition(GRAPH.num_vertices, 4),
            backend=ProcessExecutor(procs=2, start_method="spawn"),
            spill_dir=str(tmp_path),
            memory_watermark_bytes=1,
        )
        with pytest.raises(EngineError, match="Unpicklable"):
            engine.run(Unpicklable())
        assert leftovers() == before
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("storage", ["static", "pipelined"])
    def test_compute_failure_mid_superstep_under_spawn(self, storage, tmp_path):
        """A child failure on a spawn pool unlinks the exported blocks,
        although the raised exception (and its traceback) is still
        alive.  The ``pipelined`` id, whose chunk queue is retired, runs
        with every chunk spilled, so no spill file outlives it either.
        The failing program reaches the children by pickle: a patch in
        the driver does not reach a spawned interpreter."""
        spill = {}
        if storage == "pipelined":
            spill = dict(spill_dir=str(tmp_path), memory_watermark_bytes=1)
        before = leftovers()
        engine = BSPEngine(
            GRAPH,
            hash_partition(GRAPH.num_vertices, 4),
            backend=ProcessExecutor(procs=2, start_method="spawn"),
            **spill,
        )
        with pytest.raises(ValueError, match="injected mid-superstep failure"):
            engine.run(Explodes())
        assert leftovers() == before
        assert list(tmp_path.iterdir()) == []

    def test_lost_chunk_is_a_typed_error(self, monkeypatch):
        """A worker's outbox lost on its way into the barrier store is an
        ``EngineError`` from the barrier's exact accounting — never a
        wrong count — and the lanes are torn down as after any fault."""
        merge = ChunkedColumnarStore.merge_chunk

        def losing(store, sender, seq, columns):
            if sender != 1:
                merge(store, sender, seq, columns)

        monkeypatch.setattr(ChunkedColumnarStore, "merge_chunk", losing)
        before = leftovers()
        with pytest.raises(EngineError, match="accounting broke at superstep 0"):
            PSgL(GRAPH, num_workers=4, backend="process", procs=2).count(
                reference().result.pattern
            )
        assert leftovers() == before

    @pytest.mark.parametrize("schedule", [STEAL, {}], ids=["steal", "pipelined"])
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


# ----------------------------------------------------------------------
# Process lanes: placement and dealing
# ----------------------------------------------------------------------
def started(method):
    """A two-lane process executor, started for a four-owner job."""
    backend = ProcessExecutor(procs=2, start_method=method)
    backend.start(
        JobSpec(
            program=PerVertex(),
            graph=GRAPH,
            partition=hash_partition(GRAPH.num_vertices, 4),
            num_workers=4,
        )
    )
    return backend


def touch(spec, program, path, fail):
    """A unit that leaves ``path`` behind, then raises if ``fail``;
    module-level, so a spawned child can unpickle it."""
    Path(path).touch()
    if fail:
        raise ValueError(f"{Path(path).name} failed")
    return os.getpid()


def kill_lane(spec, program, driver):
    """A unit that SIGKILLs the child lane it runs on, never the driver."""
    if os.getpid() != driver:
        os.kill(os.getpid(), signal.SIGKILL)
    return os.getpid()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs Linux /proc")
class TestDealing:
    @pytest.mark.skipif(
        len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
        reason="needs two CPUs",
    )
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_a_child_lane_starts_off_the_drivers_cpu(self, monkeypatch, method):
        """Placement: a started child may run on every CPU the driver
        thread may, bar the one the driver was on; the driver's own mask
        is left alone."""
        allowed = os.sched_getaffinity(0)
        seen = []
        real_cpu_now = process._cpu_now

        def cpu_now():
            seen.append(real_cpu_now())
            return seen[-1]

        monkeypatch.setattr(process, "_cpu_now", cpu_now)
        backend = started(method)
        try:
            (child,) = backend._lanes.children
            assert seen and seen[-1] in allowed
            assert os.sched_getaffinity(child.pid) == allowed - {seen[-1]}
            assert os.sched_getaffinity(0) == allowed
        finally:
            backend.close()

    def test_one_frame_per_child_per_superstep(self, monkeypatch):
        """With two lanes and four owners the driver writes its child
        exactly one frame in every superstep with a unit to deal it."""
        writes = []
        real_write = process._write_frame

        def counted_write(fd, data):
            writes.append(fd)
            real_write(fd, data)

        monkeypatch.setattr(process, "_write_frame", counted_write)
        tracer = Tracer()
        assert_equivalent(
            ExecutionConfig(backend="process", procs=2), reference(), trace=tracer
        )
        dealt = [e for e in tracer.by_kind("superstep") if e.data["batches"] >= 2]
        assert len(writes) == len(dealt) > 1

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_a_failed_unit_ends_its_lanes_share(self, tmp_path, method):
        """Units 1 and 3 of four are the child's share: unit 1 raises as
        itself, unit 3 fails typed as not run and never runs."""
        backend = started(method)
        try:
            marks = [tmp_path / f"unit{i}" for i in range(4)]
            handles = [
                backend._submit(i, touch, str(mark), i == 1)
                for i, mark in enumerate(marks)
            ]
            with pytest.raises(ValueError, match="unit1 failed"):
                handles[1].result()
            with pytest.raises(EngineError, match="not run"):
                handles[3].result()
            assert [h.result() for h in handles[::2]] == [os.getpid()] * 2
            assert [mark.exists() for mark in marks] == [True, True, True, False]
        finally:
            backend.close()

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_a_killed_lane_fails_its_whole_share(self, method):
        """A child SIGKILLed while it holds two units fails both with the
        typed lane-death error; nothing outlives ``close``."""
        if method == "spawn":
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        before = leftovers(), os.listdir("/proc/self/fd"), children()
        backend = started(method)
        try:
            handles = [backend._submit(i, kill_lane, os.getpid()) for i in range(4)]
            for handle in handles[1::2]:
                with pytest.raises(EngineError, match="was killed by SIGKILL"):
                    handle.result()
            assert [h.result() for h in handles[::2]] == [os.getpid()] * 2
        finally:
            backend.close()
        assert (leftovers(), os.listdir("/proc/self/fd"), children()) == before
