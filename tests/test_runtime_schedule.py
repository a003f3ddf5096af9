"""The one superstep schedule: structure, conformance, faults.

``SuperstepExecutor.run_superstep`` is the runtime's only execution loop;
a backend is a pool plus one hook, ``_run(calls)``, and the two backends
are ``serial`` (the base executor itself) and the process lanes.  This
file pins that shape (so a second loop or a thread pool cannot quietly
grow back in a backend), proves a backend written against the hooks
alone inherits the schedule bit-identically, and checks that a failure
— at set-up or mid-superstep — propagates as itself and leaves no
thread, child process or ``/dev/shm`` block behind.

Every outbox crosses the barrier whole, and a superstep's units are
dealt to the lanes whole: the pipelined schedule that streamed chunks
mid-compute, the work-stealing schedule and the thread backend are
retired.  Their legs keep their ids where a behaviour is left to check:
each first pins that the retired name is refused, then runs what its
sibling leg does not (a ``thread`` fault leg runs serial beside
process, a ``pipelined`` one is traced beside an untraced one).  Lanes
start one way, by ``os.fork``: the ``[fork]`` legs keep the ids they had
beside the retired spawn legs.
"""

import dataclasses
import errno
import inspect
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
from repro.bsp import BSPEngine, ExecutionConfig
from repro.bsp import engine as engine_module
from repro.core import PSgL, listing
from repro.core.listing import PSgLProgram
from repro.exceptions import EngineError
from repro.graph import hash_partition
from repro.graph.generators import erdos_renyi
from repro.obs import Tracer
from repro.runtime import process
from repro.runtime import ProcessExecutor, SuperstepExecutor
from repro.runtime.executor import JobSpec

from .parity import assert_equivalent, assert_outboxes_cross_whole, reference_run
from .programs import PerVertex

SRC = Path(repro.__file__).resolve().parent
GRAPH = erdos_renyi(40, 0.25, seed=7)

#: The one start method, named in the ids of the legs that had a spawn
#: sibling.
FORK = pytest.mark.parametrize("method", ["fork"])


@lru_cache(maxsize=None)
def reference():
    return reference_run(GRAPH, "PG3")


# ----------------------------------------------------------------------
# Structure: the loops exist once
# ----------------------------------------------------------------------
class TestOneSchedule:
    def test_backends_do_not_override_the_schedule(self):
        for cls in (ProcessExecutor, InlineReplicas):
            assert "run_superstep" not in vars(cls), cls.__name__

    def test_drain_split_and_finalize_are_the_schedules_alone(self):
        """The schedule is one loop of whole units: no module splits a
        batch into steal tasks or finalizes an owner from them, and the
        runtime starts no thread of its own (no drain)."""
        calls = re.compile(r"\b(split_batch|finalize_owner|expand_steal_task)\b")
        for path in sorted(SRC.rglob("*.py")):
            assert not calls.search(path.read_text()), path
        for path in sorted((SRC / "runtime").rglob("*.py")):
            assert "threading.Thread(" not in path.read_text(), path

    def test_the_runtime_imports_no_thread_pool(self):
        """Process lanes are the one pool: no runtime module imports
        ``threading`` or ``concurrent.futures``."""
        imports = re.compile(
            r"^\s*(import|from)\s+(threading|concurrent)\b", re.MULTILINE
        )
        for path in sorted((SRC / "runtime").rglob("*.py")):
            assert not imports.search(path.read_text()), path

    def test_the_built_in_backends_are_serial_and_process(self):
        """The backend set is closed: the config field declares it, and
        the registry that kept it open is gone."""
        (backend,) = [
            spec for spec in dataclasses.fields(ExecutionConfig)
            if spec.name == "backend"
        ]
        assert backend.metadata["choices"] == ("serial", "process")
        for module in ("registry", "serial"):
            with pytest.raises(ModuleNotFoundError):
                __import__(f"repro.runtime.{module}")

    def test_one_worker_contract_in_src(self):
        gone = re.compile(
            r"inprocess|run_worker_batch|_submit|collect_delta|from_replicas|"
            r"pre_application|bind_graph|register_backend|make_executor|"
            r"available_backends|run_inline|SerialExecutor"
        )
        for path in sorted(SRC.rglob("*.py")):
            assert not gone.search(path.read_text()), path

    def test_one_start_method(self):
        """Lanes fork: nothing in ``src`` names the retired spawn
        transport or its machinery, ``ProcessExecutor`` takes only
        ``procs``, and the shared-memory export module is gone."""
        spawn = re.compile(r"multiprocessing|spawn|shared_memory")
        for path in sorted(SRC.rglob("*.py")):
            assert not spawn.search(path.read_text()), path
        assert list(inspect.signature(ProcessExecutor).parameters) == ["procs"]
        with pytest.raises(ModuleNotFoundError):
            import repro.runtime.shared_graph  # noqa: F401

    def test_backends_are_start_close_and_one_hook(self):
        allowed = {"__init__", "start", "close", "_run"}
        for cls in (ProcessExecutor, InlineReplicas):
            methods = {n for n, v in vars(cls).items() if callable(v)}
            assert methods <= allowed, (cls.__name__, methods - allowed)
            assert "_run" in methods, cls.__name__


# ----------------------------------------------------------------------
# Conformance: a backend is a pool and one hook
# ----------------------------------------------------------------------
class InlineReplicas(SuperstepExecutor):
    """A complete third-party backend: whole-program copies made by
    pickling, no pool at all."""

    name = "inline-replicas"

    def start(self, spec):
        super().start(spec)
        payload = pickle.dumps(spec.program)
        self._replicas = [pickle.loads(payload) for _ in range(spec.num_workers)]

    def _run(self, calls):
        # A call's first argument is its owner.
        return [
            ("ok", unit(self._spec, self._replicas[args[0]], *args))
            for unit, args in calls
        ]


class TestThirdPartyBackend:
    def test_static_schedule(self):
        assert_equivalent(ExecutionConfig(backend=InlineReplicas()), reference())

    def test_steal_schedule(self):
        """The retired work-stealing schedule: no backend can be asked
        for it, and the one a third-party backend inherits runs whole
        units: one per owner with work, per superstep, in owner order."""
        config = ExecutionConfig(backend=InlineReplicas())
        with pytest.raises(EngineError, match="work stealing is retired"):
            config.with_overrides(steal=True)
        backend = config.backend
        owners = []
        run = backend._run

        def counting(calls):
            step = [args[0] for _, args in calls]
            assert step == sorted(set(step))
            owners.extend(step)
            return run(calls)

        backend._run = counting
        result = assert_equivalent(config, reference())
        active = [
            sum(1 for calls in step.worker_compute_calls if calls)
            for step in result.ledger.steps
        ]
        assert len(owners) == sum(active)

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


class Quiet(PerVertex):
    """Visits every vertex once, sends nothing, records its teardown."""

    torn_down = False

    def visit(self, ctx, vertex, payloads):
        return None

    def post_application(self):
        self.torn_down = True


class Unpicklable(PerVertex):
    """Holds a lambda, so it does not pickle — and need not: a child
    lane's replica is the program it inherited at fork.  Pings its
    neighbours once and records what every vertex received in its
    state delta."""

    def __init__(self):
        self.hook = lambda: None
        self.received = []

    def visit(self, ctx, vertex, payloads):
        self.received.append((ctx.superstep, vertex, sorted(payloads)))
        return vertex if ctx.superstep == 0 else None

    def collect_state_delta(self):
        delta, self.received = self.received, []
        return delta

    def merge_state_delta(self, delta):
        self.received.extend(delta)


class LaneKiller(PSgLProgram):
    """SIGKILLs the child lane it runs on inside ``compute_columns`` at
    superstep 1 — never the driver lane."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.driver_pid = os.getpid()

    def compute_columns(self, ctx, columns):
        if ctx.superstep == 1 and os.getpid() != self.driver_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().compute_columns(ctx, columns)


class TwoArgError(Exception):
    """Pickles with its one ``Exception`` argument, so unpickling calls
    ``TwoArgError(a)``, which raises ``TypeError``."""

    def __init__(self, a, b):
        super().__init__(a)


class ChildFault(PerVertex):
    """Pings its neighbours at superstep 0; at superstep 1, on a child
    lane only, makes the lane's reply fail its codec: it puts a lambda in
    its state delta (``"pickle"``: the reply does not pickle) or raises a
    :class:`TwoArgError` (``"unpickle"``: it does not unpickle)."""

    def __init__(self, fault):
        self.fault = fault
        self.driver_pid = os.getpid()
        self.delta = None

    def visit(self, ctx, vertex, payloads):
        if ctx.superstep == 0:
            return vertex
        if os.getpid() != self.driver_pid:
            if self.fault == "pickle":
                self.delta = lambda: None
            else:
                raise TwoArgError("a", "b")
        return None

    def collect_state_delta(self):
        delta, self.delta = self.delta, None
        return delta


def children():
    """This process's children, reaped or not, as ``/proc`` lists them."""
    me, found = os.getpid(), set()
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.add(int(entry))
    return found


class TestFaults:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs Linux /proc"
    )
    @FORK
    def test_killed_lane_is_a_typed_error(self, monkeypatch, method):
        """Regression: a process-backend child that died mid-superstep
        surfaced as the pool's untyped ``BrokenProcessPool`` — a
        traceback from ``psgl count`` instead of exit code 5.  Now the
        lane's death is an ``EngineError`` naming it, raised after it was
        reaped, leaving no child, fd or ``psm_*`` block behind; the next
        run on the same driver succeeds."""
        expected = reference()
        driver = PSgL(GRAPH, num_workers=4, backend=ProcessExecutor(procs=2))
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

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs Linux /proc"
    )
    def test_failed_start_is_torn_down_like_any_fault(self, monkeypatch):
        """Regression: a lane that could not start — ``os.fork`` failing
        with ``EAGAIN`` under a pid limit, ``os.pipe`` with ``EMFILE`` —
        escaped as a raw ``OSError``, which ``psgl count`` reports as a
        bad path (exit 4).  Now it is an ``EngineError`` naming the lane,
        and the lane that did start and every pipe end are torn down as
        after any other fault."""
        real_fork, forks = os.fork, []

        def second_fork_fails():
            forks.append(os.getpid())
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real_fork()

        before = leftovers(), os.listdir("/proc/self/fd"), children()
        tracer = Tracer()
        program = Quiet()
        engine = BSPEngine(
            GRAPH,
            hash_partition(GRAPH.num_vertices, 4),
            backend="process",
            procs=3,
            trace=tracer,
        )
        monkeypatch.setattr(os, "fork", second_fork_fails)
        with pytest.raises(EngineError, match="could not start process lane 2 of 3"):
            engine.run(program)
        monkeypatch.undo()
        assert len(forks) == 2
        assert (leftovers(), os.listdir("/proc/self/fd"), children()) == before
        assert program.torn_down
        assert tracer.by_kind("job")[-1].data["status"] == "EngineError"

    def test_an_unpicklable_program_runs_on_lanes(self):
        """Nothing pickles the program: one that holds a lambda counts on
        two process lanes what it counts serially."""
        partition = hash_partition(GRAPH.num_vertices, 4)
        runs = {}
        for backend in ("serial", "process"):
            program = Unpicklable()
            result = BSPEngine(GRAPH, partition, backend=backend, procs=2).run(
                program
            )
            runs[backend] = program.received, result.ledger.summary()
        assert len(runs["serial"][0]) == GRAPH.num_vertices * 2
        assert runs["process"] == runs["serial"]

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs Linux /proc"
    )
    @pytest.mark.parametrize(
        "fault,error",
        [
            ("pickle", r"process lane \d+: reply does not pickle: "),
            ("unpickle", r"process lane \d+: reply does not unpickle: TypeError\("),
        ],
        ids=["pickle", "unpickle"],
    )
    def test_a_reply_the_lane_codec_refuses_is_a_typed_error(self, fault, error):
        """A child lane's reply that does not pickle there, or does not
        unpickle on the driver, is an ``EngineError`` naming the lane,
        and leaves no child or descriptor behind."""
        before = leftovers(), os.listdir("/proc/self/fd"), children()
        engine = BSPEngine(
            GRAPH,
            hash_partition(GRAPH.num_vertices, 4),
            backend="process",
            procs=2,
        )
        with pytest.raises(EngineError, match=error):
            engine.run(ChildFault(fault))
        assert (leftovers(), os.listdir("/proc/self/fd"), children()) == before

    def test_lost_chunk_is_a_typed_error(self, monkeypatch):
        """A worker's outbox lost on its way through the barrier is an
        ``EngineError`` from the barrier's exact accounting — never a
        wrong count — and the lanes are torn down as after any fault."""
        real = engine_module.deliver

        def losing(outboxes, owner_of, num_workers):
            outboxes[1].clear()
            return real(outboxes, owner_of, num_workers)

        monkeypatch.setattr(engine_module, "deliver", losing)
        before = leftovers()
        with pytest.raises(EngineError, match="accounting broke at superstep 0"):
            PSgL(GRAPH, num_workers=4, backend="process", procs=2).count(
                reference().result.pattern
            )
        assert leftovers() == before

    @pytest.mark.parametrize("schedule", ["steal", "pipelined"])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_compute_failure_mid_superstep(self, monkeypatch, backend, schedule):
        """A unit that raises mid-superstep propagates as itself.  The
        retired names keep their legs: ``thread`` is refused, then runs
        serial, where the unit's own exception re-raises; ``steal`` is
        refused, then runs untraced, and ``pipelined`` runs traced, so
        the trace's ``job`` event records the failure."""
        expected = reference()  # computed before anything is patched
        real_compute = PSgLProgram.compute_columns

        def exploding(self, ctx, columns):
            # Victims are picked from the rows' own destination vertices.
            if (columns.destinations() % 5 == 0).any():
                raise ValueError("injected mid-superstep failure")
            return real_compute(self, ctx, columns)

        config = ExecutionConfig(procs=2)
        retired = {"thread": dict(backend="thread"), "steal": dict(steal=True)}
        for name in (backend, schedule):
            if name in retired:
                with pytest.raises(EngineError, match="one pool"):
                    config.with_overrides(**retired[name])
        config = config.with_overrides(
            backend="serial" if backend == "thread" else backend
        )
        tracer = Tracer() if schedule == "pipelined" else None
        # Patched before the lanes fork, so children inherit it.
        monkeypatch.setattr(PSgLProgram, "compute_columns", exploding)
        before = leftovers()
        with pytest.raises(
            ValueError, match="injected mid-superstep failure"
        ) as raised:
            assert_equivalent(config, expected, trace=tracer)
        assert leftovers() == before
        if tracer is not None:
            assert tracer.by_kind("job")[-1].data["status"] == "ValueError"
        if backend == "thread":
            # Serial keeps the failure's frames: it raised where it ran.
            tb = raised.value.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            assert tb.tb_frame.f_code.co_name == "exploding"
            assert "columns" in tb.tb_frame.f_locals


# ----------------------------------------------------------------------
# Process lanes: placement and dealing
# ----------------------------------------------------------------------
def started():
    """A two-lane process executor, started for a four-owner job."""
    backend = ProcessExecutor(procs=2)
    backend.start(
        JobSpec(
            program=PerVertex(),
            graph=GRAPH,
            num_workers=4,
        )
    )
    return backend


def touch(spec, program, path, fail):
    """A unit that leaves ``path`` behind, then raises if ``fail``."""
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
    @FORK
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
        backend = started()
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

    @FORK
    def test_a_failed_unit_ends_its_lanes_share(self, tmp_path, method):
        """Units 1 and 3 of four are the child's share: unit 1 raises as
        itself, unit 3 fails typed as not run and never runs."""
        backend = started()
        try:
            marks = [tmp_path / f"unit{i}" for i in range(4)]
            replies = backend._run(
                [(touch, (str(mark), i == 1)) for i, mark in enumerate(marks)]
            )
            assert [tag for tag, _ in replies] == ["ok", "err", "ok", "err"]
            assert isinstance(replies[1][1], ValueError)
            assert str(replies[1][1]) == "unit1 failed"
            assert isinstance(replies[3][1], EngineError)
            assert "not run" in str(replies[3][1])
            assert [value for _, value in replies[::2]] == [os.getpid()] * 2
            assert [mark.exists() for mark in marks] == [True, True, True, False]
        finally:
            backend.close()

    @FORK
    def test_a_killed_lane_fails_its_whole_share(self, method):
        """A child SIGKILLed while it holds two units fails both with the
        typed lane-death error; nothing outlives ``close``."""
        before = leftovers(), os.listdir("/proc/self/fd"), children()
        backend = started()
        try:
            replies = backend._run([(kill_lane, (os.getpid(),))] * 4)
            for tag, value in replies[1::2]:
                assert tag == "err" and isinstance(value, EngineError)
                assert "was killed by SIGKILL" in str(value)
            assert replies[::2] == [("ok", os.getpid())] * 2
        finally:
            backend.close()
        assert (leftovers(), os.listdir("/proc/self/fd"), children()) == before
