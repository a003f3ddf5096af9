"""The process backend: real parallelism over one copy of the graph.

Lanes
-----
* ``procs=N`` computes on N *lanes* (at most one per logical worker).
  The driver is lane 0: it runs its share of units inline against its
  own program, exactly as the serial backend does.  Lanes 1 … N−1 are
  child processes the executor starts itself — ``os.fork`` by default,
  the ``multiprocessing`` spawn context where fork is missing or spawn
  is asked for — so ``procs=1`` starts none.
* A child shares one read-only data graph: a forked child inherits the
  driver's, a spawned one maps its ``multiprocessing.shared_memory``
  export (:mod:`repro.runtime.shared_graph`).  Each child unpickles
  **one** program replica (the pickle omits the graph; ``bind_shared``
  splices the shared one in) for the whole job.
* *Placement*: a child starts on the CPUs the driver thread may use,
  minus the one the driver is on.  The driver's own mask is never touched.
* *Dealing*: at a superstep's first ``result()`` the queued units are
  dealt round-robin in submission order, unit ``i`` to lane ``i % N``.
  Each child gets its whole share as one length-prefixed pickle frame on
  its pipe pair and answers with one; the driver runs its share between.

Logical workers are *location independent*: a unit's arguments — the
packed batch, the worker's state dict, the aggregator snapshot — are all
a logical worker is, so any lane can execute any worker in any superstep
and results stay deterministic.  Requirements on the program: picklable
sans graph, picklable messages/outputs/worker state, and the state-delta
hooks for driver-side mutable state.

A child lane that dies — its pipe ends or stops short — fails every unit
of its share with an :class:`~repro.exceptions.EngineError` naming its
pid and exit status, after it was reaped; the schedule then waits out
the other lanes and re-raises.  ``close`` closes every pipe end, then
reaps every child.
"""

from __future__ import annotations

import os
import pickle
import struct
from dataclasses import replace
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..exceptions import EngineError
from ..obs.tracer import NULL_TRACER
from .executor import JobSpec, SuperstepExecutor, pickle_program

if TYPE_CHECKING:  # spawn's transport is imported only when used
    from ..graph.graph import Graph
    from .shared_graph import AttachedSharedGraph, SharedGraphExport, SharedGraphHandle

# Child-process state, set once when the lane starts: the job's spec
# re-pointed at this process's program replica and graph, and under
# spawn the attachment, which owns the mappings the graph's arrays alias.
_child_spec: Optional[JobSpec] = None
_child_attached: Optional[AttachedSharedGraph] = None

#: A frame's length prefix.
_HEADER = struct.Struct("<Q")

_NOT_RUN = "unit not run: an earlier unit of its lane's share failed"


def _init_child(
    graph: Graph, arrays: Dict[str, Any], program_bytes: bytes, spec: JobSpec
) -> None:
    global _child_spec
    program = pickle.loads(program_bytes)
    program.bind_shared(graph, arrays)
    _child_spec = replace(spec, program=program, graph=graph)


def _attach_child(
    handle: SharedGraphHandle, program_bytes: bytes, spec: JobSpec
) -> None:
    global _child_attached
    from .shared_graph import attach_shared_graph

    _child_attached = attach_shared_graph(handle)
    _init_child(_child_attached.graph, _child_attached.aux, program_bytes, spec)


def _write_frame(fd: int, data: bytes) -> None:
    for part in (_HEADER.pack(len(data)), data):
        view = memoryview(part)
        while view:
            view = view[os.write(fd, view):]


def _read_exact(fd: int, size: int) -> Optional[bytearray]:
    """``size`` bytes from ``fd``, or None if the pipe ends first."""
    buf = bytearray(size)
    view = memoryview(buf)
    got = 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if not n:
            return None
        got += n
    return buf


def _read_frame(fd: int) -> Optional[bytearray]:
    header = _read_exact(fd, _HEADER.size)
    return header and _read_exact(fd, _HEADER.unpack(header)[0])


def _run_share(calls: List[tuple], *head: Any) -> Tuple[float, List[tuple]]:
    """Run a lane's share of ``(unit, args)`` calls in order as ``unit(*head,
    *args)``, stopping after the first that raises: ``(busy_ms, replies)``,
    an ``("ok", result)`` or ``("err", exception)`` per unit run."""
    started = perf_counter()
    replies: List[tuple] = []
    for unit, args in calls:
        try:
            replies.append(("ok", unit(*head, *args)))
        except Exception as exc:  # noqa: BLE001 - the unit's failure
            replies.append(("err", exc))
            break
    return (perf_counter() - started) * 1000.0, replies


def _serve(down: int, up: int) -> None:
    """A child lane's loop: read a whole share, run it on this process's
    replica, answer with one frame — until the driver closes the pipe.  A
    batch's state dict arrives as a copy and rides home on its result; a
    steal task ships back only its outcome and probe-counter deltas."""
    while True:
        frame = _read_frame(down)
        if frame is None:
            return
        try:
            reply = _run_share(pickle.loads(frame), _child_spec, _child_spec.program)
        except Exception as exc:  # noqa: BLE001 - the share does not unpickle
            reply = (0.0, [("err", exc)])
        try:
            data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - the driver raises it typed
            error = f"process lane {os.getpid()}: reply does not pickle: {exc}"
            data = pickle.dumps((reply[0], [("err", error)]))
        _write_frame(up, data)


def _forked_lane(down: int, up: int, init: tuple) -> int:
    """Fork one child lane.  The child closes every descriptor it
    inherited but stdio and its own ``down``/``up``: a driver-side pipe
    end left open in any child — this job's earlier lanes', or those of a
    job running concurrently in the same process — would keep that lane
    from ever seeing end of file.  It leaves through ``os._exit``, so
    nothing of the driver's is flushed or torn down."""
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        lo, hi = sorted((down, up))
        os.closerange(3, lo)
        os.closerange(lo + 1, hi)
        os.closerange(hi + 1, os.sysconf("SC_OPEN_MAX"))
        _init_child(*init)
        _serve(down, up)
        code = 0
    except (BrokenPipeError, KeyboardInterrupt):
        pass  # the driver is going away; it reports why
    except BaseException:  # noqa: BLE001 - reported by the exit status
        import traceback

        traceback.print_exc()
    finally:
        os._exit(code)


def _spawned_lane(down: Any, up: Any, *init: Any) -> None:
    """A spawned child lane's target: ``down`` and ``up`` are the pipe
    ends, wrapped as ``multiprocessing`` connections only to cross the
    spawn launch."""
    _attach_child(*init)
    _serve(down.fileno(), up.fileno())


def default_procs(num_workers: int) -> int:
    """Lane count: one per logical worker, capped by the CPUs this
    process may run on (a cpuset or ``taskset`` narrows them)."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else (os.cpu_count() or 1)
    return max(1, min(num_workers, cpus))


def _inherited_sizes(graph: Graph, arrays: Dict[str, Any]) -> Dict[str, int]:
    """The ``export`` event's sizes under fork: those of the blocks a
    spawn export makes (``SharedGraphExport.block_sizes``)."""
    indptr, indices = graph.to_csr()
    sizes = {"indptr": max(indptr.nbytes, 1), "indices": max(indices.nbytes, 1)}
    if graph.mmap_spec is not None:
        sizes = {"mapped_file": indptr.nbytes + indices.nbytes}
    if arrays:
        sizes["aux"] = max(8 * sum(map(len, arrays.values())), 1)
    return sizes


def _cpu_now() -> int:
    """The calling thread's CPU: field 39 of ``/proc/thread-self/stat``."""
    with open("/proc/thread-self/stat", "rb") as stat:
        return int(stat.read().rsplit(b")", 1)[1].split()[36])


class _Unit:
    """A submitted unit: the schedule's handle (``result``, ``cancel``)."""

    __slots__ = ("lanes", "call", "reply")

    def __init__(self, lanes: _Lanes, call: tuple):
        self.lanes, self.call = lanes, call  # call: (unit, args)
        self.reply: Optional[tuple] = None  # ("ok", result) or ("err", exc)

    def result(self) -> Any:
        if self.reply is None:
            self.lanes.deal()
        tag, value = self.reply
        if tag == "ok":
            return value
        raise value

    def cancel(self) -> bool:
        """Withdraw the unit if it was not dealt yet."""
        if self.reply is not None:
            return False
        self.lanes.queue.remove(self)
        _settle([self], [], EngineError("unit cancelled before it was dealt"))
        return True


def _settle(share: List[_Unit], replies: List[tuple], rest: Any = None) -> None:
    """Finish a lane's dealt ``share`` from its ``replies``, one per unit
    it ran in order; every unit past them fails with ``rest`` or as not run."""
    for i, unit in enumerate(share):
        tag, value = replies[i] if i < len(replies) else ("err", rest or _NOT_RUN)
        if tag == "err" and isinstance(value, str):
            value = EngineError(value)
        elif tag == "err":
            # It outlives the job: its frames must not keep the spec alive.
            import traceback

            traceback.clear_frames(value.__traceback__)
        unit.reply, unit.call = (tag, value), None


class _Lane:
    """One child lane: its pid, the driver's pipe ends, how to reap it."""

    __slots__ = ("pid", "down", "up", "process", "status")

    def __init__(self, pid: int, down: int, up: int, process: Any = None):
        self.pid = pid
        self.down = down  # driver → child, write end
        self.up = up  # child → driver, read end
        self.process = process  # the spawn context's Process, else None
        self.status: Optional[int] = None  # exit status once reaped

    def close_pipes(self) -> None:
        for fd in (self.down, self.up):
            if fd >= 0:
                os.close(fd)
        self.down = self.up = -1

    def reap(self) -> int:
        if self.status is None:
            if self.process is not None:
                self.process.join()
                self.status = self.process.exitcode
                self.process.close()  # its sentinel fd
            else:
                self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.status

    def death(self) -> EngineError:
        """Close and reap a lane whose pipe failed; say how it ended."""
        self.close_pipes()
        status = self.reap()
        if status < 0:
            import signal

            how = f"was killed by {signal.Signals(-status).name}"
        else:
            how = f"exited with status {status}"
        return EngineError(f"process lane {self.pid} {how} mid-superstep")


class _Lanes:
    """The job's child lanes and the units submitted since the last deal;
    the driver lane runs its share as ``unit(*here, *args)``."""

    def __init__(self, here: tuple):
        self.here = here
        self.children: List[_Lane] = []
        self.queue: List[_Unit] = []
        self.busy_ms: List[float] = []  # the last deal's, driver first

    def launch(self, init: tuple, spawn: Any = None) -> None:
        """Start one child lane: forked, or from the ``spawn`` context.
        The child binds ``init`` (``_init_child``'s arguments under fork,
        ``_attach_child``'s under spawn); the rest is the same protocol."""
        down_r, down_w = os.pipe()
        up_r, up_w = os.pipe()
        try:
            if spawn is None:
                pid = _forked_lane(down_r, up_w, init)
                lane = _Lane(pid, down_w, up_r)
            else:
                from multiprocessing.connection import Connection

                ends = (
                    Connection(os.dup(down_r), writable=False),
                    Connection(os.dup(up_w), readable=False),
                )
                process = spawn.Process(target=_spawned_lane, args=(*ends, *init))
                try:
                    process.start()
                finally:
                    for end in ends:
                        end.close()
                lane = _Lane(process.pid, down_w, up_r, process)
        except BaseException:
            os.close(down_w)
            os.close(up_r)
            raise
        finally:
            os.close(down_r)
            os.close(up_w)
        self.children.append(lane)
        try:  # placement, where the platform can say where the driver is
            away = os.sched_getaffinity(0) - {_cpu_now()}
            if away:
                os.sched_setaffinity(lane.pid, away)
        except (AttributeError, OSError, ValueError, IndexError):
            pass

    def submit(self, unit: Callable[..., Any], args: tuple) -> _Unit:
        handle = _Unit(self, (unit, args))
        self.queue.append(handle)
        return handle

    def deal(self) -> None:
        """Run every queued unit: deal them round-robin, write each child
        its share as one frame, run the driver's share here, then read
        each child's one reply.  A child reads its whole frame before it
        computes and the driver reads only after it computed, so the
        pipes cannot deadlock.  Every dealt unit has its reply when this
        returns or raises."""
        units, self.queue = self.queue, []
        width = 1 + len(self.children)
        self.busy_ms = busy = [0.0] * width
        sent = []
        try:
            for i, lane in enumerate(self.children, 1):
                if self._send(lane, units[i::width]):
                    sent.append((i, lane))
            mine = units[::width]
            busy[0], replies = _run_share([u.call for u in mine], *self.here)
            _settle(mine, replies)
        finally:
            try:
                for i, lane in sent:
                    busy[i] = self._receive(lane, units[i::width])
            finally:
                _settle([u for u in units if u.reply is None], [])

    @staticmethod
    def _send(lane: _Lane, share: List[_Unit]) -> bool:
        """Write ``share`` to ``lane`` as one frame; whether it went."""
        if not share:
            return False
        try:
            data = pickle.dumps([u.call for u in share], pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - the share's failure
            _settle(share, [("err", exc)])
            return False
        try:
            _write_frame(lane.down, data)
        except OSError:
            _settle(share, [], lane.death())
            return False
        return True

    @staticmethod
    def _receive(lane: _Lane, share: List[_Unit]) -> float:
        """Read ``lane``'s one reply into the ``share`` it ran; its busy ms."""
        try:
            frame = _read_frame(lane.up)
        except BaseException:
            # Interrupted mid-frame: the pipe's framing is lost for good.
            import signal

            os.kill(lane.pid, signal.SIGKILL)
            _settle(share, [], lane.death())
            raise
        if frame is None:
            _settle(share, [], lane.death())
            return 0.0
        try:
            busy, replies = pickle.loads(frame)
        except Exception as exc:  # noqa: BLE001 - e.g. an exception class
            error = f"process lane {lane.pid}: reply does not unpickle: {exc!r}"
            busy, replies = 0.0, [("err", error)]
        _settle(share, replies)
        return busy

    def close(self) -> None:
        """Close every pipe end — an idle child reads end of file and
        exits, a child still writing gets ``EPIPE`` — then reap them."""
        for lane in self.children:
            lane.close_pipes()
        for lane in self.children:
            lane.reap()
        # A raised unit's traceback may outlive the job, and keep this.
        self.children, self.queue, self.here = [], [], ()


class ProcessExecutor(SuperstepExecutor):
    """Process-lane superstep executor over one read-only graph."""

    name = "process"

    def __init__(self, procs: Optional[int] = None, start_method: Optional[str] = None):
        self._procs = procs
        self._start_method = start_method
        self._lanes: Optional[_Lanes] = None
        self._export: Optional[SharedGraphExport] = None

    def start(self, spec: JobSpec) -> None:
        setup_started = perf_counter()
        program_bytes = pickle_program(spec.program, self.name)
        # fork shares the warm interpreter (fast start); spawn where it is
        # asked for or fork is missing.  Lanes are POSIX pipes either way.
        method = self._start_method or ("fork" if hasattr(os, "fork") else "spawn")
        # A lane past one per logical worker would never be dealt a unit.
        procs = min(self._procs or default_procs(spec.num_workers), spec.num_workers)
        # From here on close() releases whatever the rest got to create.
        super().start(spec)
        # The driver lane computes on the driver's own program, as serial.
        self._lanes = lanes = _Lanes((self._spec, self._spec.program))
        if procs > 1:
            # The program's per-vertex arrays travel with the graph, one
            # copy per machine.  A forked child binds both as a thread
            # replica does: no shared-memory block, hence no tracker.
            arrays = spec.program.export_shared()
            if method == "fork":
                source = (spec.graph, arrays)
                sizes = spec.tracer.enabled and _inherited_sizes(spec.graph, arrays)
            else:
                from .shared_graph import SharedGraphExport

                self._export = SharedGraphExport(spec.graph, aux=arrays)
                source = (self._export.handle,)
                sizes = self._export.block_sizes()
            if spec.tracer.enabled:
                spec.tracer.emit(
                    "export", transport="fork" if method == "fork" else "shm",
                    total_bytes=sum(sizes.values()), **sizes,
                )
            # A child needs of the spec its partition, worker count and
            # config; program and graph reach it apart, the tracer stays
            # here, and ``config.backend`` may be this very executor, which
            # must not ride into a spawned child.
            child_spec = replace(
                spec, program=None, graph=None, tracer=NULL_TRACER,
                config=replace(spec.config, backend=self.name),
            )
            init = (*source, program_bytes, child_spec)
            spawn = None
            if method != "fork":
                import multiprocessing  # spawn lanes only

                spawn = multiprocessing.get_context(method)
            for _ in range(procs - 1):
                lanes.launch(init, spawn)
        if spec.tracer.enabled:
            spec.tracer.emit(
                "executor", wall_ms=(perf_counter() - setup_started) * 1000.0,
                backend=self.name, pool=procs, start_method=method,
            )

    def _submit(self, owner: int, unit: Callable[..., Any], *args: Any) -> _Unit:
        # Any lane may run any owner's unit: the program and the graph
        # are resident in every child, and the unit's arguments — packed
        # columns, the state dict, the aggregator snapshot — are all a
        # logical worker is.
        return self._lanes.submit(unit, args)

    @property
    def lane_busy_ms(self) -> Optional[List[float]]:
        return self._lanes.busy_ms if self._lanes is not None else None

    def close(self) -> None:
        if self._lanes is not None:
            self._lanes.close()
            self._lanes = None
        if self._export is not None:
            self._export.close()
            self._export = None
        super().close()
