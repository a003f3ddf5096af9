"""The process backend: real parallelism over one copy of the graph.

Lanes
-----
* ``procs=N`` computes on N *lanes*.  The driver is lane 0: it runs its
  share of units inline against its own program, exactly as the serial
  backend does.  Lanes 1 … N−1 are child processes the executor starts
  itself — ``os.fork`` by default, the ``multiprocessing`` spawn context
  where fork is missing or spawn is asked for — so ``procs=1`` starts
  none.
* A child shares one read-only data graph: a forked child inherits the
  driver's, a spawned one maps the driver's
  ``multiprocessing.shared_memory`` export
  (:mod:`repro.runtime.shared_graph`).  Each child unpickles **one**
  program replica (the pickle omits the graph; ``bind_shared`` splices
  the shared one in) for the whole job.
* Each child has one pipe pair carrying length-prefixed pickle frames:
  ``(unit, args)`` down, ``("ok", result)`` or ``("err", exception)``
  back.  A unit goes to the first idle child; while every child is busy
  it waits in a FIFO queue, which is the steal deque under
  ``steal=True``.  The driver takes a unit from that queue itself only
  after handing idle children theirs, and collects finished children
  between its own units.

Logical workers are *location independent*: a unit's arguments — the
packed batch, the worker's state dict, the aggregator snapshot — are all
a logical worker is, so any lane can execute any worker in any superstep
and results stay deterministic.  Requirements on the program: picklable
sans graph, picklable messages/outputs/worker state, and the state-delta
hooks for driver-side mutable state.

A child lane that dies — its pipe ends or stops short — fails the unit
it held with an :class:`~repro.exceptions.EngineError` naming its pid
and exit status, after it was reaped; the schedule then waits out the
other lanes and re-raises.  ``close`` closes every pipe end, then reaps
every child.
"""

from __future__ import annotations

import os
import pickle
import struct
from collections import deque
from dataclasses import replace
from select import select
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional

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
    if header is None:
        return None
    return _read_exact(fd, _HEADER.unpack(header)[0])


def _serve(down: int, up: int) -> None:
    """A child lane's loop: run every unit it is sent on this process's
    replica until the driver closes the pipe.  A batch's state dict
    arrives as a copy and rides home on its result; a steal task ships
    back only its outcome and probe-counter deltas."""
    while True:
        frame = _read_frame(down)
        if frame is None:
            return
        try:
            unit, args = pickle.loads(frame)
            reply = ("ok", unit(_child_spec, _child_spec.program, *args))
        except BaseException as exc:  # noqa: BLE001 - shipped to the driver
            reply = ("err", exc)
        try:
            data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - the driver raises it typed
            what = "result" if reply[0] == "ok" else repr(reply[1])
            data = pickle.dumps(
                ("err", f"process lane {os.getpid()}: {what} does not pickle: {exc}")
            )
        _write_frame(up, data)


def _forked_lane(down: int, up: int, close: List[int], init: tuple) -> int:
    """Fork one child lane.  The child closes every driver-side pipe end
    it inherited — its own and the earlier lanes' — or a lane would never
    see end of file when the driver closes it; it leaves through
    ``os._exit``, so nothing of the driver's is flushed or torn down."""
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        for fd in close:
            os.close(fd)
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


class _Unit:
    """One submitted unit: what the schedule holds instead of a future
    (``result()`` and ``cancel()``, nothing else)."""

    __slots__ = ("lanes", "call", "lane", "done", "ok", "value")

    def __init__(self, lanes: _Lanes, call: tuple):
        self.lanes = lanes
        self.call = call  # (unit, args)
        self.lane: Optional[_Lane] = None  # the child running it
        self.done = False
        self.ok = False
        self.value: Any = None

    def finish(self, ok: bool, value: Any) -> None:
        self.done, self.ok, self.value, self.call = True, ok, value, None

    def result(self) -> Any:
        if not self.done:
            self.lanes.wait(self)
        if self.ok:
            return self.value
        raise self.value

    def cancel(self) -> bool:
        if self.done or self.lane is not None:
            return False
        self.lanes.queue.remove(self)
        self.finish(False, EngineError("unit cancelled before it started"))
        return True


class _Lane:
    """One child lane: its pid, the driver's ends of its pipe pair, the
    unit it is running, and how to reap it."""

    __slots__ = ("pid", "down", "up", "process", "unit", "status")

    def __init__(self, pid: int, down: int, up: int, process: Any = None):
        self.pid = pid
        self.down = down  # driver → child, write end
        self.up = up  # child → driver, read end
        self.process = process  # the spawn context's Process, else None
        self.unit: Optional[_Unit] = None
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
    """The job's child lanes and the queue of units none has taken yet;
    ``run_here`` runs a ``(unit, args)`` call on the driver lane."""

    def __init__(self, run_here: Callable[..., Any]):
        self.children: List[_Lane] = []
        self.queue: Deque[_Unit] = deque()
        self._run_here = run_here

    def launch(self, init: tuple, spawn: Any = None) -> None:
        """Start one child lane: forked, or from the ``spawn`` context.
        The child binds ``init`` (``_init_child``'s arguments under fork,
        ``_attach_child``'s under spawn); the rest is the same protocol."""
        down_r, down_w = os.pipe()
        up_r, up_w = os.pipe()
        try:
            if spawn is None:
                inherited = [down_w, up_r]
                for lane in self.children:
                    inherited += (lane.down, lane.up)
                pid = _forked_lane(down_r, up_w, inherited, init)
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

    def submit(self, unit: Callable[..., Any], args: tuple) -> _Unit:
        handle = _Unit(self, (unit, args))
        self.queue.append(handle)
        self._dispatch()
        return handle

    def wait(self, handle: _Unit) -> None:
        """Compute until ``handle`` is done: hand idle children the
        queue's head, run the next unit here, collect whoever finished —
        and block on a child only when nothing is left to run."""
        while True:
            self._collect()
            if handle.done:
                return
            if self.queue:
                self._run(self.queue.popleft())
            else:
                self._receive(handle.lane)

    def _dispatch(self) -> None:
        for lane in self.children:
            if not self.queue:
                return
            if lane.unit is None and lane.status is None:
                handle = self.queue.popleft()
                try:
                    data = pickle.dumps(handle.call, pickle.HIGHEST_PROTOCOL)
                except Exception as exc:  # noqa: BLE001 - the unit's failure
                    handle.finish(False, exc)
                    continue
                try:
                    _write_frame(lane.down, data)
                except OSError:
                    handle.finish(False, lane.death())
                    continue
                handle.lane, lane.unit = lane, handle

    def _collect(self) -> None:
        busy = [lane.up for lane in self.children if lane.unit is not None]
        if busy:
            ready = set(select(busy, [], [], 0)[0])
            for lane in self.children:
                if lane.up in ready:
                    self._receive(lane)
        self._dispatch()

    def _receive(self, lane: _Lane) -> None:
        """Read ``lane``'s reply (blocking) into the unit it ran."""
        handle, lane.unit = lane.unit, None
        try:
            frame = _read_frame(lane.up)
        except BaseException:
            # Interrupted mid-frame: the pipe's framing is lost for good.
            import signal

            os.kill(lane.pid, signal.SIGKILL)
            handle.finish(False, lane.death())
            raise
        if frame is None:
            handle.finish(False, lane.death())
            return
        try:
            tag, value = pickle.loads(frame)
        except Exception as exc:  # noqa: BLE001 - e.g. an exception class
            tag, value = "err", f"process lane {lane.pid}: reply does not unpickle: {exc!r}"
        if tag == "err" and isinstance(value, str):
            value = EngineError(value)
        handle.finish(tag == "ok", value)
        self._dispatch()

    def _run(self, handle: _Unit) -> None:
        unit, args = handle.call
        try:
            handle.finish(True, self._run_here(unit, *args))
        except BaseException as exc:
            # The exception outlives the job; the frames it carries must
            # not keep the job's spec (and its chunk queue) alive.
            import traceback

            traceback.clear_frames(exc.__traceback__)
            handle.finish(False, exc)
            if not isinstance(exc, Exception):
                raise

    def close(self) -> None:
        """Close every pipe end — an idle child reads end of file and
        exits, a child still writing gets ``EPIPE`` — then reap them."""
        for lane in self.children:
            lane.close_pipes()
        for lane in self.children:
            lane.reap()
        self.children = []
        self.queue.clear()


class ProcessExecutor(SuperstepExecutor):
    """Process-lane superstep executor over one read-only graph."""

    name = "process"

    def __init__(
        self, procs: Optional[int] = None, start_method: Optional[str] = None
    ):
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
        procs = self._procs or default_procs(spec.num_workers)
        context = None
        pipelined = spec.config.shuffle == "pipelined"
        if pipelined or (method != "fork" and procs > 1):
            import multiprocessing

            context = multiprocessing.get_context(method)
        if pipelined:
            # One queue for the whole job, from the lanes' own context so
            # it survives spawn pickling; the driver lane puts on it too.
            spec = replace(
                spec, chunk_queue=context.Queue(maxsize=max(8, 2 * procs))
            )
        # From here on close() releases whatever the rest got to create.
        super().start(spec)
        # The driver lane computes on the driver's own program, as serial.
        self._lanes = lanes = _Lanes(
            lambda unit, *args: unit(self._spec, self._spec.program, *args)
        )
        if procs > 1:
            # The program's per-vertex arrays travel with the graph, one
            # copy per machine.  A forked child binds both as a thread
            # replica does: no shared-memory block, hence no tracker.
            arrays = spec.program.export_shared()
            if method == "fork":
                source = (spec.graph, arrays)
                sizes = (
                    _inherited_sizes(spec.graph, arrays)
                    if spec.tracer.enabled else None
                )
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
            # What a child needs of the spec: partition, worker count,
            # plane, chunk watermarks and queue.  Program and graph reach
            # it as the replica bytes and the graph or its handle; the
            # tracer stays here; and ``config.backend`` may be this very
            # executor, which must not ride into a spawned child.
            init = (
                *source,
                program_bytes,
                replace(
                    spec,
                    program=None,
                    graph=None,
                    tracer=NULL_TRACER,
                    config=replace(spec.config, backend=self.name),
                ),
            )
            spawn = None if method == "fork" else context
            for _ in range(procs - 1):
                lanes.launch(init, spawn)
        if spec.tracer.enabled:
            spec.tracer.emit(
                "executor",
                wall_ms=(perf_counter() - setup_started) * 1000.0,
                backend=self.name,
                pool=procs,
                start_method=method,
            )

    def _submit(self, owner: int, unit: Callable[..., Any], *args: Any) -> _Unit:
        # Any lane may run any owner's unit: the program and the graph
        # are resident in every child, and the unit's arguments — packed
        # columns, the state dict, the aggregator snapshot — are all a
        # logical worker is.
        return self._lanes.submit(unit, args)

    def close(self) -> None:
        if self._lanes is not None:
            self._lanes.close()
            self._lanes = None
        if self._spec is not None and self._spec.chunk_queue is not None:
            # The driver lane fed this queue too: join its feeder thread.
            self._spec.chunk_queue.close()
            self._spec.chunk_queue.join_thread()
        if self._export is not None:
            self._export.close()
            self._export = None
        super().close()
