"""The process backend: real parallelism over one copy of the graph.

Lanes
-----
* ``procs=N`` computes on N *lanes* (at most one per logical worker).
  The driver is lane 0: it runs its share of units inline against its
  own program, exactly as the serial backend does.  Lanes 1 … N−1 are
  child processes the executor forks itself (``os.fork``), so
  ``procs=1`` starts none.
* A child's program replica is the driver's program as the child
  inherited it at fork — graph, order arrays and edge index included:
  one read-only copy of the graph per machine, and nothing pickled,
  unpickled or rebound at start.
* *Placement*: a child starts on the CPUs the driver thread may use,
  minus the one the driver is on.  The driver's own mask is never touched.
* *Dealing*: a superstep's units are dealt round-robin in worker-id
  order, unit ``i`` to lane ``i % N``.  Each child gets its whole share
  as one length-prefixed pickle frame on its pipe pair and answers with
  one; the driver runs its share between.

Logical workers are *location independent*: a unit's arguments — the
packed batch and the worker's state dict — are all a logical worker
is, so any lane can execute any worker in any superstep and results
stay deterministic.  Requirements on the program: picklable worker
state and state deltas, and the state-delta hooks for driver-side
mutable state.

A lane that cannot start — ``os.pipe`` or ``os.fork`` fails — is an
:class:`~repro.exceptions.EngineError`; the lanes already started are
reaped by ``close``, which the engine calls on every exit path.  A child
lane that dies — its pipe ends or stops short — fails every unit of its
share with an :class:`~repro.exceptions.EngineError` naming its pid and
exit status, after it was reaped; the other lanes still answer before
the schedule raises.  ``close`` closes every pipe end, then reaps every
child.
"""

from __future__ import annotations

import os
import pickle
import struct
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..exceptions import EngineError
from .executor import JobSpec, SuperstepExecutor, _run_share

if TYPE_CHECKING:
    from ..graph.graph import Graph

#: A frame's length prefix.
_HEADER = struct.Struct("<Q")

_NOT_RUN = "unit not run: an earlier unit of its lane's share failed"


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


def _serve(down: int, up: int, spec: JobSpec) -> None:
    """A child lane's loop: read a whole share, run it on this process's
    replica, ``spec.program``, answer with one frame — until the driver
    closes the pipe.  A batch's state dict arrives as a copy and rides
    home on its result."""
    while True:
        frame = _read_frame(down)
        if frame is None:
            return
        try:
            reply = _run_share(pickle.loads(frame), spec, spec.program)
        except Exception as exc:  # noqa: BLE001 - the share does not unpickle
            reply = (0.0, [("err", exc)])
        try:
            data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - the driver raises it typed
            error = f"process lane {os.getpid()}: reply does not pickle: {exc}"
            data = pickle.dumps((reply[0], [("err", error)]))
        _write_frame(up, data)


def _forked_lane(down: int, up: int, spec: JobSpec) -> int:
    """Fork one child lane, which serves ``spec`` on the program it
    inherits.  The child closes every descriptor it inherited but stdio
    and its own ``down``/``up``: a driver-side pipe end left open in any
    child — this job's earlier lanes', or those of a job running
    concurrently in the same process — would keep that lane from ever
    seeing end of file.  It leaves through ``os._exit``, so
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
        _serve(down, up, spec)
        code = 0
    except (BrokenPipeError, KeyboardInterrupt):
        pass  # the driver is going away; it reports why
    except BaseException:  # noqa: BLE001 - reported by the exit status
        import traceback

        traceback.print_exc()
    finally:
        os._exit(code)


def default_procs(num_workers: int) -> int:
    """Lane count: one per logical worker, capped by the CPUs this
    process may run on (a cpuset or ``taskset`` narrows them)."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else (os.cpu_count() or 1)
    return max(1, min(num_workers, cpus))


def _export_sizes(graph: Graph, arrays: Dict[str, Any]) -> Dict[str, int]:
    """The ``export`` event's sizes: what every child lane shares with
    the driver — the CSR arrays (or, for a mapped graph, the file's
    bytes) and the program's ``export_shared`` arrays."""
    indptr, indices = graph.to_csr()
    sizes = {"indptr": max(indptr.nbytes, 1), "indices": max(indices.nbytes, 1)}
    if graph.mmap_spec is not None:
        sizes = {"mapped_file": indptr.nbytes + indices.nbytes}
    if arrays:
        sizes["aux"] = max(sum(array.nbytes for array in arrays.values()), 1)
    return sizes


def _cpu_now() -> int:
    """The calling thread's CPU: field 39 of ``/proc/thread-self/stat``."""
    with open("/proc/thread-self/stat", "rb") as stat:
        return int(stat.read().rsplit(b")", 1)[1].split()[36])


def _settle(replies: List[tuple], count: int, rest: Any = None) -> List[tuple]:
    """A lane's ``count`` replies, from the ``replies`` of the units it ran
    in order; every unit past them fails with ``rest`` or as not run."""
    settled = []
    for i in range(count):
        tag, value = replies[i] if i < len(replies) else ("err", rest or _NOT_RUN)
        if tag == "err" and isinstance(value, str):
            value = EngineError(value)
        elif tag == "err":
            # It outlives the job: its frames must not keep the spec alive.
            import traceback

            traceback.clear_frames(value.__traceback__)
        settled.append((tag, value))
    return settled


class _Lane:
    """One child lane: its pid, the driver's pipe ends, its exit status."""

    __slots__ = ("pid", "down", "up", "status")

    def __init__(self, pid: int, down: int, up: int):
        self.pid = pid
        self.down = down  # driver → child, write end
        self.up = up  # child → driver, read end
        self.status: Optional[int] = None  # exit status once reaped

    def close_pipes(self) -> None:
        for fd in (self.down, self.up):
            if fd >= 0:
                os.close(fd)
        self.down = self.up = -1

    def reap(self) -> int:
        if self.status is None:
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
    """The job's child lanes; the driver lane runs its share as
    ``unit(*here, *args)``."""

    def __init__(self, here: tuple):
        self.here = here
        self.children: List[_Lane] = []
        self.busy_ms: List[float] = []  # the last deal's, driver first

    def launch(self, spec: JobSpec, number: int, total: int) -> None:
        """Fork child lane ``number`` of ``total`` to serve ``spec``.  A
        pipe or fork that fails — ``EAGAIN`` under a pid limit, ``EMFILE``
        — is an ``EngineError`` and leaves no descriptor of this lane."""
        ends: List[int] = []
        try:
            ends += os.pipe()  # down: driver → child
            ends += os.pipe()  # up: child → driver
            pid = _forked_lane(ends[0], ends[3], spec)
        except BaseException as exc:
            for fd in ends:
                os.close(fd)
            if isinstance(exc, OSError):
                raise EngineError(
                    f"could not start process lane {number} of {total}: {exc}"
                ) from exc
            raise
        down_r, down_w, up_r, up_w = ends
        os.close(down_r)
        os.close(up_w)
        lane = _Lane(pid, down_w, up_r)
        self.children.append(lane)
        try:  # placement, where the platform can say where the driver is
            away = os.sched_getaffinity(0) - {_cpu_now()}
            if away:
                os.sched_setaffinity(lane.pid, away)
        except (AttributeError, OSError, ValueError, IndexError):
            pass

    def deal(self, calls: List[tuple]) -> List[tuple]:
        """Run ``calls``: deal them round-robin, write each child its share
        as one frame, run the driver's share here, then read each child's
        one reply.  A child reads its whole frame before it computes and
        the driver reads only after it computed, so the pipes cannot
        deadlock.  One reply per call, in call order."""
        width = 1 + len(self.children)
        self.busy_ms = busy = [0.0] * width
        replies: List[tuple] = [None] * len(calls)
        sent = []
        try:
            for i, lane in enumerate(self.children, 1):
                failed = self._send(lane, calls[i::width])
                if failed is None:
                    sent.append((i, lane))
                else:
                    replies[i::width] = failed
            busy[0], mine = _run_share(calls[::width], *self.here)
            replies[::width] = _settle(mine, len(replies[::width]))
        finally:
            for i, lane in sent:
                busy[i], replies[i::width] = self._receive(
                    lane, len(replies[i::width])
                )
        return replies

    @staticmethod
    def _send(lane: _Lane, share: List[tuple]) -> Optional[List[tuple]]:
        """Write ``share`` to ``lane`` as one frame: None if it went, else
        the share's replies."""
        if not share:
            return []
        try:
            data = pickle.dumps(share, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - the share's failure
            return _settle([("err", exc)], len(share))
        try:
            _write_frame(lane.down, data)
        except OSError:
            return _settle([], len(share), lane.death())
        return None

    @staticmethod
    def _receive(lane: _Lane, count: int) -> tuple:
        """Read ``lane``'s one reply to the ``count`` units it was dealt:
        its busy ms and their replies."""
        try:
            frame = _read_frame(lane.up)
        except BaseException:
            # Interrupted mid-frame: the pipe's framing is lost for good.
            import signal

            os.kill(lane.pid, signal.SIGKILL)
            lane.death()
            raise
        if frame is None:
            return 0.0, _settle([], count, lane.death())
        try:
            busy, replies = pickle.loads(frame)
        except Exception as exc:  # noqa: BLE001 - e.g. an exception class
            error = f"process lane {lane.pid}: reply does not unpickle: {exc!r}"
            busy, replies = 0.0, [("err", error)]
        return busy, _settle(replies, count)

    def close(self) -> None:
        """Close every pipe end — an idle child reads end of file and
        exits, a child still writing gets ``EPIPE`` — then reap them."""
        for lane in self.children:
            lane.close_pipes()
        for lane in self.children:
            lane.reap()
        # A raised unit's traceback may outlive the job, and keep this.
        self.children, self.here = [], ()


class ProcessExecutor(SuperstepExecutor):
    """Process-lane superstep executor over one read-only graph."""

    name = "process"

    def __init__(self, procs: Optional[int] = None):
        self._procs = procs
        self._lanes: Optional[_Lanes] = None

    def start(self, spec: JobSpec) -> None:
        setup_started = perf_counter()
        # A lane past one per logical worker would never be dealt a unit.
        procs = min(self._procs or default_procs(spec.num_workers), spec.num_workers)
        # Every lane, the driver's too, runs on a spec without the tracer,
        # which stays here for this backend's own events.  From here on
        # close() releases whatever the rest got to create.
        super().start(JobSpec(spec.program, spec.graph, spec.num_workers))
        # The driver lane computes on the driver's own program, as serial.
        self._lanes = lanes = _Lanes((self._spec, self._spec.program))
        if procs > 1:
            # The program's per-vertex arrays are built before the fork,
            # so every child inherits the driver's copy: one per machine.
            arrays = spec.program.export_shared()
            if spec.tracer.enabled:
                sizes = _export_sizes(spec.graph, arrays)
                spec.tracer.emit("export", total_bytes=sum(sizes.values()), **sizes)
            for lane in range(1, procs):
                lanes.launch(self._spec, lane, procs)
        if spec.tracer.enabled:
            spec.tracer.emit(
                "executor", wall_ms=(perf_counter() - setup_started) * 1000.0,
                backend=self.name, pool=procs,
            )

    def _run(self, calls: List[tuple]) -> List[tuple]:
        # Any lane may run any owner's unit: the program and the graph
        # are resident in every child, and the unit's arguments — packed
        # columns and the state dict — are all a logical worker is.
        return self._lanes.deal(calls)

    @property
    def lane_busy_ms(self) -> Optional[List[float]]:
        return self._lanes.busy_ms if self._lanes is not None else None

    def close(self) -> None:
        if self._lanes is not None:
            self._lanes.close()
            self._lanes = None
        super().close()
