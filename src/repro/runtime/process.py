"""The process backend: real parallelism over a shared-memory graph.

Topology
--------
* The driver exports the data graph once as CSR arrays in
  ``multiprocessing.shared_memory`` (:mod:`repro.runtime.shared_graph`).
* A persistent pool of OS processes attaches at initialisation: each
  child maps the blocks, rebuilds a zero-copy :class:`Graph`, unpickles
  **one** program replica (the pickle omits the graph; ``bind_shared``
  splices the shared one in) and keeps both for the whole job.
* Every superstep the schedule submits each non-empty logical worker's
  batch — active vertices, delivered payloads, the worker's private state
  dict and an aggregator snapshot — and receives the worker's outbox
  batch, ledger delta, outputs, aggregator contributions and program
  state delta.  The engine shuffles returned messages by destination
  worker at the barrier (merge in worker-id order keeps delivery order
  identical to the serial engine).

Logical workers are *location independent*: their private state rides
along with the batch, so any pool process can execute any worker in any
superstep and results stay deterministic.  Requirements on the program:
picklable sans graph, picklable messages/outputs/worker state, and the
state-delta hooks for driver-side mutable state.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import replace
from time import perf_counter
from typing import Any, Callable, Optional

from ..obs.tracer import NULL_TRACER
from .executor import JobSpec, SuperstepExecutor, pickle_program
from .shared_graph import (
    AttachedSharedGraph,
    SharedGraphExport,
    SharedGraphHandle,
    attach_shared_graph,
)

# Child-process state, set once by the pool initializer: the job's spec
# re-pointed at this process's program replica and attached graph, and
# the attachment itself, which owns the mappings the graph's arrays alias.
_child_spec: Optional[JobSpec] = None
_child_attached: Optional[AttachedSharedGraph] = None


def _init_child(
    handle: SharedGraphHandle, program_bytes: bytes, spec: JobSpec
) -> None:
    global _child_spec, _child_attached
    _child_attached = attach_shared_graph(handle)
    program = pickle.loads(program_bytes)
    program.bind_shared(_child_attached.graph, _child_attached.aux)
    _child_spec = replace(spec, program=program, graph=_child_attached.graph)


def _run_child(unit: Callable[..., Any], *args: Any) -> Any:
    """Run one unit on this process's replica.  A batch's state dict
    arrives as a copy and rides home on its result; a steal task ships
    back only its outcome and probe-counter deltas."""
    return unit(_child_spec, _child_spec.program, *args)


def default_procs(num_workers: int) -> int:
    """Pool width: one process per logical worker, capped by the machine."""
    return max(1, min(num_workers, os.cpu_count() or 1))


class ProcessExecutor(SuperstepExecutor):
    """Process-pool superstep executor over a shared-memory graph."""

    name = "process"

    def __init__(
        self,
        procs: Optional[int] = None,
        start_method: Optional[str] = None,
    ):
        self._procs = procs
        self._start_method = start_method
        self._pool: Optional[ProcessPoolExecutor] = None
        self._export: Optional[SharedGraphExport] = None

    def start(self, spec: JobSpec) -> None:
        setup_started = perf_counter()
        program_bytes = pickle_program(spec.program, self.name)
        method = self._start_method
        if method is None:
            # fork shares the warm interpreter (fast start); fall back to
            # spawn where fork is unavailable (e.g. Windows, macOS default).
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else "spawn"
        procs = self._procs or default_procs(spec.num_workers)
        mp_context = multiprocessing.get_context(method)
        if spec.config.shuffle == "pipelined":
            # One queue for the whole job, created from the pool's own
            # context so it survives spawn pickling.
            spec = replace(
                spec, chunk_queue=mp_context.Queue(maxsize=max(8, 2 * procs))
            )
        # From here on close() releases whatever the rest got to create.
        super().start(spec)
        # The program's precomputed per-vertex arrays (ranks, degree
        # statistics) ride along the CSR blocks: one copy per machine,
        # re-attached zero-copy by every pool process.
        self._export = SharedGraphExport(
            spec.graph, aux=spec.program.export_shared()
        )
        if spec.tracer.enabled:
            spec.tracer.emit(
                "export",
                total_bytes=self._export.nbytes(),
                **self._export.block_sizes(),
            )
        # What a child needs of the spec: partition, worker count, plane,
        # chunk watermarks and queue.  Program and graph reach it as the
        # replica bytes and the shared-memory handle; the tracer stays
        # here; and ``config.backend`` may be this very executor, which
        # must not ride into a spawned child.
        child_spec = replace(
            spec,
            program=None,
            graph=None,
            tracer=NULL_TRACER,
            config=replace(spec.config, backend=self.name),
        )
        self._pool = ProcessPoolExecutor(
            max_workers=procs,
            mp_context=mp_context,
            initializer=_init_child,
            initargs=(self._export.handle, program_bytes, child_spec),
        )
        if spec.tracer.enabled:
            spec.tracer.emit(
                "executor",
                wall_ms=(perf_counter() - setup_started) * 1000.0,
                backend=self.name,
                pool=procs,
                start_method=method,
            )

    def _submit(self, owner: int, unit: Callable[..., Any], *args: Any) -> Future:
        # Any pool process may run any owner's unit: the program and the
        # graph are resident in every child, and the unit's arguments —
        # packed columns, the state dict, the aggregator snapshot — are
        # all a logical worker is.
        return self._pool.submit(_run_child, unit, *args)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._spec is not None and self._spec.chunk_queue is not None:
            self._spec.chunk_queue.close()
        if self._export is not None:
            self._export.close()
            self._export = None
        super().close()
