"""Structured per-superstep tracing for the BSP engine.

The paper's evaluation is all *observability*: per-worker load bars
(Figure 5), intermediate-result counts per expanding pattern vertex
(Table 2), communication volume and superstep timelines (Section 6).
The :class:`~repro.bsp.metrics.CostLedger` answers those questions only
in aggregate at end of run; the tracer records the raw per-superstep
stream they are computed from, so a straggler or a lopsided distribution
strategy can be diagnosed without print-debugging.

Event stream
------------
A trace is an ordered list of :class:`TraceEvent` rows, each a ``kind``
plus optional ``superstep``/``worker`` coordinates, an optional wall-time
duration in milliseconds, and a free-form ``data`` dict.  The engine and
the runtime backends emit these kinds (schema ``repro.obs/v1``):

``job``
    One per :meth:`BSPEngine.run <repro.bsp.engine.BSPEngine.run>`:
    ``status`` (``"completed"`` or the exception class name),
    ``supersteps``, plus the job wall time.
``executor``
    Backend lifecycle: backend name and its setup parameters (pool
    width, start method, replica count) with the setup wall time.
``export``
    Shared-memory export sizes from the process backend: bytes per CSR
    block (``indptr``/``indices``/``aux``) and the total.  A graph
    loaded via ``load_mapped`` reports ``mapped_file`` instead of
    ``indptr``/``indices`` — workers re-map the ``.csrbin`` file and no
    CSR copy enters ``/dev/shm``.
``superstep``
    One per superstep: wall time of the executor's ``run_superstep``
    call, the active-vertex count, the number of non-empty batches, and
    ``build_ms`` (driver time spent building the per-worker batches —
    the pre-barrier half of the shuffle's critical path).
``worker``
    One per (superstep, logical worker with a non-empty batch): the
    ledger delta that worker produced — ``cost``, ``messages``,
    ``compute_calls``, ``outputs`` — identical on every backend because
    it is read from the merged :class:`WorkerStepResult` at the barrier,
    after process-backend children shipped their deltas home.
``barrier``
    One per superstep, *before* the memory-budget check (so OOM-aborted
    runs still record their fatal barrier): total live messages, the
    largest single worker's queue, the per-worker queue depths, and
    ``merge_ms`` (driver time merging worker results — the post-compute
    half of the shuffle's critical path).  On the production plane the
    event adds ``wire_bytes`` and the barrier store's ``chunks`` (chunks
    merged this superstep), ``max_chunk_bytes`` and ``max_send_bytes`` —
    under pipelined shuffle these pin the in-flight memory bound:
    ``max_chunk_bytes`` stays within the watermark however large
    ``max_send_bytes`` (the largest whole send, before it was cut) is.
``chunk_flush``
    Pipelined shuffle, one per streamed chunk: the sending worker,
    chunk ``seq``, ``rows``/``nbytes``, and ``wall_ms`` as the offset
    from the worker batch's start — showing *when during compute* the
    chunk left the worker.
``chunk_deliver``
    Pipelined shuffle, one per chunk streamed into the barrier store
    during compute (a worker's below-watermark remainder rides its step
    result and is only counted in the barrier's ``chunks``).
    ``chunk_deliver`` events interleaving with still-running compute is
    the overlap the mode exists for.
``chunk_spill``
    Spill plane (``spill_dir`` set), one per sealed chunk evicted to
    the superstep's spill file once the barrier store crossed
    ``memory_watermark_bytes``: the sending worker, chunk ``seq``, and
    the record's ``bytes``/``rows``.  The ``barrier`` event adds the
    per-superstep totals (``spill_chunks``/``spill_bytes``).
``chunk_map``
    Spill plane, one per spilled chunk re-mapped at delivery (the
    mirror of ``chunk_spill``; same coordinates).  Every spilled chunk
    maps back exactly once — an imbalance means a superstep died
    between spill and delivery.
``steal``
    Work-stealing schedule (``steal=True``), one per task executed
    away from its owner's home lane — the lane that ran the owner's
    ``seq 0`` task: ``worker`` is the task's *owner*, ``seq`` its
    position in the owner's batch, ``lane`` the OS thread id that ran
    it (a pool process's pid), ``rows`` the packed Gpsi rows it
    carried, and ``wall_ms`` the task's expansion time on the thief.
    Zero events means every owner's tasks stayed on its home lane (see
    :mod:`repro.runtime.stealing`).

Workers whose batch was empty in a superstep emit no ``worker`` event;
their cost/message/compute contribution is zero by construction.

Overhead
--------
The default tracer is the shared :data:`NULL_TRACER`, whose ``enabled``
flag is ``False``; every instrumentation site guards on that flag before
touching the clock or building an event, so an untraced run pays one
attribute load per superstep, not per vertex — unmeasurable next to
``compute``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Union

#: Version tag written by every exporter and checked by every reader.
SCHEMA = "repro.obs/v1"


@dataclass
class TraceEvent:
    """One structured trace row (see the module docstring for kinds)."""

    kind: str
    superstep: Optional[int] = None
    worker: Optional[int] = None
    wall_ms: Optional[float] = None
    data: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        """Flat JSON-ready dict (omits unset coordinates)."""
        obj: Dict[str, Any] = {"kind": self.kind}
        if self.superstep is not None:
            obj["superstep"] = self.superstep
        if self.worker is not None:
            obj["worker"] = self.worker
        if self.wall_ms is not None:
            obj["wall_ms"] = self.wall_ms
        if self.data:
            obj["data"] = self.data
        return obj

    @classmethod
    def from_json(cls, obj: Dict[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_json`."""
        return cls(
            kind=obj["kind"],
            superstep=obj.get("superstep"),
            worker=obj.get("worker"),
            wall_ms=obj.get("wall_ms"),
            data=dict(obj.get("data", {})),
        )


class NullTracer:
    """No-op tracer: the near-zero-cost default.

    Instrumentation sites check :attr:`enabled` before doing any work, so
    the only cost of *not* tracing is the flag test itself.  ``emit`` is
    still a valid no-op for call sites that skip the guard.
    """

    enabled = False

    def emit(
        self,
        kind: str,
        superstep: Optional[int] = None,
        worker: Optional[int] = None,
        wall_ms: Optional[float] = None,
        **data: Any,
    ) -> None:
        """Discard the event."""


#: Shared no-op instance — safe because NullTracer carries no state.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects :class:`TraceEvent` rows for one or more BSP jobs.

    A single tracer may observe several consecutive jobs (the Figure 5
    experiment traces five strategies back to back); ``job`` events and
    superstep-number resets delimit them.  ``meta`` holds run-level
    context (backend, worker count, graph shape) that exporters write
    into file headers.
    """

    enabled = True

    def __init__(self, meta: Optional[Dict[str, Any]] = None):
        self.events: List[TraceEvent] = []
        self.meta: Dict[str, Any] = dict(meta or {})

    def __len__(self) -> int:
        return len(self.events)

    def emit(
        self,
        kind: str,
        superstep: Optional[int] = None,
        worker: Optional[int] = None,
        wall_ms: Optional[float] = None,
        **data: Any,
    ) -> None:
        """Append one event."""
        self.events.append(TraceEvent(kind, superstep, worker, wall_ms, data))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def by_kind(self, kind: str) -> List[TraceEvent]:
        """All events of one kind, in emission order."""
        return [e for e in self.events if e.kind == kind]

    def num_workers(self) -> int:
        """Logical worker count (max seen in meta/worker events)."""
        n = int(self.meta.get("num_workers", 0))
        for event in self.events:
            if event.worker is not None:
                n = max(n, event.worker + 1)
        return n

    def worker_totals(self) -> List[float]:
        """Per-worker cost summed over all ``worker`` events.

        Equals :meth:`CostLedger.worker_totals
        <repro.bsp.metrics.CostLedger.worker_totals>` for a
        single-job trace: both are sums of the same per-(superstep,
        worker) deltas merged at the barrier.
        """
        totals = [0.0] * self.num_workers()
        for event in self.by_kind("worker"):
            totals[event.worker] += float(event.data.get("cost", 0.0))
        return totals

    def summary(self) -> Dict[str, float]:
        """Headline totals recomputed from the event stream.

        Mirrors the keys of :meth:`CostLedger.summary
        <repro.bsp.metrics.CostLedger.summary>` that the trace can
        reconstruct exactly — used by tests to pin trace/ledger parity.
        """
        per_step_max: Dict[int, float] = {}
        total_cost = 0.0
        messages = 0
        for event in self.by_kind("worker"):
            cost = float(event.data.get("cost", 0.0))
            total_cost += cost
            messages += int(event.data.get("messages", 0))
            key = len(per_step_max) if event.superstep is None else event.superstep
            per_step_max[key] = max(per_step_max.get(key, 0.0), cost)
        peak_live = 0
        for event in self.by_kind("barrier"):
            peak_live = max(peak_live, int(event.data.get("live_messages", 0)))
        supersteps = len(self.by_kind("superstep"))
        totals = self.worker_totals()
        mean = sum(totals) / max(len(totals), 1)
        imbalance = 1.0 if mean == 0 else max(totals) / mean
        return {
            "supersteps": float(supersteps),
            "makespan": float(sum(per_step_max.values())),
            "total_cost": total_cost,
            "messages": float(messages),
            "peak_live": float(peak_live),
            "imbalance": imbalance,
        }


TraceLike = Union[Tracer, NullTracer, None, bool]


def make_tracer(trace: TraceLike) -> Union[Tracer, NullTracer]:
    """Resolve the ``trace=`` argument accepted across the stack.

    ``None``/``False`` → the shared no-op tracer; ``True`` → a fresh
    :class:`Tracer`; an existing tracer passes through (so one tracer can
    observe several jobs).
    """
    if trace is None or trace is False:
        return NULL_TRACER
    if trace is True:
        return Tracer()
    if isinstance(trace, (Tracer, NullTracer)):
        return trace
    raise TypeError(
        f"trace must be None, bool, Tracer or NullTracer, got {type(trace).__name__}"
    )


def events_as_json(events: Iterable[TraceEvent]) -> List[Dict[str, Any]]:
    """Convenience: a list of flat dicts for serialisation."""
    return [event.to_json() for event in events]
