"""Trace exporters: JSONL, Chrome trace-event format, and validation.

Two on-disk formats serve two audiences:

* **JSONL** (``write_jsonl`` / ``read_jsonl``) — the lossless archival
  format: a header line carrying the schema tag and run metadata, then
  one :class:`~repro.obs.tracer.TraceEvent` per line.  Round-trips
  exactly (``read_jsonl(write_jsonl(t)) == t`` event-for-event), so
  post-hoc analysis scripts get the full stream.
* **Chrome trace-event JSON** (``write_chrome_trace``) — open the file
  in ``chrome://tracing`` (or https://ui.perfetto.dev) and read the run
  as stacked per-worker timelines.  Two tracks are emitted:

  - *pid 0, "driver (wall time)"* — one slice per superstep with the
    real wall-clock duration of the executor's ``run_superstep`` call;
    barrier queue depths ride in the slice ``args``.
  - *pid 1, "workers (cost timeline)"* — one slice per (superstep,
    worker) on the worker's own row, laid out on the simulated clock:
    superstep ``i`` starts at the sum of the previous supersteps' max
    costs (the Equation 3 makespan prefix) and each slice's duration is
    the worker's cost, so stragglers are literally the longest bars and
    the whitespace after a short bar is barrier wait.  One cost unit
    maps to one microsecond of trace time; the *exact* float cost also
    rides in ``args.cost``, which is what validation sums.

``validate_chrome_trace`` is the schema check CI runs on the smoke
trace: it verifies the tag, the event structure, and returns the
per-worker cost totals recomputed from ``args.cost`` so callers can
compare them against ``CostLedger.worker_totals()`` exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Union

from .tracer import SCHEMA, TraceEvent, Tracer

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def jsonl_lines(tracer: Tracer) -> Iterator[str]:
    """``tracer`` as schema-tagged JSON lines, each ending in a newline:
    the header, then one line per event."""
    yield json.dumps({"kind": "header", "schema": SCHEMA, "meta": tracer.meta}) + "\n"
    for event in tracer.events:
        yield json.dumps(event.to_json()) + "\n"


def write_jsonl(tracer: Tracer, path: PathLike) -> Path:
    """Write ``tracer`` as schema-tagged JSON lines; returns the path."""
    path = Path(path)
    with path.open("w") as fh:
        fh.writelines(jsonl_lines(tracer))
    return path


def read_jsonl(path: PathLike) -> Tracer:
    """Rebuild a :class:`Tracer` from a JSONL trace file."""
    path = Path(path)
    tracer = Tracer()
    with path.open() as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path}: empty trace file")
        header = json.loads(header_line)
        if header.get("schema") != SCHEMA:
            raise ValueError(
                f"{path}: unsupported trace schema {header.get('schema')!r}, "
                f"expected {SCHEMA!r}"
            )
        tracer.meta = dict(header.get("meta", {}))
        for line in fh:
            line = line.strip()
            if line:
                tracer.events.append(TraceEvent.from_json(json.loads(line)))
    return tracer


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
_DRIVER_PID = 0
_WORKER_PID = 1


def _segments(tracer: Tracer) -> List[List[TraceEvent]]:
    """Split the stream into per-job segments.

    A tracer can observe several jobs back to back; each ``job`` event
    closes a segment.  Trailing events without a closing ``job`` row
    (e.g. an aborted run traced before the exception escaped) form a
    final segment of their own.
    """
    segments: List[List[TraceEvent]] = []
    current: List[TraceEvent] = []
    for event in tracer.events:
        current.append(event)
        if event.kind == "job":
            segments.append(current)
            current = []
    if current:
        segments.append(current)
    return segments


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list for :func:`write_chrome_trace`."""
    out: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": _DRIVER_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "driver (wall time)"},
        },
        {
            "ph": "M",
            "pid": _WORKER_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "workers (cost timeline)"},
        },
    ]
    for worker in range(tracer.num_workers()):
        out.append(
            {
                "ph": "M",
                "pid": _WORKER_PID,
                "tid": worker,
                "name": "thread_name",
                "args": {"name": f"worker {worker}"},
            }
        )

    cost_offset = 0.0  # simulated clock, carried across jobs
    wall_offset = 0.0  # real clock, carried across jobs
    for job_index, segment in enumerate(_segments(tracer)):
        # Pass 1: the segment's per-superstep max cost fixes each
        # superstep's start on the simulated clock (Equation 3 prefix).
        max_cost: Dict[int, float] = {}
        for event in segment:
            if event.kind == "worker":
                cost = float(event.data.get("cost", 0.0))
                max_cost[event.superstep] = max(
                    max_cost.get(event.superstep, 0.0), cost
                )
        step_start: Dict[int, float] = {}
        acc = cost_offset
        for superstep in sorted(max_cost):
            step_start[superstep] = acc
            acc += max_cost[superstep]
        cost_offset = acc

        barriers = {
            e.superstep: e.data for e in segment if e.kind == "barrier"
        }
        for event in segment:
            if event.kind == "worker":
                out.append(
                    {
                        "ph": "X",
                        "pid": _WORKER_PID,
                        "tid": event.worker,
                        "cat": "cost",
                        "name": f"job{job_index}·s{event.superstep}",
                        "ts": step_start.get(event.superstep, cost_offset),
                        "dur": float(event.data.get("cost", 0.0)),
                        "args": {
                            "superstep": event.superstep,
                            "worker": event.worker,
                            "cost": event.data.get("cost", 0.0),
                            "messages": event.data.get("messages", 0),
                            "compute_calls": event.data.get("compute_calls", 0),
                        },
                    }
                )
            elif event.kind == "superstep":
                dur_us = 1000.0 * float(event.wall_ms or 0.0)
                args = dict(event.data)
                args.update(barriers.get(event.superstep, {}))
                out.append(
                    {
                        "ph": "X",
                        "pid": _DRIVER_PID,
                        "tid": 0,
                        "cat": "wall",
                        "name": f"job{job_index}·superstep {event.superstep}",
                        "ts": wall_offset,
                        "dur": dur_us,
                        "args": args,
                    }
                )
                wall_offset += dur_us
            elif event.kind in ("executor", "export", "job"):
                out.append(
                    {
                        "ph": "i",
                        "s": "g",
                        "pid": _DRIVER_PID,
                        "tid": 0,
                        "cat": event.kind,
                        "name": f"job{job_index}·{event.kind}",
                        "ts": wall_offset,
                        "args": dict(event.data),
                    }
                )
    return out


def write_chrome_trace(tracer: Tracer, path: PathLike) -> Path:
    """Write a ``chrome://tracing``-loadable JSON file; returns the path."""
    path = Path(path)
    document = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"schema": SCHEMA, "meta": tracer.meta},
    }
    path.write_text(json.dumps(document, indent=1))
    return path


def validate_chrome_trace(path: PathLike) -> Dict[str, Any]:
    """Validate a Chrome trace file written by :func:`write_chrome_trace`.

    Raises ``ValueError`` on any structural problem; on success returns
    ``{"schema", "events", "supersteps", "worker_cost_totals"}`` where
    the totals are per-worker sums of the exact ``args.cost`` floats —
    directly comparable to ``CostLedger.worker_totals()``.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError(f"{path}: missing 'traceEvents' key")
    schema = document.get("otherData", {}).get("schema")
    if schema != SCHEMA:
        raise ValueError(f"{path}: schema {schema!r} != {SCHEMA!r}")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError(f"{path}: 'traceEvents' is not a list")
    totals: Dict[int, float] = {}
    supersteps = set()
    for i, event in enumerate(events):
        if not isinstance(event, dict) or "ph" not in event or "pid" not in event:
            raise ValueError(f"{path}: event {i} lacks ph/pid")
        if event["ph"] == "X":
            for key in ("ts", "dur", "tid", "name"):
                if key not in event:
                    raise ValueError(f"{path}: complete event {i} lacks {key!r}")
            if not isinstance(event["ts"], (int, float)) or not isinstance(
                event["dur"], (int, float)
            ):
                raise ValueError(f"{path}: event {i} has non-numeric ts/dur")
        if event.get("cat") == "cost":
            args = event.get("args", {})
            if "cost" not in args or "superstep" not in args:
                raise ValueError(f"{path}: cost event {i} lacks args.cost/superstep")
            tid = int(event["tid"])
            totals[tid] = totals.get(tid, 0.0) + float(args["cost"])
            supersteps.add((event["name"], args["superstep"]))
    num_workers = max(totals) + 1 if totals else 0
    return {
        "schema": schema,
        "events": len(events),
        "supersteps": len({s for _, s in supersteps}),
        "worker_cost_totals": [totals.get(w, 0.0) for w in range(num_workers)],
    }
