"""The one differential oracle and the one table of illegal configurations.

Every ``ExecutionConfig`` field is result-neutral by contract, so every
"this feature changes nothing" test in the suite is the same test: run a
configuration on the inputs a *reference* run was computed from — the
paper-faithful scalar simulator, :mod:`repro.core.reference` — and
require identical :func:`observables`.  Feature files keep their mechanism tests (forced
stragglers, lane faults, trace events) and express parity as
``assert_equivalent(ExecutionConfig(...), reference)``.

The complement lives here too: :data:`ILLEGAL` lists every illegal value
or combination once, and :func:`assert_illegal` requires the three
constructors to refuse it identically (the CLI and service legs are in
``tests/test_config_surface.py``).
"""

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict

import pytest

from repro.bsp import BSPEngine, ExecutionConfig
from repro.core import PSgL, run_reference
from repro.core.listing import ListingResult
from repro.exceptions import EngineError
from repro.graph import Graph, hash_partition
from repro.pattern import paper_patterns

#: Everything optional a run can report, switched on so it is compared.
RUN_FLAGS = dict(collect_instances=True, count_per_vertex=True)


def row_bytes(k: int) -> int:
    """Wire bytes of one packed Gpsi row of a ``k``-vertex pattern: 8-byte
    mapping cells, 32-bit BLACK words, one next-vertex byte."""
    return 8 * k + 4 * -(-k // 32) + 1


def observables(result: ListingResult) -> Dict[str, Any]:
    """Everything a run computes, in a form that compares with ``==``."""
    return {
        "count": result.count,
        "instances": list(result.instances),
        "supersteps": result.supersteps,
        "gpsi_by_vertex": result.gpsi_by_vertex,
        "index": (result.index_queries, result.index_pruned),
        "per_vertex_counts": result.per_vertex_counts,
        "summary": result.ledger.summary(),
        # Per-step, per-worker: a single diverging RNG draw in the
        # distribution strategy moves a Gpsi to another worker and shows
        # up here one superstep later.
        "steps": [
            (s.worker_cost, s.worker_messages, s.worker_compute_calls)
            for s in result.ledger.steps
        ],
        "peak_live": result.ledger.peak_live_messages,
    }


@dataclass(frozen=True)
class Reference:
    """A reference run together with the inputs it was computed from, so
    any configuration can be replayed on exactly those."""

    graph: Graph
    pattern_name: str
    psgl_kwargs: Dict[str, Any]
    result: ListingResult


def run_listing(graph, pattern_name, config=None, **psgl_kwargs) -> ListingResult:
    """One fully-observed run; ``psgl_kwargs`` are the *algorithm-level*
    ``PSgL`` arguments (``num_workers``, ``strategy``, ``seed``, ...)."""
    psgl_kwargs.setdefault("num_workers", 4)
    return PSgL(graph, config=config, **psgl_kwargs).run(
        paper_patterns()[pattern_name], **RUN_FLAGS
    )


def reference_run(graph, pattern_name, **psgl_kwargs) -> Reference:
    """The oracle: :func:`repro.core.reference.run_reference` on a driver
    built from the same algorithm-level arguments."""
    psgl_kwargs.setdefault("num_workers", 4)
    result = run_reference(
        PSgL(graph, **psgl_kwargs), paper_patterns()[pattern_name], **RUN_FLAGS
    )
    return Reference(graph, pattern_name, psgl_kwargs, result)


def assert_equivalent(
    config: ExecutionConfig, reference: Reference, **psgl_overrides
) -> ListingResult:
    """Run ``config`` on ``reference``'s inputs and require identical
    observables.  ``psgl_overrides`` replace non-config inputs that must
    not matter either (``trace=``, a prebuilt ``edge_index=``).  Returns
    the run for mechanism assertions (ledger counters, trace events, ...).

    The oracle ships no buffers, so wire volume is checked on the run
    alone: every routed Gpsi is one packed row, so each worker's wire
    bytes per step are its messages times :func:`row_bytes`, and volume
    parity follows from the message parity compared above."""
    result = run_listing(
        reference.graph,
        reference.pattern_name,
        config,
        **{**reference.psgl_kwargs, **psgl_overrides},
    )
    assert result.count == len(result.instances)
    assert observables(result) == observables(reference.result)
    row = row_bytes(result.pattern.num_vertices)
    for step in result.ledger.steps:
        assert step.worker_wire_bytes == [row * sent for sent in step.worker_messages]
    return result


#: Every illegal value or combination, once: ``(overrides, message
#: regex)``.  JSON-expressible values only, so the same rows drive the
#: CLI and service legs.  A row's index is part of its test id: add new
#: rows at the end.
ILLEGAL = [
    (dict(wire="quantum"), "unknown wire"),
    # Retired fields: refused by name, whatever the value, with the hint
    # that says where their job went.
    (dict(shuffle="pipelined"), "unknown shuffle: not an execution field"),
    (dict(kernel="fused"), "unknown kernel"),
    # The scalar reference is an oracle, not a plane: naming it, with or
    # without a feature of the one plane, points at that plane.
    (dict(wire="object", procs=2), "wire='columnar'"),
    # NaN passes every comparison and would switch the budget off.
    (dict(wall_budget_seconds=float("nan")), "must be a finite number > 0"),
    (dict(wall_budget_seconds=float("inf")), "must be a finite number > 0"),
    (dict(chunk_gpsis=64), "chunk watermarks are retired"),
    (dict(chunk_bytes=4096), "chunk watermarks are retired"),
    # The first name that is not a field is the one refused.
    (dict(chunk_gpsis=0, shuffle="pipelined"), "chunk_gpsis: not an execution"),
    (dict(chunk_bytes=-5, shuffle="pipelined"), "chunk_bytes: not an execution"),
    # A retired field beside a live one is refused by name all the same.
    (
        dict(backend="process", memory_watermark_bytes=1),
        "the spill plane is retired: the barrier store is no longer where",
    ),
    # Work stealing is retired: its two fields are refused by name.
    (dict(steal_tasks=64), "steal_tasks: not an execution field"),
    (dict(steal_tasks=0, steal=True), "steal_tasks: not an execution field"),
    # The spill plane is retired: its two fields are refused by name,
    # with the hint that says where a job's memory is capped now.
    (dict(spill_dir="unused"), "spill_dir: not an execution field"),
    (
        dict(memory_watermark_bytes=1),
        "a job's memory goes; memory_budget / worker_memory_budget cap",
    ),
    (
        dict(memory_watermark_bytes=0, spill_dir="unused"),
        "memory_watermark_bytes: not an execution field",
    ),
    (dict(procs=0), "procs must be >= 1"),
    (dict(backend="process", procs=-1), "procs must be >= 1"),
    (dict(memory_budget=0), "memory_budget must be >= 1"),
    (dict(worker_memory_budget=-1), "worker_memory_budget must be >= 1"),
    # The superstep cap is one field: the retired name is refused by name.
    (
        dict(max_supersteps=0),
        r"max_supersteps: not an execution field \(the superstep cap is "
        "superstep_budget",
    ),
    (dict(superstep_budget=0), "superstep_budget must be >= 1"),
    (
        dict(wall_budget_seconds=0),
        "wall_budget_seconds must be a finite number > 0",
    ),
    # Strict coercion: no guessing what a mistyped value meant.
    (dict(steal="false"), "unknown steal: not an execution field"),
    (dict(procs=2.7), "procs must be int"),
    (dict(procs="2"), "procs must be int"),
    (dict(wire=None), "wire must be str"),
    (dict(steal=1), "unknown steal: not an execution field"),
    (dict(wire="object"), "unknown wire 'object'"),
    # A misspelt field is refused by name, listing the real ones.
    (dict(backnd="thread"), r"unknown backnd: not an execution field; known: \["),
    # Process lanes are the one pool: the thread backend and stealing are
    # refused with the hint that says so.
    (dict(steal=True), "work stealing is retired: process lanes are the one"),
    (dict(steal_tasks=8), "steal tasks are retired with work stealing"),
    (dict(backend="thread"), "thread backend is retired: process lanes are"),
    # The backend set is closed: a name outside it is refused at
    # construction, not when the engine first runs.
    (
        dict(backend="gpu-cluster"),
        r"unknown backend 'gpu-cluster'.*\['serial', 'process'\]",
    ),
]

_TINY = Graph(4, [(0, 1), (1, 2)])


def assert_illegal(overrides: Dict[str, Any], match: str) -> None:
    """``overrides`` is refused with the same :class:`EngineError` by
    ``ExecutionConfig(...)``, ``BSPEngine(...)`` and ``PSgL(...)`` — at
    construction, before anything runs.  A name that is not a field is
    the dataclass's own business on the direct leg: Python's
    ``TypeError`` there, the ``EngineError`` on every override leg."""
    fields = {spec.name for spec in dataclasses.fields(ExecutionConfig)}
    constructs = [
        lambda: BSPEngine(_TINY, hash_partition(4, 2), **overrides),
        lambda: PSgL(_TINY, **overrides),
        lambda: PSgL(_TINY, config=ExecutionConfig(), **overrides),
    ]
    if set(overrides) <= fields:
        constructs.insert(0, lambda: ExecutionConfig(**overrides))
    else:
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            ExecutionConfig(**overrides)
    messages = set()
    for construct in constructs:
        with pytest.raises(EngineError, match=match) as refused:
            construct()
        messages.add(str(refused.value))
    assert len(messages) == 1, messages


def assert_outboxes_cross_whole(tracer, result: ListingResult) -> None:
    """Every barrier of the traced ``result`` merged each sending
    worker's outbox as one chunk: as many chunks as workers that sent,
    the largest exactly the largest worker's wire bytes."""
    barriers = tracer.by_kind("barrier")
    assert len(barriers) == len(result.ledger.steps) > 0
    for event, step in zip(barriers, result.ledger.steps):
        sent = [nbytes for nbytes in step.worker_wire_bytes if nbytes]
        assert event.data["chunks"] == len(sent)
        assert event.data["max_chunk_bytes"] == max(sent, default=0)
