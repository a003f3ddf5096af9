"""The one differential oracle and the one table of illegal configurations.

Every ``ExecutionConfig`` field is result-neutral by contract, so every
"this feature changes nothing" test in the suite is the same test: run a
configuration on the inputs a *reference* run was computed from — serial
backend, reference plane (``wire="object"``) — and require identical
:func:`observables`.  Feature files keep their mechanism tests (forced
stragglers, spill-file failures, trace events) and express parity as
``assert_equivalent(ExecutionConfig(...), reference)``.

The complement lives here too: :data:`ILLEGAL` lists every illegal value
or combination once, and :func:`assert_illegal` requires the three
constructors to refuse it identically (the CLI and service legs are in
``tests/test_config_surface.py``).
"""

from dataclasses import dataclass
from typing import Any, Dict

import pytest

from repro.bsp import BSPEngine, ExecutionConfig
from repro.core import PSgL
from repro.core.listing import ListingResult
from repro.exceptions import EngineError
from repro.graph import Graph, hash_partition
from repro.pattern import paper_patterns

#: Everything optional a run can report, switched on so it is compared.
RUN_FLAGS = dict(
    collect_instances=True, count_per_vertex=True, track_message_bytes=True
)


def observables(result: ListingResult) -> Dict[str, Any]:
    """Everything a run computes, in a form that compares with ``==``."""
    return {
        "count": result.count,
        "instances": sorted(result.instances),
        "supersteps": result.supersteps,
        "gpsi_by_vertex": result.gpsi_by_vertex,
        "index": (result.index_queries, result.index_pruned),
        "per_vertex_counts": result.per_vertex_counts,
        "message_bytes": result.message_bytes,
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
    """A reference-plane run together with the inputs it was computed
    from, so any configuration can be replayed on exactly those."""

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
    """The oracle: serial backend, reference plane."""
    result = run_listing(
        graph, pattern_name, ExecutionConfig(wire="object"), **psgl_kwargs
    )
    assert result.wire == "object"
    return Reference(graph, pattern_name, psgl_kwargs, result)


def assert_equivalent(
    config: ExecutionConfig, reference: Reference, **psgl_overrides
) -> ListingResult:
    """Run ``config`` on ``reference``'s inputs and require identical
    observables.  ``psgl_overrides`` replace non-config inputs that must
    not matter either (``trace=``, a prebuilt ``edge_index=``).  Returns
    the run for mechanism assertions (steals, spill counters, ...)."""
    result = run_listing(
        reference.graph,
        reference.pattern_name,
        config,
        **{**reference.psgl_kwargs, **psgl_overrides},
    )
    assert result.count == len(result.instances)
    assert observables(result) == observables(reference.result)
    return result


#: Every illegal value or combination, once: ``(overrides, message
#: regex)``.  JSON-expressible values only, so the same rows drive the
#: CLI and service legs.
ILLEGAL = [
    (dict(wire="quantum"), "unknown wire"),
    (dict(shuffle="chaotic"), "unknown shuffle"),
    (dict(kernel="fused"), "unknown kernel"),
    (dict(wire="object", shuffle="pipelined"), "wire='columnar'"),
    (dict(wire="object", steal=True), "steal=True.*wire='columnar'"),
    (
        dict(wire="object", spill_dir="unused", memory_watermark_bytes=1),
        "spill_dir.*wire='columnar'",
    ),
    (dict(chunk_gpsis=64), "chunk watermarks only apply"),
    (dict(chunk_bytes=4096), "chunk watermarks only apply"),
    (dict(shuffle="pipelined", chunk_gpsis=0), "chunk_gpsis must be >= 1"),
    (dict(shuffle="pipelined", chunk_bytes=-5), "chunk_bytes must be >= 1"),
    (dict(steal=True, shuffle="pipelined"), "requires shuffle='strict'"),
    (dict(steal_tasks=64), "steal_tasks only applies"),
    (dict(steal=True, steal_tasks=0), "steal_tasks must be >= 1"),
    (dict(spill_dir="unused"), "both or neither"),
    (dict(memory_watermark_bytes=1), "both or neither"),
    (
        dict(spill_dir="unused", memory_watermark_bytes=0),
        "memory_watermark_bytes must be >= 1",
    ),
    (dict(procs=0), "procs must be >= 1"),
    (dict(backend="process", procs=-1), "procs must be >= 1"),
    (dict(memory_budget=0), "memory_budget must be >= 1"),
    (dict(worker_memory_budget=-1), "worker_memory_budget must be >= 1"),
    (dict(max_supersteps=0), "max_supersteps must be >= 1"),
    (dict(superstep_budget=0), "superstep_budget must be >= 1"),
    (dict(wall_budget_seconds=0), "wall_budget_seconds must be > 0"),
    # Strict coercion: no guessing what a mistyped value meant.
    (dict(steal="false"), "steal must be bool"),
    (dict(procs=2.7), "procs must be int"),
    (dict(procs="2"), "procs must be int"),
    (dict(wire=None), "wire must be str"),
    (dict(steal=1), "steal must be bool"),
]

_TINY = Graph(4, [(0, 1), (1, 2)])


def assert_illegal(overrides: Dict[str, Any], match: str) -> None:
    """``overrides`` is refused with the same :class:`EngineError` by
    ``ExecutionConfig(...)``, ``BSPEngine(...)`` and ``PSgL(...)`` — at
    construction, before anything runs."""
    with pytest.raises(EngineError, match=match) as direct:
        ExecutionConfig(**overrides)
    for construct in (
        lambda: BSPEngine(_TINY, hash_partition(4, 2), **overrides),
        lambda: PSgL(_TINY, **overrides),
        lambda: PSgL(_TINY, config=ExecutionConfig(), **overrides),
    ):
        with pytest.raises(EngineError) as via:
            construct()
        assert str(via.value) == str(direct.value)
