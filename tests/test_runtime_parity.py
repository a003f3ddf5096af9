"""Backend parity: serial vs. parallel backends must agree exactly.

For every pattern in the catalog, on small random graphs, the process
backend must return the identical embedding set AND the identical
per-worker compute/message ledger — parallel execution changes where
work runs, never what work happens.  This is the core guarantee that
lets every simulator-era result stand on the real runtime.
"""

from functools import lru_cache

import pytest

from repro.bsp import BSPEngine, ExecutionConfig, sum_aggregator
from repro.exceptions import EngineError
from repro.graph import hash_partition
from repro.graph.generators import chung_lu_power_law, erdos_renyi
from repro.pattern import paper_patterns

from .parity import assert_equivalent, reference_run
from .programs import PerVertex

GRAPHS = {
    "er": erdos_renyi(28, 0.25, seed=13),
    "powerlaw": chung_lu_power_law(30, gamma=2.5, avg_degree=4, seed=5),
}


@lru_cache(maxsize=None)
def reference(graph_name, pattern_name, **psgl_kwargs):
    return reference_run(
        GRAPHS[graph_name], pattern_name, **{"seed": 3, **psgl_kwargs}
    )


PROCESS = ExecutionConfig(backend="process", procs=2)


@pytest.mark.parametrize("pattern_name", sorted(paper_patterns()))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_process_backend_matches_serial(graph_name, pattern_name):
    assert_equivalent(PROCESS, reference(graph_name, pattern_name))


@pytest.mark.parametrize("pattern_name", ["PG1", "PG3"])
def test_thread_backend_matches_serial(pattern_name):
    """The thread backend is retired: its legs run three process lanes,
    so four logical workers are dealt unevenly (two to the driver)."""
    with pytest.raises(EngineError, match="thread backend is retired"):
        ExecutionConfig(backend="thread", procs=3)
    assert_equivalent(
        ExecutionConfig(backend="process", procs=3), reference("er", pattern_name)
    )


def test_process_backend_respects_strategy_determinism():
    """Stochastic distribution strategies seed per logical worker, so
    even the roulette strategy must agree across backends."""
    for strategy in ("random", "roulette"):
        assert_equivalent(
            PROCESS,
            reference("er", "PG2", strategy=strategy, num_workers=3, seed=7),
        )


class SnapshotEcho(PerVertex):
    """Emits what each vertex *sees* through the per-superstep aggregator
    snapshot, so any skew in how the snapshot reaches pool processes —
    staleness, per-worker divergence — changes the outputs, not just the
    final aggregate."""

    def __init__(self, rounds=3):
        self.rounds = rounds

    def visit(self, ctx, vertex, messages):
        if ctx.superstep:
            ctx.emit((vertex, ctx.superstep, ctx.aggregated("activity")))
        ctx.aggregate("activity", 1 + len(messages))
        return vertex if ctx.superstep < self.rounds else None

    def aggregators(self):
        return {"activity": sum_aggregator(0)}


def test_aggregator_snapshot_parity_on_process_backend():
    graph = GRAPHS["er"]
    runs = {}
    for backend in ("serial", "process"):
        engine = BSPEngine(
            graph, hash_partition(graph.num_vertices, 4), backend=backend, procs=2
        )
        result = engine.run(SnapshotEcho(rounds=3))
        runs[backend] = (result.outputs, result.aggregated)
    assert runs["process"] == runs["serial"]


class RunningTotalReader(PerVertex):
    """Emits the persistent ``total`` each vertex reads *before* adding 1
    to it, so a backend whose reads see this superstep's contributions —
    rather than the value published at the last barrier — emits
    different outputs, not just a different final aggregate."""

    def visit(self, ctx, vertex, messages):
        ctx.emit((ctx.superstep, vertex, ctx.aggregated("total")))
        ctx.aggregate("total", 1)
        return vertex if ctx.superstep < 2 else None

    def persistent_aggregators(self):
        return {"total": sum_aggregator(0)}


def test_backends_agree_on_persistent_aggregator_reads():
    graph = GRAPHS["er"]
    runs = {}
    for backend, procs in (("serial", None), ("process", 2), ("process", 3)):
        engine = BSPEngine(
            graph, hash_partition(graph.num_vertices, 4), backend=backend, procs=procs
        )
        result = engine.run(RunningTotalReader())
        runs[backend, procs] = (result.outputs, result.aggregated)
    assert runs["serial", None] == runs["process", 2] == runs["process", 3]
    # Superstep 0 reads the job's initial value everywhere.
    assert {read for step, _, read in runs["serial", None][0] if step == 0} == {0}


def test_snapshot_pickled_once_per_superstep(monkeypatch):
    """The driver must snapshot the aggregator registry once per
    superstep, not once per submitted worker batch."""
    from repro.bsp.aggregate import AggregatorRegistry

    calls = []
    original = AggregatorRegistry.snapshot

    def counting_snapshot(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(AggregatorRegistry, "snapshot", counting_snapshot)
    graph = GRAPHS["er"]
    engine = BSPEngine(
        graph, hash_partition(graph.num_vertices, 4), backend="process", procs=2
    )
    result = engine.run(SnapshotEcho(rounds=3))
    assert len(calls) == result.supersteps


def test_per_vertex_counts_and_message_bytes_parity():
    result = assert_equivalent(
        PROCESS, reference("powerlaw", "PG1", num_workers=3, seed=1)
    )
    assert result.per_vertex_counts and result.message_bytes
