"""Backend parity: serial vs. parallel backends must agree exactly.

For every pattern in the catalog, on small random graphs, the process
backend must return the identical embedding set AND the identical
per-worker compute/message ledger — parallel execution changes where
work runs, never what work happens.  This is the core guarantee that
lets every simulator-era result stand on the real runtime.
"""

from functools import lru_cache

import pytest

from repro.bsp import BSPEngine, ExecutionConfig
from repro.exceptions import EngineError
from repro.graph import hash_partition
from repro.graph.generators import chung_lu_power_law, erdos_renyi
from repro.pattern import paper_patterns

from .parity import assert_equivalent, reference_run, run_listing
from .programs import Ripple

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


def test_backends_agree_on_delta_order():
    """The workers' state deltas merge in worker-id order on every
    backend, so an order-dependent delta — Ripple's ping list — comes out
    identical, not just equal as a multiset, serially and on two or three
    process lanes."""
    graph = GRAPHS["er"]
    partition = hash_partition(graph.num_vertices, 4)
    runs = {}
    for backend, procs in (("serial", None), ("process", 2), ("process", 3)):
        program = Ripple(rounds=2)
        BSPEngine(graph, partition, backend=backend, procs=procs).run(program)
        runs[backend, procs] = (program.pings, program.hops, program.seen)
    assert runs["serial", None] == runs["process", 2] == runs["process", 3]
    pings, hops, _ = runs["serial", None]
    assert hops == len(pings) > 0
    # Within a superstep, worker 0's pings precede worker 1's, and so on.
    owners = [(step, partition.owner_array[vertex]) for step, vertex, _ in pings]
    assert owners == sorted(owners)


def test_per_vertex_counts_and_message_bytes_parity():
    """Per-vertex counts match the oracle's; message volume is the
    ledger's wire bytes, which ``assert_equivalent`` pins per step and
    worker to the messages compared."""
    result = assert_equivalent(
        PROCESS, reference("powerlaw", "PG1", num_workers=3, seed=1)
    )
    assert result.per_vertex_counts and result.ledger.total_wire_bytes()


def test_count_is_the_merged_delta():
    """The instance count travels in the program's state delta: a plain
    ``int`` (the service ``json.dumps`` it) equal to the instances listed,
    serially, on two process lanes and in the scalar oracle — and so do
    the other delta-borne statistics."""
    ref = reference("powerlaw", "PG1", num_workers=3, seed=1)
    runs = [ref.result] + [
        run_listing(ref.graph, ref.pattern_name, config, **ref.psgl_kwargs)
        for config in (ExecutionConfig(backend="serial"), PROCESS)
    ]
    for result in runs:
        assert type(result.count) is int
        assert result.count == len(result.instances) > 0
    stats = [
        (r.gpsi_by_vertex, r.index_queries, r.per_vertex_counts) for r in runs
    ]
    assert stats[0] == stats[1] == stats[2]
