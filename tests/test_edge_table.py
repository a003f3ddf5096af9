"""The graph's hashed edge-key table (:class:`repro.graph.graph.EdgeTable`).

The table is the one exact edge-membership structure: ``Graph.has_edges``,
the exact edge index and the bloom build all read it.  These properties
pin it against a Python ``set`` of the same keys: on random graphs, the
empty graph and a single edge; on key sets that all share one home slot
(the worst case of linear probing); with ids outside the graph; and
through the exact index's scalar and batched probes and their statistics.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.edge_index import ExactEdgeIndex
from repro.graph import Graph
from repro.graph.generators import rmat
from repro.graph.graph import _HASH_MULTIPLIER, EMPTY_SLOT

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def graphs(draw, max_vertices=24):
    n = draw(st.integers(0, max_vertices))
    if n < 2:
        return Graph(n, [])
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=80)
    )
    return Graph(n, pairs)


def edge_set(graph):
    return set(graph.edges())


def all_pairs(n):
    ids = np.arange(n)
    us, vs = (a.ravel() for a in np.meshgrid(ids, ids))
    return us, vs


@PROPERTY
@given(graphs())
@example(Graph(0, []))
@example(Graph(2, [(0, 1)]))
def test_membership_equals_a_set(graph):
    n, m = graph.num_vertices, graph.num_edges
    table = graph.edge_table()
    keys = {u * n + v for u, v in edge_set(graph)}
    assert sorted(table.keys().tolist()) == sorted(keys)
    # Capacity: the smallest power of two of at least 2m slots, so the
    # table proper is under 32 bytes per edge; the tail is the probe bound.
    capacity = len(table.slots) - table.max_probe
    assert capacity & (capacity - 1) == 0 and capacity >= 2 * m
    assert capacity == 2 or capacity < 4 * m
    us, vs = all_pairs(n)
    expected = [(min(u, v), max(u, v)) in edge_set(graph)
                for u, v in zip(us.tolist(), vs.tolist())]
    assert graph.has_edges(us, vs).tolist() == expected
    probes = sorted(keys | set(range(n * n)))
    found = table.contains(np.array(probes, dtype=np.uint64))
    assert found.tolist() == [k in keys for k in probes]
    assert [table.contains_key(k) for k in probes] == found.tolist()


def colliding_keys(n, count, home):
    """``count`` canonical keys ``u * n + v`` (``u < v < n``) whose home
    slot in a table of ``count`` keys is ``home`` (``-1``: the last)."""
    bits = (2 * count - 1).bit_length()
    target = (1 << bits) - 1 if home == -1 else home
    keys = [
        u * n + v
        for u in range(n)
        for v in range(u + 1, n)
        if ((u * n + v) * _HASH_MULTIPLIER & (1 << 64) - 1) >> (64 - bits) == target
    ]
    assert len(keys) >= count
    return keys[:count]


@pytest.mark.parametrize("home", [0, -1], ids=["first-slot", "last-slot"])
def test_a_key_set_forced_onto_one_home_slot_is_exact(home):
    n, count = 64, 16
    keys = colliding_keys(n, count, home)
    graph = Graph(n, [divmod(k, n) for k in keys])
    table = graph.edge_table()
    # Every key but the first is displaced; the last one by count - 1,
    # past the end of the capacity when the shared home is the last slot.
    assert table.max_probe == count - 1
    assert (table.slots != EMPTY_SLOT).sum() == count
    us, vs = all_pairs(n)
    expected = np.isin(np.minimum(us, vs) * n + np.maximum(us, vs), keys)
    expected &= us != vs
    assert (graph.has_edges(us, vs) == expected).all()
    index = ExactEdgeIndex(graph)
    assert index.might_contain_pairs(us, vs).tolist() == expected.tolist()
    assert [index.might_contain(int(u), int(v)) for u, v in zip(us, vs)] == (
        expected.tolist()
    )


@PROPERTY
@given(graphs(), st.data())
def test_has_edges_masks_out_of_range_ids(graph, data):
    n = graph.num_vertices
    ids = st.integers(-3, n + 3)
    pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=40))
    # Out-of-range pairs whose key aliases a real edge's: (a - 1, b + n)
    # has the key of (a, b).
    pairs += [(a - 1, b + n) for a, b in edge_set(graph) if a >= 1]
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    expected = [graph.has_edge(u, v) for u, v in pairs]
    assert graph.has_edges(us, vs).tolist() == expected
    assert all(
        not found for (u, v), found in zip(pairs, expected)
        if not (0 <= u < n and 0 <= v < n)
    )


@PROPERTY
@given(graphs(), st.data())
def test_scalar_probe_agrees_with_the_batch_and_counts_alike(graph, data):
    n = graph.num_vertices
    if n == 0:
        return
    ids = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=60))
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    scalar, batch = ExactEdgeIndex(graph), ExactEdgeIndex(graph)
    answers = [scalar.might_contain(u, v) for u, v in pairs]
    assert batch.might_contain_pairs(us, vs).tolist() == answers
    edges = edge_set(graph)
    assert answers == [(min(u, v), max(u, v)) in edges for u, v in pairs]
    assert (scalar.queries, scalar.positives) == (batch.queries, batch.positives)
    assert (batch.queries, batch.positives) == (len(pairs), sum(answers))


def test_the_table_costs_at_most_32_bytes_per_edge():
    for scale in (10, 11, 12, 13):
        graph = rmat(scale, seed=1)
        assert graph.edge_table().slots.nbytes <= 32 * graph.num_edges, scale
