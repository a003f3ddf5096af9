"""Unit tests for the light-weight edge index (Section 5.2.3)."""

import numpy as np
import pytest

from repro.core import (
    BloomEdgeIndex,
    ExactEdgeIndex,
    NullEdgeIndex,
    build_edge_index,
)
from repro.core.edge_index import EdgeIndexBase
from repro.graph import complete_graph, erdos_renyi


class TestBloomEdgeIndex:
    def test_no_false_negatives(self):
        g = erdos_renyi(100, 0.1, seed=1)
        index = BloomEdgeIndex(g, fp_rate=0.01)
        for u, v in g.edges():
            assert index.might_contain(u, v)
            assert index.might_contain(v, u)  # undirected

    def test_low_false_positive_rate(self):
        g = erdos_renyi(200, 0.05, seed=2)
        index = BloomEdgeIndex(g, fp_rate=0.01, seed=3)
        non_edges = [
            (u, v)
            for u in range(0, 200, 3)
            for v in range(u + 1, 200, 7)
            if not g.has_edge(u, v)
        ]
        fp = sum(1 for u, v in non_edges if index.might_contain(u, v))
        assert fp / len(non_edges) < 0.05

    def test_statistics_tracked(self):
        g = complete_graph(4)
        index = BloomEdgeIndex(g)
        index.might_contain(0, 1)
        index.might_contain(0, 1)
        assert index.queries == 2
        assert index.positives == 2
        assert index.pruned == 0

    def test_memory_small(self):
        g = erdos_renyi(500, 0.02, seed=4)
        index = BloomEdgeIndex(g, fp_rate=0.01)
        # ~10 bits/edge at 1% fp; must be far below an exact set's cost
        assert index.memory_bytes() < 40 * g.num_edges

    def test_estimated_fp_rate(self):
        g = erdos_renyi(300, 0.05, seed=5)
        assert 0.0 < BloomEdgeIndex(g, fp_rate=0.01).estimated_fp_rate() < 0.05


class TestExactEdgeIndex:
    def test_exact_membership(self):
        g = erdos_renyi(80, 0.1, seed=6)
        index = ExactEdgeIndex(g)
        for u in range(80):
            for v in range(u + 1, 80, 5):
                assert index.might_contain(u, v) == g.has_edge(u, v)

    def test_prune_count(self):
        g = complete_graph(3)
        index = ExactEdgeIndex(g)
        index.might_contain(0, 1)   # hit
        index.might_contain(0, 2)   # hit
        assert index.pruned == 0


class TestNullEdgeIndex:
    def test_always_positive(self):
        index = NullEdgeIndex()
        assert index.might_contain(123, 456)
        assert index.pruned == 0
        assert index.queries == 1


class TestFactory:
    def test_bloom(self):
        assert isinstance(build_edge_index(complete_graph(3), "bloom"), BloomEdgeIndex)

    def test_exact(self):
        assert isinstance(build_edge_index(complete_graph(3), "exact"), ExactEdgeIndex)

    def test_none(self):
        assert isinstance(build_edge_index(complete_graph(3), "none"), NullEdgeIndex)

    def test_unknown(self):
        with pytest.raises(ValueError):
            build_edge_index(complete_graph(3), "magic")


class TestBatchedProbes:
    """``might_contain_pairs`` — the production plane's probe — agrees
    with a scalar ``might_contain`` loop answer-for-answer and
    counter-for-counter on every index kind."""

    GRAPH = erdos_renyi(120, 0.2, seed=7)

    @pytest.mark.parametrize("kind", ["bloom", "exact", "none"])
    def test_pairs_match_scalar(self, kind):
        index = build_edge_index(self.GRAPH, kind=kind, seed=5)
        rng = np.random.default_rng(11)
        n = self.GRAPH.num_vertices
        us = rng.integers(0, n, size=400, dtype=np.int64)
        vs = rng.integers(0, n, size=400, dtype=np.int64)
        scalar = [index.might_contain(int(u), int(v)) for u, v in zip(us, vs)]
        scalar_stats = (index.queries, index.positives)
        index.reset_statistics()
        batched = index.might_contain_pairs(us, vs)
        assert batched.tolist() == scalar
        assert (index.queries, index.positives) == scalar_stats

    def test_empty_batch(self):
        index = ExactEdgeIndex(self.GRAPH)
        empty = np.zeros(0, dtype=np.int64)
        out = index.might_contain_pairs(empty, empty)
        assert out.dtype == bool and len(out) == 0
        assert index.queries == 0

    def test_base_fallback_agrees(self):
        # The base-class batched probe loops over might_contain; a
        # subclass that only implements the scalar probe still answers
        # the batch kernel correctly.
        index = NullEdgeIndex()
        out = EdgeIndexBase.might_contain_pairs(
            index, np.array([1, 2, 3]), np.array([0, 0, 0])
        )
        assert out.tolist() == [True, True, True]
        assert index.queries == 3

    def test_counters_count_every_key_not_uniques(self):
        # The bloom prober hashes each unique key once, but the cost
        # ledger derives from queries/positives, so dedup must never
        # shrink them: 400 probes of one present edge is 400 of each.
        index = BloomEdgeIndex(self.GRAPH)
        u, v = next(iter(self.GRAPH.edges()))
        answers = index.might_contain_pairs(
            np.full(400, int(u), dtype=np.int64),
            np.full(400, int(v), dtype=np.int64),
        )
        assert answers.all()
        assert index.queries == 400
        assert index.positives == 400
