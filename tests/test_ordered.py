"""Unit tests for repro.graph.ordered (Section 3's ordered graph)."""

import numpy as np

from repro.graph import Graph, OrderedGraph, complete_graph, star_graph


class TestRanking:
    def test_ranks_are_permutation(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        og = OrderedGraph(g)
        assert sorted(og.ranks) == list(range(5))

    def test_rank_orders_by_degree_first(self):
        # degrees: v0=1, v1=3, v2=2
        g = Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        og = OrderedGraph(g)
        assert og.precedes(0, 1)  # deg 1 < deg 3
        assert og.precedes(2, 1)  # deg 2 < deg 3

    def test_ties_broken_by_vertex_id(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])  # all degree 2
        og = OrderedGraph(g)
        assert og.precedes(0, 1)
        assert og.precedes(1, 2)
        assert og.rank(0) < og.rank(1) < og.rank(2)

    def test_precedes_is_strict_total_order(self):
        g = complete_graph(4)
        og = OrderedGraph(g)
        for u in g.vertices():
            assert not og.precedes(u, u)
            for v in g.vertices():
                if u != v:
                    assert og.precedes(u, v) != og.precedes(v, u)


class TestRankWindowArrays:
    """The rank -> vertex map, the rank-keyed adjacency and the degree
    floor as a rank: what ``_white_candidates`` searches."""

    GRAPH = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5), (2, 5)])

    def test_by_rank_inverts_ranks(self):
        og = OrderedGraph(self.GRAPH)
        assert og.by_rank[og.ranks].tolist() == list(range(7))

    def test_rank_keys_list_each_neighbourhood_in_rank_order(self):
        g = self.GRAPH
        og = OrderedGraph(g)
        keys = og.rank_keys
        assert keys is og.rank_keys and not keys.flags.writeable
        assert len(keys) == 2 * g.num_edges and (keys[1:] > keys[:-1]).all()
        shift = og.rank_shift
        for u in g.vertices():
            mine = keys[(keys >> shift) == u] & ((1 << shift) - 1)
            assert og.by_rank[mine].tolist() == sorted(
                g.neighbors(u).tolist(), key=og.rank
            )

    def test_rank_floor_is_the_first_rank_of_the_degree(self):
        g = self.GRAPH  # degrees 3 2 3 2 2 2 0
        og = OrderedGraph(g)
        for degree in range(5):
            floor = og.rank_floor(degree)
            admitted = {int(v) for v in og.by_rank[floor:]}
            assert admitted == {v for v in g.vertices() if g.degree(v) >= degree}


class TestNbNs:
    def test_nb_plus_ns_is_degree(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
        og = OrderedGraph(g)
        for v in g.vertices():
            assert og.nb(v) + og.ns(v) == g.degree(v)

    def test_sums_equal_edge_count(self):
        g = complete_graph(7)
        og = OrderedGraph(g)
        nb_sum, ns_sum, m = og.check_property1()
        assert nb_sum == ns_sum == m == 21

    def test_star_hub_has_all_nb(self):
        g = star_graph(6)
        og = OrderedGraph(g)
        # hub 0 has max degree -> ranks last -> all neighbours below it
        assert og.nb(0) == 5
        assert og.ns(0) == 0
        for leaf in range(1, 6):
            assert og.nb(leaf) == 0
            assert og.ns(leaf) == 1

    def test_lowest_ranked_vertex_has_zero_nb(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        og = OrderedGraph(g)
        lowest = int(np.argmin(og.ranks))
        assert og.nb(lowest) == 0

    def test_nb_values_ns_values_vectors(self):
        g = complete_graph(4)
        og = OrderedGraph(g)
        assert list(og.nb_values) == [og.nb(v) for v in g.vertices()]
        assert list(og.ns_values) == [og.ns(v) for v in g.vertices()]

    def test_repr(self):
        assert "OrderedGraph" in repr(OrderedGraph(complete_graph(3)))
