"""Unit tests for candidate-set generation (Algorithm 5)."""

from repro.core import Gpsi, UNMAPPED, candidate_set_scalar, combination_consistent
from repro.core.edge_index import ExactEdgeIndex, NullEdgeIndex
from repro.graph import Graph, OrderedGraph, complete_graph, star_graph
from repro.pattern import PatternGraph, square, triangle


def make_env(graph):
    ordered = OrderedGraph(graph)
    return ordered, ExactEdgeIndex(graph)


class TestDegreeRule:
    def test_low_degree_candidates_pruned(self):
        # star: leaves have degree 1; pattern vertex needs degree 2.
        g = star_graph(5)
        ordered, index = make_env(g)
        pattern = triangle()  # every pattern vertex has degree 2
        gpsi = Gpsi.initial(pattern, 0, 0)  # hub mapped to v0
        cands = candidate_set_scalar(gpsi, 1, 0, 0, pattern, ordered, index)
        assert cands == []  # all leaves fail deg >= 2


class TestPartialOrderRule:
    def test_rank_bounds_applied(self):
        g = complete_graph(4)
        ordered, index = make_env(g)
        pattern = triangle()  # order v1<v2<v3
        # map v1 (lowest) to data vertex 2: candidates for v2 must rank
        # above 2 -> only vertex 3 (K4 order follows ids).
        gpsi = Gpsi.initial(pattern, 0, 2)
        cands = candidate_set_scalar(gpsi, 1, 0, 2, pattern, ordered, index)
        assert cands == [3]

    def test_upper_bound_from_mapped_above(self):
        g = complete_graph(5)
        ordered, index = make_env(g)
        pattern = triangle()
        # v1 -> 0 and v3 -> 2 mapped; candidates for v2 must lie strictly
        # between them: only vertex 1.
        gpsi = Gpsi((0, UNMAPPED, 2), black=0, next_vertex=0)
        cands = candidate_set_scalar(gpsi, 1, 0, 0, pattern, ordered, index)
        assert cands == [1]

    def test_contradictory_bounds_empty(self):
        g = complete_graph(5)
        ordered, index = make_env(g)
        pattern = triangle()
        # v1 -> 4 (highest rank): nothing ranks above it for v2.
        gpsi = Gpsi.initial(pattern, 0, 4)
        assert candidate_set_scalar(gpsi, 1, 0, 4, pattern, ordered, index) == []


class TestInjectivity:
    def test_used_vertices_excluded(self):
        g = complete_graph(4)
        ordered, index = make_env(g)
        pattern = PatternGraph(3, [(0, 1), (1, 2)])  # path, no order
        gpsi = Gpsi((0, 1, UNMAPPED), black=0b01, next_vertex=1)
        cands = candidate_set_scalar(gpsi, 2, 1, 1, pattern, ordered, index)
        assert 0 not in cands and 1 not in cands
        assert set(cands) == {2, 3}


class TestConnectivityRule:
    def test_gray_neighbor_edge_checked(self):
        # path data graph 0-1-2-3-4: candidate for a white vertex adjacent
        # to a gray one must connect to the gray's image.  (The extra edge
        # (3,4) keeps vertex 3 past the degree rule so the connectivity
        # rule is what prunes it.)
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        ordered, index = make_env(g)
        # pattern: triangle-free square chunk -> use square's v3 (white),
        # adjacent to grays v2 and v4.
        pattern = square().with_partial_order(())  # drop order: isolate rule
        # v1->1 black, v2->0 gray, v4->2 gray; candidates for v3 from N(0)
        gpsi = Gpsi((1, 0, UNMAPPED, 2), black=0b0001, next_vertex=1)
        cands = candidate_set_scalar(gpsi, 2, 1, 0, pattern, ordered, index)
        # N(0) = {1}; 1 is used -> empty
        assert cands == []
        # now expand from v4's side: N(2) = {1, 3}; 1 used; 3 must have an
        # edge to map(v2)=0 which does not exist -> pruned by the index.
        gpsi2 = Gpsi((1, 0, UNMAPPED, 2), black=0b0001, next_vertex=3)
        cands2 = candidate_set_scalar(gpsi2, 2, 3, 2, pattern, ordered, index)
        assert cands2 == []
        assert index.pruned >= 1

    def test_null_index_skips_connectivity(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        ordered = OrderedGraph(g)
        pattern = square().with_partial_order(())
        gpsi = Gpsi((1, 0, UNMAPPED, 2), black=0b0001, next_vertex=3)
        cands = candidate_set_scalar(gpsi, 2, 3, 2, pattern, ordered, NullEdgeIndex())
        # without the index the invalid candidate 3 survives
        assert cands == [3]


class TestCombinationConsistency:
    def test_distinctness(self):
        g = complete_graph(5)
        ordered, index = make_env(g)
        pattern = square().with_partial_order(())
        assert not combination_consistent([2, 2], [1, 3], pattern, ordered, index)

    def test_cross_partial_order(self):
        g = complete_graph(5)
        ordered, index = make_env(g)
        pattern = square()  # order includes (1,3): v2 < v4
        assert combination_consistent([1, 3], [1, 3], pattern, ordered, index)
        assert not combination_consistent([3, 1], [1, 3], pattern, ordered, index)

    def test_cross_edge_via_index(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        ordered, index = make_env(g)
        # pattern where the two new whites are adjacent
        pattern = triangle().with_partial_order(())
        assert combination_consistent([1, 2], [1, 2], pattern, ordered, index)
        assert not combination_consistent([0, 3], [1, 2], pattern, ordered, index)
