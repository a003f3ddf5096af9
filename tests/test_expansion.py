"""Unit tests for partial subgraph instance expansion (Algorithms 1-2)."""

from repro.core import Gpsi, UNMAPPED, expand_gpsi
from repro.core.cost import DEFAULT_COSTS
from repro.core.edge_index import BloomEdgeIndex, ExactEdgeIndex, NullEdgeIndex
from repro.graph import Graph, OrderedGraph, complete_graph
from repro.pattern import PatternGraph, square, triangle


def env(graph):
    """The paper's bloom index: a full mapping with an uncovered edge
    waits for its verification expansion (an exact index closes it at
    once — :class:`TestExactIndexCloses`)."""
    return OrderedGraph(graph), BloomEdgeIndex(graph)


class TestTriangleExpansion:
    def test_initial_expansion_generates_pairs(self):
        g = complete_graph(4)
        ordered, index = env(g)
        pattern = triangle()
        # initial vertex v1 at data vertex 0 (lowest rank)
        outcome = expand_gpsi(Gpsi.initial(pattern, 0, 0), pattern, ordered, index)
        # candidates above rank 0: {1,2,3}; ordered pairs (c2<c3): C(3,2)=3
        assert len(outcome.pending) + len(outcome.complete) == 3
        assert outcome.generated == 3
        # mappings are fully mapped but edge (v2,v3) unverified ->
        # pending, not complete
        assert outcome.complete == []
        for child in outcome.pending:
            assert child.fully_mapped()
            assert child.is_black(0)

    def test_second_expansion_completes(self):
        g = complete_graph(4)
        ordered, index = env(g)
        pattern = triangle()
        first = expand_gpsi(Gpsi.initial(pattern, 0, 0), pattern, ordered, index)
        done = 0
        for child in first.pending:
            nxt = child.with_next(child.useful_grays(pattern)[0])
            outcome = expand_gpsi(nxt, pattern, ordered, index)
            done += len(outcome.complete)
        assert done == 3  # all three triangles through vertex 0 of K4

    def test_dead_gpsi_on_missing_edge(self):
        # path graph: no triangle can close
        g = Graph(3, [(0, 1), (1, 2)])
        ordered, index = env(g)
        pattern = triangle().with_partial_order(())
        # fake instance claiming (0,1,2) is a triangle; expanding v2 at 1
        # checks gray edges (1's neighbours in pattern: 0 black? no)...
        gpsi = Gpsi((0, 1, 2), black=0b001, next_vertex=1)
        outcome = expand_gpsi(gpsi, pattern, ordered, index)
        # edge (map v2=1, map v3=2) exists; edge check of gray v3 passes,
        # but completion needs (v1,v3) = (0,2) verified by expanding v3.
        for child in outcome.pending:
            final = expand_gpsi(
                child.with_next(child.useful_grays(pattern)[0]),
                pattern,
                ordered,
                index,
            )
            assert final.died  # (0,2) is not an edge


class TestCostCharging:
    def test_cost_positive_and_scan_dominated(self):
        g = complete_graph(6)
        ordered, index = env(g)
        pattern = triangle()
        outcome = expand_gpsi(Gpsi.initial(pattern, 0, 0), pattern, ordered, index)
        # two white neighbours scanned over deg(0)=5 -> at least 10 scan units
        assert outcome.cost >= 10

    def test_verification_only_cost_small(self):
        g = complete_graph(4)
        ordered, index = env(g)
        pattern = triangle()
        gpsi = Gpsi((0, 1, 2), black=0b011, next_vertex=2)
        outcome = expand_gpsi(gpsi, pattern, ordered, index)
        assert outcome.complete == [(0, 1, 2)]
        assert outcome.cost <= 2  # just gray checks


class TestVerificationExpansion:
    def test_no_white_neighbors_advances_colors(self):
        g = complete_graph(5)
        ordered, index = env(g)
        pattern = square()
        # all mapped, only v1 black; expanding v2 verifies edge (v2,v3)
        gpsi = Gpsi((0, 1, 2, 3), black=0b0001, next_vertex=1)
        outcome = expand_gpsi(gpsi, pattern, ordered, index)
        assert len(outcome.pending) == 1
        child = outcome.pending[0]
        assert child.is_black(1)
        assert child.mapping == (0, 1, 2, 3)

    def test_generated_counts_verification_as_one(self):
        g = complete_graph(5)
        ordered, index = env(g)
        pattern = square()
        gpsi = Gpsi((0, 1, 2, 3), black=0b0001, next_vertex=1)
        assert expand_gpsi(gpsi, pattern, ordered, index).generated == 1


class TestIndexFalsePositiveKilledLater:
    def test_null_index_children_die_at_exact_check(self):
        # With the null index the square's cross-edge filter is skipped;
        # the invalid Gpsis must die at the later exact verification.
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])  # C5
        ordered = OrderedGraph(g)
        null_index = NullEdgeIndex()
        pattern = square()
        total_complete = 0
        frontier = []
        for v in g.vertices():
            outcome = expand_gpsi(
                Gpsi.initial(pattern, 0, v), pattern, ordered, null_index
            )
            frontier.extend(outcome.pending)
            total_complete += len(outcome.complete)
        while frontier:
            gpsi = frontier.pop()
            grays = gpsi.useful_grays(pattern)
            outcome = expand_gpsi(
                gpsi.with_next(grays[0]), pattern, ordered, null_index
            )
            frontier.extend(outcome.pending)
            total_complete += len(outcome.complete)
        assert total_complete == 0  # C5 has no squares


class TestMultiWhiteCombination:
    def test_clique_initial_expansion(self):
        g = complete_graph(5)
        ordered, index = env(g)
        pattern = PatternGraph(
            4,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        )
        outcome = expand_gpsi(Gpsi.initial(pattern, 0, 0), pattern, ordered, index)
        # candidates above vertex 0: {1,2,3,4}; ordered triples: C(4,3)=4
        assert outcome.generated == 4
        for child in outcome.pending:
            m = child.mapping
            assert m[1] < m[2] < m[3]


class TestExactIndexCloses:
    """Under an exact index a full mapping is complete where it is
    generated: its uncovered edges were proved by the probes that
    admitted their endpoints, and their verification is charged there."""

    def test_initial_triangle_expansion_completes(self):
        g = complete_graph(4)
        ordered, index = OrderedGraph(g), ExactEdgeIndex(g)
        pattern = triangle()
        start = Gpsi.initial(pattern, 0, 0)
        closed = expand_gpsi(start, pattern, ordered, index)
        waiting = expand_gpsi(start, pattern, ordered, BloomEdgeIndex(g))
        assert closed.pending == []
        assert sorted(closed.complete) == [(0, 1, 2), (0, 1, 3), (0, 2, 3)]
        assert closed.generated == waiting.generated == 3
        # One gray check per closed uncovered edge (v2, v3).
        assert closed.cost == waiting.cost + 3 * DEFAULT_COSTS.gray_check

    def test_verification_expansion_of_a_full_square_completes(self):
        g = complete_graph(5)
        ordered, index = OrderedGraph(g), ExactEdgeIndex(g)
        pattern = square()
        gpsi = Gpsi((0, 1, 2, 3), black=0b0001, next_vertex=1)
        outcome = expand_gpsi(gpsi, pattern, ordered, index)
        assert outcome.pending == []
        assert outcome.complete == [(0, 1, 2, 3)]
        assert outcome.generated == 1

    def test_exactness_is_inherited(self):
        class Subclassed(ExactEdgeIndex):
            pass

        g = complete_graph(4)
        assert ExactEdgeIndex(g).detached_view().exact
        assert Subclassed(g).exact
        assert not BloomEdgeIndex(g).exact
        assert not NullEdgeIndex().exact
