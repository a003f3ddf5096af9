"""Unit tests for initial-pattern-vertex selection (Section 5.2.2)."""

from repro.core import (
    DegreeStatistics,
    PSgL,
    deterministic_initial_vertex,
    estimate_initial_vertex_cost,
    is_clique,
    is_cycle,
    lowest_rank_vertex,
    select_initial_vertex,
)
from repro.graph import chung_lu_power_law, erdos_renyi
from repro.pattern import PatternGraph, clique4, diamond, house, square, triangle


class TestShapeDetectors:
    def test_cliques(self):
        assert is_clique(triangle())
        assert is_clique(clique4())
        assert not is_clique(square())
        assert not is_clique(diamond())

    def test_cycles(self):
        assert is_cycle(square())
        assert is_cycle(triangle())  # C3 == K3
        assert not is_cycle(diamond())
        assert not is_cycle(house())

    def test_edge_pattern_not_cycle(self):
        assert not is_cycle(PatternGraph(2, [(0, 1)]))


class TestLowestRank:
    def test_triangle_lowest_is_v1(self):
        assert lowest_rank_vertex(triangle()) == 0

    def test_square_lowest_is_v1(self):
        assert lowest_rank_vertex(square()) == 0

    def test_clique4_lowest_is_v1(self):
        assert lowest_rank_vertex(clique4()) == 0

    def test_house_has_no_global_lowest(self):
        assert lowest_rank_vertex(house()) is None

    def test_orderless_pattern(self):
        assert lowest_rank_vertex(PatternGraph(3, [(0, 1), (1, 2)])) is None


class TestDeterministicRule:
    def test_applies_to_cycles_and_cliques(self):
        assert deterministic_initial_vertex(triangle()) == 0
        assert deterministic_initial_vertex(square()) == 0
        assert deterministic_initial_vertex(clique4()) == 0

    def test_rejects_general_patterns(self):
        assert deterministic_initial_vertex(diamond()) is None
        assert deterministic_initial_vertex(house()) is None


class TestCostModel:
    def test_estimates_positive(self):
        g = erdos_renyi(200, 0.05, seed=1)
        stats = DegreeStatistics.of(g)
        for v in square().vertices():
            assert estimate_initial_vertex_cost(square(), v, stats) > 0

    def test_theorem5_on_power_law(self):
        """On a skewed graph the lowest-rank vertex must estimate cheapest
        for cycles and cliques (the cost model agrees with Theorem 5)."""
        g = chung_lu_power_law(800, 1.8, avg_degree=6, max_degree=100, seed=2)
        stats = DegreeStatistics.of(g)
        for pattern in [square(), clique4()]:
            costs = {
                v: estimate_initial_vertex_cost(pattern, v, stats)
                for v in pattern.vertices()
            }
            assert min(costs, key=costs.get) == 0, (pattern.name, costs)

    def test_gap_larger_on_power_law_than_random(self):
        """Section 5.2.2: the initial-vertex effect is strong on power-law
        graphs and mild on ER graphs."""
        pl = chung_lu_power_law(800, 1.8, avg_degree=6, max_degree=100, seed=3)
        er = erdos_renyi(800, 6 / 799, seed=4)
        pattern = clique4()

        def spread(graph):
            stats = DegreeStatistics.of(graph)
            values = [
                estimate_initial_vertex_cost(pattern, v, stats)
                for v in pattern.vertices()
            ]
            return max(values) / min(values)

        assert spread(pl) > spread(er)


class TestSelect:
    """``select_initial_vertex(pattern, graph)`` applies one rule: Theorem
    5 where it applies, Algorithm 4's cheapest vertex otherwise."""

    def test_method_first(self):
        """Figure 6's no-optimisation baseline, vertex 0, is a forced
        initial vertex, not a selection rule."""
        g = erdos_renyi(50, 0.1, seed=5)
        result = PSgL(g, num_workers=2).run(house(), initial_vertex=0)
        assert result.initial_vertex == 0

    def test_method_auto_uses_rule_for_cycles(self):
        g = erdos_renyi(50, 0.1, seed=6)
        assert select_initial_vertex(square(), g) == 0
        assert deterministic_initial_vertex(square()) == 0

    def test_method_deterministic_fallback(self):
        """Theorem 5 has no rule for a diamond, so the cost model picks."""
        assert deterministic_initial_vertex(diamond()) is None

    def test_cost_model_returns_valid_vertex(self):
        g = chung_lu_power_law(300, 2.0, avg_degree=5, seed=8)
        stats = DegreeStatistics.of(g)
        estimates = [
            estimate_initial_vertex_cost(house(), v, stats) for v in range(5)
        ]
        assert select_initial_vertex(house(), g) == estimates.index(min(estimates))

    def test_auto_on_general_pattern_runs_model(self):
        g = chung_lu_power_law(300, 2.0, avg_degree=5, seed=9)
        v = select_initial_vertex(diamond(), g)
        assert 0 <= v < 4
