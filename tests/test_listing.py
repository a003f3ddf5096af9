"""Integration tests for the PSgL driver: counts, statistics, options."""

import inspect

import pytest

from repro import PSgL, SimulatedOOMError
from repro.baselines import count_instances
from repro.core import DEFAULT_COSTS, run_reference, select_initial_vertex
from repro.core.edge_index import build_edge_index
from repro.exceptions import EngineError, PatternError
from repro.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    star_graph,
)
from repro.pattern import (
    PatternGraph,
    clique,
    clique4,
    diamond,
    house,
    paper_patterns,
    square,
    triangle,
)


class TestClosedFormCounts:
    """Counts with known closed forms on deterministic graphs."""

    def test_triangles_in_kn(self):
        # C(n,3)
        for n, expected in [(4, 4), (5, 10), (6, 20), (7, 35)]:
            assert PSgL(complete_graph(n), num_workers=3).count(triangle()) == expected

    def test_squares_in_kn(self):
        # 3 * C(n,4) four-cycles in K_n
        assert PSgL(complete_graph(5), num_workers=2).count(square()) == 15
        assert PSgL(complete_graph(6), num_workers=4).count(square()) == 45

    def test_k4_in_kn(self):
        # C(n,4)
        assert PSgL(complete_graph(6)).count(clique4()) == 15
        assert PSgL(complete_graph(7)).count(clique4()) == 35

    def test_k5_in_k7(self):
        assert PSgL(complete_graph(7)).count(clique(5)) == 21

    def test_squares_in_grid(self):
        # unit squares in a 3x3 grid: 4
        assert PSgL(grid_graph(3, 3)).count(square()) == 4

    def test_cycle_has_no_squares(self):
        assert PSgL(cycle_graph(7)).count(square()) == 0

    def test_cn_contains_itself(self):
        from repro.pattern import cycle as cycle_pattern

        assert PSgL(cycle_graph(6)).count(cycle_pattern(6)) == 1

    def test_star_has_no_triangles(self):
        assert PSgL(star_graph(10)).count(triangle()) == 0

    def test_diamonds_in_kn(self):
        # diamond instances in K5: C(5,4) * (6 edges choosable as the
        # missing one) ... cross-check the oracle instead of deriving
        g = complete_graph(5)
        assert PSgL(g).count(diamond()) == count_instances(g, diamond())

    def test_figure1_squares(self):
        """The paper's running example: Gd contains exactly the three
        squares {1,2,3,5}, {1,2,5,6}, {2,3,4,5} (1-based)."""
        edges_1based = [
            (1, 2), (1, 5), (1, 6), (2, 3), (2, 5),
            (3, 4), (3, 5), (4, 5), (5, 6),
        ]
        g = Graph(6, [(u - 1, v - 1) for u, v in edges_1based])
        result = PSgL(g, num_workers=2).run(square(), collect_instances=True)
        assert result.count == 3
        found = {frozenset(m) for m in result.instances}
        assert found == {
            frozenset({0, 1, 2, 4}),
            frozenset({0, 1, 4, 5}),
            frozenset({1, 2, 3, 4}),
        }


class TestAgainstOracle:
    @pytest.mark.parametrize("pattern_name", ["PG1", "PG2", "PG3", "PG4", "PG5"])
    def test_er_graph(self, pattern_name):
        g = erdos_renyi(70, 0.12, seed=11)
        pattern = paper_patterns()[pattern_name]
        assert PSgL(g, num_workers=5, seed=3).count(pattern) == count_instances(
            g, pattern
        )

    @pytest.mark.parametrize(
        "strategy", ["random", "roulette", "WA,0", "WA,0.5", "WA,1"]
    )
    def test_every_strategy_same_count(self, strategy):
        g = erdos_renyi(60, 0.12, seed=12)
        expected = count_instances(g, square())
        assert (
            PSgL(g, num_workers=4, strategy=strategy, seed=5).count(square())
            == expected
        )

    @pytest.mark.parametrize("workers", [1, 2, 7, 16])
    def test_worker_count_irrelevant_to_count(self, workers):
        g = erdos_renyi(50, 0.15, seed=13)
        expected = count_instances(g, triangle())
        assert PSgL(g, num_workers=workers).count(triangle()) == expected

    @pytest.mark.parametrize("index_kind", ["bloom", "exact", "none"])
    def test_index_choice_irrelevant_to_count(self, index_kind):
        g = erdos_renyi(50, 0.15, seed=14)
        expected = count_instances(g, square())
        assert (
            PSgL(g, num_workers=4, edge_index=index_kind).count(square()) == expected
        )

    def test_every_initial_vertex_same_count(self):
        g = erdos_renyi(40, 0.18, seed=15)
        expected = count_instances(g, square())
        for v0 in range(4):
            assert (
                PSgL(g, num_workers=3).count(square(), initial_vertex=v0) == expected
            )

    def test_unbroken_pattern_auto_breaks(self):
        g = erdos_renyi(40, 0.15, seed=16)
        raw_square = PatternGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert PSgL(g).count(raw_square) == count_instances(g, square())


class TestResultMetadata:
    def test_supersteps_within_theorem1_bounds(self):
        """Theorem 1: |MVC| <= expansion supersteps <= |Vp| - 1.

        Our superstep count includes the initialization superstep and the
        final empty barrier, so expansion steps = supersteps - 1."""
        g = erdos_renyi(60, 0.12, seed=17)
        for pattern in paper_patterns().values():
            result = PSgL(g, num_workers=4).run(pattern)
            expansions = result.supersteps - 1
            if result.count or result.total_gpsis:
                assert expansions >= pattern.minimum_vertex_cover_size()
            assert expansions <= max(pattern.num_vertices, 1)

    def test_worker_costs_length(self):
        g = erdos_renyi(40, 0.1, seed=18)
        result = PSgL(g, num_workers=6).run(triangle())
        assert len(result.worker_costs) == 6

    def test_gpsi_by_vertex_keys_are_pattern_vertices(self):
        g = erdos_renyi(40, 0.15, seed=19)
        result = PSgL(g, num_workers=3).run(square())
        assert set(result.gpsi_by_vertex) <= set(range(4))

    def test_makespan_leq_total_cost(self):
        g = erdos_renyi(40, 0.15, seed=20)
        result = PSgL(g, num_workers=4).run(triangle())
        assert result.makespan <= result.ledger.total_cost() + 1e-9

    def test_index_stats_present(self):
        g = erdos_renyi(50, 0.12, seed=21)
        result = PSgL(g, num_workers=3).run(square())
        assert result.index_queries >= result.index_pruned >= 0

    def test_collect_instances_off_by_default(self):
        g = complete_graph(5)
        assert PSgL(g).run(triangle()).instances is None

    def test_repr(self):
        g = complete_graph(4)
        assert "PG1" in repr(PSgL(g).run(triangle()))


class TestErrorPaths:
    def test_bad_initial_vertex(self):
        with pytest.raises(PatternError):
            PSgL(complete_graph(4)).run(triangle(), initial_vertex=7)

    def test_total_memory_budget(self):
        g = complete_graph(12)
        with pytest.raises(SimulatedOOMError):
            PSgL(g, num_workers=2, memory_budget=10).run(clique4())

    def test_worker_memory_budget(self):
        g = complete_graph(12)
        with pytest.raises(SimulatedOOMError):
            PSgL(g, num_workers=2, worker_memory_budget=5).run(clique4())

    def test_oom_error_carries_context(self):
        g = complete_graph(12)
        try:
            PSgL(g, num_workers=2, memory_budget=10).run(clique4())
        except SimulatedOOMError as exc:
            assert exc.live > exc.budget == 10

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(edge_index="blom"), r"unknown edge index 'blom'; available: "
             r"\['bloom', 'exact', 'none'\]"),
            (dict(edge_index=None), "unknown edge index None"),
            (dict(edge_index_fp=1.5), r"edge_index_fp must be in \(0, 1\), got 1.5"),
            (dict(edge_index_fp=0.0), r"edge_index_fp must be in \(0, 1\)"),
            (dict(edge_index_fp=float("nan")), r"edge_index_fp must be in \(0, 1\)"),
            (dict(edge_index_fp="0.01"), "edge_index_fp must be float"),
        ],
        ids=["misspelt", "none", "fp-above-one", "fp-zero", "fp-nan", "fp-str"],
    )
    def test_bad_edge_index_refused_at_construction(self, kwargs, match):
        """Regression: a misspelt kind or an out-of-range bloom rate was
        accepted here and failed only in ``run()``, with a raw
        ``ValueError`` or an untyped ``ReproError``."""
        g = complete_graph(4)
        with pytest.raises(EngineError, match=match):
            PSgL(g, **kwargs)
        fp = kwargs.get("edge_index_fp", 0.01)
        with pytest.raises(EngineError, match=match):
            build_edge_index(g, kind=kwargs.get("edge_index", "bloom"), fp_rate=fp)

    @pytest.mark.parametrize("kind", ["exact", "none"])
    def test_fp_rate_is_read_only_by_the_bloom_index(self, kind):
        g = complete_graph(4)
        assert PSgL(g, edge_index=kind, edge_index_fp=1.5).count(triangle()) == 4
        build_edge_index(g, kind=kind, fp_rate=1.5)


class TestListingSurface:
    """The listing API takes only what its callers pass: the paper's
    strategy, initial vertex, worker count and edge index."""

    def test_knob_counts(self):
        def names(func):
            return [n for n in inspect.signature(func).parameters if n != "self"]

        assert names(PSgL.run) == [
            "pattern", "initial_vertex", "collect_instances", "count_per_vertex",
        ]
        assert names(run_reference) == ["driver"] + names(PSgL.run)
        assert names(PSgL.prepare) == ["pattern", "initial_vertex"]
        assert names(select_initial_vertex) == ["pattern", "graph"]
        assert len(names(PSgL.__init__)) == 13  # 12 and **overrides
        assert "costs" not in names(PSgL.__init__)

    @pytest.mark.parametrize(
        "option", ["auto_break", "initial_vertex_method", "track_message_bytes"]
    )
    def test_removed_run_options_are_type_errors(self, option):
        psgl = PSgL(complete_graph(4))
        with pytest.raises(TypeError, match=option):
            psgl.run(triangle(), **{option: True})
        with pytest.raises(TypeError, match=option):
            run_reference(psgl, triangle(), **{option: True})

    def test_costs_is_not_an_execution_field(self):
        with pytest.raises(EngineError, match="unknown costs: not an execution"):
            PSgL(complete_graph(4), costs=DEFAULT_COSTS)


class TestDeterminism:
    def test_same_seed_same_ledger(self):
        g = erdos_renyi(60, 0.12, seed=22)
        a = PSgL(g, num_workers=4, strategy="random", seed=9).run(square())
        b = PSgL(g, num_workers=4, strategy="random", seed=9).run(square())
        assert a.makespan == b.makespan
        assert a.worker_costs == b.worker_costs

    def test_different_seed_different_partition(self):
        g = erdos_renyi(60, 0.12, seed=23)
        a = PSgL(g, num_workers=4, strategy="random", seed=1).run(square())
        b = PSgL(g, num_workers=4, strategy="random", seed=2).run(square())
        assert a.count == b.count
        assert a.worker_costs != b.worker_costs


class TestPerVertexCounts:
    def test_k5_triangles_per_vertex(self):
        g = complete_graph(5)
        result = PSgL(g, num_workers=2).run(triangle(), count_per_vertex=True)
        # every vertex of K5 participates in C(4,2) = 6 triangles
        assert result.per_vertex_counts == {v: 6 for v in range(5)}

    def test_sums_to_pattern_size_times_count(self):
        g = erdos_renyi(50, 0.15, seed=30)
        result = PSgL(g, num_workers=4).run(square(), count_per_vertex=True)
        assert sum(result.per_vertex_counts.values()) == 4 * result.count

    def test_off_by_default(self):
        assert PSgL(complete_graph(4)).run(triangle()).per_vertex_counts is None

    def test_matches_local_triangle_counts(self):
        g = erdos_renyi(40, 0.2, seed=31)
        result = PSgL(g, num_workers=3).run(triangle(), count_per_vertex=True)
        for v in g.vertices():
            assert result.per_vertex_counts.get(v, 0) == g.triangles_at(v)


class TestMessageBytes:
    """Message volume is the ledger's measured wire bytes, on every run."""

    def test_tracked_when_requested(self):
        g = complete_graph(6)
        result = PSgL(g, num_workers=2).run(square())
        # every routed Gpsi is one packed row: 4 four-byte cells, one
        # 32-bit BLACK word, one next-vertex byte
        assert result.total_gpsis > 0
        assert result.ledger.total_wire_bytes() == 21 * result.total_gpsis

    def test_off_by_default(self):
        """No flag turns on a second, codec-priced accounting."""
        result = PSgL(complete_graph(4)).run(triangle())
        assert not hasattr(result, "message_bytes")
        with pytest.raises(TypeError, match="track_message_bytes"):
            PSgL(complete_graph(4)).run(triangle(), track_message_bytes=True)


class TestIndexReuse:
    def test_index_built_once_per_driver(self):
        g = erdos_renyi(50, 0.15, seed=32)
        psgl = PSgL(g, num_workers=2)
        psgl.run(triangle())
        first = psgl._edge_index
        psgl.run(square())
        assert psgl._edge_index is first

    def test_stats_reset_between_runs(self):
        g = erdos_renyi(50, 0.15, seed=33)
        psgl = PSgL(g, num_workers=2)
        a = psgl.run(square())
        b = psgl.run(square())
        assert a.index_queries == b.index_queries
