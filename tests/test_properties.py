"""Property-based tests (hypothesis) for the core invariants.

These are the DESIGN.md Section 5 invariants: exact-once enumeration
across random graphs, agreement of every engine with the oracle,
Property 1 identities, bloom soundness, and cost-ledger consistency.
"""

import dataclasses
import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import PSgL
from repro.baselines import (
    afrati_listing,
    count_instances,
    count_triangles,
    powergraph_general,
    powergraph_triangles,
    sgia_mr_listing,
)
from repro.bsp import ExecutionConfig, WIRE_PLANES
from repro.core import BloomFilter, Gpsi, binomial, expand_gpsi
from repro.core.edge_index import ExactEdgeIndex
from repro.graph import Graph, OrderedGraph
from repro.pattern import (
    PatternGraph,
    automorphisms,
    break_automorphisms,
    count_order_preserving_automorphisms,
    paper_patterns,
)

from .parity import assert_equivalent, reference_run

SETTINGS = dict(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_graphs(draw, max_vertices=24, edge_fraction=0.4):
    """Small random graphs as (n, edge set)."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(
            st.sampled_from(possible),
            max_size=int(len(possible) * edge_fraction) + 1,
            unique=True,
        )
    )
    return Graph(n, edges)


@st.composite
def small_patterns(draw):
    """Connected patterns with 2-5 vertices, symmetry broken."""
    k = draw(st.integers(min_value=2, max_value=5))
    # random spanning tree guarantees connectivity
    edges = set()
    for v in range(1, k):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((parent, v))
    extra = [(i, j) for i in range(k) for j in range(i + 1, k) if (i, j) not in edges]
    edges.update(draw(st.lists(st.sampled_from(extra), unique=True)) if extra else [])
    return break_automorphisms(PatternGraph(k, edges))


class TestExactOnceEnumeration:
    @settings(**SETTINGS)
    @given(random_graphs(), st.sampled_from(list(paper_patterns().values())))
    def test_psgl_matches_oracle(self, graph, pattern):
        assert PSgL(graph, num_workers=3, seed=1).count(pattern) == count_instances(
            graph, pattern
        )

    @settings(**SETTINGS)
    @given(random_graphs(max_vertices=16), small_patterns())
    def test_psgl_matches_oracle_random_patterns(self, graph, pattern):
        assert PSgL(graph, num_workers=2, seed=2).count(pattern) == count_instances(
            graph, pattern
        )

    @settings(**SETTINGS)
    @given(random_graphs(max_vertices=14), small_patterns())
    def test_no_duplicate_instances(self, graph, pattern):
        result = PSgL(graph, num_workers=2, seed=3).run(
            pattern, collect_instances=True
        )
        assert len(set(result.instances)) == len(result.instances)

    @settings(**SETTINGS)
    @given(random_graphs(max_vertices=14), small_patterns())
    def test_every_reported_instance_is_real(self, graph, pattern):
        result = PSgL(graph, num_workers=2, seed=4).run(
            pattern, collect_instances=True
        )
        for mapping in result.instances:
            assert len(set(mapping)) == pattern.num_vertices
            for a, b in pattern.edges():
                assert graph.has_edge(mapping[a], mapping[b])


@st.composite
def legal_execution_kwargs(draw):
    """A legal ``ExecutionConfig``, as keyword arguments, drawn over
    every field.  Process legs are a sixth of the draws: each forks its
    lanes."""
    backend = draw(st.sampled_from(["serial"] * 5 + ["process"]))
    kwargs = dict(
        backend=backend,
        procs=None if backend == "serial" else draw(st.integers(1, 3)),
        wire=draw(st.sampled_from(WIRE_PLANES)),
        # Budgets far above anything a 14-vertex graph needs: legal,
        # enforced, and never the reason a run ends.
        memory_budget=draw(st.sampled_from([None, 10**9])),
        worker_memory_budget=draw(st.sampled_from([None, 10**9])),
        max_supersteps=draw(st.sampled_from([1000, 50])),
        superstep_budget=draw(st.sampled_from([None, 50])),
        wall_budget_seconds=draw(st.sampled_from([None, 600.0])),
    )
    return kwargs


class TestAnyLegalConfigurationIsEquivalent:
    """The whole legal configuration space against one oracle: whatever
    ``ExecutionConfig`` is drawn, the run equals the paper-faithful
    reference run observable for observable, and the centralized
    counter."""

    def test_strategy_draws_every_field(self):
        # A knob added to the dataclass must be added to the strategy:
        # that is what keeps "covered by existing" true.
        drawable = {
            "backend", "procs", "wire", "memory_budget",
            "worker_memory_budget", "max_supersteps", "superstep_budget",
            "wall_budget_seconds",
        }
        assert drawable == {
            spec.name for spec in dataclasses.fields(ExecutionConfig)
        }

    @settings(**{**SETTINGS, "max_examples": 40})
    @given(
        random_graphs(max_vertices=14),
        st.sampled_from(sorted(paper_patterns())),
        st.integers(1, 4),
        st.integers(0, 50),
        legal_execution_kwargs(),
    )
    def test_drawn_config_matches_reference_and_oracle(
        self, graph, pattern_name, workers, seed, kwargs
    ):
        reference = reference_run(
            graph, pattern_name, num_workers=workers, seed=seed
        )
        result = assert_equivalent(ExecutionConfig(**kwargs), reference)
        assert result.count == count_instances(
            graph, paper_patterns()[pattern_name]
        )


class TestEnginesAgree:
    @settings(**SETTINGS)
    @given(random_graphs(max_vertices=18))
    def test_triangle_counters_agree(self, graph):
        expected = count_triangles(graph)
        assert powergraph_triangles(graph, num_machines=3).count == expected
        assert PSgL(graph, num_workers=2).count(paper_patterns()["PG1"]) == expected

    @settings(deadline=None, max_examples=12)
    @given(
        random_graphs(max_vertices=14),
        st.sampled_from(["PG1", "PG2", "PG3"]),
    )
    def test_mapreduce_baselines_agree(self, graph, name):
        pattern = paper_patterns()[name]
        expected = count_instances(graph, pattern)
        assert afrati_listing(graph, pattern, num_reducers=4).count == expected
        assert sgia_mr_listing(graph, pattern, num_reducers=4).count == expected
        assert powergraph_general(graph, pattern, num_machines=4).count == expected


class TestSymmetryBreaking:
    @settings(**SETTINGS)
    @given(small_patterns())
    def test_breaking_is_complete(self, pattern):
        assert count_order_preserving_automorphisms(pattern) == 1

    @settings(**SETTINGS)
    @given(random_graphs(max_vertices=12), small_patterns())
    def test_group_order_factorisation(self, graph, pattern):
        """unbroken count == |Aut| * broken count, on any data graph."""
        raw = pattern.with_partial_order(())
        group = len(automorphisms(raw))
        assert count_instances(graph, raw) == group * count_instances(graph, pattern)


class TestOrderedGraphProperties:
    @settings(**SETTINGS)
    @given(random_graphs())
    def test_nb_ns_partition_degree(self, graph):
        og = OrderedGraph(graph)
        for v in graph.vertices():
            assert og.nb(v) + og.ns(v) == graph.degree(v)

    @settings(**SETTINGS)
    @given(random_graphs())
    def test_sums_equal_edges(self, graph):
        og = OrderedGraph(graph)
        nb_sum, ns_sum, m = og.check_property1()
        assert nb_sum == ns_sum == m

    @settings(**SETTINGS)
    @given(random_graphs())
    def test_rank_is_permutation(self, graph):
        og = OrderedGraph(graph)
        assert sorted(og.ranks) == list(range(graph.num_vertices))


class TestBloomSoundness:
    @settings(**SETTINGS)
    @given(
        st.lists(st.integers(min_value=0, max_value=10**9), unique=True, max_size=300),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_no_false_negatives_ever(self, keys, seed):
        bloom = BloomFilter(max(len(keys), 1), 0.05, seed=seed)
        for k in keys:
            bloom.add(k)
        assert all(k in bloom for k in keys)


class TestLedgerConsistency:
    @settings(deadline=None, max_examples=15)
    @given(random_graphs(max_vertices=18), st.integers(min_value=1, max_value=6))
    def test_makespan_bounds(self, graph, workers):
        result = PSgL(graph, num_workers=workers, seed=5).run(
            paper_patterns()["PG2"]
        )
        total = result.ledger.total_cost()
        assert result.makespan <= total + 1e-9
        assert result.makespan >= total / workers - 1e-9


class TestBinomialMath:
    @given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60))
    def test_pascal_identity(self, n, k):
        # binomial() is a float-valued cost *estimate* by contract, so the
        # identity is exact only while all three terms fit a float
        # mantissa (< 2**53); beyond that the two sides may round a tie
        # differently (first seen at C(58, 33)) and the property holds to
        # within one ulp.
        if 1 <= k <= n:
            lhs = binomial(n, k)
            rhs = binomial(n - 1, k - 1) + binomial(n - 1, k)
            if lhs < 2.0**53:
                assert lhs == rhs
            else:
                assert math.isclose(lhs, rhs, rel_tol=1e-15)


class TestExpansionInvariants:
    @settings(**SETTINGS)
    @given(random_graphs(max_vertices=14))
    def test_children_extend_parent(self, graph):
        """Every Gpsi produced by expansion preserves the parent's
        assignments and blackens exactly the expanded vertex."""
        pattern = paper_patterns()["PG2"]
        ordered = OrderedGraph(graph)
        index = ExactEdgeIndex(graph)
        for v in graph.vertices():
            if graph.degree(v) < 2:
                continue
            parent = Gpsi.initial(pattern, 0, v)
            outcome = expand_gpsi(parent, pattern, ordered, index)
            for child in outcome.pending:
                assert child.mapping[0] == v
                assert child.is_black(0)
                assert bin(child.black).count("1") == 1
