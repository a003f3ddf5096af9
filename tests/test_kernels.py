"""Parity tests for the one expansion path's probes and listing runs.

Expansion and edge-index probes have one implementation: the numpy
batch path (:mod:`repro.core.batch_expand`, the indexes' batched
``might_contain_pairs`` and :meth:`BloomFilter.might_contain_many`).
Each probe is pinned here against its scalar reference, and every
listing run against the oracle :func:`repro.core.run_reference` —
counts, instances, edge-index probe statistics and ledgers.  The native
(numba) tier and its ``kernel`` knob are retired; the refusal is pinned
too.
"""

import importlib
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bsp import ExecutionConfig
from repro.core import PSgL
from repro.core.bloom import BloomFilter
from repro.core.edge_index import (
    BloomEdgeIndex,
    ExactEdgeIndex,
    NullEdgeIndex,
    build_edge_index,
)
from repro.graph import Graph
from repro.graph.generators import erdos_renyi
from repro.pattern import paper_patterns

from .parity import assert_equivalent, assert_illegal, reference_run

GRAPH = erdos_renyi(48, 0.22, seed=11)
#: The end-to-end legs compare against the reference oracle, which is
#: several times slower than the batch path: a smaller graph keeps PG5 cheap.
LISTING_GRAPH = erdos_renyi(36, 0.22, seed=11)

INDEX_KINDS = ("none", "bloom", "exact")


@lru_cache(maxsize=None)
def reference(pattern_name, index_kind):
    return reference_run(LISTING_GRAPH, pattern_name, edge_index=index_kind)


def scalar_contains(bloom, keys):
    return [int(key) in bloom for key in keys]


# ----------------------------------------------------------------------
# The retired knob
# ----------------------------------------------------------------------
class TestResolution:
    def test_choices_and_unknown(self):
        assert not hasattr(ExecutionConfig(), "kernel")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.kernels")


# ----------------------------------------------------------------------
# Unit parity: batched probes vs their scalar references
# ----------------------------------------------------------------------
class TestProbeParity:
    def test_bloom_contains_many_matches_filter(self):
        rng = np.random.default_rng(0)
        bloom = BloomFilter(500, fp_rate=0.03, seed=9)
        members = rng.integers(0, 1 << 40, size=400, dtype=np.uint64)
        bloom.add_many(members)
        probes = np.concatenate(
            [members[:100], rng.integers(0, 1 << 40, size=300, dtype=np.uint64)]
        )
        got = bloom.might_contain_many(probes)
        assert got[:100].all()
        np.testing.assert_array_equal(got, scalar_contains(bloom, probes))

    def test_bloom_scalar_positions_match(self):
        # The batch walks (h1 + i*h2) mod m exactly like _probes does,
        # so even false positives agree key-by-key.
        bloom = BloomFilter(50, fp_rate=0.2, seed=3)
        bloom.add_many(np.arange(40, dtype=np.uint64) * 7919)
        keys = np.arange(3000, dtype=np.uint64)
        np.testing.assert_array_equal(
            bloom.might_contain_many(keys), scalar_contains(bloom, keys)
        )

    def test_sorted_contains_many(self):
        rng = np.random.default_rng(1)
        us = rng.integers(0, GRAPH.num_vertices, 800)
        vs = rng.integers(0, GRAPH.num_vertices, 800)
        index = ExactEdgeIndex(GRAPH)
        got = index.might_contain_pairs(us, vs)
        expected = [GRAPH.has_edge(int(u), int(v)) for u, v in zip(us, vs)]
        np.testing.assert_array_equal(got, expected)
        assert index.queries == 800
        assert index.positives == sum(expected) > 0

    def test_membership_sorted(self):
        # Adjacency [1, 2], [0, 2], [0, 1, 3], [2] and an empty one (4).
        graph = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3)])
        us = np.array([0, 0, 0, 2, 2, 3, 4, 4, 1], dtype=np.int64)
        vs = np.array([1, 3, 0, 3, 4, 2, 0, 4, 2], dtype=np.int64)
        np.testing.assert_array_equal(
            graph.has_edges(us, vs),
            [True, False, False, True, False, True, False, False, True],
        )

    def test_empty_inputs(self):
        bloom = BloomFilter(10, fp_rate=0.1, seed=1)
        assert len(bloom.might_contain_many(np.array([], np.uint64))) == 0
        empty = np.array([], dtype=np.int64)
        for kind in ("bloom", "exact"):
            index = build_edge_index(GRAPH, kind=kind, seed=5)
            assert len(index.might_contain_pairs(empty, empty)) == 0
            assert index.queries == index.positives == 0

    def test_probe_pack_covers_builtin_indexes(self):
        for kind, cls in (
            ("bloom", BloomEdgeIndex),
            ("exact", ExactEdgeIndex),
            ("none", NullEdgeIndex),
        ):
            index = build_edge_index(GRAPH, kind=kind, seed=5)
            assert type(index) is cls
            assert index.exact is (kind == "exact")

    def test_probe_pack_rejects_unknown_index(self):
        # A third-party index class runs the same path as the built-ins.
        class CustomIndex(ExactEdgeIndex):
            pass

        assert_equivalent(
            ExecutionConfig(),
            reference("PG2", "exact"),
            edge_index=CustomIndex(LISTING_GRAPH),
        )


# ----------------------------------------------------------------------
# End-to-end parity: full listing runs vs the oracle
# ----------------------------------------------------------------------
class TestListingParity:
    @pytest.mark.parametrize("index_kind", INDEX_KINDS)
    @pytest.mark.parametrize(
        "pattern_name", ["PG1", "PG2", "PG3", "PG4", "PG5"]
    )
    def test_native_matches_numpy(self, pattern_name, index_kind):
        assert_equivalent(ExecutionConfig(), reference(pattern_name, index_kind))

    def test_parity_on_columnar_thread_backend(self):
        assert_equivalent(
            ExecutionConfig(backend="thread"), reference("PG3", "bloom")
        )

    def test_unknown_kernel_rejected(self):
        assert_illegal(dict(kernel="fused"), "native tier is retired")


# ----------------------------------------------------------------------
# Hypothesis sweep: random filters, random graphs, random patterns
# ----------------------------------------------------------------------
class TestKernelProperties:
    @settings(deadline=None, max_examples=20)
    @given(
        seed=st.integers(0, 2**16),
        capacity=st.integers(8, 600),
        fp_rate=st.floats(0.01, 0.3),
        n_keys=st.integers(0, 300),
    )
    def test_bloom_kernel_agrees_on_random_filters(
        self, seed, capacity, fp_rate, n_keys
    ):
        rng = np.random.default_rng(seed)
        bloom = BloomFilter(capacity, fp_rate=fp_rate, seed=seed)
        members = rng.integers(0, 1 << 62, size=n_keys, dtype=np.uint64)
        bloom.add_many(members)
        probes = rng.integers(0, 1 << 62, size=256, dtype=np.uint64)
        np.testing.assert_array_equal(
            bloom.might_contain_many(probes), scalar_contains(bloom, probes)
        )

    @settings(deadline=None, max_examples=10)
    @given(
        n=st.integers(8, 28),
        p=st.floats(0.15, 0.5),
        seed=st.integers(0, 2**10),
        pattern_name=st.sampled_from(["PG1", "PG2", "PG3"]),
        index_kind=st.sampled_from(list(INDEX_KINDS)),
    )
    def test_listing_parity_on_random_graphs(
        self, n, p, seed, pattern_name, index_kind
    ):
        graph = erdos_renyi(n, p, seed=seed)
        assert_equivalent(
            ExecutionConfig(),
            reference_run(
                graph, pattern_name, num_workers=3, edge_index=index_kind,
                seed=seed,
            ),
        )
